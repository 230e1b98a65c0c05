"""Independent oracles and output checks for the benchmark.

Nothing in this file calls magicnoise. The phase-point operators, the
stabilizer projectors, the stabilizer-polytope LP and the KD decoding are
built from NumPy and SciPy alone, so a fault in the program cannot hide
inside its own check. SciPy is imported inside the functions that need it:
the timed part of a run never pays for it.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import io
import json
from functools import lru_cache

import numpy as np

# Agreement demanded between a closed form in the program and the oracle.
EXACT_TOL = 1e-9
# Accuracy of the HiGHS optimum, allowed on top of the bisection's own tol.
LP_TOL = 1e-8
# Entry-wise tolerance on rebuilding a state from a stabilizer decomposition.
REBUILD_TOL = 1e-7
# How far a reported polytope threshold may sit below the LP optimum and
# below the Wigner threshold. The program accepts membership at a rebuild
# residual under 1e-8, so an accepted endpoint can lie about 1e-8 inside
# the infeasible side; this allows ten times that, and nothing for tol.
RESIDUAL_SLACK = 1e-7
# The CLI's default --tol, which the benchmark's invocations keep.
CLI_TOL = 1e-6
# Rows of a default `scan`: 21 noise levels (0 to 1 by 0.05) times 2 frames.
SCAN_ROWS = 42


class OracleError(RuntimeError):
    """Raised when an oracle cannot produce its reference value."""


def _omega(d: int) -> complex:
    return np.exp(2j * np.pi / d)


@lru_cache(maxsize=None)
def phase_point_operators(d: int) -> np.ndarray:
    """The d^2 phase-point operators D P D^dag, with P the parity
    |x> -> |-x mod d> and D = Z^p X^q running over all displacements."""
    shift = np.roll(np.eye(d), 1, axis=0)  # X|x> = |x+1>
    clock = np.diag(_omega(d) ** np.arange(d))  # Z|x> = w^x |x>
    parity = np.zeros((d, d))
    parity[(-np.arange(d)) % d, np.arange(d)] = 1.0
    ops = []
    for p in range(d):
        for q in range(d):
            disp = np.linalg.matrix_power(clock, p) @ np.linalg.matrix_power(shift, q)
            ops.append(disp @ parity @ disp.conj().T)
    return np.array(ops)


def wigner_values(rho: np.ndarray) -> np.ndarray:
    """W(lam) = Tr(A_lam rho) / d, real for a Hermitian rho."""
    d = rho.shape[0]
    return np.einsum("kij,ji->k", phase_point_operators(d), rho).real / d


def wigner_threshold(rho: np.ndarray) -> float:
    """p* = d^2 |w_min| / (1 + d^2 |w_min|), or 0 without negativity."""
    d2 = rho.shape[0] ** 2
    w_min = float(wigner_values(rho).min())
    if w_min >= 0.0:
        return 0.0
    return d2 * abs(w_min) / (1.0 + d2 * abs(w_min))


@lru_cache(maxsize=None)
def stabilizer_bases(d: int) -> tuple[np.ndarray, ...]:
    """The d+1 mutually unbiased stabilizer bases, as column matrices.

    The computational basis comes first, then for a = 0 .. d-1 the basis
    |a,b> = sum_x w^(a x^2 / 2 + b x) |x> / sqrt(d), b = 0 .. d-1, which is
    the eigenbasis of X Z^a (the textbook form for odd prime d). The
    polytope certificate of the program is read in this order.
    """
    inv2 = pow(2, -1, d)
    x = np.arange(d).reshape(-1, 1)
    b = np.arange(d).reshape(1, -1)
    bases = [np.eye(d, dtype=complex)]
    for a in range(d):
        bases.append(_omega(d) ** ((inv2 * a * x * x + b * x) % d) / np.sqrt(d))
    return tuple(bases)


@lru_cache(maxsize=None)
def stabilizer_projectors(d: int) -> np.ndarray:
    """All d(d+1) stabilizer projectors, basis by basis."""
    return np.array(
        [np.outer(v, v.conj()) for basis in stabilizer_bases(d) for v in basis.T]
    )


def depolarized(rho: np.ndarray, p: float) -> np.ndarray:
    d = rho.shape[0]
    return (1.0 - p) * rho + p * np.eye(d) / d


def polytope_threshold(rho: np.ndarray) -> tuple[float, np.ndarray]:
    """One HiGHS solve of

        min p  s.t.  sum_k x_k S_k - p (1/d - rho) = rho,  sum_k x_k = 1,
                     x >= 0,  0 <= p <= 1,

    returning the optimal p and the decomposition x of the depolarized
    state over the stabilizer projectors S_k. HiGHS runs at feasibility
    tolerances of 1e-10: at its default 1e-7 a coefficient can come back
    below -1e-8, which the certificate check rightly refuses.
    """
    from scipy.optimize import linprog

    d = rho.shape[0]
    projs = stabilizer_projectors(d)
    n = projs.shape[0]
    dd = d * d
    shift = np.eye(d) / d - rho
    a_eq = np.zeros((2 * dd + 1, n + 1))
    a_eq[:dd, :n] = projs.reshape(n, -1).real.T
    a_eq[dd : 2 * dd, :n] = projs.reshape(n, -1).imag.T
    a_eq[:dd, n] = -shift.real.ravel()
    a_eq[dd : 2 * dd, n] = -shift.imag.ravel()
    a_eq[-1, :n] = 1.0
    b_eq = np.concatenate([rho.real.ravel(), rho.imag.ravel(), [1.0]])
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    res = linprog(
        cost,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0.0, None)] * n + [(0.0, 1.0)],
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        raise OracleError(f"polytope LP failed: {res.message}")
    return float(res.x[n]), np.asarray(res.x[:n])


def decomposition_problems(coeffs, rho: np.ndarray, p: float) -> list[str]:
    """A stabilizer decomposition must be non-negative, sum to 1 and
    rebuild (1-p) rho + p 1/d."""
    x = np.asarray(coeffs, dtype=float)
    projs = stabilizer_projectors(rho.shape[0])
    if x.shape != (projs.shape[0],):
        return [f"certificate has {x.size} coefficients, expected {projs.shape[0]}"]
    problems = []
    if x.min() < -EXACT_TOL:
        problems.append(f"certificate has a negative coefficient {x.min():.3e}")
    if abs(x.sum() - 1.0) > REBUILD_TOL:
        problems.append(f"certificate sums to {x.sum()!r}, not 1")
    residual = np.abs(np.tensordot(x, projs, axes=1) - depolarized(rho, p)).max()
    if residual > REBUILD_TOL:
        problems.append(f"certificate rebuilds the noisy state only to {residual:.3e}")
    return problems


def unitary_from_params(d: int, params: np.ndarray) -> np.ndarray:
    """exp(iH) by scipy.linalg.expm, with H laid out as d diagonal entries
    followed by (Re, Im) of each strict upper entry in row-major order."""
    from scipy.linalg import expm

    h = np.zeros((d, d), dtype=complex)
    h[np.diag_indices(d)] = params[:d]
    pairs = np.asarray(params[d:]).reshape(-1, 2)
    rows, cols = np.triu_indices(d, 1)
    h[rows, cols] = pairs[:, 0] + 1j * pairs[:, 1]
    h[cols, rows] = pairs[:, 0] - 1j * pairs[:, 1]
    return expm(1j * h)


def kd_distribution(a: np.ndarray, b: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Q[i, j] = <b_j|a_i> <a_i|rho|b_j> for bases given as columns."""
    return (b.conj().T @ a).T * (a.conj().T @ rho @ b)


def penalty(values: np.ndarray) -> float:
    """Distance from the real non-negative orthant: sum |Im| + sum |Re-|."""
    return float(np.abs(values.imag).sum() + np.abs(np.minimum(values.real, 0.0)).sum())


def fourier_basis(d: int) -> np.ndarray:
    x = np.arange(d)
    return _omega(d) ** np.outer(x, x) / np.sqrt(d)


# ----------------------------------------------------------------------
# Checks of program outputs. `ref` holds the oracle values for one input,
# computed once by `reference`.


def reference(op) -> dict:
    """Oracle values for one operation's input state."""
    ref = {"wigner": wigner_threshold(op.rho)}
    if op.needs_lp:
        ref["polytope"], ref["lp_x"] = polytope_threshold(op.rho)
        lp = decomposition_problems(ref["lp_x"], op.rho, ref["polytope"])
        if lp:
            raise OracleError("LP certificate fails its own check: " + "; ".join(lp))
    return ref


def _close(name: str, got: float, want: float, tol: float = EXACT_TOL) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{name} = {got!r}, oracle gives {want!r}"]
    return []


def _polytope_p_problems(p: float, ref: dict, tol: float) -> list[str]:
    """A bisection at resolution tol returns the endpoint where membership
    was accepted, so it lands at most tol above the LP optimum. Below the
    optimum, and below the Wigner threshold, only RESIDUAL_SLACK is
    allowed."""
    problems = []
    lp = ref["polytope"]
    if not (lp - RESIDUAL_SLACK <= p <= lp + tol + LP_TOL):
        problems.append(f"polytope p = {p!r}, LP oracle gives {lp!r} (tol {tol:g})")
    if ref["wigner"] > p + RESIDUAL_SLACK:
        problems.append(f"wigner {ref['wigner']!r} exceeds polytope {p!r}")
    return problems


def check_polytope(op, result, ref: dict) -> list[str]:
    problems = _polytope_p_problems(result.p, ref, result.tol)
    cert = result.certificate
    problems += _close("certificate p_wigner", cert["p_wigner"], ref["wigner"])
    problems += decomposition_problems(cert["coefficients"], op.rho, result.p)
    return problems


def check_kd(op, result, ref: dict) -> list[str]:
    problems = []
    tol = result.tol
    if not (0.0 <= result.p <= tol):
        problems.append(f"state-scope KD threshold {result.p!r} is outside [0, {tol:g}]")
    if result.p > ref["wigner"] + tol:
        problems.append(f"kd {result.p!r} exceeds wigner {ref['wigner']!r} + tol")
    cert = result.certificate
    params = np.asarray(cert["frame_params"], dtype=float)
    d = op.rho.shape[0]
    if params.shape != (2 * d * d,):
        return problems + [f"KD certificate has {params.size} parameters"]
    a = unitary_from_params(d, params[: d * d])
    b = unitary_from_params(d, params[d * d :])
    q = kd_distribution(a, b, depolarized(op.rho, result.p))
    pen = penalty(q)
    if pen > cert["classification_tol"]:
        problems.append(
            f"KD certificate penalty {pen:.3e} exceeds {cert['classification_tol']:g}"
        )
    rep = np.asarray(cert["representation"]["re"]) + 1j * np.asarray(
        cert["representation"]["im"]
    )
    if rep.shape != (d * d,) or np.abs(rep - q.ravel()).max() > EXACT_TOL:
        problems.append("KD certificate representation does not match its frame")
    return problems


def check_crit(op, result, ref: dict) -> list[str]:
    problems = []
    if result.p > ref["wigner"] + EXACT_TOL:
        problems.append(f"crit {result.p!r} exceeds wigner {ref['wigner']!r}")
    gross = result.certificate["per_family"].get("gross")
    if gross is None:
        problems.append("crit reports no gross-family threshold")
    else:
        problems += _close("crit per_family['gross']", gross, ref["wigner"])
    return problems


def _csv_preamble(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            out[key] = value
    return out


def check_cli(op, outcome, ref: dict) -> list[str]:
    """outcome is (exit code, stdout bytes) of one CLI invocation."""
    code, out = outcome
    if code != 0:
        return [f"exit code {code}"]
    text = out.decode()
    command = op.argv[0]
    fmt = op.argv[op.argv.index("--format") + 1] if "--format" in op.argv else None
    if command == "validate":
        doc = json.loads(text)
        if doc["result"]["passed"] is not True:
            return ["built-in frame failed validation"]
        return []
    if command == "scan":
        return _scan_problems(op, text)
    method = op.argv[op.argv.index("--method") + 1]
    if fmt == "json":
        res = json.loads(text)["result"]
        kind, p = res["kind"], res["p"]
    else:
        pre = _csv_preamble(text)
        kind, p, res = pre.get("kind"), float(pre.get("p", "nan")), None
    if kind != method:
        return [f"reported kind {kind!r}, asked for {method!r}"]
    if method == "wigner":
        return _close("CLI wigner p", p, ref["wigner"])
    problems = _polytope_p_problems(p, ref, CLI_TOL)
    if res is not None:
        problems += decomposition_problems(res["certificate"]["coefficients"], op.rho, p)
    return problems


def _scan_problems(op, text: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO("\n".join(
        line for line in text.splitlines() if not line.startswith("#")
    ))))
    d = op.rho.shape[0]
    w = wigner_values(op.rho)
    comp, four = np.eye(d), fourier_basis(d)
    problems = []
    frames = {row["frame"] for row in rows}
    if frames != {"gross", "kd-mub"} or len(rows) != SCAN_ROWS:
        return [f"scan returned {len(rows)} rows over frames {sorted(frames)}"]
    for row in rows:
        p = float(row["p"])
        if row["frame"] == "gross":
            values = (1.0 - p) * w + p / (d * d) + 0j
        else:
            values = kd_distribution(comp, four, depolarized(op.rho, p))
        problems += _close(f"scan witness at p={p} ({row['frame']})", float(row["witness"]), penalty(values))
        problems += _close(f"scan min_real at p={p} ({row['frame']})", float(row["min_real"]), float(values.real.min()))
    return problems


CHECKS = {"polytope": check_polytope, "kd": check_kd, "crit": check_crit, "cli": check_cli}


def check(op, result, ref: dict) -> list[str]:
    """Problems with one operation's output against its oracle values."""
    try:
        return CHECKS[op.method](op, result, ref)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
