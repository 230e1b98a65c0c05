"""Decoherence thresholds for magic-state nonclassicality.

Four routes to "how much depolarizing noise makes the state classical":
  wigner_threshold    closed form from the most negative Wigner value,
                      checked against a grid in O(d^2) operations
  polytope_threshold  one exact LP against the stabilizer polytope, with a
                      decomposition and a separating witness as certificate
  kd_threshold        Kirkwood-Dirac: exactly 0 in scope "state", certified
                      by the state's eigenbasis frame; none in scope
                      "subtheory", where every KD frame keeps the witness
                      at or above subtheory_floor(d) at every noise level
  crit_threshold      minimum over the frame families gross and kd
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .frames import ExactFrame, gross_wigner_frame, validate_frame
from .optimize import (
    NoThresholdError,
    OptimizerConfig,
    _eigenbasis_frame_params,
    _upper,
    decode_frame,
    minimize_omega,
)
from .qudit import (
    DEFAULT_TOLERANCES,
    Dimension,
    Operator,
    depolarize,  # noqa: F401  (callers reach it as thresholds.depolarize)
    stabilizer_states,
)
from .representations import kd_matrix, penalty, represent_state
from .simplex import SimplexError, solve_lp

# How far a polytope LP optimum and its certificates may sit from exact.
LP_ACCURACY = 1e-9
# A p this far outside [0, 1] is round-off and is clamped back.
ROUND_OFF = 1e-12
# Wigner values down to -GRID_FLOOR count as non-negative in the grid check.
GRID_FLOOR = 1e-12
# How far the KD threshold may exceed the Wigner one before POTENTIAL_GAP.
GAP_TOLERANCE = 1e-4


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of one threshold computation.

    p is the noise threshold, exact up to the method's stated accuracy.
    certificate holds enough data to re-verify the claim from scratch; scan
    records (noise, witness) pairs along the noise line.
    """

    kind: str
    p: float
    certificate: dict
    scan: tuple
    tol: float

    def __post_init__(self):
        if self.kind not in ("wigner", "polytope", "kd", "crit"):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"threshold must lie in [0, 1], got {self.p}")


@lru_cache(maxsize=None)
def _gross_frame(d: int) -> ExactFrame:
    return gross_wigner_frame(Dimension(d))


def gross_representation_values(rho: Operator) -> np.ndarray:
    """Real Wigner-type distribution values of a state (order: row-major
    phase-space labels)."""
    vals = represent_state(_gross_frame(rho.dim.d), rho).flat()
    if np.abs(vals.imag).max() > DEFAULT_TOLERANCES.validation:
        raise RuntimeError("Wigner values came out complex; frame is broken")
    return vals.real.copy()


def _negative_part(values: np.ndarray) -> float:
    return float(np.abs(np.minimum(0.0, values)).sum())


# The noise levels 0, 0.05, ..., 1 that every trace samples.
_TRACE_GRID = np.linspace(0.0, 1.0, 21)
_TRACE_GRID.setflags(write=False)


def _trace_points(p_star: float) -> np.ndarray:
    """The 21 noise levels 0, 0.05, ..., 1 with the threshold merged in
    (not by np.unique, whose first call imports numpy.ma)."""
    grid = _TRACE_GRID
    k = int(np.searchsorted(grid, p_star))
    if k < grid.size and grid[k] == p_star:
        return grid
    return np.concatenate((grid[:k], [p_star], grid[k:]))


def _wigner_scan(w: np.ndarray, d2: int, p_star: float) -> tuple:
    """(p, negative part of (1-p) w + p/d^2) at each trace point, all
    points in one array pass."""
    points = _trace_points(p_star)
    p = points[:, None]
    negative = np.abs(np.minimum(0.0, (1.0 - p) * w + p / d2)).sum(axis=1)
    return tuple(zip(points.tolist(), negative.tolist()))


def _polytope_scan(p_star: float) -> tuple:
    """(q, max(0, (p* - q) / (1 - q))) at each trace point q, 0 at q = 1:
    the noise the polytope LP optimum still asks for after q."""
    q = _trace_points(p_star)
    below = q < 1.0
    need = np.zeros(q.size)
    need[below] = np.maximum(0.0, (p_star - q[below]) / (1.0 - q[below]))
    return tuple(zip(q.tolist(), need.tolist()))


def _grid_check(w: np.ndarray, d2: int, p_star: float, scan_step: float) -> float:
    """First point of np.linspace(0, 1, steps + 1), steps = 1/scan_step,
    where every value (1-p) w + p/d^2 is at least -GRID_FLOOR, checked
    against the closed form p_star.

    The minimum over the values is concave in p and positive at p = 1, so
    the passing points are a tail of the grid. The entry w_min crosses
    -GRID_FLOOR at a, so the tail starts at k = ceil(a steps) when point k
    passes and point k-1 fails; should round-off move k, a bisection over
    the rest of the grid finds the start. Points are evaluated with
    linspace's own arithmetic, k * (1/steps), so the result is the one a
    scan of the whole grid would give, without allocating it. The floor
    lets the grid pass up to GRID_FLOOR * d^2 before p_star, which the
    comparison allows for.
    """
    if not (0.0 < scan_step <= 1.0 and math.isfinite(1.0 / scan_step)):
        raise ValueError(f"scan step must lie in (0, 1], got {scan_step}")
    steps = int(round(1.0 / scan_step))

    def point(k: int) -> float:
        return 1.0 if k == steps else k * (1.0 / steps)

    def passes(k: int) -> bool:
        p = point(k)
        return bool(((1.0 - p) * w + p / d2).min() >= -GRID_FLOOR)

    w_min = float(w.min())
    a = 0.0 if w_min >= -GRID_FLOOR else (-GRID_FLOOR - w_min) / (1.0 / d2 - w_min)
    k = min(math.ceil(a * steps), steps)
    lo, hi = -1, steps  # lo fails (or is -1), hi passes: p = 1 always does
    for probe in (k, k - 1):
        if lo < probe < hi:
            lo, hi = (lo, probe) if passes(probe) else (probe, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    p_grid = point(hi)
    if not -(scan_step + GRID_FLOOR * d2) <= p_grid - p_star <= scan_step + 1e-9:
        raise RuntimeError(f"closed form {p_star} disagrees with grid scan {p_grid}")
    return p_grid


def _wigner_closed_form(
    rho_m: Operator, scan_step: float = 1e-6
) -> tuple[float, np.ndarray, float]:
    """(p*, w, p_grid): the Wigner threshold p* of rho_m in closed form,
    the Wigner values w it comes from, and the first passing point of the
    grid check that confirms it. All that wigner_threshold computes beyond
    this is the report; the other thresholds record p* from here.
    """
    d2 = rho_m.dim.d ** 2
    w = gross_representation_values(rho_m)
    w_min = float(w.min())
    if w_min >= -DEFAULT_TOLERANCES.construction:
        # round-off-scale negativity counts as non-negative
        p_star = 0.0
    else:
        p_star = d2 * abs(w_min) / (1.0 + d2 * abs(w_min))
    return p_star, w, _grid_check(w, d2, p_star, scan_step)


def wigner_threshold(rho_m: Operator, scan_step: float = 1e-6) -> ThresholdResult:
    """Noise level where the depolarized state's Wigner distribution turns
    non-negative.

    Every value moves affinely, (1-p) w + p/d^2, so the binding entry is
    the minimum w and the threshold is d^2 |w_min| / (1 + d^2 |w_min|)
    (zero when w_min >= 0). The closed form is cross-checked against the
    first non-negative point of the grid of step scan_step (_grid_check).
    """
    dim = rho_m.dim
    d2 = dim.d ** 2
    p_star, w, p_grid = _wigner_closed_form(rho_m, scan_step)
    rep_at_threshold = (1.0 - p_star) * w + p_star / d2
    labels = [(k // dim.d, k % dim.d) for k in range(d2)]
    certificate = {
        "frame": {"kind": "gross"},
        "w_min": float(w.min()),
        "witness": _negative_part(rep_at_threshold),
        "representation_re": rep_at_threshold.tolist(),
        "negative_points": [
            list(labels[k])
            for k in np.flatnonzero(w < -DEFAULT_TOLERANCES.construction)
        ],
        "grid_check": p_grid,
    }
    scan = _wigner_scan(w, d2, p_star)
    return ThresholdResult("wigner", p_star, certificate, scan, scan_step)


@dataclass(frozen=True)
class PolytopeCertificate:
    """Both sides of the polytope threshold p* of a state rho.

    coefficients: a convex decomposition of (1-p*) rho + p* 1/d over the
    stabilizer projectors S_k (membership at p*), rebuilt within residual.
    witness: a Hermitian W with Tr(W S_k) <= 0 for every k and
    Tr(W rho) = p*, so Tr(W rho_q) >= p* - q > 0 separates every
    rho_q = (1-q) rho + q 1/d with q < p* from the polytope.
    """

    coefficients: np.ndarray
    residual: float
    witness: np.ndarray

    def __post_init__(self):
        for name, dtype in (("coefficients", float), ("witness", complex)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def to_dict(self) -> dict:
        return {
            "coefficients": self.coefficients.tolist(),
            "residual": self.residual,
            "witness": {
                "re": self.witness.real.tolist(),
                "im": self.witness.imag.tolist(),
            },
        }


@lru_cache(maxsize=None)
def _stabilizer_projectors(d: int) -> np.ndarray:
    stab = stabilizer_states(Dimension(d))
    return np.stack([op.entries for op in stab.states])


def _coordinates(h: np.ndarray) -> np.ndarray:
    """The d^2 real coordinates of Hermitian matrices (..., d, d): the
    diagonal, then Re and Im of the strict upper triangle (row-major)."""
    rows, cols = _upper(h.shape[-1])
    upper = h[..., rows, cols]
    diag = np.diagonal(h, axis1=-2, axis2=-1).real
    return np.concatenate([diag, upper.real, upper.imag], axis=-1)


def _hermitian(y: np.ndarray, d: int) -> np.ndarray:
    """The W with y . _coordinates(H) == Tr(W H) for every Hermitian H."""
    rows, cols = _upper(d)
    k = rows.size
    w = np.diag(y[:d]).astype(complex)
    w[rows, cols] = (y[d : d + k] + 1j * y[d + k :]) / 2.0
    w[cols, rows] = w[rows, cols].conj()
    return w


@lru_cache(maxsize=None)
def _stabilizer_coordinates(d: int) -> np.ndarray:
    return _coordinates(_stabilizer_projectors(d)).T


def _polytope_lp(rho: Operator) -> tuple[float, PolytopeCertificate]:
    """Solve min p s.t. sum_k x_k S_k - p (1/d - rho) = rho, x, p >= 0 on
    the d^2 real coordinates of a Hermitian matrix.

    The projectors span the Hermitian matrices, so the rows are
    independent; the trace row gives sum_k x_k = 1, and p = 1 is always
    feasible, so p <= 1 never binds. Both certificates are checked against
    the matrices themselves before returning.
    """
    d = rho.dim.d
    eye = np.eye(d) / d
    projs = _stabilizer_projectors(d)
    n = len(projs)
    a = np.column_stack(
        [_stabilizer_coordinates(d), -_coordinates(eye - rho.entries)]
    )
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    lp = solve_lp(cost, a, _coordinates(rho.entries))
    p = lp.x[n]
    if abs(p) <= ROUND_OFF:
        p = 0.0  # so that p == 0 exactly when rho is in the polytope
    elif 1.0 < p <= 1.0 + ROUND_OFF:
        p = 1.0
    x = lp.x[:n]
    target = (1.0 - p) * rho.entries + p * eye
    residual = max(
        float(np.abs(np.tensordot(x, projs, axes=1) - target).max()),
        abs(float(x.sum()) - 1.0),
    )
    w = _hermitian(lp.y, d)
    on_stabilizers = float(np.einsum("kij,ji->k", projs, w).real.max())
    on_state = float(np.trace(w @ rho.entries).real)
    if not (
        0.0 <= p <= 1.0
        and residual <= LP_ACCURACY
        and on_stabilizers <= LP_ACCURACY
        and abs(on_state - p) <= LP_ACCURACY
    ):
        raise SimplexError(
            f"polytope LP certificate fails its check: p={p!r}, rebuild "
            f"residual {residual:.3e}, max Tr(W S_k) {on_stabilizers:.3e}, "
            f"Tr(W rho) {on_state!r}"
        )
    return float(p), PolytopeCertificate(x, residual, w)


def stabilizer_polytope_membership(rho: Operator) -> Optional[PolytopeCertificate]:
    """Certificate of membership in the stabilizer polytope, or None.

    rho is a member iff the polytope LP needs no noise (p* == 0 once
    round-off up to ROUND_OFF is snapped); the coefficients of the
    certificate then rebuild rho.
    """
    p, cert = _polytope_lp(rho)
    return cert if p == 0.0 else None


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tol):
        raise ValueError(f"tolerance must be finite, got {tol!r}")


def polytope_threshold(rho_m: Operator, tol: float = 1e-6) -> ThresholdResult:
    """Smallest noise level putting the depolarized state inside the
    stabilizer polytope: one exact LP with a certificate on both sides
    (see PolytopeCertificate).

    tol is recorded in the result for callers that pass a resolution; the
    LP optimum is exact to LP_ACCURACY, far inside it. The certificate also
    records the Wigner threshold and whether the two boundaries coincide
    within LP_ACCURACY on this line (CONFIRMED/REFUTED). The scan holds the
    noise the LP optimum still asks for at each trace point q,
    max(0, (p* - q) / (1 - q)), which is zero exactly from p* on.
    """
    _check_tol(tol)
    p_star, cert = _polytope_lp(rho_m)
    p_wigner = _wigner_closed_form(rho_m)[0]
    coincide = abs(p_star - p_wigner) <= LP_ACCURACY
    certificate = cert.to_dict()
    certificate.update(
        {
            "noise": p_star,
            "p_wigner": p_wigner,
            "coincidence_with_wigner": "CONFIRMED" if coincide else "REFUTED",
        }
    )
    return ThresholdResult("polytope", p_star, certificate, _polytope_scan(p_star), tol)


def _packed(values: np.ndarray) -> array:
    """A float vector as an array of C doubles: whoever keeps many KD
    results holds 8 bytes per value instead of a Python float object."""
    return array("d", np.asarray(values, dtype=float).tobytes())


def subtheory_floor(d: int) -> float:
    """nu_d = sqrt((d-1) / (2 d (d+1))), below which no Kirkwood-Dirac
    frame brings the subtheory witness at any noise level.

    Take any KD frame over orthonormal bases {a_i}, {b_j}. For fixed i,
    sum_j |<b_j|a_i>|^2 = 1, so some overlap c = <b_j|a_i> has
    |c|^2 <= 1/d. Its dual D = |a_i><b_j| / c satisfies D^2 = D, so
    Tr D^2 = Tr D = 1 and ||D||_F^2 = 1/|c|^2. The Hermitian
    K = (D - D^dag) / 2i gives Im Tr(E D) = Tr(E K) for every Hermitian
    effect E, and has Tr K = Im Tr D = 0 and
    ||K||_F^2 = (2 ||D||_F^2 - 2 Re Tr D^2) / 4 = (1/|c|^2 - 1) / 2
    >= (d-1) / 2.

    The d(d+1) stabilizer projectors Pi_k form the d+1 mutually unbiased
    bases of an odd prime d, a complex projective 2-design (Klappenecker
    and Roetteler, 2005): sum_k Pi_k (x) Pi_k = 1 + SWAP. Hence
    sum_k Tr(Pi_k K)^2 = (Tr K)^2 + Tr K^2 = ||K||_F^2 >= (d-1) / 2, and
    the largest of the d(d+1) terms is at least the mean,
    (d-1) / (2 d (d+1)). Some stabilizer effect Pi_k, an effect of every
    standard_operational_set, therefore has |Im xi_k(i, j)| >= nu_d,
    whatever the frame and whatever p, and the subtheory witness, which
    sums |Im xi| over the sample points, is at least as large.
    """
    return math.sqrt((d - 1) / (2.0 * d * (d + 1)))


def kd_threshold(
    rho_m: Operator,
    config: Optional[OptimizerConfig] = None,
    scope: str = "state",
    tol: float = 1e-6,
) -> ThresholdResult:
    """Noise level where some Kirkwood-Dirac frame represents the probed
    operations classically.

    scope "state" needs no noise at all: with A the eigenbasis of rho and
    B = A F (F the Fourier gate), Q_ij = lambda_i |<a_i|b_j>|^2 =
    lambda_i / d >= 0, so the threshold is exactly 0, certified by that
    frame (validated, and its witness rechecked against
    DEFAULT_TOLERANCES.classification, which round-off never reaches);
    config is not used. The certificate stores the frame's parameters so
    the claim can be re-verified by decoding and re-evaluating. The result
    also reports how p compares with the Wigner threshold: either the
    expected ordering holds within GAP_TOLERANCE or a POTENTIAL_GAP
    diagnostic is emitted (never both).

    scope "subtheory" has no threshold: every frame keeps the witness at
    or above subtheory_floor(d) at every p. One frame search at p = 1
    cross-checks that floor, and NoThresholdError names both values.
    """
    if scope not in ("state", "subtheory"):
        raise ValueError("scope must be 'state' or 'subtheory'")
    _check_tol(tol)
    dim = rho_m.dim

    if scope == "subtheory":
        floor = subtheory_floor(dim.d)
        best = minimize_omega(1.0, rho_m, config or OptimizerConfig())
        if best.objective < floor:
            raise RuntimeError(
                f"frame search found witness {best.objective!r} below the "
                f"proven floor {floor!r}"
            )
        raise NoThresholdError(
            f"no KD frame classicalizes the stabilizer subtheory at any "
            f"noise: the witness is at least subtheory_floor({dim.d}) = "
            f"{floor:.4f} (best found at p = 1: {best.objective:.4f})"
        )

    p_hat = 0.0
    params = _eigenbasis_frame_params(rho_m)
    frame = decode_frame(dim, params)
    dist = represent_state(frame, rho_m)
    objective = penalty(dist)
    report = validate_frame(frame)
    if not report.passed:
        raise RuntimeError(
            f"eigenbasis frame fails validation: residuals {report.to_dict()}"
        )
    classification_tol = DEFAULT_TOLERANCES.classification
    if objective > classification_tol:
        raise RuntimeError(
            f"eigenbasis certificate has witness {objective:.3e}, above "
            f"classification_tol {classification_tol!r}"
        )
    p_wigner = _wigner_closed_form(rho_m)[0]

    ordering_ok = p_hat <= p_wigner + GAP_TOLERANCE
    diagnostics = [] if ordering_ok else ["POTENTIAL_GAP"]
    certificate = {
        "frame": {"kind": "parametrized"},
        "frame_params": _packed(params),
        "objective": objective,
        "witness_recheck": objective,
        "representation": {
            "re": _packed(dist.flat().real),
            "im": _packed(dist.flat().imag),
        },
        "scope": scope,
        "classification_tol": classification_tol,
        "p_wigner": p_wigner,
        "gap_tolerance": GAP_TOLERANCE,
        "ordering_satisfied": ordering_ok,
        "diagnostics": diagnostics,
    }
    return ThresholdResult("kd", p_hat, certificate, ((p_hat, objective),), tol)


def crit_threshold(
    rho_m: Operator,
    config: Optional[OptimizerConfig] = None,
    scope: str = "state",
    tol: float = 1e-6,
) -> ThresholdResult:
    """Minimum threshold over the frame families "gross", the Wigner
    threshold, and "kd", kd_threshold in the given scope; a tie goes to
    gross.

    In scope "state" the KD family wins with its exact 0, and gross is the
    p_wigner its certificate records; in scope "subtheory" KD has no
    threshold (see subtheory_floor), so the result is the Wigner threshold.
    """
    _check_tol(tol)
    try:
        kd = kd_threshold(rho_m, config=config, scope=scope, tol=tol)
    except NoThresholdError:
        kd = None
    if kd is not None and kd.p < kd.certificate["p_wigner"]:
        family, winner, gross = "kd", kd, kd.certificate["p_wigner"]
    else:
        family, winner = "gross", wigner_threshold(rho_m)
        gross = winner.p
    certificate = {
        "family": family,
        "per_family": {"gross": gross, "kd": None if kd is None else kd.p},
        "winner": winner.certificate,
    }
    return ThresholdResult("crit", winner.p, certificate, winner.scan, tol)


def mub_frame_stabilizer_check(
    dim: Dimension, classification_tol: float = 1e-12
) -> dict:
    """Evaluate every stabilizer state's KD distribution in the
    computational/Fourier frame and report which are classical.

    States drawn from the two defining bases are provably classical; the
    remaining d(d-1) states are checked numerically and the overall claim
    is reported as CONFIRMED or REFUTED.
    """
    stab = stabilizer_states(dim)
    comp = stab.basis_vectors[0]
    four = stab.basis_vectors[1]
    per_state = []
    defining_max = 0.0
    beyond_max = 0.0
    all_classical = True
    for k, group in enumerate(stab.groups):
        for b, op in enumerate(group):
            pen = penalty(kd_matrix(op, comp, four))
            defining = k in (0, 1)
            per_state.append(
                {
                    "basis": k,
                    "index": b,
                    "penalty": pen,
                    "defining_basis": defining,
                }
            )
            if defining:
                defining_max = max(defining_max, pen)
            else:
                beyond_max = max(beyond_max, pen)
            if pen > classification_tol:
                all_classical = False
    return {
        "per_state": per_state,
        "defining_max_penalty": defining_max,
        "beyond_defining_max_penalty": beyond_max,
        "verdict": "CONFIRMED" if all_classical else "REFUTED",
        "classification_tol": classification_tol,
    }
