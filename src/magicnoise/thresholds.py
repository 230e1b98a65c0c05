"""Decoherence thresholds for magic-state nonclassicality.

Four routes to "how much depolarizing noise makes the state classical":
  wigner_threshold    closed form from the most negative Wigner value
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

from .frames import (
    ExactFrame,
    gross_wigner_frame,
    hermitian_from_params,
    kd_frame,
    params_from_hermitian,
    params_from_unitary,
    validate_frame,
)
from .optimize import OptimizerConfig, minimize_omega
from .qudit import (
    CLASSIFICATION_TOL,
    CONSTRUCTION_TOL,
    Dimension,
    Operator,
    depolarize,  # noqa: F401  (callers reach it as thresholds.depolarize)
    stabilizer_bases,
    stabilizer_states,
)
from .representations import kd_matrix, penalty, represent_state
from .simplex import SimplexError, solve_lp


# The kind of each threshold above, and what kd and crit may be asked to
# classicalize: the only copies of both lists (the CLI's choices read them).
KINDS = ("wigner", "polytope", "kd", "crit")
SCOPES = ("state", "subtheory")


class NoThresholdError(RuntimeError):
    """Raised when no noise level in [0, 1] makes the state classical."""


# How far a polytope LP optimum and its certificates may sit from exact.
LP_ACCURACY = 1e-9
# A p this far outside [0, 1] is round-off and is clamped back.
ROUND_OFF = 1e-12


def _packed(values) -> array:
    """A float vector as an array of C doubles: whoever keeps many results
    holds 8 bytes per value instead of a Python float object. (The slice
    copy is allocated to size; array's frombytes leaves growth room.)"""
    return array("d", np.asarray(values, dtype=float).tobytes())[:]


@dataclass(frozen=True, slots=True)
class ThresholdResult:
    """Outcome of one threshold computation.

    p is the noise threshold, exact up to the method's stated accuracy.
    certificate holds enough data to re-verify the claim from scratch; its
    float vectors are array('d') (np.asarray reads each) and a matrix is a
    tuple of such rows, so a kept result holds 8 bytes per value. The
    witness along the noise line is the `scan` subcommand's table.
    """

    kind: str
    p: float
    certificate: dict
    tol: float

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"threshold must lie in [0, 1], got {self.p}")


@lru_cache(maxsize=None)
def _gross_frame(d: int) -> ExactFrame:
    return gross_wigner_frame(Dimension(d))


def gross_representation_values(rho: Operator) -> np.ndarray:
    """Real Wigner-type distribution values of a state, at the phase-space
    points (p, q) in row-major order."""
    return represent_state(_gross_frame(rho.dim.d), rho).real


def _wigner_closed_form(rho_m: Operator) -> tuple[float, np.ndarray]:
    """(p*, w): the Wigner threshold p* of rho_m in closed form and the
    Wigner values w it comes from. All that wigner_threshold computes
    beyond this is the report; the other thresholds record p* from here.
    """
    d2 = rho_m.dim.d ** 2
    w = gross_representation_values(rho_m)
    w_min = float(w.min())
    if w_min >= -CONSTRUCTION_TOL:
        # round-off-scale negativity counts as non-negative
        p_star = 0.0
    else:
        p_star = d2 * abs(w_min) / (1.0 + d2 * abs(w_min))
    return p_star, w


def wigner_threshold(rho_m: Operator, tol: float = 1e-6) -> ThresholdResult:
    """Noise level where the depolarized state's Wigner distribution turns
    non-negative.

    Every value moves affinely, (1-p) w + p/d^2, so the binding entry is
    the minimum w and the threshold is d^2 |w_min| / (1 + d^2 |w_min|)
    (zero when w_min >= 0; Gross, J. Math. Phys. 47, 122107, 2006). tol is
    recorded in the result for callers that pass a resolution; the closed
    form does not use it.
    """
    _check_state(rho_m)
    _check_tol(tol)
    dim = rho_m.dim
    d2 = dim.d ** 2
    p_star, w = _wigner_closed_form(rho_m)
    rep_at_threshold = (1.0 - p_star) * w + p_star / d2
    certificate = {
        "frame": {"kind": "gross"},
        "w_min": float(w.min()),
        "witness": penalty(rep_at_threshold),
        "representation_re": _packed(rep_at_threshold),
        "negative_points": [
            list(divmod(int(k), dim.d))
            for k in np.flatnonzero(w < -CONSTRUCTION_TOL)
        ],
    }
    return ThresholdResult("wigner", p_star, certificate, tol)


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
        """coefficients as one array('d'); the witness's real and
        imaginary parts as tuples of array('d') rows, so the JSON report
        keeps them nested d x d."""
        return {
            "coefficients": _packed(self.coefficients),
            "residual": self.residual,
            "witness": {
                "re": tuple(map(_packed, self.witness.real)),
                "im": tuple(map(_packed, self.witness.imag)),
            },
        }


@lru_cache(maxsize=None)
def _stabilizer_projectors(d: int) -> np.ndarray:
    """The d(d+1) stabilizer projectors as one read-only stack, per d."""
    projs = np.stack([op.entries for op in stabilizer_states(Dimension(d))])
    projs.setflags(write=False)
    return projs


@lru_cache(maxsize=None)
def _stabilizer_coordinates(d: int) -> np.ndarray:
    return params_from_hermitian(_stabilizer_projectors(d)).T


def _polytope_lp(rho: Operator) -> tuple[float, PolytopeCertificate]:
    """Solve min p s.t. sum_k x_k S_k - p (1/d - rho) = rho, x, p >= 0 on
    the d^2 real coordinates of a Hermitian matrix (params_from_hermitian).

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
        [_stabilizer_coordinates(d), -params_from_hermitian(eye - rho.entries)]
    )
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    lp = solve_lp(cost, a, params_from_hermitian(rho.entries))
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
    # W with y . params_from_hermitian(H) == Tr(W H), which counts H's
    # strict upper coordinates twice, once per triangle
    y = lp.y.copy()
    y[d:] /= 2.0
    w = hermitian_from_params(d, y)
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


def _check_state(rho: Operator) -> None:
    if rho.role != "state":
        raise ValueError(f"thresholds take a state operator, got role {rho.role!r}")


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
    within LP_ACCURACY on this line (CONFIRMED/REFUTED). From any noise
    q < p*, the state still needs (p* - q) / (1 - q) more to enter the
    polytope.
    """
    _check_state(rho_m)
    _check_tol(tol)
    p_star, cert = _polytope_lp(rho_m)
    p_wigner = _wigner_closed_form(rho_m)[0]
    coincide = abs(p_star - p_wigner) <= LP_ACCURACY
    certificate = cert.to_dict()
    certificate.update(
        {
            "p_wigner": p_wigner,
            "coincidence_with_wigner": "CONFIRMED" if coincide else "REFUTED",
        }
    )
    return ThresholdResult("polytope", p_star, certificate, tol)


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
    frame, built from one eigh of rho (validated, and its witness
    rechecked against CLASSIFICATION_TOL, which round-off never reaches).
    The certificate's frame_params encode A and B (params_from_unitary);
    decode_frame rebuilds the certified frame from them to round-off, so
    the claim can be re-verified by re-evaluating. The certificate records
    the Wigner threshold p_wigner alongside.

    scope "subtheory" has no threshold: every frame keeps the witness at
    or above subtheory_floor(d) at every p. One frame search at p = 1,
    where it depends on d alone (minimize_omega), cross-checks that floor,
    and NoThresholdError names both values. config changes nothing (see
    OptimizerConfig).
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    _check_state(rho_m)
    _check_tol(tol)
    dim = rho_m.dim

    if scope == "subtheory":
        floor = subtheory_floor(dim.d)
        _, best = minimize_omega(dim)
        if best < floor:
            raise RuntimeError(
                f"frame search found witness {best!r} below the "
                f"proven floor {floor!r}"
            )
        raise NoThresholdError(
            f"no KD frame classicalizes the stabilizer subtheory at any "
            f"noise: the witness is at least subtheory_floor({dim.d}) = "
            f"{floor:.4f} (best found at p = 1: {best:.4f})"
        )

    _, basis_a = np.linalg.eigh(rho_m.entries)
    basis_b = basis_a @ stabilizer_bases(dim)[1]
    frame = kd_frame(dim, basis_a, basis_b, descriptor={"kind": "parametrized"})
    values = represent_state(frame, rho_m)
    objective = penalty(values)
    report = validate_frame(frame)
    if not report["passed"]:
        raise RuntimeError(f"eigenbasis frame fails validation: residuals {report}")
    if objective > CLASSIFICATION_TOL:
        raise RuntimeError(
            f"eigenbasis certificate has witness {objective:.3e}, above "
            f"classification_tol {CLASSIFICATION_TOL!r}"
        )
    certificate = {
        "frame": {"kind": "parametrized"},
        "frame_params": _packed(
            np.concatenate([params_from_unitary(basis_a), params_from_unitary(basis_b)])
        ),
        "objective": objective,
        "representation": {
            "re": _packed(values.real),
            "im": _packed(values.imag),
        },
        "scope": scope,
        "classification_tol": CLASSIFICATION_TOL,
        "p_wigner": _wigner_closed_form(rho_m)[0],
    }
    return ThresholdResult("kd", 0.0, certificate, tol)


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
    config is accepted and changes nothing (see OptimizerConfig).
    """
    _check_tol(tol)
    try:
        kd = kd_threshold(rho_m, scope=scope, tol=tol)
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
    return ThresholdResult("crit", winner.p, certificate, tol)


def mub_frame_stabilizer_check(dim: Dimension) -> dict:
    """Evaluate every stabilizer state's KD distribution in the
    computational/Fourier frame and report which are classical.

    States drawn from the two defining bases are provably classical; the
    remaining d(d-1) states are checked numerically, a penalty above
    CONSTRUCTION_TOL counting as non-classical, and the overall claim is
    reported as CONFIRMED or REFUTED.
    """
    classification_tol = CONSTRUCTION_TOL
    d = dim.d
    comp, four = stabilizer_bases(dim)[:2]
    per_state = [
        {
            "basis": k // d,
            "index": k % d,
            "penalty": penalty(kd_matrix(op, comp, four)),
            "defining_basis": k < 2 * d,
        }
        for k, op in enumerate(stabilizer_states(dim))
    ]

    def max_penalty(defining: bool) -> float:
        pens = (e["penalty"] for e in per_state if e["defining_basis"] == defining)
        return max(pens, default=0.0)

    classical = all(e["penalty"] <= classification_tol for e in per_state)
    return {
        "per_state": per_state,
        "defining_max_penalty": max_penalty(True),
        "beyond_defining_max_penalty": max_penalty(False),
        "verdict": "CONFIRMED" if classical else "REFUTED",
        "classification_tol": classification_tol,
    }
