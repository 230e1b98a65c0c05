"""Frame pairs (analysis operators F, synthesis operators D) over a discrete
sample space, covering both Wigner-type and Kirkwood-Dirac-type constructions.

Conventions used throughout:
    state distribution   mu(lam) = Tr(F_lam rho),   sum_lam F_lam = 1
    effect distribution  xi(lam) = Tr(E D_lam),     Tr(D_lam) = 1
    biorthogonality      Tr(D_lam F_lam') = delta(lam, lam')
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .qudit import (
    VALIDATION_TOL,
    Dimension,
    Operator,
    orthonormal_basis,
    stabilizer_bases,
    weyl_operator,
)

OVERLAP_FLOOR = 1e-8


class DegenerateFrameError(ValueError):
    """Raised when two bases have an overlap too small to invert."""


@dataclass(frozen=True)
class ExactFrame:
    """A biorthogonal frame pair over d^2 sample points.

    analysis:  operators F_lam defining state distributions
    synthesis: operators D_lam defining effect distributions
    descriptor: JSON-able provenance record, e.g. {"kind": "gross"}

    Point k is the pair (i, j) = divmod(k, d): the bases (a_i, b_j) of a
    KD frame, the phase-space point (p, q) of the Gross frame.
    """

    dim: Dimension
    analysis: tuple[Operator, ...]
    synthesis: tuple[Operator, ...]
    descriptor: dict

    def __post_init__(self):
        n = self.dim.d ** 2
        if not (len(self.analysis) == len(self.synthesis) == n):
            raise ValueError(f"frame must have exactly {n} sample points")
        for op in self.analysis + self.synthesis:
            if op.dim != self.dim:
                raise ValueError("frame operators must share the frame dimension")
        for name in ("analysis", "synthesis"):
            stack = np.stack([op.entries for op in getattr(self, name)])
            stack.setflags(write=False)
            object.__setattr__(self, f"_{name}_stack", stack)

    def analysis_stack(self) -> np.ndarray:
        """The analysis operators as one read-only (d^2, d, d) array, the
        same object on every call."""
        return self._analysis_stack

    def synthesis_stack(self) -> np.ndarray:
        """The synthesis operators as one read-only (d^2, d, d) array."""
        return self._synthesis_stack


def kd_frame(
    dim: Dimension,
    basis_a: np.ndarray,
    basis_b: np.ndarray,
    descriptor: Optional[dict] = None,
) -> ExactFrame:
    """Kirkwood-Dirac frame from two orthonormal bases (given as columns).

    F_(i,j) = |b_j><b_j|a_i><a_i|   and   D_(i,j) = |a_i><b_j| / <b_j|a_i>.

    Every pairwise overlap <b_j|a_i> must clear OVERLAP_FLOOR in modulus,
    otherwise the dual blows up and a DegenerateFrameError is raised.
    """
    d = dim.d
    a = orthonormal_basis(dim, basis_a, "A")
    b = orthonormal_basis(dim, basis_b, "B")
    overlaps = b.conj().T @ a  # overlaps[j, i] = <b_j | a_i>
    small = np.abs(overlaps) <= OVERLAP_FLOOR
    if small.any():
        j, i = np.argwhere(small)[0]
        raise DegenerateFrameError(
            f"overlap <b_{j}|a_{i}> has modulus {abs(overlaps[j, i]):.3e} "
            f"<= {OVERLAP_FLOOR:g}"
        )
    analysis = []
    synthesis = []
    for i in range(d):
        for j in range(d):
            # |b_j><b_j|a_i><a_i| collapses to a scaled rank-1 outer product
            f = overlaps[j, i] * np.outer(b[:, j], a[:, i].conj())
            dual = np.outer(a[:, i], b[:, j].conj()) / overlaps[j, i]
            analysis.append(Operator(dim, f, role="generic"))
            synthesis.append(Operator(dim, dual, role="generic"))
    if descriptor is None:
        descriptor = {"kind": "kd"}
    return ExactFrame(dim, tuple(analysis), tuple(synthesis), descriptor)


def phase_point_operators(dim: Dimension) -> tuple[Operator, ...]:
    """Discrete phase-point operators A_lam = W_lam A_0 W_lam^dag.

    A_0 is the average of the phase-space displacements with symmetric
    phases, (1/d) sum_(p,q) w^(-pq/2) Z^p X^q, which works out to the parity
    operator |x> -> |-x mod d>. The symmetric phase is what makes every
    A_lam Hermitian.
    """
    d = dim.d
    points = [(p, q) for p in range(d) for q in range(d)]
    wops = [weyl_operator(dim, p, q).entries for p, q in points]
    phases = [dim.omega ** ((-dim.inv2 * p * q) % d) for p, q in points]
    a0 = sum(ph * w for ph, w in zip(phases, wops)) / d
    return tuple(Operator(dim, w @ a0 @ w.conj().T, role="generic") for w in wops)


def gross_wigner_frame(dim: Dimension) -> ExactFrame:
    """Wigner-type frame from phase-point operators: F = A/d, D = A.

    All frame operators are Hermitian, so state distributions are real.
    """
    points = phase_point_operators(dim)
    analysis = tuple(Operator(dim, op.entries / dim.d, role="generic") for op in points)
    return ExactFrame(dim, analysis, points, {"kind": "gross"})


@lru_cache(maxsize=None)
def _upper(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The strict upper triangle's (rows, cols) for d x d, cached per d and
    read-only, since every caller shares them."""
    upper = np.triu_indices(d, 1)
    for index in upper:
        index.setflags(write=False)
    return upper


@lru_cache(maxsize=None)
def _hermitian_map(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, sign) with H = ((coordinates @ M) * sign) read as complex (d, d).

    M (d^2, 2 d^2) sends each coordinate to the (Re, Im) slots it fills,
    both triangles alike; sign then negates the lower triangle's Im slots,
    which makes an exact zero there -0.0, as conjugation does. Cached per
    d and read-only."""
    d2 = d * d
    m = np.zeros((d2, d, d, 2))
    diag = np.arange(d)
    m[diag, diag, diag, 0] = 1.0
    rows, cols = _upper(d)
    re = d + 2 * np.arange(rows.size)
    for r, c in ((rows, cols), (cols, rows)):
        m[re, r, c, 0] = 1.0
        m[re + 1, r, c, 1] = 1.0
    sign = np.ones((d, d, 2))
    sign[cols, rows, 1] = -1.0
    m, sign = m.reshape(d2, 2 * d2), sign.reshape(2 * d2)
    m.setflags(write=False)
    sign.setflags(write=False)
    return m, sign


def hermitian_from_params(d: int, params: np.ndarray) -> np.ndarray:
    """H (..., d, d) from its d^2 real coordinates (..., d^2): the d
    diagonal entries, then (Re, Im) of each strict upper entry, row-major.
    Frame parameters and the polytope LP's rows share this layout.

    One product with _hermitian_map: each slot of H has one nonzero
    weight, so the result is exact. The parameters must be finite (inf times a zero
    weight is nan); unitary_from_params checks them."""
    m, sign = _hermitian_map(d)
    h = params @ m
    h *= sign
    return h.view(complex).reshape(params.shape[:-1] + (d, d))


def params_from_hermitian(h: np.ndarray) -> np.ndarray:
    """The inverse of hermitian_from_params, over (..., d, d)."""
    rows, cols = _upper(h.shape[-1])
    upper = h[..., rows, cols]
    pairs = np.stack([upper.real, upper.imag], axis=-1).reshape(h.shape[:-2] + (-1,))
    return np.concatenate([np.diagonal(h, axis1=-2, axis2=-1).real, pairs], axis=-1)


def exp_i_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(iH) for Hermitian H (..., d, d), by its eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def unitary_from_params(dim: Dimension, params: np.ndarray) -> Operator:
    """exp(iH) for the H of d^2 real parameters (hermitian_from_params);
    the map covers all of U(d)."""
    params = np.asarray(params, dtype=float).reshape(-1)
    d = dim.d
    if params.size != d * d:
        raise ValueError(f"expected {d * d} parameters, got {params.size}")
    if not np.isfinite(params).all():
        raise ValueError("unitary operator has non-finite entries")
    h = hermitian_from_params(d, params)
    return Operator(dim, exp_i_hermitian(h), role="unitary")


LOG_BRANCH_SLACK = 1e-12


def _log_unitary(u: np.ndarray) -> np.ndarray:
    """Hermitian H with exp(iH) = U and spectrum in (-pi, pi]; an
    eigenvalue within LOG_BRANCH_SLACK of -1 in phase gets pi, as in the
    principal logarithm, whichever side round-off puts it on.

    U is first turned by e^(-i alpha) so that -1 sits in the middle of
    the widest gap between its eigenphases; that gap is at least 2 pi / d,
    so 1 + U' is well conditioned. The Cayley transform
    i (1 + U')^-1 (1 - U') is then Hermitian with U's eigenvectors, and
    maps the eigenvalue e^(i phi) to tan(phi / 2).
    """
    d = u.shape[0]
    phases = np.sort(np.angle(np.linalg.eigvals(u)))
    gaps = np.diff(phases, append=phases[0] + 2.0 * np.pi)
    k = np.argmax(gaps)
    alpha = phases[k] + 0.5 * gaps[k] - np.pi
    turned = np.exp(-1j * alpha) * u
    eye = np.eye(d)
    cayley = 1j * np.linalg.solve(eye + turned, eye - turned)
    t, vecs = np.linalg.eigh(0.5 * (cayley + cayley.conj().T))
    theta = np.mod(alpha + 2.0 * np.arctan(t) + np.pi, 2.0 * np.pi) - np.pi
    theta[theta <= LOG_BRANCH_SLACK - np.pi] += 2.0 * np.pi
    return (vecs * theta) @ vecs.conj().T


def params_from_unitary(u: np.ndarray) -> np.ndarray:
    """Inverse of unitary_from_params for a d x d unitary matrix, up to
    round-off."""
    return params_from_hermitian(_log_unitary(u))


def decode_frame(dim: Dimension, params: np.ndarray) -> ExactFrame:
    """Split a 2 d^2 vector into two unitaries and build their KD frame."""
    params = np.asarray(params, dtype=float).reshape(-1)
    d2 = dim.d ** 2
    if params.size != 2 * d2:
        raise ValueError(f"expected {2 * d2} parameters, got {params.size}")
    u = unitary_from_params(dim, params[:d2]).entries
    v = unitary_from_params(dim, params[d2:]).entries
    return kd_frame(dim, u, v, descriptor={"kind": "parametrized"})


def canonical_mub_frame(dim: Dimension) -> ExactFrame:
    """KD frame over the computational and Fourier bases."""
    comp, fourier = stabilizer_bases(dim)[:2]
    return kd_frame(
        dim,
        comp,
        fourier,
        descriptor={"kind": "kd", "basis_a": "computational", "basis_b": "fourier"},
    )


def validate_frame(frame: ExactFrame) -> dict:
    """Evaluate the four frame axioms and report their maximum residuals.

    Checks: biorthogonality, sum of analysis operators equal to the
    identity, unit synthesis traces, and operator reconstruction
    M = sum_lam Tr(F_lam M) D_lam on a full matrix-unit basis. The fifth
    axiom, d^2 sample points, is enforced by ExactFrame itself.

    Returns a JSON-able dict: "d", the four residuals under the names
    "biorthogonality", "normalization", "synthesis_trace" and
    "reconstruction", "tolerance" (VALIDATION_TOL), and "passed", true when
    every residual is at or below the tolerance.
    """
    d = frame.dim.d
    n = d * d
    fs = frame.analysis_stack()
    ds = frame.synthesis_stack()

    # Tr(D_a F_b) over all pairs
    gram = np.einsum("aij,bji->ab", ds, fs)
    biorth = np.abs(gram - np.eye(n)).max()

    norm_res = np.abs(fs.sum(axis=0) - np.eye(d)).max()
    trace_res = np.abs(np.einsum("aii->a", ds) - 1.0).max()

    # reconstruction of every matrix unit E_xy: coefficient Tr(F_lam E_xy)
    # equals F_lam[y, x], so the rebuilt operator is sum_lam F_lam[y,x] D_lam
    rebuilt = np.einsum("lyx,lij->xyij", fs, ds)
    recon_res = np.abs(rebuilt - np.eye(n).reshape(d, d, d, d)).max()

    residuals = {
        "biorthogonality": float(biorth),
        "normalization": float(norm_res),
        "synthesis_trace": float(trace_res),
        "reconstruction": float(recon_res),
    }
    passed = all(r <= VALIDATION_TOL for r in residuals.values())
    return {"d": d, **residuals, "tolerance": VALIDATION_TOL, "passed": passed}
