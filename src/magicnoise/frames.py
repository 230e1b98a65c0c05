"""Frame pairs (analysis operators F, synthesis operators D) over a discrete
sample space, covering both Wigner-type and Kirkwood-Dirac-type constructions.

Conventions used throughout:
    state distribution   mu(lam) = Tr(F_lam rho),   sum_lam F_lam = 1
    effect distribution  xi(lam) = Tr(E D_lam),     Tr(D_lam) = 1
    biorthogonality      Tr(D_lam F_lam') = delta(lam, lam')
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .qudit import (
    DEFAULT_TOLERANCES,
    Dimension,
    Operator,
    WeylIndex,
    computational_basis,
    fourier_basis,
    weyl_operator,
)

OVERLAP_FLOOR = 1e-8


class DegenerateFrameError(ValueError):
    """Raised when two bases have an overlap too small to invert."""


@dataclass(frozen=True)
class ExactFrame:
    """A biorthogonal frame pair over d^2 sample points.

    labels:    hashable point labels, length d^2
    analysis:  operators F_lam defining state distributions
    synthesis: operators D_lam defining effect distributions
    descriptor: JSON-able provenance record, e.g. {"kind": "gross"}
    """

    dim: Dimension
    labels: tuple
    analysis: tuple[Operator, ...]
    synthesis: tuple[Operator, ...]
    descriptor: dict

    def __post_init__(self):
        n = self.dim.d ** 2
        if not (len(self.labels) == len(self.analysis) == len(self.synthesis) == n):
            raise ValueError(f"frame must have exactly {n} sample points")
        for op in self.analysis + self.synthesis:
            if op.dim != self.dim:
                raise ValueError("frame operators must share the frame dimension")

    def analysis_stack(self) -> np.ndarray:
        return np.stack([op.entries for op in self.analysis])

    def synthesis_stack(self) -> np.ndarray:
        return np.stack([op.entries for op in self.synthesis])


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
    a = np.asarray(basis_a, dtype=complex)
    b = np.asarray(basis_b, dtype=complex)
    for name, mat in (("A", a), ("B", b)):
        if mat.shape != (d, d):
            raise ValueError(f"basis {name} must be a {d}x{d} column matrix")
        if np.abs(mat.conj().T @ mat - np.eye(d)).max() > DEFAULT_TOLERANCES.validation:
            raise ValueError(f"basis {name} is not orthonormal")
    overlaps = b.conj().T @ a  # overlaps[j, i] = <b_j | a_i>
    small = np.abs(overlaps) <= OVERLAP_FLOOR
    if small.any():
        j, i = np.argwhere(small)[0]
        raise DegenerateFrameError(
            f"overlap <b_{j}|a_{i}> has modulus {abs(overlaps[j, i]):.3e} "
            f"<= {OVERLAP_FLOOR:g}"
        )
    labels = []
    analysis = []
    synthesis = []
    for i in range(d):
        for j in range(d):
            # |b_j><b_j|a_i><a_i| collapses to a scaled rank-1 outer product
            f = overlaps[j, i] * np.outer(b[:, j], a[:, i].conj())
            dual = np.outer(a[:, i], b[:, j].conj()) / overlaps[j, i]
            labels.append((i, j))
            analysis.append(Operator(dim, f, role="generic"))
            synthesis.append(Operator(dim, dual, role="generic"))
    if descriptor is None:
        descriptor = {"kind": "kd"}
    return ExactFrame(dim, tuple(labels), tuple(analysis), tuple(synthesis), descriptor)


def phase_point_operators(dim: Dimension) -> tuple[Operator, ...]:
    """Discrete phase-point operators A_lam = W_lam A_0 W_lam^dag.

    A_0 is the average of the phase-space displacements with symmetric
    phases, (1/d) sum_(p,q) w^(-pq/2) Z^p X^q, which works out to the parity
    operator |x> -> |-x mod d>. The symmetric phase is what makes every
    A_lam Hermitian.
    """
    d = dim.d
    a0 = np.zeros((d, d), dtype=complex)
    for p in range(d):
        for q in range(d):
            ph = dim.omega ** ((-dim.inv2 * p * q) % d)
            a0 += ph * weyl_operator(dim, WeylIndex(p, q)).entries
    a0 /= d
    out = []
    for p in range(d):
        for q in range(d):
            wop = weyl_operator(dim, WeylIndex(p, q)).entries
            out.append(Operator(dim, wop @ a0 @ wop.conj().T, role="generic"))
    return tuple(out)


def gross_wigner_frame(dim: Dimension) -> ExactFrame:
    """Wigner-type frame from phase-point operators: F = A/d, D = A.

    All frame operators are Hermitian, so state distributions are real.
    """
    points = phase_point_operators(dim)
    d = dim.d
    labels = tuple((p, q) for p in range(d) for q in range(d))
    analysis = tuple(Operator(dim, op.entries / d, role="generic") for op in points)
    return ExactFrame(dim, labels, analysis, points, {"kind": "gross"})


def frame_from_unitaries(u: Operator, v: Operator) -> ExactFrame:
    """KD frame whose bases are the columns of two unitaries.

    The descriptor records both unitaries so the frame can be rebuilt
    exactly from serialized output.
    """
    if u.dim != v.dim:
        raise ValueError("unitaries must share a dimension")
    descriptor = {
        "kind": "parametrized",
        "u_re": u.entries.real.tolist(),
        "u_im": u.entries.imag.tolist(),
        "v_re": v.entries.real.tolist(),
        "v_im": v.entries.imag.tolist(),
    }
    return kd_frame(u.dim, u.entries, v.entries, descriptor=descriptor)


def canonical_mub_frame(dim: Dimension) -> ExactFrame:
    """KD frame over the computational and Fourier bases."""
    return kd_frame(
        dim,
        computational_basis(dim),
        fourier_basis(dim),
        descriptor={"kind": "kd", "basis_a": "computational", "basis_b": "fourier"},
    )


@dataclass(frozen=True)
class FrameValidationReport:
    """Residuals for the five frame axioms; a frame passes when each residual
    sits below the validation tolerance."""

    dim: int
    size_ok: bool
    biorthogonality: float
    normalization: float
    synthesis_trace: float
    reconstruction: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.size_ok and all(
            r <= self.tolerance
            for r in (
                self.biorthogonality,
                self.normalization,
                self.synthesis_trace,
                self.reconstruction,
            )
        )

    def to_dict(self) -> dict:
        return {
            "d": self.dim,
            "size_ok": self.size_ok,
            "biorthogonality": self.biorthogonality,
            "normalization": self.normalization,
            "synthesis_trace": self.synthesis_trace,
            "reconstruction": self.reconstruction,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def validate_frame(frame: ExactFrame) -> FrameValidationReport:
    """Evaluate all five frame axioms and report maximum residuals.

    Checks: sample-space size d^2, biorthogonality, sum of analysis
    operators equal to the identity, unit synthesis traces, and operator
    reconstruction M = sum_lam Tr(F_lam M) D_lam on a full matrix-unit basis.
    """
    d = frame.dim.d
    n = d * d
    fs = frame.analysis_stack()
    ds = frame.synthesis_stack()
    size_ok = len(frame.labels) == n and fs.shape[0] == n and ds.shape[0] == n

    # Tr(D_a F_b) over all pairs
    gram = np.einsum("aij,bji->ab", ds, fs)
    biorth = np.abs(gram - np.eye(n)).max()

    norm_res = np.abs(fs.sum(axis=0) - np.eye(d)).max()
    trace_res = np.abs(np.einsum("aii->a", ds) - 1.0).max()

    # reconstruction of every matrix unit E_xy: coefficient Tr(F_lam E_xy)
    # equals F_lam[y, x], so the rebuilt operator is sum_lam F_lam[y,x] D_lam
    rebuilt = np.einsum("lyx,lij->xyij", fs, ds)
    target = np.zeros((d, d, d, d), dtype=complex)
    for x in range(d):
        for y in range(d):
            target[x, y, x, y] = 1.0
    recon_res = np.abs(rebuilt - target).max()

    return FrameValidationReport(
        dim=d,
        size_ok=bool(size_ok),
        biorthogonality=float(biorth),
        normalization=float(norm_res),
        synthesis_trace=float(trace_res),
        reconstruction=float(recon_res),
        tolerance=DEFAULT_TOLERANCES.validation,
    )
