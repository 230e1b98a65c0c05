"""Core qudit objects: Weyl operators, Clifford generators, stabilizer states,
magic states, and the depolarizing channel map for odd prime dimensions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

SUPPORTED_DIMENSIONS = (3, 5, 7)


class UnsupportedDimensionError(ValueError):
    """Raised for dimensions outside the supported odd-prime set."""


class DimensionMismatchError(ValueError):
    """Raised when operands live in different dimensions."""


@dataclass(frozen=True)
class Tolerances:
    """Central numerical tolerance record.

    construction: residual allowed when checking structural facts at build
        time (hermiticity, unitarity, trace normalization).
    validation:   residual allowed when re-checking derived invariants
        (frame axioms, eigenvector residuals, positivity floors).
    classification: threshold below which a certificate's witness value
        counts as zero when deciding classicality.
    """

    construction: float = 1e-12
    validation: float = 1e-10
    classification: float = 1e-9


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class Dimension:
    """A supported odd prime Hilbert-space dimension."""

    d: int

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d not in SUPPORTED_DIMENSIONS:
            raise UnsupportedDimensionError(
                f"dimension must be one of {SUPPORTED_DIMENSIONS}, got {self.d!r}"
            )

    @property
    def omega(self) -> complex:
        return np.exp(2j * np.pi / self.d)

    @property
    def inv2(self) -> int:
        """Multiplicative inverse of 2 mod d (d odd, so this is (d+1)/2)."""
        return (self.d + 1) // 2


_ROLES = ("state", "unitary", "effect", "generic")


@dataclass(frozen=True)
class Operator:
    """Immutable d x d complex matrix tagged with its operational role.

    Role invariants enforced at construction:
      state   - Hermitian, unit trace, positive semidefinite
      unitary - U dagger U = identity
      effect  - Hermitian with spectrum inside [0, 1]
      generic - no constraint beyond shape
    Every role but generic also needs finite entries.
    """

    dim: Dimension
    entries: np.ndarray
    role: str = "generic"

    def __post_init__(self):
        arr = np.array(self.entries, dtype=complex)
        if arr.shape != (self.dim.d, self.dim.d):
            raise ValueError(
                f"operator entries must be {self.dim.d}x{self.dim.d}, got {arr.shape}"
            )
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}; expected one of {_ROLES}")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        self._check_role()

    def _check_role(self):
        a = self.entries
        ct, vt = DEFAULT_TOLERANCES.construction, DEFAULT_TOLERANCES.validation
        if self.role != "generic" and not np.isfinite(a).all():
            raise ValueError(f"{self.role} operator has non-finite entries")
        if self.role in ("state", "effect"):
            if np.abs(a - a.conj().T).max() > ct:
                raise ValueError(f"{self.role} operator must be Hermitian")
            eigs = np.linalg.eigvalsh(a)
            if self.role == "state":
                if abs(np.trace(a) - 1.0) > ct:
                    raise ValueError("state must have unit trace")
                if eigs.min() < -vt:
                    raise ValueError(f"state has negative eigenvalue {eigs.min():.3e}")
            else:
                if eigs.min() < -vt or eigs.max() > 1.0 + vt:
                    raise ValueError("effect spectrum must lie in [0, 1]")
        elif self.role == "unitary":
            gram = a.conj().T @ a
            if np.abs(gram - np.eye(self.dim.d)).max() > ct:
                raise ValueError("unitary operator fails U^dag U = 1")

    @property
    def d(self) -> int:
        return self.dim.d

    def dagger(self) -> np.ndarray:
        return self.entries.conj().T


@dataclass(frozen=True)
class WeylIndex:
    """Phase-space index (p, q) labelling the Weyl operator Z^p X^q."""

    p: int
    q: int

    def reduced(self, dim: Dimension) -> "WeylIndex":
        return WeylIndex(self.p % dim.d, self.q % dim.d)

    def is_identity(self, dim: Dimension) -> bool:
        return self.p % dim.d == 0 and self.q % dim.d == 0


def weyl_operator(dim: Dimension, idx: WeylIndex) -> Operator:
    """Weyl operator W_(p,q) = Z^p X^q with X|x> = |x+1 mod d>, Z|x> = w^x |x>.

    Indices are reduced mod d, so W_(p+d,q) = W_(p,q). Composition obeys
    W_w W_w' = w^(-q p') W_(w+w').
    """
    d = dim.d
    r = idx.reduced(dim)
    w = dim.omega
    out = np.zeros((d, d), dtype=complex)
    for x in range(d):
        y = (x + r.q) % d
        out[y, x] = w ** ((r.p * y) % d)
    return Operator(dim, out, role="unitary")


def fourier_gate(dim: Dimension) -> Operator:
    """Discrete Fourier transform F|x> = d^(-1/2) sum_y w^(xy) |y>."""
    d = dim.d
    x = np.arange(d)
    mat = dim.omega ** np.outer(x, x) / np.sqrt(d)
    return Operator(dim, mat, role="unitary")


def quadratic_phase_gate(dim: Dimension) -> Operator:
    """Diagonal gate |x> -> w^(x^2 / 2) |x>, with 1/2 the inverse of 2 mod d."""
    d = dim.d
    x = np.arange(d)
    mat = np.diag(dim.omega ** ((dim.inv2 * x * x) % d))
    return Operator(dim, mat, role="unitary")


def clifford_generators(dim: Dimension) -> tuple[Operator, ...]:
    """Generating unitaries of the single-qudit Clifford group.

    Each one conjugates every Weyl operator to another Weyl operator up to a
    unit-modulus phase.
    """
    return (
        fourier_gate(dim),
        quadratic_phase_gate(dim),
        weyl_operator(dim, WeylIndex(0, 1)),
        weyl_operator(dim, WeylIndex(1, 0)),
    )


def computational_basis(dim: Dimension) -> np.ndarray:
    """Identity matrix; columns are the computational basis vectors."""
    return np.eye(dim.d, dtype=complex)


def fourier_basis(dim: Dimension) -> np.ndarray:
    """Columns are the Fourier-transformed basis vectors (X eigenbasis)."""
    return fourier_gate(dim).entries.copy()


def _mub_basis(dim: Dimension, a: int) -> np.ndarray:
    """Eigenbasis of X Z^a: column b has components w^(a x^2 / 2 + b x) / sqrt(d).

    The phase convention puts a real positive entry in the first component.
    """
    d = dim.d
    x = np.arange(d).reshape(-1, 1)
    b = np.arange(d).reshape(1, -1)
    expo = (dim.inv2 * a * x * x + b * x) % d
    return dim.omega ** expo / np.sqrt(d)


def stabilizing_weyl_index(dim: Dimension, basis_position: int) -> WeylIndex:
    """Weyl index whose operator the given MUB (by position) diagonalizes.

    Position 0 is the computational basis (stabilized by Z = W_(1,0));
    position a+1 is the eigenbasis of X Z^a, hence of W_(a,1) = Z^a X.
    """
    if basis_position == 0:
        return WeylIndex(1, 0)
    return WeylIndex(basis_position - 1, 1)


@dataclass(frozen=True)
class StabilizerStateSet:
    """The d(d+1) single-qudit stabilizer states, grouped into d+1 MUBs.

    basis_vectors holds d+1 unitary matrices whose columns are the state
    vectors; groups holds the corresponding rank-1 projectors as Operators.
    """

    dim: Dimension
    basis_vectors: tuple[np.ndarray, ...]
    groups: tuple[tuple[Operator, ...], ...]

    def __post_init__(self):
        d = self.dim.d
        vt = DEFAULT_TOLERANCES.validation
        frozen = []
        for basis in self.basis_vectors:
            arr = np.array(basis, dtype=complex)
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "basis_vectors", tuple(frozen))
        if len(self.basis_vectors) != d + 1:
            raise ValueError(f"expected {d + 1} bases, got {len(self.basis_vectors)}")
        if len(self.groups) != d + 1 or any(len(g) != d for g in self.groups):
            raise ValueError("projector groups must mirror the d+1 bases of d states")
        for k, basis in enumerate(self.basis_vectors):
            gram = basis.conj().T @ basis
            if np.abs(gram - np.eye(d)).max() > DEFAULT_TOLERANCES.construction:
                raise ValueError(f"basis {k} is not orthonormal")
        for j in range(d + 1):
            for k in range(j + 1, d + 1):
                ov = np.abs(self.basis_vectors[j].conj().T @ self.basis_vectors[k]) ** 2
                if np.abs(ov - 1.0 / d).max() > DEFAULT_TOLERANCES.construction:
                    raise ValueError(f"bases {j} and {k} are not mutually unbiased")
        for k, basis in enumerate(self.basis_vectors):
            widx = stabilizing_weyl_index(self.dim, k)
            wop = weyl_operator(self.dim, widx).entries
            roots = self.dim.omega ** np.arange(d)
            for b in range(d):
                v = basis[:, b]
                wv = wop @ v
                resid = min(np.linalg.norm(wv - r * v) for r in roots)
                if resid > vt:
                    raise ValueError(
                        f"state {b} of basis {k} is not a Weyl eigenvector "
                        f"(residual {resid:.3e})"
                    )

    @property
    def states(self) -> tuple[Operator, ...]:
        """All d(d+1) projectors, flattened basis by basis."""
        return tuple(op for group in self.groups for op in group)

    def __len__(self) -> int:
        return self.dim.d * (self.dim.d + 1)


def stabilizer_states(dim: Dimension) -> StabilizerStateSet:
    """Enumerate the stabilizer states of one qudit of odd prime dimension.

    Bases: the computational basis followed by the eigenbases of X Z^a for
    a = 0 .. d-1 (the a = 0 case is the Fourier basis).
    """
    bases = [computational_basis(dim)]
    bases.extend(_mub_basis(dim, a) for a in range(dim.d))
    groups = []
    for basis in bases:
        ops = tuple(
            Operator(dim, np.outer(basis[:, b], basis[:, b].conj()), role="state")
            for b in range(dim.d)
        )
        groups.append(ops)
    return StabilizerStateSet(dim, tuple(bases), tuple(groups))


MAGIC_STATE_KINDS = ("strange", "norrell", "custom")


def magic_state(
    kind: str, dim: Dimension, custom_vec: Optional[np.ndarray] = None
) -> Operator:
    """Build a pure magic-state density matrix.

    strange: (|1> - |2>) / sqrt(2), qutrit only.
    norrell: (-|0> + 2|1> - |2>) / sqrt(6), qutrit only.
    custom:  normalized projector onto the supplied finite, nonzero vector.
    """
    if kind not in MAGIC_STATE_KINDS:
        raise ValueError(f"unknown magic state kind {kind!r}")
    if kind == "custom":
        if custom_vec is None:
            raise ValueError("custom magic state requires a vector")
        v = np.asarray(custom_vec, dtype=complex).reshape(-1)
        if v.shape != (dim.d,):
            raise ValueError(f"custom vector must have length {dim.d}")
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.linalg.norm(v)
        if not np.isfinite(norm):
            raise ValueError("custom vector must have finite components and norm")
        if norm < 1e-12:
            raise ValueError("custom vector must be nonzero")
        v = v / norm
    else:
        if custom_vec is not None:
            raise ValueError(f"{kind} state takes no custom vector")
        if dim.d != 3:
            raise UnsupportedDimensionError(f"{kind} state is defined for d=3 only")
        if kind == "strange":
            v = np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2)
        else:
            v = np.array([-1.0, 2.0, -1.0], dtype=complex) / np.sqrt(6)
    return Operator(dim, np.outer(v, v.conj()), role="state")


def depolarize(rho: Operator, p: float) -> Operator:
    """Mix a state with the maximally mixed state: (1-p) rho + p 1/d."""
    if rho.role != "state":
        raise ValueError("depolarize expects a state operator")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"noise weight must lie in [0, 1], got {p}")
    d = rho.dim.d
    out = (1.0 - p) * rho.entries + (p / d) * np.eye(d)
    return Operator(rho.dim, out, role="state")


def maximally_mixed(dim: Dimension) -> Operator:
    return Operator(dim, np.eye(dim.d) / dim.d, role="state")


def random_state(dim: Dimension, seed: int) -> Operator:
    """Deterministic random density matrix: normalized Ginibre Gram matrix."""
    rng = np.random.default_rng(seed)
    d = dim.d
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    return Operator(dim, rho, role="state")


def random_unitary(dim: Dimension, seed: int) -> Operator:
    """Deterministic Haar-style random unitary via phase-fixed QR."""
    rng = np.random.default_rng(seed)
    d = dim.d
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return Operator(dim, q * phases, role="unitary")
