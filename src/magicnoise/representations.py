"""Quasiprobability representations of states, effects, and channels over a
frame, Kirkwood-Dirac distributions in their three equivalent forms, and the
nonclassicality witness built from them."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .frames import ExactFrame
from .qudit import (
    VALIDATION_TOL,
    Dimension,
    DimensionMismatchError,
    Operator,
    clifford_generators,
    depolarize,
    orthonormal_basis,
    stabilizer_states,
    weyl_operator,
)

@dataclass(frozen=True)
class Channel:
    """A completely positive trace-preserving map in Kraus form."""

    dim: Dimension
    kraus: tuple[np.ndarray, ...]
    name: str = "channel"

    def __post_init__(self):
        d = self.dim.d
        frozen = []
        for k in self.kraus:
            arr = np.array(k, dtype=complex)
            if arr.shape != (d, d):
                raise ValueError(f"Kraus operators must be {d}x{d}")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "kraus", tuple(frozen))
        total = sum(k.conj().T @ k for k in self.kraus)
        if np.abs(total - np.eye(d)).max() > VALIDATION_TOL:
            raise ValueError(f"channel {self.name!r} is not trace preserving")

    def apply(self, mat: np.ndarray) -> np.ndarray:
        return sum(k @ mat @ k.conj().T for k in self.kraus)


def identity_channel(dim: Dimension) -> Channel:
    return Channel(dim, (np.eye(dim.d, dtype=complex),), name="identity")


def unitary_channel(u: Operator, name: str = "unitary") -> Channel:
    return Channel(u.dim, (u.entries,), name=name)


def depolarizing_channel(dim: Dimension, p: float) -> Channel:
    """Kraus form of rho -> (1-p) rho + p 1/d.

    Uses the Weyl twirl: the d^2 displacements with weight sqrt(p)/d plus
    the identity with weight sqrt(1-p).
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"noise weight must lie in [0, 1], got {p}")
    d = dim.d
    ops: list[np.ndarray] = []
    if p < 1.0:
        ops.append(np.sqrt(1.0 - p) * np.eye(d, dtype=complex))
    if p > 0.0:
        for a in range(d):
            for b in range(d):
                w = weyl_operator(dim, a, b).entries
                ops.append(np.sqrt(p) / d * w)
    return Channel(dim, tuple(ops), name=f"depolarizing({p:g})")


@dataclass(frozen=True)
class OperationalSet:
    """States, channels, and effects probed by the witness at one noise level.

    states holds every pure stabilizer projector plus the noisy magic state
    (also stored as magic_state); channels holds the identity, the
    depolarizing channel at the same noise level, and the Clifford
    generators; effects holds the stabilizer state Operators plus the unit effect.
    """

    dim: Dimension
    states: tuple[Operator, ...]
    channels: tuple[Channel, ...]
    effects: tuple[Operator, ...]
    magic_state: Operator

    def __post_init__(self):
        if not self.states or not self.channels or not self.effects:
            raise ValueError("operational set must populate all three slots")
        for op in self.states + self.effects + (self.magic_state,):
            if op.dim != self.dim:
                raise DimensionMismatchError("operational set mixes dimensions")

    @cached_property
    def stacks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays for subtheory_witness over row-major vec: vec(rho^T) and
        vec(E^T) as columns, so that vec(F) . vec(rho^T) = Tr(F rho), and per
        channel S[(a, b), (i, j)] = sum_k K[b, i] conj(K[a, j]), which maps
        vec(X) to vec(E(X)^T)."""
        d2 = self.dim.d ** 2

        def columns(ops):
            return np.stack([op.entries for op in ops]).transpose(2, 1, 0).reshape(d2, -1)

        supers = [np.einsum("kbi,kaj->abij", ch.kraus, np.conj(ch.kraus)) for ch in self.channels]
        return columns(self.states), columns(self.effects), np.reshape(supers, (-1, d2, d2))


def standard_operational_set(rho_m: Operator, p: float) -> OperationalSet:
    """Assemble the stabilizer subtheory plus one depolarized magic state."""
    dim = rho_m.dim
    noisy = depolarize(rho_m, p)
    stab = stabilizer_states(dim)
    states = stab + (noisy,)
    effects = stab + (Operator(dim, np.eye(dim.d), role="effect"),)
    cliffords = clifford_generators(dim)
    channels = (
        identity_channel(dim),
        depolarizing_channel(dim, p),
        unitary_channel(cliffords[0], name="fourier"),
        unitary_channel(cliffords[1], name="quadratic_phase"),
        unitary_channel(cliffords[2], name="shift"),
        unitary_channel(cliffords[3], name="clock"),
    )
    return OperationalSet(dim, states, channels, effects, noisy)


def represent_state(frame: ExactFrame, rho: Operator) -> np.ndarray:
    """mu(lam) = Tr(F_lam rho), a complex array of shape (d^2,) indexed by
    the frame's points; sums to Tr(rho) = 1 for any valid frame."""
    if rho.dim != frame.dim:
        raise DimensionMismatchError("state and frame dimensions differ")
    fs = frame.analysis_stack()
    return np.einsum("lij,ji->l", fs, rho.entries)


def represent_effect(frame: ExactFrame, effect: Operator) -> np.ndarray:
    """xi(lam) = Tr(E D_lam), a complex array of shape (d^2,) indexed by the
    frame's points; identically 1 for the unit effect."""
    if effect.dim != frame.dim:
        raise DimensionMismatchError("effect and frame dimensions differ")
    ds = frame.synthesis_stack()
    return np.einsum("lij,ji->l", ds, effect.entries)


def represent_channel(
    frame_in: ExactFrame, frame_out: ExactFrame, channel: Channel
) -> np.ndarray:
    """Gamma[out, in] = Tr(F_out E(D_in)), a complex array of shape
    (d^2, d^2); every column sums to one.

    Composition is functorial: representing E2 after E1 equals the matrix
    product Gamma2 @ Gamma1 when the frames chain.
    """
    if channel.dim != frame_in.dim or channel.dim != frame_out.dim:
        raise DimensionMismatchError("channel and frame dimensions differ")
    ds = frame_in.synthesis_stack()
    fs = frame_out.analysis_stack()
    moved = np.stack([channel.apply(dk) for dk in ds])
    return np.einsum("oij,lji->ol", fs, moved)


def kd_matrix(
    rho: Operator, basis_a: np.ndarray, basis_b: np.ndarray
) -> np.ndarray:
    """Kirkwood-Dirac distribution rho_(i,j) = <b_j|a_i><a_i|rho|b_j>, a
    complex array of shape (d^2,) with (i, j) at index i d + j.

    Row marginals give Born probabilities in basis A, column marginals in
    basis B, and the total sum is Tr(rho).
    """
    dim = rho.dim
    a = orthonormal_basis(dim, basis_a, "A")
    b = orthonormal_basis(dim, basis_b, "B")
    values = (a.conj().T @ rho.entries @ b) * (b.conj().T @ a).T
    return values.reshape(-1)


def kd_sequential(rho: Operator, bases: Sequence[np.ndarray]) -> np.ndarray:
    """Order-k Kirkwood-Dirac distribution from a chain of k bases, a
    complex array of shape (d^k,) with (i_1, .., i_k) at its row-major index.

    value(i_1, .., i_k) =
        <a^k_(i_k)|a^(k-1)_(i_(k-1))> .. <a^2_(i_2)|a^1_(i_1)> <a^1_(i_1)|rho|a^k_(i_k)>

    k = 1 reduces to the Born distribution of the single basis, k = 2 to
    kd_matrix with (A, B) = (bases[0], bases[1]).
    """
    dim = rho.dim
    if len(bases) < 1:
        raise ValueError("need at least one basis")
    mats = [orthonormal_basis(dim, m, f"#{k}") for k, m in enumerate(bases)]
    k = len(mats)
    d = dim.d
    # chain[t][i_(t+1), i_t] = <a^(t+1)_(i_(t+1)) | a^t_(i_t)>
    chain = [mats[t + 1].conj().T @ mats[t] for t in range(k - 1)]
    closing = mats[0].conj().T @ rho.entries @ mats[k - 1]  # <a^1_i|rho|a^k_j>
    values = np.zeros((d,) * k, dtype=complex)
    for idx in itertools.product(range(d), repeat=k):
        amp = closing[idx[0], idx[k - 1]]
        for t in range(k - 1):
            amp = amp * chain[t][idx[t + 1], idx[t]]
        values[idx] = amp
    return values.reshape(-1)


def _effect_matrix(e) -> np.ndarray:
    if isinstance(e, Operator):
        return e.entries
    return np.asarray(e, dtype=complex)


def kd_povm(rho: Operator, povms: Sequence[Sequence]) -> np.ndarray:
    """Generalized Kirkwood-Dirac distribution over a chain of POVMs, a
    complex array with one entry per outcome tuple (i_1, .., i_k), at its
    row-major index.

    value(i_1, .., i_k) = Tr( M^k_(i_k) .. M^1_(i_1) rho ), evaluated by
    explicit operator products. Each POVM must resolve the identity and
    have positive semidefinite elements.
    """
    d = rho.dim.d
    stacks = []
    for k, povm in enumerate(povms):
        mats = [_effect_matrix(e) for e in povm]
        if not mats:
            raise ValueError(f"POVM #{k} is empty")
        for m in mats:
            if m.shape != (d, d):
                raise ValueError(f"POVM #{k} elements must be {d}x{d}")
            if np.linalg.eigvalsh((m + m.conj().T) / 2).min() < -VALIDATION_TOL:
                raise ValueError(f"POVM #{k} has a negative element")
        if np.abs(sum(mats) - np.eye(d)).max() > VALIDATION_TOL:
            raise ValueError(f"POVM #{k} does not resolve the identity")
        stacks.append(mats)
    counts = [len(s) for s in stacks]
    values = np.zeros(counts, dtype=complex)
    for idx in itertools.product(*[range(c) for c in counts]):
        prod = rho.entries
        for k, i in enumerate(idx):
            prod = stacks[k][i] @ prod
        values[idx] = np.trace(prod)
    return values.reshape(-1)


def _penalties(values: np.ndarray, axis) -> np.ndarray:
    return np.abs(values.imag).sum(axis) + np.abs(np.minimum(0.0, values.real)).sum(axis)


def penalty(values: np.ndarray) -> float:
    """Distance of an array of any shape from the real non-negative orthant:
    sum |Im| + sum |negative part of Re|; zero iff entrywise real and >= 0."""
    return float(_penalties(np.asarray(values), None))


def subtheory_witness(fs: np.ndarray, ds: np.ndarray, opset: OperationalSet) -> float:
    """Largest penalty over every state, effect and channel of opset, each
    represented over the frame with analysis stack fs and synthesis stack ds
    (n, d, d): Tr(F rho), Tr(E D) and Tr(F_out E(D_in)) as three matrix
    products against opset.stacks. Returns one float; the state scope's
    witness is penalty(represent_state(frame, opset.magic_state))."""
    states, effects, supers = opset.stacks
    fv = fs.reshape(fs.shape[0], -1)
    dv = ds.reshape(ds.shape[0], -1)
    singles = np.concatenate([fv @ states, dv @ effects], axis=1)
    gammas = fv @ supers @ dv.T
    return float(max(_penalties(singles, 0).max(), _penalties(gammas, (1, 2)).max()))
