"""Deterministic frame search: a seeded multi-restart downhill simplex over
the unitary parameters of Kirkwood-Dirac frames for the subtheory witness,
and the unitary logarithm that encodes a frame as parameters."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .frames import OVERLAP_FLOOR, frame_from_unitaries, validate_frame
from .qudit import Dimension, Operator, fourier_gate
from .representations import (
    OperationalSet,
    standard_operational_set,
    subtheory_witness,
)


class NoThresholdError(RuntimeError):
    """Raised when no noise level in [0, 1] makes the state classical."""


# Offset of the initial downhill simplex along each parameter, and the
# spread of vertex values at which a run stops.
SIMPLEX_SCALE = 0.3
SPREAD_TOL = 1e-10


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the multi-restart frame search.

    restarts counts independent downhill-simplex runs (restart 0 always
    starts at the computational/Fourier frame, restart 1 at a frame adapted
    to the target state's eigenbasis, the rest at seeded random offsets).
    """

    restarts: int = 32
    max_iterations: int = 400
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("need at least one restart")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")


@dataclass(frozen=True)
class FrameSearchPoint:
    """Best parameter vector found by a search, with its witness value."""

    params: np.ndarray
    objective: float

    def __post_init__(self):
        arr = np.array(self.params, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "params", arr)


@lru_cache(maxsize=None)
def _upper(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The strict upper triangle's (rows, cols) for d x d, cached per d and
    read-only, since every caller shares them."""
    upper = np.triu_indices(d, 1)
    for index in upper:
        index.setflags(write=False)
    return upper


def _hermitian_from_params(d: int, params: np.ndarray) -> np.ndarray:
    """H (..., d, d) from parameters (..., d^2) as in unitary_from_params."""
    h = np.zeros(params.shape[:-1] + (d, d), dtype=complex)
    diag = np.arange(d)
    h[..., diag, diag] = params[..., :d]
    rows, cols = _upper(d)
    vals = params[..., d::2] + 1j * params[..., d + 1 :: 2]
    h[..., rows, cols] = vals
    h[..., cols, rows] = vals.conj()
    return h


def _params_from_hermitian(h: np.ndarray) -> np.ndarray:
    upper = h[_upper(h.shape[0])]
    return np.concatenate([h.diagonal().real, np.column_stack([upper.real, upper.imag]).reshape(-1)])


def _exp_i_hermitian(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


def unitary_from_params(dim: Dimension, params: np.ndarray) -> Operator:
    """Decode d^2 real parameters into exp(iH) for Hermitian H.

    Layout: d diagonal entries of H, then (Re, Im) of each strict upper
    entry in row-major order. The map covers all of U(d).
    """
    params = np.asarray(params, dtype=float).reshape(-1)
    d = dim.d
    if params.size != d * d:
        raise ValueError(f"expected {d * d} parameters, got {params.size}")
    return Operator(dim, _exp_i_hermitian(_hermitian_from_params(d, params)), role="unitary")


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


def _params_from_unitary_matrix(u: np.ndarray) -> np.ndarray:
    params = _params_from_hermitian(_log_unitary(u))
    back = _exp_i_hermitian(_hermitian_from_params(u.shape[0], params))
    if np.abs(back - u).max() > 1e-10:
        raise RuntimeError("unitary log round trip failed")
    return params


def _eigenbasis_frame_params(rho: Operator) -> np.ndarray:
    """Parameters of the KD frame with A the eigenbasis of rho and B = A F
    (F the Fourier gate), in which rho has Q_ij = lambda_i |<a_i|b_j>|^2
    = lambda_i / d >= 0."""
    _, eigvecs = np.linalg.eigh(rho.entries)
    return np.concatenate(
        [
            _params_from_unitary_matrix(eigvecs),
            _params_from_unitary_matrix(eigvecs @ fourier_gate(rho.dim).entries),
        ]
    )


def params_from_unitary(u: Operator) -> np.ndarray:
    """Inverse of unitary_from_params, up to roundoff (verified internally)."""
    return _params_from_unitary_matrix(u.entries)


def decode_frame(dim: Dimension, params: np.ndarray):
    """Split a 2 d^2 vector into two unitaries and build their KD frame."""
    params = np.asarray(params, dtype=float).reshape(-1)
    d2 = dim.d ** 2
    if params.size != 2 * d2:
        raise ValueError(f"expected {2 * d2} parameters, got {params.size}")
    u = unitary_from_params(dim, params[:d2])
    v = unitary_from_params(dim, params[d2:])
    return frame_from_unitaries(u, v)


_MASK = (1 << 64) - 1


def _mix64(z: int) -> int:
    """splitmix-style finalizer used to derive per-restart seeds."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def restart_seed(seed: int, restart: int) -> int:
    return _mix64(_mix64(seed & _MASK) ^ restart)


def nelder_mead(
    fn: Callable[[np.ndarray], float],
    x0: np.ndarray,
    scale: float,
    max_iterations: int,
    ftol: float,
) -> tuple[np.ndarray, float]:
    """Downhill simplex with reflection 1, expansion 2, contraction 0.5,
    shrink 0.5. Returns the best vertex ever evaluated.

    The initial simplex offsets x0 by `scale` along each coordinate.
    Termination: value spread below ftol or the iteration cap.
    """
    n = x0.size
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        simplex[i + 1, i] += scale
    values = np.array([fn(x) for x in simplex])

    for _ in range(max_iterations):
        order = np.argsort(values, kind="stable")
        simplex = simplex[order]
        values = values[order]
        spread = values[-1] - values[0]
        if np.isfinite(spread) and spread <= ftol:
            break
        centroid = simplex[:-1].mean(axis=0)
        reflected = centroid + (centroid - simplex[-1])
        f_r = fn(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - simplex[-1])
            f_e = fn(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            shrink = True
            if f_r < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
                f_c = fn(contracted)
                if f_c <= f_r:
                    simplex[-1], values[-1] = contracted, f_c
                    shrink = False
            else:
                contracted = centroid + 0.5 * (simplex[-1] - centroid)
                f_c = fn(contracted)
                if f_c < values[-1]:
                    simplex[-1], values[-1] = contracted, f_c
                    shrink = False
            if shrink:
                for i in range(1, n + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = fn(simplex[i])

    best = int(np.argmin(values))
    return simplex[best].copy(), float(values[best])


class _Objective:
    """Subtheory witness of the KD frame of the two basis unitaries that a
    parameter vector encodes; inf where an overlap is at or below
    OVERLAP_FLOOR."""

    def __init__(self, opset: OperationalSet):
        self.d = opset.dim.d
        self.opset = opset

    def __call__(self, params: np.ndarray) -> float:
        d = self.d
        d2 = d * d
        u, v = _exp_i_hermitian(_hermitian_from_params(d, params.reshape(2, d2)))
        ov = (v.conj().T @ u).T  # ov[i, j] = <b_j | a_i>
        if np.abs(ov).min() <= OVERLAP_FLOOR:
            return np.inf
        # F_(i,j) = <b_j|a_i> |b_j><a_i| and D_(i,j) = |a_i><b_j| / <b_j|a_i>
        fs = np.einsum("ij,xj,yi->ijxy", ov, v, u.conj()).reshape(d2, d, d)
        ds = np.einsum("xi,yj,ij->ijxy", u, v.conj(), 1.0 / ov).reshape(d2, d, d)
        return subtheory_witness(fs, ds, self.opset)


def minimize_omega(
    p: float, rho_m: Operator, config: OptimizerConfig
) -> FrameSearchPoint:
    """Search KD frames for the smallest subtheory witness value at noise
    level p (the operational set of standard_operational_set).

    Restart 0 starts at the computational/Fourier frame, restart 1 at the
    eigenbasis frame of the noisy state, the rest at seeded random points.
    Restarts are merged by (objective, restart index), so enlarging the
    restart budget can only improve the returned objective.
    """
    dim = rho_m.dim
    opset = standard_operational_set(rho_m, p)
    objective = _Objective(opset)

    d2 = dim.d ** 2
    fourier_params = _params_from_unitary_matrix(fourier_gate(dim).entries)
    starts = [
        np.concatenate([np.zeros(d2), fourier_params]),
        _eigenbasis_frame_params(opset.magic_state),
    ]

    def run(restart: int) -> tuple[float, int, np.ndarray]:
        if restart < len(starts):
            x0 = starts[restart]
        else:
            rng = np.random.default_rng(restart_seed(config.seed, restart))
            x0 = rng.normal(0.0, SIMPLEX_SCALE, size=2 * d2)
        x, fx = nelder_mead(
            objective, x0, SIMPLEX_SCALE, config.max_iterations, SPREAD_TOL
        )
        return fx, restart, x

    outcomes = [run(r) for r in range(config.restarts)]
    best_f, _, best_x = min(outcomes, key=lambda t: (t[0], t[1]))
    report = validate_frame(decode_frame(dim, best_x))
    if not report.passed:
        raise RuntimeError(
            f"search returned an invalid frame (residuals {report.to_dict()})"
        )
    return FrameSearchPoint(params=best_x, objective=best_f)
