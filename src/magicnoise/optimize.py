"""Deterministic frame search: a multi-restart downhill simplex over the
unitary parameters of Kirkwood-Dirac frames (frames.decode_frame) for the
subtheory witness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .frames import (
    OVERLAP_FLOOR,
    decode_frame,
    eigenbasis_frame_params,
    exp_i_hermitian,
    hermitian_from_params,
    params_from_unitary,
    validate_frame,
)
from .qudit import Operator, fourier_gate
from .representations import (
    OperationalSet,
    standard_operational_set,
    subtheory_witness,
)


class NoThresholdError(RuntimeError):
    """Raised when no noise level in [0, 1] makes the state classical."""


# Offset of the initial downhill simplex along each parameter, the spread
# of vertex values at which a run stops, and the iteration cap of a run.
SIMPLEX_SCALE = 0.3
SPREAD_TOL = 1e-10
MAX_ITERATIONS = 400


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the multi-restart frame search.

    restarts counts independent downhill-simplex runs (restart 0 always
    starts at the computational/Fourier frame, restart 1 at a frame adapted
    to the target state's eigenbasis, restart r >= 2 at a random offset
    drawn from np.random.default_rng(r)). A restart whose start equals an
    earlier restart's is not rerun: the run is deterministic. At p = 1 the
    noisy state is 1/d, whose eigenbasis frame is the Fourier start, so
    restart 1 is restart 0.
    """

    restarts: int = 32

    def __post_init__(self):
        r = self.restarts
        if isinstance(r, bool) or not isinstance(r, int) or r < 1:
            raise ValueError(f"restarts must be a positive integer, got {r!r}")


@dataclass(frozen=True)
class FrameSearchPoint:
    """Best parameter vector found by a search, with its witness value."""

    params: np.ndarray
    objective: float

    def __post_init__(self):
        arr = np.array(self.params, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "params", arr)


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
        u, v = exp_i_hermitian(hermitian_from_params(d, params.reshape(2, d2)))
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
    eigenbasis frame of the noisy state, restart r >= 2 at a random point
    drawn from np.random.default_rng(r).
    Restarts are merged by (objective, restart index), so enlarging the
    restart budget can only improve the returned objective. Nelder-Mead
    runs once per distinct start, keyed by its bytes: a restart that
    repeats an earlier start (restart 1 at p = 1, where the noisy state
    is 1/d) shares that run, and loses the tie to the lower index.
    """
    dim = rho_m.dim
    opset = standard_operational_set(rho_m, p)
    objective = _Objective(opset)

    d2 = dim.d ** 2
    starts = [
        np.concatenate([np.zeros(d2), params_from_unitary(fourier_gate(dim))]),
        eigenbasis_frame_params(opset.magic_state),
    ]

    runs: dict[bytes, tuple[np.ndarray, float]] = {}

    def run(restart: int) -> tuple[float, int, np.ndarray]:
        if restart < len(starts):
            x0 = starts[restart]
        else:
            rng = np.random.default_rng(restart)
            x0 = rng.normal(0.0, SIMPLEX_SCALE, size=2 * d2)
        key = x0.tobytes()
        if key not in runs:
            runs[key] = nelder_mead(
                objective, x0, SIMPLEX_SCALE, MAX_ITERATIONS, SPREAD_TOL
            )
        x, fx = runs[key]
        return fx, restart, x

    outcomes = [run(r) for r in range(config.restarts)]
    best_f, _, best_x = min(outcomes, key=lambda t: (t[0], t[1]))
    report = validate_frame(decode_frame(dim, best_x))
    if not report.passed:
        raise RuntimeError(
            f"search returned an invalid frame (residuals {report.to_dict()})"
        )
    return FrameSearchPoint(params=best_x, objective=best_f)
