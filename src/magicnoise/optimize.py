"""Deterministic frame search: one downhill simplex from the
computational/Fourier frame over the unitary parameters of Kirkwood-Dirac
frames (frames.decode_frame) for the subtheory witness at full noise."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .frames import (
    OVERLAP_FLOOR,
    decode_frame,
    exp_i_hermitian,
    hermitian_from_params,
    params_from_unitary,
    validate_frame,
)
from .qudit import Dimension, maximally_mixed, stabilizer_bases
from .representations import (
    OperationalSet,
    standard_operational_set,
    subtheory_witness,
)


# Offset of the initial downhill simplex along each parameter, the spread
# of vertex values at which a run stops, and the iteration cap of a run.
SIMPLEX_SCALE = 0.3
SPREAD_TOL = 1e-10
MAX_ITERATIONS = 400


@dataclass(frozen=True)
class OptimizerConfig:
    """Accepted by kd_threshold and crit_threshold, and changes nothing.

    The frame search is one downhill-simplex run from the Fourier frame
    (minimize_omega), which only cross-checks the proven subtheory_floor,
    so restarts is validated and then ignored.
    """

    restarts: int = 1

    def __post_init__(self):
        r = self.restarts
        if isinstance(r, bool) or not isinstance(r, int) or r < 1:
            raise ValueError(f"restarts must be a positive integer, got {r!r}")


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


@lru_cache(maxsize=None)
def _full_noise_objective(d: int) -> _Objective:
    """The objective over the operational set at p = 1, built once per d:
    there the noisy state is 1/d whatever the input."""
    dim = Dimension(d)
    return _Objective(standard_operational_set(maximally_mixed(dim), 1.0))


def minimize_omega(dim: Dimension) -> tuple[np.ndarray, float]:
    """Search KD frames for the smallest subtheory witness value at full
    noise, p = 1 (the operational set of standard_operational_set): one
    nelder_mead run from the computational/Fourier frame. Returns its best
    (params, objective) after checking that params decode to a valid frame.
    """
    fourier = stabilizer_bases(dim)[1]
    start = np.concatenate([np.zeros(dim.d ** 2), params_from_unitary(fourier)])
    params, objective = nelder_mead(
        _full_noise_objective(dim.d), start, SIMPLEX_SCALE, MAX_ITERATIONS, SPREAD_TOL
    )
    report = validate_frame(decode_frame(dim, params))
    if not report["passed"]:
        raise RuntimeError(f"search returned an invalid frame (residuals {report})")
    return params, objective
