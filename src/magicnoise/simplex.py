"""Dense revised simplex for small equality-form linear programs.

Solves  min c.x  subject to  A x = b, x >= 0  in two phases:

  phase one  minimizes the sum of artificial variables from the artificial
             identity basis; a zero optimum certifies feasibility, and the
             x part of the optimal vertex is a feasible point
  phase two  pivots artificials left at zero out of the basis (dropping
             the rows that turn out redundant) and minimizes c.x

Every pivot solves afresh against the original columns of the current
basis with `np.linalg.solve`, so no update of an inverse or a tableau can
accumulate round-off from one pivot to the next. Bland's rule (lowest
entering index, ties in the ratio test to the lowest basic index) keeps
pivoting deterministic and guarantees termination; the systems are tiny
(tens of rows) and their output must be bit-reproducible.

At an optimum the duals y solve B^T y = c_B, so A^T y <= c holds within
COST_TOL and b.y equals the optimal objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-11
# Smallest entering-column entry the ratio test pivots on: bases reach
# condition numbers near 1e6, so an entry of 1e-11 can be the round-off of
# a zero, and pivoting on it leaves a singular basis that never recovers.
PIVOT_FLOOR = 1e-9
COST_TOL = 1e-10
# Phase-one optimum above which solve_lp declares the system infeasible.
FEASIBILITY_TOL = 1e-9
# Pivot budget over both phases of one solve.
MAX_PIVOTS = 10000


class SimplexError(RuntimeError):
    """Raised on an infeasible or unbounded LP, when pivoting does not
    finish within its budget, or when a basis goes singular."""


@dataclass(frozen=True)
class LPResult:
    x: np.ndarray           # optimal vertex
    y: np.ndarray           # equality duals: A^T y <= c, b.y == objective
    objective: float
    iterations: int         # pivots over both phases


def _bland(a, b, c, basis: list[int], iterations: int) -> int:
    """Pivot basis (in place) to an optimum of min c.x, A x = b, x >= 0;
    returns the running pivot count."""
    while True:
        cols = a[:, basis]
        reduced = c - a.T @ np.linalg.solve(cols.T, c[basis])
        reduced[basis] = 0.0
        entering = np.flatnonzero(reduced < -COST_TOL)
        if entering.size == 0:
            return iterations
        if iterations >= MAX_PIVOTS:
            raise SimplexError(f"no convergence within {MAX_PIVOTS} pivots")
        j = int(entering[0])
        sol = np.linalg.solve(cols, np.column_stack([b, a[:, j]]))
        x_b, u = np.maximum(sol[:, 0], 0.0), sol[:, 1]
        ok = u > PIVOT_FLOOR
        if not ok.any():
            raise SimplexError("objective is unbounded below")
        ratios = np.where(ok, x_b / np.where(ok, u, 1.0), np.inf)
        ties = np.flatnonzero(ratios <= ratios.min() + PIVOT_TOL)
        leaving = int(ties[np.argmin(np.asarray(basis)[ties])])
        basis[leaving] = j
        iterations += 1


def _vertex(a, b, basis: list[int]) -> np.ndarray:
    """The basic solution of A x = b on basis, negative round-off clipped."""
    x = np.zeros(a.shape[1])
    x[basis] = np.maximum(np.linalg.solve(a[:, basis], b), 0.0)
    return x


def solve_lp(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> LPResult:
    """Optimal vertex and duals of min c.x subject to A x = b, x >= 0.

    Raises SimplexError when the system is infeasible (phase-one optimum
    above FEASIBILITY_TOL), the objective is unbounded below, the two
    phases together need more than MAX_PIVOTS pivots, or a basis goes
    singular.
    """
    try:
        return _two_phase(c, a, b)
    except np.linalg.LinAlgError as exc:
        raise SimplexError(f"the simplex basis went singular: {exc}") from exc


def _two_phase(c, a, b) -> LPResult:
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("b must match the row count of A")
    if c.shape != (n,):
        raise ValueError("c must match the column count of A")
    # Phase one: the artificial problem [A | I] after flipping rows so
    # that b >= 0, solved from the artificial basis.
    sign = np.where(b < 0, -1.0, 1.0)
    aug = np.hstack([a * sign[:, None], np.eye(m)])
    rhs = b * sign
    basis = list(range(n, n + m))
    cost = np.concatenate([np.zeros(n), np.ones(m)])
    iterations = _bland(aug, rhs, cost, basis, 0)
    artificial = _vertex(aug, rhs, basis)[n:].sum()
    if artificial > FEASIBILITY_TOL:
        raise SimplexError(f"infeasible: phase-one optimum {artificial:.3e}")

    # Pivot each artificial left at zero onto a structural column. Where
    # none has weight in its row, that row is a combination of the others
    # and is dropped together with the artificial.
    for i in range(m):
        if basis[i] < n:
            continue
        unit = np.zeros(m)
        unit[i] = 1.0
        row = np.linalg.solve(aug[:, basis].T, unit) @ aug[:, :n]
        row[[k for k in basis if k < n]] = 0.0
        candidates = np.flatnonzero(np.abs(row) > PIVOT_TOL)
        if candidates.size:
            basis[i] = int(candidates[0])
            iterations += 1
    dropped = {k - n for k in basis if k >= n}
    keep_rows = [r for r in range(m) if r not in dropped]
    basis = [k for k in basis if k < n]
    a2, b2 = aug[keep_rows, :n], rhs[keep_rows]

    iterations = _bland(a2, b2, c, basis, iterations)
    x = _vertex(a2, b2, basis)
    y = np.zeros(m)
    y[keep_rows] = np.linalg.solve(a2[:, basis].T, c[basis]) * sign[keep_rows]
    return LPResult(x=x, y=y, objective=float(c @ x), iterations=iterations)
