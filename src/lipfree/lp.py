"""Small dense simplex for the free-space norm LPs.

Every program has the canonical form

    max c.x  subject to  A x <= b,  x free,  b >= 0,

the dual Lipschitz LP of a free-space norm (Weaver, *Lipschitz Algebras*,
ch. 3), whose rows bound differences of potentials by distances.  Because
b >= 0 the origin is feasible, so the slack basis is a starting vertex and
one simplex phase suffices.  Each free x_j is split into x_j+ - x_j- in
adjacent columns.  Bland's anti-cycling rule makes every solve
deterministic: identical inputs produce bitwise-identical outputs.  The
programs have at most a few thousand rows, so a dense float64 tableau is
adequate.  The tests compare the simplex against HiGHS on the same programs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-11
SOLVER_TOL = 1e-9


class LpError(RuntimeError):
    """Solver failure: iteration blow-up, or a norm LP that is not optimal or
    breaks its residual limit."""


@dataclass(frozen=True)
class LinearProgram:
    """max objective.x subject to rows @ x <= rhs, with x free and rhs >= 0."""

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        rows = np.asarray(self.rows, dtype=float)
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if c.ndim != 1 or rhs.ndim != 1 or rows.shape != (rhs.shape[0], c.shape[0]):
            raise ValueError("rows must be a len(rhs) x len(objective) matrix")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(rows)) and np.all(np.isfinite(rhs))):
            raise ValueError("coefficients must be finite")
        if np.any(rhs < 0.0):
            raise ValueError("rhs must be nonnegative, so that x = 0 is feasible")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)


@dataclass(frozen=True)
class LpSolution:
    status: str                # optimal | unbounded
    value: float
    assignment: np.ndarray
    max_violation: float
    iterations: int


def _pivot(tab: np.ndarray, r: int, col: int) -> None:
    tab[r] /= tab[r, col]
    factors = tab[:, col].copy()
    factors[r] = 0.0
    tab -= np.outer(factors, tab[r])
    tab[:, col] = 0.0
    tab[r, col] = 1.0


def _bland_loop(tab: np.ndarray, basis: list[int], max_iter: int) -> tuple[str, int, float]:
    """Run simplex iterations on a tableau whose last row is the cost row.

    Returns the status, the iteration count and the largest amount the
    clip of the rhs column to >= 0 removed after a pivot: rounding drift
    that would otherwise vanish without a trace.
    """
    m = len(basis)
    it = 0
    clipped = 0.0
    while True:
        cost = tab[-1, :-1]
        eligible = np.flatnonzero(cost < -PIVOT_TOL)
        if eligible.size == 0:
            return "optimal", it, clipped
        col = int(eligible[0])          # Bland: smallest eligible index
        colvals = tab[:m, col]
        pos = np.flatnonzero(colvals > PIVOT_TOL)
        if pos.size == 0:
            return "unbounded", it, clipped
        ratios = tab[pos, -1] / colvals[pos]
        best = ratios.min()
        ties = pos[np.flatnonzero(ratios <= best + 0.0)]
        r = int(min(ties, key=lambda i: basis[i]))   # Bland: smallest basis index
        _pivot(tab, r, col)
        basis[r] = col
        clipped = max(clipped, -float(tab[:m, -1].min()))
        np.clip(tab[:m, -1], 0.0, None, out=tab[:m, -1])
        it += 1
        if it > max_iter:
            raise LpError(f"simplex exceeded {max_iter} iterations")


def _solution(lp: LinearProgram, status: str, x: np.ndarray, iterations: int,
              clipped: float) -> LpSolution:
    """The solution record of x; max_violation is the larger of the worst
    row residual and the drift `clipped` from the tableau's rhs."""
    if status != "optimal":
        return LpSolution(status, float("nan"), np.full(len(lp.objective), np.nan),
                          float("inf"), iterations)
    worst = float((lp.rows @ x - lp.rhs).max()) if len(lp.rhs) else 0.0
    return LpSolution("optimal", float(lp.objective @ x), x, max(0.0, worst, clipped),
                      iterations)


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the program deterministically from the slack basis."""
    m, n = lp.rows.shape
    total = 2 * n + m
    tab = np.zeros((m + 1, total + 1))
    # x_j+ and x_j- columns; a zero coefficient is +0.0 in both
    tab[:m, 0:2 * n:2] = lp.rows + 0.0
    tab[:m, 1:2 * n:2] = 0.0 - lp.rows
    tab[:m, 2 * n:total] = np.eye(m)
    tab[:m, -1] = lp.rhs
    tab[-1, 0:2 * n:2] = -lp.objective
    tab[-1, 1:2 * n:2] = lp.objective
    basis = list(range(2 * n, total))
    status, iterations, clipped = _bland_loop(tab, basis, 20000 + 200 * (m + total))
    z = np.zeros(total)
    z[basis] = tab[:m, -1]
    return _solution(lp, status, z[0:2 * n:2] - z[1:2 * n:2], iterations, clipped)

