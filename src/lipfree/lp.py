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

There is one engine, `solve_stack`, and it runs a `ProgramStack`, programs
that share A; `solve` runs one `LinearProgram` as a stack of one.
The tableaus are stacked in one array, and each round takes every
unfinished program one Bland step: its own entering column, its own ratio
test and tie-break, and its own finish, optimal or unbounded.  A program's
result is bitwise the one it gets alone.  Every tableau entry goes through
the same elementwise IEEE operations in the same order as on a tableau of
its own (the one-program loop of earlier versions, kept in the tests as an
oracle): the pivot row's division, tab - factors * row as a product and then
a difference (the pivot row too, with factor 0), the ratio division, the
ties at <= best + 0.0, the clip of the rhs column and the drift it removes.
None of these reads another program's entries, and a min or a comparison
is exact, so stacking changes no bit.  Each program's value and row
residual are then computed on their own, as 1-D and 2-D products shaped as
for one program.  Programs run in batches of at most _BATCH_CELLS tableau
cells, so the engine's memory does not grow with the number of programs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PIVOT_TOL = 1e-11
SOLVER_TOL = 1e-9

# Tableau cells per batch of `solve_stack` (at least one program per batch):
# 256 KB of tableau, 13 of the 43 x 55 tableaus of a six-point norm LP.
_BATCH_CELLS = 1 << 15


class LpError(RuntimeError):
    """Solver failure: iteration blow-up, or a norm LP that is not optimal or
    breaks its residual limit."""


def _check(c: np.ndarray, rows: np.ndarray, rhs: np.ndarray) -> None:
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(rows)) and np.all(np.isfinite(rhs))):
        raise ValueError("coefficients must be finite")
    if np.any(rhs < 0.0):
        raise ValueError("rhs must be nonnegative, so that x = 0 is feasible")


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
        _check(c, rows, rhs)
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)


@dataclass(frozen=True)
class ProgramStack:
    """k programs sharing their rows: max objective[p].x subject to
    rows @ x <= rhs[p], with x free and rhs[p] >= 0, for p < k."""

    objective: np.ndarray       # k x n
    rows: np.ndarray            # m x n
    rhs: np.ndarray             # k x m

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        rows = np.asarray(self.rows, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if (c.ndim != 2 or rhs.ndim != 2 or len(c) != len(rhs)
                or rows.shape != (rhs.shape[1], c.shape[1])):
            raise ValueError("need k x n objectives, k x m rhs and m x n rows")
        _check(c, rows, rhs)
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


def _pivot(tab: np.ndarray, p: np.ndarray, r: np.ndarray, col: np.ndarray) -> None:
    """Pivot each tableau tab[p] of the stack, p = arange(len(tab)), on its
    row r[p] and column col[p]."""
    row = tab[p, r] / tab[p, r, col][:, None]
    tab[p, r] = row
    factors = tab[p, :, col]
    factors[p, r] = 0.0
    tab -= factors[:, :, None] * row[:, None, :]
    tab[p, :, col] = 0.0
    tab[p, r, col] = 1.0


def _solution(objective: np.ndarray, rows: np.ndarray, rhs: np.ndarray, status: str,
              x: np.ndarray, iterations: int, clipped: float) -> LpSolution:
    """The solution record of x for one program; max_violation is the larger
    of the worst row residual and the drift `clipped` from the tableau's rhs."""
    if status != "optimal":
        return LpSolution(status, float("nan"), np.full(len(objective), np.nan),
                          float("inf"), iterations)
    worst = float((rows @ x - rhs).max()) if len(rhs) else 0.0
    return LpSolution("optimal", float(objective @ x), x, max(0.0, worst, float(clipped)),
                      iterations)


def solve_stack(stack: ProgramStack) -> list[LpSolution]:
    """Solve every program of the stack deterministically from the slack
    basis by Bland's rule, batch by batch; entry p is bitwise `solve` of
    program p alone.

    In each round a program whose cost row has no entry below -PIVOT_TOL is
    optimal, one whose entering column has no entry above PIVOT_TOL is
    unbounded, and both leave the batch; the rest pivot once.  A round
    clips the rhs column at 0 and keeps, per program, the largest amount
    the clip removed.
    """
    objective, rows, rhs = stack.objective, stack.rows, stack.rhs
    k, n = objective.shape
    m = len(rows)
    total = 2 * n + m
    max_iter = 20000 + 200 * (m + total)
    out: list = [None] * k
    step = max(1, _BATCH_CELLS // ((m + 1) * (total + 1)))
    for lo in range(0, k, step):
        ids = np.arange(lo, min(k, lo + step))
        tab = np.zeros((len(ids), m + 1, total + 1))
        # x_j+ and x_j- columns; a zero coefficient is +0.0 in both
        tab[:, :m, 0:2 * n:2] = rows + 0.0
        tab[:, :m, 1:2 * n:2] = 0.0 - rows
        tab[:, :m, 2 * n:total] = np.eye(m)
        tab[:, :m, -1] = rhs[ids]
        tab[:, -1, 0:2 * n:2] = -objective[ids]
        tab[:, -1, 1:2 * n:2] = objective[ids]
        basis = np.tile(np.arange(2 * n, total), (len(ids), 1))
        clipped = np.zeros(len(ids))
        p = np.arange(len(ids))
        it = 0
        while True:
            eligible = tab[:, -1, :-1] < -PIVOT_TOL
            col = eligible.argmax(axis=1)           # Bland: smallest eligible index
            colvals = tab[p, :m, col]
            pos = colvals > PIVOT_TOL
            done = ~(eligible[p, col] & pos.any(axis=1))
            if done.any():
                for i in np.flatnonzero(done):
                    z = np.zeros(total)
                    z[basis[i]] = tab[i, :m, -1]
                    out[ids[i]] = _solution(objective[ids[i]], rows, rhs[ids[i]],
                                            "unbounded" if eligible[i, col[i]] else "optimal",
                                            z[0:2 * n:2] - z[1:2 * n:2], it, clipped[i])
                keep = ~done
                if not keep.any():
                    break
                tab, basis, clipped, ids = tab[keep], basis[keep], clipped[keep], ids[keep]
                col, colvals, pos = col[keep], colvals[keep], pos[keep]
                p = np.arange(len(ids))
            ratios = np.divide(tab[:, :m, -1], colvals, out=np.full(colvals.shape, np.inf),
                               where=pos)
            ties = pos & (ratios <= ratios.min(axis=1, keepdims=True) + 0.0)
            r = np.where(ties, basis, total).argmin(axis=1)   # Bland: smallest basis index
            _pivot(tab, p, r, col)
            basis[p, r] = col
            b = tab[:, :m, -1]
            drift = -b.min(axis=1)
            clipped = np.where(drift > clipped, drift, clipped)
            np.maximum(b, 0.0, out=b)               # the clip: np.clip(b, 0.0, None)
            it += 1
            if it > max_iter:
                raise LpError(f"simplex exceeded {max_iter} iterations")
    return out


def solve(lp: LinearProgram) -> LpSolution:
    """Solve the program deterministically from the slack basis, as a stack
    of one."""
    return solve_stack(ProgramStack(lp.objective[None, :], lp.rows, lp.rhs[None, :]))[0]
