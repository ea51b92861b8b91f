"""Small dense linear-program solver.

The core is a two-phase tableau simplex with Bland's anti-cycling rule, which
makes every solve deterministic: identical inputs produce bitwise-identical
outputs.  Its programs are the free-space norm LPs on a support plus base
point, at most a few thousand rows, so a dense float64 tableau is adequate.
``solve_with_scipy`` solves the same programs with HiGHS under the same result
contract; it is the reference the tests compare the simplex against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

PIVOT_TOL = 1e-11
SOLVER_TOL = 1e-9

_RELATIONS = ("<=", "=", ">=")


class LpError(RuntimeError):
    """Solver failure (malformed input or iteration blow-up)."""


@dataclass(frozen=True)
class LinearProgram:
    """max/min c.x subject to rows, relations, rhs and per-variable bounds.

    bounds=None means every variable is free; otherwise one (lo, hi) pair per
    variable with None for an absent bound.
    """

    objective: np.ndarray
    sense: str = "max"
    rows: np.ndarray | None = None
    relations: tuple[str, ...] = ()
    rhs: np.ndarray | None = None
    bounds: tuple[tuple[float | None, float | None], ...] | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "objective", c)
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")
        n = c.shape[0]
        rows = self.rows
        if rows is None:
            rows = np.zeros((0, n))
        rows = np.asarray(rows, dtype=float).reshape(-1, n) if np.size(rows) else np.zeros((0, n))
        object.__setattr__(self, "rows", rows)
        rels = tuple(self.relations)
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float)) if self.rhs is not None else np.zeros(0)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "relations", rels)
        if rows.shape[0] != len(rels) or rows.shape[0] != rhs.shape[0]:
            raise ValueError("rows, relations and rhs must have matching lengths")
        if any(r not in _RELATIONS for r in rels):
            raise ValueError(f"relations must be among {_RELATIONS}")
        if not np.all(np.isfinite(c)) or not np.all(np.isfinite(rows)) or not np.all(np.isfinite(rhs)):
            raise ValueError("coefficients must be finite")
        if self.bounds is not None and len(self.bounds) != n:
            raise ValueError("bounds must give one (lo, hi) pair per variable")

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: str                # optimal | infeasible | unbounded
    value: float
    assignment: np.ndarray
    max_violation: float
    iterations: int


def _standardize(lp: LinearProgram):
    """Rewrite into min c.z, A z (<=,=) b with z >= 0.

    Returns (c, rows, rels, rhs, var_map) where var_map reconstructs the
    original variables: ("shift", j, lo), ("neg", j, hi) or ("split", j+, j-).
    """
    n = lp.n_vars
    bounds = lp.bounds if lp.bounds is not None else tuple((None, None) for _ in range(n))
    var_map = []
    col_of = []            # per original var: list of (col, sign, offset handled via map)
    ncols = 0
    extra_rows = []        # (col, ub) for two-sided bounds
    for j, (lo, hi) in enumerate(bounds):
        if lo is not None:
            var_map.append(("shift", ncols, float(lo)))
            if hi is not None:
                extra_rows.append((ncols, float(hi) - float(lo)))
            ncols += 1
        elif hi is not None:
            var_map.append(("neg", ncols, float(hi)))
            ncols += 1
        else:
            var_map.append(("split", ncols, ncols + 1))
            ncols += 2

    m0 = lp.rows.shape[0]
    rows = np.zeros((m0 + len(extra_rows), ncols))
    rhs = np.zeros(m0 + len(extra_rows))
    rels = []
    for i in range(m0):
        shift = 0.0
        for j in range(n):
            a = lp.rows[i, j]
            if a == 0.0:
                continue
            kind = var_map[j]
            if kind[0] == "shift":
                rows[i, kind[1]] = a
                shift += a * kind[2]
            elif kind[0] == "neg":
                rows[i, kind[1]] = -a
                shift += a * kind[2]
            else:
                rows[i, kind[1]] = a
                rows[i, kind[2]] = -a
        rel = lp.relations[i]
        b = lp.rhs[i] - shift
        if rel == ">=":
            rows[i] = -rows[i]
            b = -b
            rel = "<="
        rels.append(rel)
        rhs[i] = b
    for k, (col, ub) in enumerate(extra_rows):
        rows[m0 + k, col] = 1.0
        rhs[m0 + k] = ub
        rels.append("<=")

    c = np.zeros(ncols)
    obj = lp.objective if lp.sense == "min" else -lp.objective
    for j in range(n):
        kind = var_map[j]
        if kind[0] == "shift":
            c[kind[1]] = obj[j]
        elif kind[0] == "neg":
            c[kind[1]] = -obj[j]
        else:
            c[kind[1]] = obj[j]
            c[kind[2]] = -obj[j]
    return c, rows, rels, rhs, var_map


def _pivot(tab: np.ndarray, r: int, col: int) -> None:
    tab[r] /= tab[r, col]
    factors = tab[:, col].copy()
    factors[r] = 0.0
    tab -= np.outer(factors, tab[r])
    tab[:, col] = 0.0
    tab[r, col] = 1.0


def _bland_loop(tab: np.ndarray, basis: list[int], allowed: np.ndarray,
                max_iter: int) -> tuple[str, int]:
    """Run simplex iterations on a tableau whose last row is the cost row."""
    m = len(basis)
    it = 0
    while True:
        cost = tab[-1, :-1]
        eligible = np.flatnonzero(allowed & (cost < -PIVOT_TOL))
        if eligible.size == 0:
            return "optimal", it
        col = int(eligible[0])          # Bland: smallest eligible index
        colvals = tab[:m, col]
        pos = np.flatnonzero(colvals > PIVOT_TOL)
        if pos.size == 0:
            return "unbounded", it
        ratios = tab[pos, -1] / colvals[pos]
        best = ratios.min()
        ties = pos[np.flatnonzero(ratios <= best + 0.0)]
        r = int(min(ties, key=lambda i: basis[i]))   # Bland: smallest basis index
        _pivot(tab, r, col)
        basis[r] = col
        np.clip(tab[:m, -1], 0.0, None, out=tab[:m, -1])
        it += 1
        if it > max_iter:
            raise LpError(f"simplex exceeded {max_iter} iterations")


def _simplex_min(c: np.ndarray, rows: np.ndarray, rels: Sequence[str], rhs: np.ndarray,
                 tol: float) -> tuple[str, np.ndarray, int]:
    """Two-phase simplex for min c.z, A z (<=,=) b, z >= 0."""
    m, n = rows.shape
    A = rows.copy()
    b = rhs.copy()
    rels = list(rels)
    # normalize rhs >= 0
    for i in range(m):
        if b[i] < 0:
            A[i] = -A[i]
            b[i] = -b[i]
            if rels[i] == "<=":
                rels[i] = ">="
    # slack columns
    n_slack = m
    S = np.zeros((m, n_slack))
    basis = [-1] * m
    art_needed = []
    for i in range(m):
        if rels[i] == "<=":
            S[i, i] = 1.0
            basis[i] = n + i
        elif rels[i] == ">=":
            S[i, i] = -1.0
            art_needed.append(i)
        else:
            art_needed.append(i)
    n_art = len(art_needed)
    Art = np.zeros((m, n_art))
    for k, i in enumerate(art_needed):
        Art[i, k] = 1.0
        basis[i] = n + n_slack + k
    full = np.hstack([A, S, Art, b[:, None]])
    total = n + n_slack + n_art
    max_iter = 20000 + 200 * (m + total)
    iters = 0

    if n_art:
        cost1 = np.zeros(total + 1)
        cost1[n + n_slack: n + n_slack + n_art] = 1.0
        tab = np.vstack([full, cost1])
        for i in range(m):
            if basis[i] >= n + n_slack:
                tab[-1] -= tab[i]
        allowed = np.ones(total, dtype=bool)
        allowed[n + n_slack:] = False      # artificials never re-enter
        status, it = _bland_loop(tab, basis, allowed, max_iter)
        iters += it
        if status != "optimal":
            raise LpError("phase-1 simplex did not terminate cleanly")
        if -tab[-1, -1] > max(tol, 1e-9):
            return "infeasible", np.zeros(total), iters
        # drive remaining artificials out of the basis
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if basis[i] >= n + n_slack:
                row = tab[i, : n + n_slack]
                nz = np.flatnonzero(np.abs(row) > PIVOT_TOL)
                if nz.size:
                    _pivot(tab, i, int(nz[0]))
                    basis[i] = int(nz[0])
                else:
                    keep[i] = False
        rows_kept = np.flatnonzero(keep)
        full = np.hstack([tab[rows_kept][:, : n + n_slack], tab[rows_kept][:, -1:]])
        basis = [basis[i] for i in rows_kept]
        m = len(basis)
        total = n + n_slack

    cost2 = np.zeros(total + 1)
    cost2[:n] = c
    tab = np.vstack([full[:, list(range(total)) + [-1]], cost2])
    for i in range(m):
        if cost2[basis[i]] != 0.0:
            tab[-1] -= tab[-1, basis[i]] * tab[i]
    allowed = np.ones(total, dtype=bool)
    status, it = _bland_loop(tab, basis, allowed, max_iter)
    iters += it
    if status == "unbounded":
        return "unbounded", np.zeros(total), iters
    z = np.zeros(total)
    for i in range(m):
        z[basis[i]] = tab[i, -1]
    return "optimal", z, iters


def _violation(lp: LinearProgram, x: np.ndarray) -> float:
    worst = 0.0
    if lp.rows.shape[0]:
        vals = lp.rows @ x
        for i, rel in enumerate(lp.relations):
            gap = vals[i] - lp.rhs[i]
            if rel == "<=":
                worst = max(worst, gap)
            elif rel == ">=":
                worst = max(worst, -gap)
            else:
                worst = max(worst, abs(gap))
    if lp.bounds is not None:
        for j, (lo, hi) in enumerate(lp.bounds):
            if lo is not None:
                worst = max(worst, lo - x[j])
            if hi is not None:
                worst = max(worst, x[j] - hi)
    return float(worst)


def solve(lp: LinearProgram, tol: float = SOLVER_TOL) -> LpSolution:
    """Solve the program deterministically."""
    c, rows, rels, rhs, var_map = _standardize(lp)
    status, z, iters = _simplex_min(c, rows, rels, rhs, tol)
    if status != "optimal":
        return LpSolution(status, float("nan"), np.full(lp.n_vars, np.nan), float("inf"), iters)
    x = np.zeros(lp.n_vars)
    for j, kind in enumerate(var_map):
        if kind[0] == "shift":
            x[j] = kind[2] + z[kind[1]]
        elif kind[0] == "neg":
            x[j] = kind[2] - z[kind[1]]
        else:
            x[j] = z[kind[1]] - z[kind[2]]
    value = float(lp.objective @ x)
    return LpSolution("optimal", value, x, _violation(lp, x), iters)


def solve_with_scipy(lp: LinearProgram) -> LpSolution:
    """HiGHS adapter with the same result contract as the core solver."""
    from scipy.optimize import linprog

    c = lp.objective if lp.sense == "min" else -lp.objective
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for i, rel in enumerate(lp.relations):
        if rel == "<=":
            A_ub.append(lp.rows[i]); b_ub.append(lp.rhs[i])
        elif rel == ">=":
            A_ub.append(-lp.rows[i]); b_ub.append(-lp.rhs[i])
        else:
            A_eq.append(lp.rows[i]); b_eq.append(lp.rhs[i])
    bounds = list(lp.bounds) if lp.bounds is not None else [(None, None)] * lp.n_vars
    res = linprog(
        c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status)
    if status is None:
        raise LpError(f"scipy backend failed: {res.message}")
    if status != "optimal":
        return LpSolution(status, float("nan"), np.full(lp.n_vars, np.nan), float("inf"), int(res.nit))
    x = np.asarray(res.x, dtype=float)
    value = float(lp.objective @ x)
    return LpSolution("optimal", value, x, _violation(lp, x), int(res.nit))

