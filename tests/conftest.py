"""Shared fixtures and independent oracles for the test suite."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import lipfree as lf


def line_space(positions, base=0):
    """1D space from explicit positions on the real line."""
    pos = np.asarray(positions, dtype=float)
    d = np.abs(pos[:, None] - pos[None, :])
    return lf.FiniteMetricSpace(tuple(f"p{i}" for i in range(len(pos))), d, base_index=base)


def lip_ball_vertices(d_a: np.ndarray, base_pos: int) -> np.ndarray:
    """All extreme points of {f : f(base)=0, |f(i)-f(j)| <= d(i,j)}.

    Enumerated by intersecting every choice of q facets of the defining
    polytope (q = number of non-base points) and keeping the feasible ones.
    Independent of the LP solver: plain linear algebra.
    """
    k = d_a.shape[0]
    free = [i for i in range(k) if i != base_pos]
    q = len(free)
    if q == 0:
        return np.zeros((1, 1))
    rows, rhs = [], []
    for i, j in itertools.permutations(range(k), 2):
        row = np.zeros(q)
        if i != base_pos:
            row[free.index(i)] += 1.0
        if j != base_pos:
            row[free.index(j)] -= 1.0
        rows.append(row)
        rhs.append(d_a[i, j])
    rows = np.array(rows)
    rhs = np.array(rhs)
    vertices = []
    for combo in itertools.combinations(range(len(rows)), q):
        a = rows[list(combo)]
        b = rhs[list(combo)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if np.all(rows @ x <= rhs + 1e-9):
            vertices.append(x)
    if not vertices:
        vertices = [np.zeros(q)]
    uniq = {tuple(np.round(v, 9)) for v in vertices}
    out = np.zeros((len(uniq), k))
    for r, v in enumerate(sorted(uniq)):
        for pos, val in zip(free, v):
            out[r, pos] = val
    return out


def free_norm_by_vertices(weights: np.ndarray, d_a: np.ndarray, base_pos: int) -> float:
    """Brute-force free-space norm: maximize the pairing over all extreme
    Lipschitz profiles."""
    verts = lip_ball_vertices(d_a, base_pos)
    w = np.asarray(weights, dtype=float).copy()
    w[base_pos] = 0.0
    return float(np.abs(verts @ w).max())


def operator_norm_by_vertices(op, d_a: np.ndarray, d_t: np.ndarray) -> float:
    """Brute-force operator norm over all extreme profiles and point pairs."""
    verts = lip_ball_vertices(d_a, op.base_position)
    images = op.matrix @ verts.T                     # (n, n_vertices)
    n = op.space.n
    best = 0.0
    for x, y in itertools.combinations(range(n), 2):
        gaps = np.abs(images[x] - images[y])
        best = max(best, float(gaps.max()) / d_t[x, y])
    return best


def molecule_norms_by_pairs(op, d_a: np.ndarray) -> np.ndarray:
    """The per-pair molecule sweep: each row difference through the scalar
    norm identities, or else its own norm LP, with no triage and no memo."""
    d_a = np.asarray(d_a, dtype=float)
    base = op.base_position
    n = op.space.n
    out = np.zeros((n, n))
    for x, y in itertools.combinations(range(n), 2):
        c = op.matrix[x] - op.matrix[y]
        nz = [int(i) for i in np.flatnonzero(c) if i != base]
        if not nz:
            val = 0.0
        elif len(nz) == 1:
            val = abs(float(c[nz[0]])) * float(d_a[nz[0], base])
        elif len(nz) == 2 and (c[nz[0]], c[nz[1]]) in ((1.0, -1.0), (-1.0, 1.0)):
            val = float(d_a[nz[0], nz[1]])
        else:
            sub = nz + [base]
            val = lf.freenorm._dual_norm(c[nz], d_a[np.ix_(sub, sub)])
        out[x, y] = out[y, x] = val
    return out


def min_plus_excess_by_via(d: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """The min-plus triangle sweep that records, for every pair (i, k), the
    first j attaining min_j d(i, j) + d(j, k) as it goes."""
    n = d.shape[0]
    best = np.full((n, n), np.inf)
    via = np.zeros((n, n), dtype=int)
    for j in range(n):
        cand = d[:, j, None] + d[None, j, :]
        better = cand < best
        via[better] = j
        np.minimum(best, cand, out=best)
    excess = d - best
    i, k = np.unravel_index(np.argmax(excess), excess.shape)
    return float(excess[i, k]), (int(i), int(via[i, k]), int(k))


def metric_extension_by_lp(d: np.ndarray, members, rho: np.ndarray) -> float:
    """Least sup distortion over all metric extensions of rho to (T, d).

    The plain dense LP over every triangle, without pruning: minimize t
    subject to every triangle inequality of d2, d2 = rho on S x S and
    |d2 - d| <= t on every other pair, solved by HiGHS.  Independent of the
    closed form.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    s = list(members)
    known = {(i, j): rho[a, b] for a, i in enumerate(s) for b, j in enumerate(s)}
    free = [p for p in itertools.combinations(range(n), 2) if p not in known]
    col = {}
    for k, (i, j) in enumerate(free):
        col[i, j] = col[j, i] = k
    t = len(free)
    rows, rhs = [], []
    for (x, y), z in itertools.product(itertools.combinations(range(n), 2), range(n)):
        if z in (x, y):
            continue
        row, b = np.zeros(t + 1), 0.0
        for pair, sign in (((x, y), 1.0), ((x, z), -1.0), ((z, y), -1.0)):
            if pair in col:
                row[col[pair]] += sign
            else:
                b -= sign * known[pair]
        if row.any():
            rows.append(row)
            rhs.append(b)
    for k, (i, j) in enumerate(free):
        for sign in (1.0, -1.0):
            row = np.zeros(t + 1)
            row[k], row[t] = sign, -1.0
            rows.append(row)
            rhs.append(sign * d[i, j])
    objective = np.zeros(t + 1)
    objective[t] = 1.0
    res = linprog(objective, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=(0.0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.fixture
def three_line():
    # points at 0, 1, 3 on the line
    return line_space([0.0, 1.0, 3.0])


@pytest.fixture
def small_random_spaces():
    return [lf.random_metric_space(n, seed=100 + n) for n in (3, 4, 5, 6)]
