"""Shared fixtures and independent oracles for the test suite."""

import io
import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import linprog

import lipfree as lf
from lipfree import freenorm as fn, lp as lpmod, spaces
from lipfree.covers import _prune_irredundant

# CI runs with --hypothesis-profile=ci: derandomized, so a failing example
# replays locally under the same profile.  Local runs keep the random default.
settings.register_profile("ci", derandomize=True, deadline=None)


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


def lp_norm_dense(c: np.ndarray, d: np.ndarray, base: int, memo: dict) -> float:
    """`freenorm._lp_norms` of one dense weight row whose base entry is zero."""
    support = np.flatnonzero(c)
    return fn._lp_norms(support[None], c[support][None], d, base, memo)[0]


def dense_rows(cols: np.ndarray, vals: np.ndarray, m: int) -> np.ndarray:
    """The sparse rows (cols, vals) of `freenorm._sparse_rows` and
    `freenorm._difference` as an m-wide dense matrix."""
    out = np.zeros((len(cols), m + 1))
    np.put_along_axis(out, cols, vals, axis=1)
    return out[:, :m]


def free_space_norm(space, weights) -> float:
    """Norm of the weight vector in the free space over space, always by the
    transport solver: the reference the closed transport forms of
    `freenorm._triage` are tested against.  The base weight is ignored."""
    c = np.array(weights, dtype=float)
    c[space.base_index] = 0.0
    return lp_norm_dense(c, space.dist, space.base_index, {})


def solve_with_scipy(mu, d: np.ndarray) -> float:
    """HiGHS on the transport primal of the masses mu over the costs d: min
    sum_ij y_ij d(i, j) over y >= 0 from the sources (mu > 0) onto the
    targets (mu < 0), each source sending its mass and each target taking
    its own.  An outside reference for `lipfree.lp.transport`."""
    mu = np.asarray(mu, dtype=float)
    src, dst = np.flatnonzero(mu > 0.0), np.flatnonzero(mu < 0.0)
    if not (src.size and dst.size):
        return 0.0
    rows = np.kron(np.eye(len(src)), np.ones(len(dst)))
    cols = np.kron(np.ones(len(src)), np.eye(len(dst)))
    res = linprog(d[np.ix_(src, dst)].ravel(), A_eq=np.vstack([rows, cols]),
                  b_eq=np.concatenate([mu[src], -mu[dst]]), bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"scipy backend failed: {res.message}")
    return float(res.fun)


def lipschitz_lp_with_scipy(mu, d: np.ndarray, base: int) -> float:
    """HiGHS on the Lipschitz LP max sum mu f over f with f(x) - f(y) <=
    d(x, y), free but for f(base) = 0: the dual of the transport primal of
    `solve_with_scipy`."""
    n = len(mu)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    bounds = [(0, 0) if x == base else (None, None) for x in range(n)]
    res = linprog(-np.asarray(mu, dtype=float), A_ub=np.eye(n)[i] - np.eye(n)[j],
                  b_ub=d[i, j], bounds=bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"scipy backend failed: {res.message}")
    return -float(res.fun)


def exact_transport(mu, d) -> tuple[Fraction, list]:
    """The least transport cost from mu+ onto mu- over the costs d, and an
    optimal plan, in exact rational arithmetic: successive shortest paths
    with Bellman-Ford over `fractions.Fraction`, written for supports of up
    to 8 points plus the base.  Float inputs convert exactly, and masses
    that do not balance exactly leave their remainder unmoved, as in
    `lipfree.lp.transport`.  It shares no code and no tolerance with the
    library: an oracle for its plans, costs and potentials."""
    n = len(mu)
    assert n <= 9, "the exact oracle is for supports of up to 8 points plus the base"
    mass = [Fraction(float(x)) for x in mu]
    cost = [[Fraction(float(x)) for x in row] for row in d]
    sources = [i for i in range(n) if mass[i] > 0]
    targets = [j for j in range(n) if mass[j] < 0]
    supply = {i: mass[i] for i in sources}
    demand = {j: -mass[j] for j in targets}
    plan = {(i, j): Fraction(0) for i in sources for j in targets}
    while any(supply.values()) and any(demand.values()):
        arcs = [(i, j, cost[i][j]) for i in sources for j in targets]
        arcs += [(j, i, -cost[i][j]) for (i, j), y in plan.items() if y > 0]
        dist = {i: Fraction(0) for i in sources if supply[i] > 0}
        pred = {}
        for _ in range(n):
            for u, v, c in arcs:
                if u in dist and (v not in dist or dist[u] + c < dist[v]):
                    dist[v], pred[v] = dist[u] + c, u
        end = min((j for j in targets if demand[j] > 0), key=lambda j: dist[j])
        path, v = [], end
        while v in pred:
            path.append((pred[v], v))
            v = pred[v]
        amount = min(supply[v], demand[end],
                     *(plan[(b, a)] for a, b in path if a in demand))
        for a, b in path:
            if a in demand:
                plan[(b, a)] -= amount
            else:
                plan[(a, b)] += amount
        supply[v] -= amount
        demand[end] -= amount
    value = sum((y * cost[i][j] for (i, j), y in plan.items()), Fraction(0))
    return value, [[plan.get((i, j), Fraction(0)) for j in range(n)] for i in range(n)]


def free_norm_by_vertices(weights: np.ndarray, d_a: np.ndarray, base_pos: int) -> float:
    """Brute-force free-space norm: maximize the pairing over all extreme
    Lipschitz profiles."""
    verts = lip_ball_vertices(d_a, base_pos)
    w = np.asarray(weights, dtype=float).copy()
    w[base_pos] = 0.0
    return float(np.abs(verts @ w).max())


def operator_norm_by_vertices(op, d: np.ndarray) -> float:
    """Brute-force operator norm from Lip0(A, d|A) to Lip0(T, d) over all
    extreme profiles and point pairs."""
    dom = list(op.domain)
    verts = lip_ball_vertices(d[np.ix_(dom, dom)], op.base_position)
    images = op.matrix @ verts.T                     # (n, n_vertices)
    n = op.space.n
    best = 0.0
    for x, y in itertools.combinations(range(n), 2):
        gaps = np.abs(images[x] - images[y])
        best = max(best, float(gaps.max()) / d[x, y])
    return best


def molecule_norms_by_pairs(op, d_a: np.ndarray) -> np.ndarray:
    """The per-pair molecule sweep: each row difference through the closed
    transport forms (`transport_norm`), or else its own transport solve, a
    stack of one, with no triage and no memo."""
    d_a = np.asarray(d_a, dtype=float)
    base = op.base_position
    n = op.space.n
    out = np.zeros((n, n))
    for x, y in itertools.combinations(range(n), 2):
        c = op.matrix[x] - op.matrix[y]
        val = transport_norm(c, d_a, base)
        if val is None:
            c[base] = 0.0
            val = lp_norm_dense(c, d_a, base, {})
        out[x, y] = out[y, x] = val
    return out


def operator_norm_by_molecules(op, d: np.ndarray) -> tuple[float, tuple[int, int]]:
    """The exhaustive molecule reduction: every pair's molecule norm from
    `molecule_norms_by_pairs` over d|A, divided by d, and the first maximiser
    over x < y in row-major order with its value."""
    dom = list(op.domain)
    norms = molecule_norms_by_pairs(op, d[np.ix_(dom, dom)])
    xs, ys = np.triu_indices(op.space.n, k=1)
    ratios = norms[xs, ys] / d[xs, ys]
    best = int(np.argmax(ratios))
    return float(ratios[best]), (int(xs[best]), int(ys[best]))


def transport_norm(c: np.ndarray, d: np.ndarray, base: int):
    """The norm of the dense weight row c, its base entry ignored, by the
    closed transport forms of `freenorm._triage` written out point by point;
    None when the balanced row has more than one point on each side and not
    two on each.  The row is balanced by -sum c at the base, summed over the
    support in column order; the plan costs are summed over the support in
    column order, then the base."""
    points = [i for i in range(len(c)) if i != base and c[i] != 0.0]
    total = 0.0
    for i in points:
        total += c[i]
    mu = [(i, c[i]) for i in points] + ([(base, -total)] if total != 0.0 else [])
    sources = [(i, m) for i, m in mu if m > 0.0]
    targets = [(j, -m) for j, m in mu if m < 0.0]
    cost = 0.0
    if len(sources) <= 1:
        for j, m in targets:
            cost += m * d[sources[0][0], j]
        return cost
    if len(targets) == 1:
        for i, m in sources:
            cost += m * d[i, targets[0][0]]
        return cost
    if len(sources) == len(targets) == 2:
        (i1, a1), (i2, a2) = sources
        (j1, b1), (j2, b2) = targets

        def plan(x):
            y21 = b1 - x
            return x * d[i1, j1] + (a1 - x) * d[i1, j2] + y21 * d[i2, j1] + (a2 - y21) * d[i2, j2]

        return min(plan(max(0.0, a1 - b2)), plan(min(a1, b1)))
    return None


def triage_dense(c: np.ndarray, d: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """`freenorm._triage` on dense weight rows, row by row through
    `transport_norm`: closed-form norms of the rows of c and a mask of the
    rows that need the LP.  Zeroes the base column of c in place."""
    c[:, base] = 0.0
    value = np.zeros(len(c))
    needs_lp = np.zeros(len(c), dtype=bool)
    for r, row in enumerate(c):
        val = transport_norm(row, d, base)
        needs_lp[r] = val is None
        value[r] = 0.0 if val is None else val
    return value, needs_lp


def pair_blocks_by_x(n: int):
    """All pairs x < y in row-major order, one x per block."""
    for x in range(n - 1):
        yield np.full(n - 1 - x, x), np.arange(x + 1, n)


def molecule_norm_matrix_dense(op, d: np.ndarray) -> np.ndarray:
    """`freenorm.molecule_norm_matrix` as earlier versions swept it: one x
    per block, the dense row differences w[x] - w[y] through `triage_dense`,
    and the norm LP once per distinct (support, weights)."""
    d_a = np.asarray(d, dtype=float)[np.ix_(op.domain, op.domain)]
    base = op.base_position
    n = op.space.n
    w = op.matrix
    out = np.zeros((n, n))
    memo: dict = {}
    for x, y in pair_blocks_by_x(n):
        c = w[x] - w[y]
        value, needs_lp = triage_dense(c, d_a, base)
        for r in np.flatnonzero(needs_lp):
            value[r] = lp_norm_dense(c[r], d_a, base, memo)
        out[x, y] = value
        out[y, x] = value
    return out


def operator_norm_dense(op, d: np.ndarray) -> tuple[float, tuple[int, int]]:
    """`freenorm.operator_norm` as earlier versions swept it: the dense rows
    of `molecule_norm_matrix_dense`, LP pairs solved in descending order of
    `freenorm._ratio_upper_bounds` and skipped once their bound falls below
    the best ratio so far."""
    d = np.asarray(d, dtype=float)
    d_a = d[np.ix_(op.domain, op.domain)]
    base = op.base_position
    n = op.space.n
    if n < 2:
        return 0.0, (0, 0)
    w = op.matrix
    ratios = np.empty(n * (n - 1) // 2)
    lp_parts = []
    start = 0
    for x, y in pair_blocks_by_x(n):
        c = w[x] - w[y]
        value, needs_lp = triage_dense(c, d_a, base)
        ratios[start:start + len(x)] = value / d[x, y]
        rows = np.flatnonzero(needs_lp)
        lp_parts.append((rows + start, x[rows], y[rows],
                         fn._ratio_upper_bounds(*fn._sparse_rows(c[rows]), d_a, base,
                                                d[x[rows], y[rows]])))
        start += len(x)
    index, lp_x, lp_y, bounds = map(np.concatenate, zip(*lp_parts))
    exact = np.ones(len(ratios), dtype=bool)
    exact[index] = False
    best = float(ratios[exact].max()) if exact.any() else -np.inf
    memo: dict = {}
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] < best:
            ratios[index[i]] = -np.inf
            continue
        x, y = lp_x[i], lp_y[i]
        c = w[x] - w[y]
        c[base] = 0.0
        ratios[index[i]] = lp_norm_dense(c, d_a, base, memo) / d[x, y]
        best = max(best, ratios[index[i]])
    xs, ys = np.triu_indices(n, k=1)
    top = int(np.argmax(ratios))
    return float(ratios[top]), (int(xs[top]), int(ys[top]))


def operator_norm_by_ratio_vector(op, d: np.ndarray) -> tuple[float, tuple[int, int]]:
    """`freenorm.operator_norm` as earlier versions finished it: the
    n(n-1)/2 ratios of the sparse sweep in one vector, exact where they can
    reach the maximum and -inf where a bound rules them out, and the first
    maximiser from np.argmax over the whole vector."""
    d = np.asarray(d, dtype=float)
    d_a = d[np.ix_(op.domain, op.domain)]
    base = op.base_position
    n, m = op.matrix.shape
    if n < 2:
        return 0.0, (0, 0)
    cols, vals = fn._sparse_rows(op.matrix)
    ratios = np.empty(n * (n - 1) // 2)
    lp_parts = []
    start = 0
    for x, y in fn._pair_blocks(np.arange(n), np.arange(n)):
        c, v = fn._difference(cols[x], vals[x], cols[y], vals[y], m)
        value, needs_lp = fn._triage(c, v, d_a, base)
        ratios[start:start + len(x)] = value / d[x, y]
        rows = np.flatnonzero(needs_lp)
        lp_parts.append((rows + start, x[rows], y[rows],
                         fn._ratio_upper_bounds(c[rows], v[rows], d_a, base,
                                                d[x[rows], y[rows]])))
        start += len(x)
    index, lp_x, lp_y, bounds = map(np.concatenate, zip(*lp_parts))
    exact = np.ones(len(ratios), dtype=bool)
    exact[index] = False
    best = float(ratios[exact].max()) if exact.any() else -np.inf
    memo: dict = {}
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] < best:
            ratios[index[i]] = -np.inf
            continue
        x, y = lp_x[i:i + 1], lp_y[i:i + 1]
        c, v = fn._difference(cols[x], vals[x], cols[y], vals[y], m)
        ratios[index[i]] = fn._row_norms(c, v, d_a, base, memo)[0] / d[x[0], y[0]]
        best = max(best, ratios[index[i]])
    top = int(np.argmax(ratios))
    x, y = upper_pair(n, top)
    return float(ratios[top]), (int(x), int(y))


def upper_pair(n: int, index):
    """The index-th pair x < y of n points in row-major order, the entry
    `np.triu_indices(n, k=1)` holds there, from the row starts with one
    searchsorted; index may be an int or an integer array."""
    counts = np.arange(n - 1, 0, -1)
    starts = np.cumsum(counts) - counts
    x = np.searchsorted(starts, index, side="right") - 1
    return x, x + 1 + (index - starts[x])


def prune_irredundant_by_unions(sets: list[set], n: int) -> list[set]:
    """Delete the first set contained in the union of the others, then rescan
    from the start, until no such set is left: the set-union reference for
    `covers._prune_irredundant`."""
    changed = True
    while changed:
        changed = False
        for i in range(len(sets)):
            rest = set().union(*(s for j, s in enumerate(sets) if j != i)) if len(sets) > 1 else set()
            if len(rest) == n:
                del sets[i]
                changed = True
                break
    return sets


def axis_windows(lo: int, hi: int, m: int, offset: int = 0, shared: bool = True):
    """Closed coordinate windows [s, s+m-1] covering lo..hi, listed one by
    one.  Shared windows advance by m-1 so consecutive windows meet in one
    slot; unshared windows advance by m and partition the range."""
    if m == 1:
        return [(v, v) for v in range(lo, hi + 1)]
    step = (m - 1) if shared else m
    start = lo - (offset % step if step else 0)
    out = []
    s = start
    while s <= hi:
        out.append((s, s + m - 1))
        s += step
    return out


def build_bricks_by_windows(coords: np.ndarray, active: list[int], m: int) -> list[tuple]:
    """`covers._build_bricks` as earlier versions built it: one point mask
    per combination of windows on the later active axes, in
    itertools.product order, cut by each window of the first axis (shifted
    by half a brick after an odd second-axis window), then deduplicated in
    order of first occurrence."""
    npts = coords.shape[0]
    if not active or m < 1:
        return [tuple(range(npts))]
    ranges = {a: (int(coords[:, a].min()), int(coords[:, a].max())) for a in active}
    shift = max((m - 1) // 2, 1)
    first, rest = active[0], active[1:]
    bricks = []
    slab_windows = [list(enumerate(axis_windows(*ranges[a], m, shared=pos == 0 and m >= 3)))
                    for pos, a in enumerate(rest)]
    lo1, hi1 = ranges[first]
    for combo in itertools.product(*slab_windows) if slab_windows else [()]:
        parity = combo[0][0] % 2 if combo and m >= 3 else 0
        mask = np.ones(npts, dtype=bool)
        for (_, (wlo, whi)), a in zip(combo, rest):
            mask &= (coords[:, a] >= wlo) & (coords[:, a] <= whi)
        for wlo, whi in axis_windows(lo1, hi1, m, offset=parity * shift, shared=True):
            sub = mask & (coords[:, first] >= wlo) & (coords[:, first] <= whi)
            if sub.any():
                bricks.append(tuple(int(i) for i in np.flatnonzero(sub)))
    seen, out = set(), []
    for b in bricks:
        if b not in seen:
            seen.add(b)
            out.append(b)
    return out


def brick_cover_by_windows(space, eps: float) -> lf.CoverFamily:
    """`covers.brick_cover` on the bricks of `build_bricks_by_windows`, each
    trial size's largest diameter taken set by set with `lf.diameter`."""
    coords = space.coords
    active = np.flatnonzero(coords.min(axis=0) != coords.max(axis=0)).tolist()
    cap = max((int(coords[:, a].max() - coords[:, a].min()) + 1 for a in active), default=1)
    m = 1
    while m < cap and max(lf.diameter(space.dist, b) for b in
                          build_bricks_by_windows(coords, active, m + 1)) < eps / 6.0:
        m += 1
    if m == 2 and len(active) >= 2:
        m = 1
    return lf.CoverFamily(space, tuple(build_bricks_by_windows(coords, active, m)), len(active))


def net_cover_by_loops(space, eps: float, family) -> tuple[tuple, tuple]:
    """Net and merged sets of `covers.build_net_cover` for a refiner output
    that passed its checks, by per-pair loops: private points by membership
    counts, the greedy separated subfamily, each leftover set assigned to the
    kept representative of least (distance, index), and the merge by set
    unions.  Pruning is `covers._prune_irredundant`, tested on its own."""
    d = space.dist
    base = space.base_index
    sets = _prune_irredundant([set(s) for s in family.sets], space.n)
    first = next(i for i, s in enumerate(sets) if base in s)
    sets.insert(0, sets.pop(first))
    for s in sets[1:]:
        s.discard(base)
    reps = []
    for i, s in enumerate(sets):
        private = [p for p in s if sum(p in t for t in sets) == 1]
        assert private
        reps.append(base if i == 0 else min(private))
    kept = []
    for i, rep in enumerate(reps):
        if all(d[rep, reps[k]] > eps / 3.0 for k in kept):
            kept.append(i)
    assign = {}
    for i, rep in enumerate(reps):
        if i in kept:
            assign[i] = i
            continue
        cands = [k for k in kept if d[rep, reps[k]] <= eps / 3.0]
        assign[i] = min(cands, key=lambda k: (d[rep, reps[k]], k))
    merged = []
    net = []
    for k in kept:
        block = set()
        for i, s in enumerate(sets):
            if assign[i] == k:
                block |= s
        merged.append(tuple(sorted(block)))
        net.append(reps[k])
    return tuple(net), tuple(merged)


def verify_net_cover_by_loops(nc) -> lf.Certificate:
    """`covers.verify_net_cover` with its membership, ball and separation
    clauses as nested loops over net indices, sets and members, failures
    appended as the loops meet them."""
    d = nc.space.dist
    n = nc.space.n
    failures = []
    details = {}

    membership_ok = True
    for i, a in enumerate(nc.net):
        for j, s in enumerate(nc.sets):
            inside = a in s
            if inside != (i == j):
                membership_ok = False
                failures.append(("membership", i, j))
    details["membership"] = membership_ok

    ball_ok = True
    for i, (a, s) in enumerate(zip(nc.net, nc.sets)):
        for x in s:
            if not d[x, a] < nc.eps / 2.0:
                ball_ok = False
                failures.append(("ball", i, x))
    details["balls"] = ball_ok

    sep_ok = True
    for i, j in itertools.combinations(range(len(nc.net)), 2):
        if not d[nc.net[i], nc.net[j]] > nc.eps / 3.0:
            sep_ok = False
            failures.append(("separation", nc.net[i], nc.net[j]))
    details["separation"] = sep_ok

    got = lf.order(nc.sets)
    details["order"] = got
    if got > nc.order_bound:
        failures.append(("order", got, nc.order_bound))

    counts = [sum(p in s for s in nc.sets) for p in range(n)]
    missing = [p for p in range(n) if counts[p] == 0]
    details["coverage"] = not missing
    if missing:
        failures.append(("coverage", missing[0]))

    if nc.space.base_index not in nc.net or (nc.net and nc.net[0] != nc.space.base_index):
        failures.append(("base", nc.space.base_index))

    if details["coverage"] and nc.net:
        md = float(d[:, list(nc.net)].min(axis=1).max())
        details["net_density"] = md
        if not md <= nc.eps / 2.0:
            failures.append(("density", md))

    return lf.make_certificate(
        "net-cover", 0.0, float(len(failures)), "le", 0.0,
        witnesses=failures[:8],
        inputs={"space": nc.space.key, "eps": nc.eps, "order_bound": nc.order_bound},
        details=details,
    )


def h_rows_by_points(bundle, inner, rho) -> np.ndarray:
    """Rows of `gluing.build_h_operator` for a valid cutoff, point by point
    with position maps: (1 - rho(x)) times the inner row on the net columns,
    then rho(x) added on the column of x."""
    dom = lf.glue_domain(bundle)
    pos_in_dom = {p: i for i, p in enumerate(dom)}
    pos_in_v = {p: i for i, p in enumerate(bundle.v_indices)}
    a_pos = [pos_in_dom[a] for a in bundle.net]
    rows = np.zeros((bundle.cfg.space.n, len(dom)))
    for x in range(bundle.cfg.space.n):
        w = 1.0 - rho[x]
        if w > 0.0:
            rows[x, a_pos] += w * inner.pou.matrix[pos_in_v[x]]
        if rho[x] > 0.0:
            rows[x, pos_in_dom[x]] += rho[x]
    return rows


def complement_distances_by_sets(d: np.ndarray, sets) -> np.ndarray:
    """Column i holds the min of d over the columns outside U_i, taken from an
    explicit list of the complement's indices; an empty complement gives
    max(diam, 1).  The reference for `extension.complement_distances`."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    fallback = max(lf.diameter(d), 1.0)
    cols = []
    for s in sets:
        comp = sorted(set(range(n)) - set(s))
        cols.append(d[:, comp].min(axis=1) if comp else np.full(n, fallback))
    return np.stack(cols, axis=1)


def lipschitz_constant_dense(values, d: np.ndarray) -> float:
    """Best Lipschitz constant of values w.r.t. d over all n^2 pairs; inf when
    a zero-distance pair carries different values."""
    f = np.asarray(values, dtype=float)
    d = np.asarray(d, dtype=float)
    df = np.abs(f[:, None] - f[None, :])
    pos = d > 0.0
    best = float((df[pos] / d[pos]).max()) if pos.any() else 0.0
    degenerate = (~pos) & (df > 0.0)
    np.fill_diagonal(degenerate, False)
    if degenerate.any():
        return float("inf")
    return best


def min_plus_excess_by_via(d: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """The min-plus triangle sweep that records, for every pair (i, k), the
    first j attaining min_j d(i, j) + d(j, k) as it goes, over the whole
    matrix."""
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


def floyd_warshall_serial(w: np.ndarray) -> np.ndarray:
    """The whole-matrix k-loop, one n x n candidate per k: the reference the
    row-blocked `spaces.floyd_warshall` is compared against bit for bit."""
    d = np.array(w, dtype=float)
    np.fill_diagonal(d, 0.0)
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def grid_metric_by_broadcast(dims, spacing: float, ground: str) -> np.ndarray:
    """The grid metric of `spaces.make_grid_space` as earlier versions built
    it: one n x n x len(dims) array of coordinate differences, reduced over
    its last axis."""
    coords = np.array(list(itertools.product(*(range(k) for k in dims))), dtype=int)
    delta = np.abs(coords[:, None, :] - coords[None, :, :]).astype(float)
    if ground == "linf":
        d = delta.max(axis=2)
    elif ground == "l1":
        d = delta.sum(axis=2)
    else:
        d = np.sqrt((delta ** 2).sum(axis=2))
    d *= spacing
    return d


def random_metric_by_triu(n: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """The metric of `spaces.random_metric_space` as earlier versions built
    it: the symmetric sum of the strict upper triangle of the weights, closed
    by `floyd_warshall`."""
    w = np.random.default_rng(seed).uniform(0.5, 1.5, size=(n, n)) * scale
    w = np.triu(w, 1)
    return lf.floyd_warshall(w + w.T)


def shorten_edge_by_outer(d: np.ndarray, x: int, y: int, length: float) -> np.ndarray:
    """`spaces.shorten_edge` as its formula reads, on a copy of d, with two
    n x n arrays of candidates: min(d(u, v), fl(fl(a_u + b_v) + l),
    fl(fl(b_u + a_v) + l)) for the columns a, b of x and y."""
    a, b = d[:, x], d[:, y]
    return np.minimum(np.minimum(d, np.add.outer(a, b) + length), np.add.outer(b, a) + length)


def validate_metric_full(mat: np.ndarray, allow_zero: bool = False) -> spaces.ValidationReport:
    """`spaces.validate_metric` with the scans of earlier versions: each
    check on the whole matrix, through n x n temporaries (|mat - mat.T| and a
    copy with an infinite diagonal), its witness the first worst entry of
    np.argmax or np.argmin.  The diagonal, symmetry and sign axioms are
    exact; an asymmetric matrix gets no triangle check and no excess.  The
    triangle check is `_min_plus_excess`, as in the library, and the report
    records its excess."""
    mat = np.asarray(mat, dtype=float)
    if not np.isfinite(mat).all():
        i, j = np.unravel_index(np.argmin(np.isfinite(mat)), mat.shape)
        return spaces.ValidationReport(tuple(mat.shape), (
            spaces.Violation("nonfinite", (int(i), int(j)), float(mat[i, j])),))
    n = mat.shape[0]
    tol = spaces.DEFAULT_TOL
    violations = []
    diag = np.abs(np.diagonal(mat))
    if diag.size and diag.max() > 0:
        i = int(np.argmax(diag))
        violations.append(spaces.Violation("diagonal", (i,), float(diag[i])))
    asym = np.abs(mat - mat.T)
    if asym.size and asym.max() > 0:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        violations.append(spaces.Violation("symmetry", (int(i), int(j)), float(asym[i, j])))
    if n and mat.min() < 0:
        i, j = np.unravel_index(np.argmin(mat), mat.shape)
        violations.append(spaces.Violation("negative", (int(i), int(j)), float(-mat[i, j])))
    if not allow_zero and n > 1:
        off = mat.copy()
        np.fill_diagonal(off, np.inf)
        i, j = np.unravel_index(np.argmin(off), off.shape)
        if off[i, j] <= tol:
            violations.append(spaces.Violation("zero_offdiag", (int(i), int(j)), float(-off[i, j])))
    if not np.array_equal(mat, mat.T):
        return spaces.ValidationReport(tuple(mat.shape), tuple(violations))
    excess = 0.0
    if n:
        excess, witness = spaces._min_plus_excess(mat)
        if excess > tol:
            violations.append(spaces.Violation("triangle", witness, excess))
    return spaces.ValidationReport(tuple(mat.shape), tuple(violations), excess)


def validate_metric_by_scans(mat: np.ndarray, allow_zero: bool = False,
                             excess_bound=None) -> spaces.ValidationReport:
    """`spaces.validate_metric` as earlier versions scanned it: every axiom
    by its own `_first_max` row-block scan (a nonfinite scan, a |mat -
    mat.T| scan, a whole-matrix minimum and a negated off-diagonal scan),
    whether or not the axiom holds, under the exact diagonal, symmetry and
    sign axioms of `validate_metric`."""
    mat = np.asarray(mat, dtype=float)
    n = mat.shape[0]
    tol = spaces.DEFAULT_TOL
    bad, i, j = spaces._first_max(n, lambda lo, hi: ~np.isfinite(mat[lo:hi]))
    if bad > 0:
        return spaces.ValidationReport(tuple(mat.shape), (
            spaces.Violation("nonfinite", (i, j), float(mat[i, j])),))
    violations = []
    diag = np.abs(np.diagonal(mat))
    if diag.size and diag.max() > 0:
        i = int(np.argmax(diag))
        violations.append(spaces.Violation("diagonal", (i,), float(diag[i])))
    asym, i, j = spaces._first_max(n, lambda lo, hi: np.abs(mat[lo:hi] - mat[:, lo:hi].T))
    if asym > 0:
        violations.append(spaces.Violation("symmetry", (i, j), asym))
    if n and mat.min() < 0:
        i, j = np.unravel_index(np.argmin(mat), mat.shape)
        violations.append(spaces.Violation("negative", (int(i), int(j)), float(-mat[i, j])))
    if not allow_zero and n > 1:
        def negated_off_diagonal(lo, hi):
            block = np.negative(mat[lo:hi])
            block[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
            return block

        gap, i, j = spaces._first_max(n, negated_off_diagonal)
        if -gap <= tol:
            violations.append(spaces.Violation("zero_offdiag", (i, j), gap))
    if asym > 0:
        return spaces.ValidationReport(tuple(mat.shape), tuple(violations))
    excess = 0.0
    if excess_bound is not None and excess_bound <= tol:
        excess = float(excess_bound)
    elif n:
        excess, witness = spaces._min_plus_excess(mat)
        if excess > tol:
            violations.append(spaces.Violation("triangle", witness, excess))
    return spaces.ValidationReport(tuple(mat.shape), tuple(violations), excess)


def reach_by_two_adds(d: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """`spaces._reach` as earlier versions formed it on every matrix: the
    largest fl(d(u, v) - min(fl(a_u + b_v), fl(b_u + a_v))), through two
    n x n arrays of path sums."""
    s = np.minimum(np.add.outer(a, b), np.add.outer(b, a))
    return float((np.asarray(d, dtype=float) - s).max())


def grid_metric_by_rows(dims, spacing: float, ground: str) -> np.ndarray:
    """The grid metric of `spaces.make_grid_space` as earlier versions built
    it, by row blocks (`_lattice_rows`): each block from zeros, one axis at a
    time, the axis's |difference| folded in by a maximum (linf) or a sum
    (l1, of squares for l2), then square-rooted for l2 and multiplied by the
    spacing."""
    coords = np.array(list(itertools.product(*(range(k) for k in dims))), dtype=int)
    n = len(coords)
    axes = coords.T.astype(float)
    d = np.empty((n, n))
    for lo, hi in spaces.row_spans(n, n):
        out = d[lo:hi]
        out.fill(0.0)
        for axis in axes:
            step = np.abs(np.subtract.outer(axis[lo:hi], axis))
            if ground == "linf":
                np.maximum(out, step, out=out)
            else:
                out += step * step if ground == "l2" else step
        if ground == "l2":
            np.sqrt(out, out=out)
        out *= spacing
    return d


def molecule_norm_matrix_by_rows(op, d: np.ndarray) -> np.ndarray:
    """`freenorm.molecule_norm_matrix` as earlier versions filled it: the
    same class table, then one point x at a time, out[x, x:] from the table
    and out[x, :x] mirrored from the rows above."""
    d_a = np.asarray(d, dtype=float)[np.ix_(op.domain, op.domain)]
    base = op.base_position
    n, m = op.matrix.shape
    classes = op._classes
    reps, cls = classes.reps, classes.cls
    cols, vals = fn._sparse_rows(op.matrix[reps])
    table = np.zeros((len(reps), len(reps)))
    lp_parts = []
    for a, b in fn._pair_blocks(reps, classes.last):
        c, v = fn._difference(cols[a], vals[a], cols[b], vals[b], m)
        table[a, b], needs_lp = fn._triage(c, v, d_a, base)
        lp_parts.append((a[needs_lp], b[needs_lp], c[needs_lp], v[needs_lp]))
    if lp_parts:
        a, b, c, v = map(np.concatenate, zip(*lp_parts))
        table[a, b] = fn._lp_norms(c, v, d_a, base, {})
    out = np.empty((n, n))
    for x in range(n):
        out[x, x:] = table[cls[x], cls[x:]]
        out[x, :x] = out[:x, x]
    return out


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


def json_dump_of_lists(payload) -> str:
    """The report writer of earlier versions: json.dump (the streaming
    pure-Python encoder) with sorted keys and compact separators, on the
    payload with every array passed through .tolist(), then a newline."""
    def lists(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {k: lists(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [lists(v) for v in value]
        return value

    buf = io.StringIO()
    json.dump(lists(payload), buf, sort_keys=True, separators=(",", ":"))
    buf.write("\n")
    return buf.getvalue()


def traced_peak(call):
    """call()'s result and the peak of the traced Python heap during the call,
    in bytes above what was traced when it started.  numpy reports its array
    buffers to tracemalloc, so every temporary array counts."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - before


def sweeps_of(monkeypatch):
    """A list that gets the matrix shape of every call of the O(n^3)
    triangle sweep `spaces._min_plus_excess` made while the patch holds."""
    calls = []
    sweep = spaces._min_plus_excess

    def counted(d):
        calls.append(d.shape)
        return sweep(d)

    monkeypatch.setattr(spaces, "_min_plus_excess", counted)
    return calls


def count_solves(monkeypatch):
    """A list that gets a 1 for every program solved through
    `lpmod.transport` while the patch holds."""
    calls = []
    real = lpmod.transport

    def counted(mu, d):
        calls.extend([1] * len(mu))
        return real(mu, d)

    monkeypatch.setattr(lpmod, "transport", counted)
    return calls


def tamper_transport(monkeypatch, index, field, share=1e-6):
    """Make `lpmod.transport` move the largest plan entry of program index
    by share of its mass, raise its reported cost by share of its mass
    times its largest cost, or raise its potential at its heaviest source
    by share of its largest cost."""
    real = lpmod.transport

    def tamper(mu, d):
        sol = real(mu, d)
        plan, cost, potential = sol.plan.copy(), sol.cost.copy(), sol.potential.copy()
        mass, top = np.abs(mu[index]).sum(), d[index].max()
        if field == "plan":
            plan[index].ravel()[plan[index].argmax()] += share * mass
        elif field == "cost":
            cost[index] += share * mass * top
        else:
            potential[index, mu[index].argmax()] += share * top
        return lpmod.Transport(plan, cost, potential)

    monkeypatch.setattr(lpmod, "transport", tamper)


# Bytes of one 900 x 900 float64 array, the memory budget of the 900-point
# tests: a call may hold its inputs and its result, but no n x n temporary.
ONE_900 = 900 * 900 * 8


@pytest.fixture
def three_line():
    # points at 0, 1, 3 on the line
    return line_space([0.0, 1.0, 3.0])


@pytest.fixture
def small_random_spaces():
    return [lf.random_metric_space(n, seed=100 + n) for n in (3, 4, 5, 6)]
