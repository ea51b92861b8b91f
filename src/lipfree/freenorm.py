"""Lipschitz constants, free-space norms, extension operators, metric extension.

The norm of a finitely supported functional mu = sum_i w_i delta_{x_i} over a
finite metric space is the value of the Lipschitz LP

    max  sum_i w_i f(x_i)
    s.t. f(base) = 0 and |f(x) - f(y)| <= d(x, y) for all pairs,

which depends only on the metric restricted to the support plus the base
point (McShane).  Its dual is a transport problem: the least cost of a plan
from mu+ onto mu-, once mu is balanced at the base.  The molecules with one
point on a side or two on each take their closed forms (`_triage`), and the
difference delta_p - delta_q of two unit rows takes d(p, q) by one gather
(`_class_pairs`); the rest go to the stacked transport solver
`lp.transport`, whose plan and potential are checked to enclose the norm
before its cost is taken (`_lp_norms`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import lp as lpmod
from .certs import Certificate, make_certificate
from .spaces import (FiniteMetricSpace, as_indices, bad_indices, first_equal_rows,
                     floyd_warshall, least_class_distances, require_metric,
                     row_spans, sup_distance, validate_metric)


class AdmissionError(ValueError):
    """A perturbed metric lies outside the admissible radius."""

    def __init__(self, measured, radius):
        super().__init__(f"perturbation {measured:.6g} exceeds admissible radius {radius:.6g}")
        self.measured = measured
        self.radius = radius


class MetricExtensionError(RuntimeError):
    """A metric extension exceeded its certified distortion bound or is not a
    metric."""

    def __init__(self, certificate):
        super().__init__(str(certificate))
        self.certificate = certificate


def lipschitz_constant(values, d: np.ndarray) -> float:
    """Best Lipschitz constant of values w.r.t. d; inf when a zero-distance
    pair carries different values (pseudometrics only).

    Only pairs with an end in the support S of values are swept, as the rows
    S x all and the columns (all - S) x S: a pair with both ends off S has
    df = 0, so it can neither raise the maximum, which is >= 0, nor be
    degenerate.  The result is the all-pairs one for any d.
    """
    f = np.asarray(values, dtype=float)
    d = np.asarray(d, dtype=float)
    s = np.flatnonzero(f)
    off = np.flatnonzero(f == 0.0)
    best, degenerate = 0.0, False
    for df, ds in ((np.abs(f[s, None] - f[None, :]), d[s]),
                   (np.abs(f[off, None] - f[None, s]), d[np.ix_(off, s)])):
        pos = ds > 0.0
        best = np.maximum(best, (df[pos] / ds[pos]).max(initial=0.0))
        # df is 0 or NaN on the diagonal, so a diagonal pair is never degenerate
        degenerate |= bool(((~pos) & (df > 0.0)).any())
    return float("inf") if degenerate else float(best)


# ---------------------------------------------------------------------------
# free-space norm


def _sparse_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of w as (columns, values): each row's nonzero columns in
    ascending order and their entries, padded to the widest row (at least
    one slot) with the sentinel column m = w.shape[1] and the value 0."""
    nz = w != 0.0
    count = nz.sum(axis=1)
    width = max(1, int(count.max(initial=0)))
    cols = np.full((len(w), width), w.shape[1], dtype=np.intp)
    vals = np.zeros((len(w), width))
    filled = np.arange(width) < count[:, None]
    # both sides list the entries row by row, each row in column order
    cols[filled] = np.nonzero(nz)[1]
    vals[filled] = w[nz]
    return cols, vals


def _difference(cols_a: np.ndarray, vals_a: np.ndarray, cols_b: np.ndarray,
                vals_b: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse rows a - b from the sparse rows a and b over m columns, with
    the padding of `_sparse_rows`.

    Within a row of either side the real columns are distinct, so a column
    occurs at most twice in the concatenated row.  A stable sort puts the
    a entry first, and the merged value a + (-b) is bitwise the dense a - b;
    a column on one side only keeps a or -b, also bitwise.  The merged-away
    slot gets the value 0 and the sentinel column, so each real column keeps
    one slot and scattering the rows into a dense matrix writes it once.
    """
    cols = np.concatenate([cols_a, cols_b], axis=1)
    vals = np.concatenate([vals_a, -vals_b], axis=1)
    order = np.argsort(cols, axis=1, kind="stable")
    cols = np.take_along_axis(cols, order, axis=1)
    vals = np.take_along_axis(vals, order, axis=1)
    dup = np.flatnonzero((cols[:, 1:] == cols[:, :-1]) & (cols[:, 1:] != m))
    r, s = np.divmod(dup, cols.shape[1] - 1)
    vals[r, s] += vals[r, s + 1]
    vals[r, s + 1] = 0.0
    cols[r, s + 1] = m
    return cols, vals


def _triage(cols: np.ndarray, vals: np.ndarray, d: np.ndarray,
            base: int) -> tuple[np.ndarray, np.ndarray]:
    """Transport norms of the sparse rows (cols, vals) that have one point
    on a side or two on each, and a mask of the rows that need the solver.

    Zeroes the base entries of vals in place, then balances each row c by a
    base entry -sum c, summed slot by slot: the real columns are ascending
    along a row's slots and the other slots hold 0, so the sum runs over the
    support in column order, as over a dense row.  The balanced row mu has
    total 0 and, mu(base) being free in the LP, the same norm.

    **Transport.**  The LP's dual, min sum_ij y_ij d(i, j) over y >= 0 with
    sum_j y_ij - sum_j y_ji = mu_i, is a flow on the support and the base:
    y_ij runs i -> j at cost d(i, j), the orientation of the LP row
    f_i - f_j <= d(i, j), and the positive entries of mu are its sources.
    On a metric a path may be shortcut to its ends, so the norm is the least
    cost of a transport plan from mu+ onto mu- (Kantorovich-Rubinstein;
    Weaver, "Lipschitz Algebras", 1999).  Two shapes have it in closed form:
      * one point on a side.  A lone source p sends |mu_j| to each target j,
        the only plan: sum_j |mu_j| d(p, j); a lone target q receives
        sum_i |mu_i| d(i, q).  A zero row takes the first form, 0.  When
        both sides are lone, |mu_p| = |mu_q| exactly (fl(a + b) = 0 only for
        b = -a) and both forms read |mu_p| d(p, q).
      * two points on each side, masses a1, a2 at p1, p2 and b1, b2 at
        q1, q2 in slot order.  A plan is fixed by x = y(p1, q1): then
        y(p1, q2) = a1 - x, y(p2, q1) = b1 - x and y(p2, q2) = a2 - b1 + x
        are >= 0 for x in [max(0, a1 - b2), min(a1, b1)].  The cost is
        linear in x, so the norm is the smaller of its values at the two
        ends, which may tie or coincide.
    The sums run over the slots in order, the base entry last.  So a single
    point, ||w delta_i|| = |w| d(i, base), and an exact molecule
    +-(delta_i - delta_j), d(i, j), get one product, the IEEE expression of
    their norm identities, bitwise when d is bitwise symmetric.

    **Float matrices.**  Let T be the LP optimum, which ships through all k
    points of the support and the base, and K the transport optimum.  A plan
    is a flow, so T <= K.  An optimal flow splits into paths from sources
    to targets and cycles, which cost >= 0; a path of l <= k - 1 edges
    costs at least the distance between its ends less (l - 1) eta, for eta
    the largest triangle excess d(i, k) - d(i, j) - d(j, k) of d, which a
    pipeline metric's recorded `excess` bounds up to the rounding of one
    sum.  So K <= T + (k - 2) eta ||mu+||_1: the forms answer the LP up to
    that and their own rounding.
    """
    vals[cols == base] = 0.0
    k, width = vals.shape
    total = np.zeros(k)
    for s in range(width):
        total += vals[:, s]
    # the base entry in a last slot; a padded slot holds 0 on a real column
    cols = np.concatenate([np.minimum(cols, len(d) - 1), np.full((k, 1), base)], axis=1)
    vals = np.concatenate([vals, -total[:, None]], axis=1)
    pos, neg = vals > 0.0, vals < 0.0
    n_pos, n_neg = np.count_nonzero(pos, axis=1), np.count_nonzero(neg, axis=1)
    source = n_pos <= 1
    one = source | (n_neg == 1)
    value = np.where(one, _one_point(cols, vals, source, d), 0.0)
    two = (n_pos == 2) & (n_neg == 2)
    if two.any():
        value[two] = _two_by_two(cols[two], vals[two], pos[two], neg[two], d)
    return value, ~(one | two)


def _one_point(cols: np.ndarray, vals: np.ndarray, source: np.ndarray,
               d: np.ndarray) -> np.ndarray:
    """The one-point form of `_triage` on balanced rows, for a lone source
    where source holds, else for a lone target: with the row negated for a
    target, the lone point is the one positive slot and the far side's
    masses are the negated negative slots.  It runs on every row of a block,
    one array operation for all, and a row with no lone point gets a value
    its caller drops."""
    signed = np.where(source[:, None], vals, -vals)
    hub = cols[np.arange(len(cols)), signed.argmax(axis=1)][:, None]
    np.negative(signed, out=signed)
    np.maximum(signed, 0.0, out=signed)
    signed *= np.where(source[:, None], d[hub, cols], d[cols, hub])
    cost = np.zeros(len(cols))
    for s in range(cols.shape[1]):
        cost += signed[:, s]
    return cost


def _two_by_two(cols: np.ndarray, vals: np.ndarray, pos: np.ndarray, neg: np.ndarray,
                d: np.ndarray) -> np.ndarray:
    """The 2 x 2 form of `_triage` on balanced rows with two positive slots
    (pos) and two negative ones (neg): the plan cost x d(p1, q1) + (a1 - x)
    d(p1, q2) + (b1 - x) d(p2, q1) + (a2 - (b1 - x)) d(p2, q2), summed in
    that order, at the two ends x of the interval."""
    r = np.arange(len(cols))[:, None]
    # np.nonzero lists each row's two slots of a side in slot order
    ps, qs = np.nonzero(pos)[1].reshape(-1, 2), np.nonzero(neg)[1].reshape(-1, 2)
    (a1, a2), (b1, b2) = vals[r, ps].T, -vals[r, qs].T
    dist = d[cols[r, ps][:, :, None], cols[r, qs][:, None, :]]
    x = np.stack([np.maximum(0.0, a1 - b2), np.minimum(a1, b1)])
    y21 = b1 - x
    cost = (x * dist[:, 0, 0] + (a1 - x) * dist[:, 0, 1] + y21 * dist[:, 1, 0]
            + (a2 - y21) * dist[:, 1, 1])
    return cost.min(axis=0)


def _lp_norms(cols: np.ndarray, vals: np.ndarray, d: np.ndarray, base: int,
              memo: dict) -> np.ndarray:
    """Transport norms of the sparse rows (cols, vals), whose base entries
    are zero, memoised in memo.

    A row's key is the exact bytes of its support and of its weights, in
    column order, as a dense row's `flatnonzero` would give them; with d
    fixed per memo, equal keys pose the same program, which the
    deterministic solver answers identically.  The keys missing from memo
    are solved once each, one `lpmod.transport` stack per support size,
    over the support in column order and the base last, balanced by
    -sum c as in `_triage`.  A norm is its plan's cost, once
    `_check_witnesses` has passed the plan and the potential.
    """
    keys = []
    groups: dict = {}           # support size -> {key: (support, weights)}
    for c, v, keep in zip(cols, vals, vals != 0.0):
        support, weights = c[keep], v[keep]
        key = (support.tobytes(), weights.tobytes())
        keys.append(key)
        if key not in memo:
            groups.setdefault(len(support), {})[key] = (support, weights)
    for group in groups.values():
        subs = np.array([np.append(support, base) for support, _ in group.values()])
        weights = np.array([weights for _, weights in group.values()])
        total = np.zeros(len(weights))
        for s in range(weights.shape[1]):
            total += weights[:, s]
        mu = np.concatenate([weights, -total[:, None]], axis=1)
        d_subs = d[subs[:, :, None], subs[:, None, :]]
        sol = lpmod.transport(mu, d_subs)
        _check_witnesses(mu, d_subs, sol)
        memo.update(zip(group, sol.cost.tolist()))
    return np.array([memo[key] for key in keys], dtype=float)


def _check_witnesses(mu: np.ndarray, d: np.ndarray, sol: lpmod.Transport) -> None:
    """Raise `lpmod.LpError` unless each program of the stack (masses mu
    over n points, metric D with a zero diagonal) has a plan and a
    potential that enclose its norm T = max sum mu f over f with
    f(x) - f(y) <= D(x, y).

    Let m = ||mu||_1, eta = max(D(x, z) - D(x, y) - D(y, z)) the triangle
    excess of D (0 on a metric) and tau = TOL * max D.  In exact arithmetic:
      * a plan with marginals mu+ and mu- is a flow of T's dual, so its
        cost is at least T;
      * if the potential g has g(x) - g(y) <= D(x, y) + e, then
        T >= sum mu g - (n - 1) e ||mu+||_1: an optimal dual flow splits
        into paths of at most n - 1 arcs carrying ||mu+||_1 in all;
      * the c-transform has e <= eta: with j the target attaining g(y),
        g(x) - g(y) <= D(x, j) - D(y, j) <= D(x, y) + eta;
      * the last labels leave every residual arc's reduced cost above -tau
        and every plan entry's below tau, so g is within tau of -label at
        a source and within eta + 2 tau below it at a target, and
        |cost - sum mu g| <= (eta + 2 tau) ||mu+||_1.
    Rounding adds a few ulps of m to the marginals and of n max D to g and
    the labels.  So each program must have marginals within TOL * m,
    e <= eta + tau and |cost - sum mu g| <= n (eta + tau) m.  One that
    passes has T - 2 n tau m <= cost <= T + 2 n (eta + tau) m: its plan
    misses at most 2 n TOL m of mu+, priced at most max D per unit by T.
    """
    n = mu.shape[1]
    mass = np.abs(mu).sum(axis=1)
    tau = lpmod.TOL * d.max(axis=(1, 2), initial=0.0)
    eta = (d[:, :, None, :] - d[:, :, :, None] - d[:, None, :, :]).max(axis=(1, 2, 3),
                                                                      initial=0.0)
    g = sol.potential
    moved = np.maximum(np.abs(sol.plan.sum(axis=2) - np.maximum(mu, 0.0)),
                       np.abs(sol.plan.sum(axis=1) - np.maximum(-mu, 0.0))).max(axis=1)
    excess = (g[:, :, None] - g[:, None, :] - d).max(axis=(1, 2), initial=0.0)
    gap = np.abs(sol.cost - (mu * g).sum(axis=1))
    for name, measured, allowed in (("marginal", moved, lpmod.TOL * mass),
                                    ("potential excess", excess, eta + tau),
                                    ("gap", gap, n * (eta + tau) * mass)):
        bad = np.flatnonzero(~(measured <= allowed))
        if bad.size:
            p = bad[0]
            raise lpmod.LpError(f"norm program {p}: {name} {measured[p]:.3g} "
                                f"exceeds {allowed[p]:.3g}")


def _row_norms(cols: np.ndarray, vals: np.ndarray, d: np.ndarray, base: int,
               memo: dict) -> np.ndarray:
    """Norms of the sparse rows (cols, vals) over the points of d with the
    given base.

    The base entries never matter and are zeroed in place.  `_triage` answers
    the rows with one point on a side or two on each by their transport
    plans; every other row is solved once per distinct (support, weights)
    in memo, all in one `_lp_norms` call.
    """
    value, needs_lp = _triage(cols, vals, d, base)
    value[needs_lp] = _lp_norms(cols[needs_lp], vals[needs_lp], d, base, memo)
    return value


# Pairs per block of the class-pair sweeps, in rows of the pair matrix, and
# per chunk of the pairs left to `_triage` (`_class_pairs`), in multiples of
# the class count.  A chunk's sparse differences are only twice the widest
# weight row wide, but `_ratio_upper_bounds` fills an m-wide row of star
# bounds for each pair left to the solver, and those transients grow with the
# chunk.  At 4 rows the glue workload's peak RSS matches one x per block.  Its
# glued operators' 4,861 class pairs take 12 blocks and leave 573 pairs, 2
# chunks, to the triage; the 100 classes of the 900-point partitions, all
# unit rows, take 14 blocks and leave none.
_BLOCK_ROWS = 4


def _pair_blocks(starts: np.ndarray, ends: np.ndarray):
    """The pairs (a, b) with starts[a] < ends[b] as (a, b) index arrays in
    row-major order, in blocks of consecutive a's holding about
    _BLOCK_ROWS * len(ends) pairs each.  With starts = ends = arange(n) these
    are the pairs x < y of n points.

    The blocking changes no molecule norm and no ratio: the gather, the
    merge, the triage, the star bounds and the solver read each pair's two
    weight rows alone, so `_class_pairs` may regroup the pairs into chunks.
    """
    counts = len(ends) - np.searchsorted(np.sort(ends), starts, side="right")
    lo = 0
    while lo < len(starts):
        hi, pairs = lo + 1, counts[lo]
        while hi < len(starts) and pairs < _BLOCK_ROWS * len(ends):
            pairs += counts[hi]
            hi += 1
        if pairs:
            a, b = np.nonzero(starts[lo:hi, None] < ends[None, :])
            yield a + lo, b
        lo = hi


class _RowClasses:
    """The classes of bitwise-equal rows of a weight matrix w, numbered by
    first occurrence: reps[a] and last[a] are the first and the last row of
    class a, and cls[x] is the class of row x.  Some pair x < y has x in
    class a and y in class b exactly when reps[a] < last[b].  A
    `WeightOperator` builds its classes once (`WeightOperator._classes`)."""

    def __init__(self, w: np.ndarray):
        n = len(w)
        first = first_equal_rows(w)
        self.reps = np.flatnonzero(first == np.arange(n))
        self.cls = np.searchsorted(self.reps, first)
        self.last = np.zeros(len(self.reps), dtype=np.intp)
        np.maximum.at(self.last, self.cls, np.arange(n))


def _unit_columns(cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """For the sparse rows (cols, vals) of `_sparse_rows`, the column p of
    each unit row, one nonzero entry and that entry exactly 1.0, else -1.
    A row's nonzeros fill its first slots, and the padding holds 0."""
    unit = (vals[:, 0] == 1.0) & (np.count_nonzero(vals, axis=1) == 1)
    return np.where(unit, cols[:, 0], -1)


def _class_pairs(classes: _RowClasses, cols: np.ndarray, vals: np.ndarray, d: np.ndarray):
    """The oriented class pairs (a, b) with reps[a] < last[b] (`_pair_blocks`)
    as triples (a, b, norm) of arrays, for (cols, vals) the classes' rows as
    `_sparse_rows`: the pairs of two unit classes, with columns p = unit[a]
    and q = unit[b] (`_unit_columns`), with their molecule norms
    fl(d(p, q) + 0.0), gathered block by block, and the other pairs with
    norm None, left to `_difference` and `_triage`, in chunks of
    _BLOCK_ROWS * k pairs for k classes.  Each stream is in row-major
    order, and memory holds one block and one chunk of pairs.

    The gather is bitwise `_triage`'s norm, for d finite with a zero
    diagonal.  For p != q, `_difference` gives the row +1 at p and -1 at q,
    padded with zeros, and `_triage` balances it by a last base slot:
      * p and q off the base: the slot sums run 0 + 1 - 1 or 0 - 1 + 1 with
        zeros between, exactly +0.0, so the base slot holds -0.0, neither
        positive nor negative;
      * p the base: its entry is zeroed, the total is -1 and the base slot
        holds +1 at column p;
      * q the base: its entry is zeroed, the total is +1 and the base slot
        holds -1 at column q.
    So the row has one positive slot, +1 at column p, its argmax, and one
    negative slot, -1 at column q: `_one_point` takes p as the lone source.
    Its terms are 1 * d(p, q) = d(p, q) at the q slot and 0 * d(p, c),
    zeros, at every other, summed in slot order from +0.0.  Adding zeros to
    +0.0 gives +0.0, and adding a zero to x != 0 gives x, so the norm is
    d(p, q), or +0.0 when d(p, q) is a zero of either sign: fl(d(p, q) +
    0.0).  For p = q (a class against itself, or two rows that differ in
    the sign of a zero entry) the difference is the zero row, whose terms
    are all zeros, so `_triage` gives +0.0, and so does d(p, p) + 0.0.
    """
    unit, size = _unit_columns(cols, vals), _BLOCK_ROWS * len(classes.reps)
    rest_a = rest_b = np.empty(0, dtype=np.intp)
    for a, b in _pair_blocks(classes.reps, classes.last):
        p, q = unit[a], unit[b]
        gather = np.minimum(p, q) >= 0
        if gather.any():
            yield a[gather], b[gather], d[p[gather], q[gather]] + 0.0
        rest_a = np.concatenate([rest_a, a[~gather]])
        rest_b = np.concatenate([rest_b, b[~gather]])
        while len(rest_a) >= size:
            yield rest_a[:size], rest_b[:size], None
            rest_a, rest_b = rest_a[size:], rest_b[size:]
    if len(rest_a):
        yield rest_a, rest_b, None


# Relative slack an upper bound on a molecule ratio must clear before its pair
# is pruned.  It dwarfs the rounding in the bound and the enclosure of the
# transport cost (`_ratio_upper_bounds`), so a pruned pair lies strictly below
# the maximum.
PRUNE_MARGIN = 1e-6


def _ratio_upper_bounds(cols: np.ndarray, vals: np.ndarray, d: np.ndarray,
                        base: int, d_t: np.ndarray) -> np.ndarray:
    """Upper bounds on transport-norm / d_t for the sparse rows (cols, vals),
    with the padding of `_sparse_rows` and zero base entries.

    Balance a row c by mu(base) = -sum c.  For any point p, the flow that
    sends each source's mass to p and each target's from p is a flow of the
    norm LP's dual, so its cost star(p) = sum_x |mu_x| d(x, p) (d symmetric,
    as every metric the door admits is) bounds the LP optimum T.  `_lp_norms`
    returns at most T + 2 n (eta + tau) m (`_check_witnesses`).
    PRUNE_MARGIN covers that and the rounding: star(p) >= (m / 2) d_min, for
    d_min the least distance from p to another point with mass, and on a
    pipeline metric d_min is far above 4e6 n (eta + TOL max d).

    The sums run over each row's slots in order, one elementwise add per
    slot, so a row's bound depends on that row alone and not on the other
    rows of the call.  A slot whose value is 0 (padding, a merged-away or a
    base entry) adds exact zeros, d being finite; the sentinel column m is
    clipped to a real one.  One buffer holds each slot's terms in turn.
    """
    m = len(d)
    abs_v = np.abs(vals)
    star = np.zeros((len(cols), m))
    term = np.empty_like(star)
    total = np.zeros(len(cols))
    for s in range(cols.shape[1]):
        np.take(d, cols[:, s], axis=0, mode="clip", out=term)
        term *= abs_v[:, s, None]
        star += term
        total += vals[:, s]
    np.multiply(np.abs(total)[:, None], d[base][None, :], out=term)
    star += term
    return star.min(axis=1) * (1.0 + PRUNE_MARGIN) / d_t


# ---------------------------------------------------------------------------
# weight operators


@dataclass(frozen=True)
class WeightOperator:
    """Linear map from functions on a subset A to functions on all points,
    f -> sum_i f(a_i) w_i.  Partition-type operators have nonnegative rows
    summing to one."""

    space: FiniteMetricSpace
    domain: tuple[int, ...]
    matrix: np.ndarray
    partition: bool = False

    def __post_init__(self):
        bad = bad_indices(self.domain, self.space.n)
        if bad:
            raise ValueError(f"operator domain entry {bad[0]} ({self.domain[bad[0]]!r}) "
                             "is not a point index")
        dom = tuple(int(i) for i in self.domain)
        object.__setattr__(self, "domain", dom)
        if len(set(dom)) != len(dom):
            raise ValueError("operator domain must not repeat a point")
        w = np.array(self.matrix, dtype=float)
        if w.shape != (self.space.n, len(dom)):
            raise ValueError(f"weight matrix must be {self.space.n} x {len(dom)}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if self.partition:
            if w.min() < -1e-12:
                raise ValueError("partition weights must be nonnegative")
            sums = w.sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-9:
                raise ValueError("partition weights must sum to one at every point")
        w.setflags(write=False)
        object.__setattr__(self, "matrix", w)

    @property
    def base_position(self) -> int:
        b = self.space.base_index
        if b not in self.domain:
            raise ValueError("base point missing from the operator domain")
        return self.domain.index(b)

    @cached_property
    def _classes(self) -> _RowClasses:
        """The classes of equal weight rows, shared by every sweep of this
        operator."""
        return _RowClasses(self.matrix)

    def apply(self, f_values) -> np.ndarray:
        f = np.asarray(f_values, dtype=float)
        if f.shape != (len(self.domain),):
            raise ValueError("need one value per domain point")
        return self.matrix @ f


def _metric(op: WeightOperator, d) -> np.ndarray:
    """d as a float matrix over all points of op's space."""
    d = np.asarray(d, dtype=float)
    n = op.space.n
    if d.shape != (n, n):
        raise ValueError(f"metric must be {n} x {n}, got {d.shape}")
    return d


def _metrics(op: WeightOperator, d) -> tuple[np.ndarray, np.ndarray, int]:
    """d as a float matrix over all points (`_metric`), its restriction to
    the operator domain, and the base position in the domain."""
    d = _metric(op, d)
    return d, d[np.ix_(op.domain, op.domain)], op.base_position


def molecule_norm_matrix(op: WeightOperator, d: np.ndarray) -> np.ndarray:
    """Matrix of free-space norms of the row differences of op over (A, d|A).

    Entry (x, y) is the norm of sum_i (w_i(x) - w_i(y)) delta_{a_i}, the exact
    sup over the unit ball of Lip0(A, d|A) of |op(f)(x) - op(f)(y)|, for the
    n x n metric d on all points.

    The entry depends on x and y only through their weight rows, so the
    norms are computed once per oriented pair (a, b) of bitwise-distinct
    rows that some pair x < y takes, x in class a and y in class b (classes
    numbered by first occurrence, with first(a) < last(b)), as w[x] - w[y]
    from the representatives and never as w[y] - w[x]: the program of -c
    is another memo key, whose plan may differ in the last bits.
    Entry (x, y), x < y, is read from the table for (class of x, class of
    y) and mirrored to (y, x), by row blocks: from the table right of a
    block's first row, else and below its diagonal from the transpose.

    The weight rows are read once as sparse rows (at most r + 1 nonzeros
    each for a cover of order r).  A pair of two unit rows, at columns p
    and q, takes d(p, q) + 0.0 by one gather (`_class_pairs`), bitwise the
    triage's norm of delta_p - delta_q.  The differences of each chunk of
    other pairs are merged by `_difference`, bitwise the dense differences,
    and triaged: molecules with one point on a side or two on each take
    their transport plans.  The rows left go to one `_lp_norms` call, which
    solves each distinct (support, weights) of the whole sweep once, in
    transport stacks that share a support size; a stacked solve is bitwise
    a solve alone.
    """
    _, d_a, base = _metrics(op, d)
    n, m = op.matrix.shape
    classes = op._classes
    reps, cls = classes.reps, classes.cls
    cols, vals = _sparse_rows(op.matrix[reps])
    table = np.zeros((len(reps), len(reps)))
    lp_parts = []
    for a, b, norm in _class_pairs(classes, cols, vals, d_a):
        if norm is None:
            c, v = _difference(cols[a], vals[a], cols[b], vals[b], m)
            norm, needs_lp = _triage(c, v, d_a, base)
            lp_parts.append((a[needs_lp], b[needs_lp], c[needs_lp], v[needs_lp]))
        table[a, b] = norm
    if lp_parts:
        a, b, c, v = map(np.concatenate, zip(*lp_parts))
        table[a, b] = _lp_norms(c, v, d_a, base, {})
    out = np.empty((n, n))
    lower = np.ascontiguousarray(table.T)
    for lo, hi in row_spans(n, n):
        c = cls[lo:hi]
        np.take(table[c], cls[lo:], axis=1, out=out[lo:hi, lo:], mode="clip")
        np.take(lower[c], cls[:lo], axis=1, out=out[lo:hi, :lo], mode="clip")
        np.copyto(out[lo:hi, lo:hi], lower[c[:, None], c], where=np.tri(hi - lo, k=-1, dtype=bool))
    return out


class ClassPairs:
    """The classes of equal weight rows of op (`WeightOperator._classes`)
    against one metric d on all points: least[a, b] is the least d(x, y)
    over the pairs x < y with x in class a and y in class b
    (`spaces.least_class_distances`), +inf where there is none.  The
    extension pipeline runs both sweeps of a (weights, metric) pair on one:
    an operator norm and the partition Lipschitz constants.  It is not
    exported from `lipfree`: `ratio_max` trusts its argument to be a
    molecule-norm matrix of op, and every method trusts d to be a matrix
    `validate_metric` admitted, so symmetric.

    A sweep's quantity N >= 0 of a pair (x, y), a molecule norm or the gap
    of a weight column, depends on x and y only through their weight rows,
    so it is computed once per class pair and divided once, by the least
    distance: correctly rounded division fl(N / d) does not rise as d > 0
    grows, so fl(N / least d) is bitwise the largest member ratio, and a
    bound on N / least d bounds every member.
    """

    def __init__(self, op: WeightOperator, d):
        self.op = op
        self.d = _metric(op, d)
        self.classes = op._classes
        self.least = least_class_distances(self.d, self.classes.cls)

    @np.errstate(divide="ignore", invalid="ignore")
    def first_maximiser(self, table: np.ndarray, best: float) -> tuple[int, int]:
        """The first pair x < y in row-major order with fl(table[a, b] /
        d(x, y)) == best, for the classes a of x and b of y, given best, the
        largest of the class ratios fl(table / least); NaN entries of table
        (never computed) cannot tie, nor can a pair at distance 0 with N = 0.

        Only the class pairs whose ratio ties best hold such a pair, each at
        its least distance.  Their members are scanned in row-major order, by
        `_pair_blocks` over the tied classes' rows and columns, until one
        reaches best: distinct distances may round to the same ratio.
        """
        cls = self.classes.cls
        tied = table / self.least == best
        xs = np.flatnonzero(tied.any(axis=1)[cls])
        ys = np.flatnonzero(tied.any(axis=0)[cls])
        for i, j in _pair_blocks(xs, ys):
            x, y = xs[i], ys[j]
            a, b = cls[x], cls[y]
            keep = np.flatnonzero(tied[a, b])
            hit = np.flatnonzero(table[a[keep], b[keep]] / self.d[x[keep], y[keep]] == best)
            if hit.size:
                return int(x[keep[hit[0]]]), int(y[keep[hit[0]]])
        raise ValueError(f"no pair x < y attains the ratio {best!r}")

    @np.errstate(divide="ignore", invalid="ignore")
    def operator_norm(self) -> tuple[float, tuple[int, int]]:
        """`operator_norm(op, d)`.

        The sweep runs over the oriented class pairs (a, b), as in
        `molecule_norm_matrix`, each ratio N(a, b) / least[a, b]; the pairs
        of two unit rows, gathered (`_class_pairs`), and the triaged pairs
        give exact ratios, and best starts from them.  The rest are solved
        in descending order of their `_ratio_upper_bounds` at the least
        distance, in stacks of 1, 2, 4, ... pairs, until a stack's leading
        bound falls below the best ratio so far.  For the final best B, a
        stack is skipped only when every bound in it and after it lies below
        a best <= B, so every pair whose bound is at least B is solved,
        whatever the stacking; a pair whose ratio ties B has its bound at
        least B.  So value and witness (`first_maximiser`) are the
        exhaustive sweep's, a pair's cost being bitwise the same in any
        stack.  As in `lipschitz_constant`, a pair at distance 0 is skipped
        when N = 0 (0/0 is NaN, which np.fmax passes over), else inf.
        """
        op, least = self.op, self.least
        d_a, base = self.d[np.ix_(op.domain, op.domain)], op.base_position
        n, m = op.matrix.shape
        if n < 2:
            return 0.0, (0, 0)
        cols, vals = _sparse_rows(op.matrix[self.classes.reps])
        table = np.full(least.shape, np.nan)
        best = -np.inf
        lp_parts = []
        for a, b, norm in _class_pairs(self.classes, cols, vals, d_a):
            if norm is None:
                c, v = _difference(cols[a], vals[a], cols[b], vals[b], m)
                norm, needs_lp = _triage(c, v, d_a, base)
                lp_parts.append((a[needs_lp], b[needs_lp],
                                 _ratio_upper_bounds(c[needs_lp], v[needs_lp], d_a, base,
                                                     least[a[needs_lp], b[needs_lp]])))
                a, b, norm = a[~needs_lp], b[~needs_lp], norm[~needs_lp]
            table[a, b] = norm
            best = np.fmax.reduce(norm / least[a, b], initial=best)
        if lp_parts:
            lp_a, lp_b, bounds = map(np.concatenate, zip(*lp_parts))
            order = np.argsort(-bounds, kind="stable")
            memo: dict = {}
            lo, size = 0, 1
            while lo < len(order) and not bounds[order[lo]] < best:
                a, b = lp_a[order[lo:lo + size]], lp_b[order[lo:lo + size]]
                c, v = _difference(cols[a], vals[a], cols[b], vals[b], m)
                table[a, b] = _row_norms(c, v, d_a, base, memo)
                best = np.fmax.reduce(table[a, b] / least[a, b], initial=best)
                lo, size = lo + size, 2 * size
        return float(best), self.first_maximiser(table, best)

    @np.errstate(divide="ignore", invalid="ignore")
    def ratio_max(self, norms: np.ndarray) -> tuple[float, tuple[int, int]]:
        """Largest ratio norms[x, y] / d(x, y) over the pairs x < y and its
        first maximiser in row-major order, for norms =
        `molecule_norm_matrix(op, e)` under any metric e: its entries above
        the diagonal depend on x and y only through their weight rows, so
        norms is read once per oriented class pair (a, b), at the pair
        (reps[a], last[b]).  Pairs at distance 0 count as in `operator_norm`."""
        if self.op.space.n < 2:
            return 0.0, (0, 0)
        reps, last = self.classes.reps, self.classes.last
        table = np.where(reps[:, None] < last[None, :], norms[np.ix_(reps, last)], np.nan)
        best = float(np.fmax.reduce(table / self.least, axis=None, initial=-np.inf))
        return best, self.first_maximiser(table, best)

    def lipschitz_constants(self) -> np.ndarray:
        """The Lipschitz constant of each weight column of op under d: entry
        i is bitwise `lipschitz_constant(op.matrix[:, i], d)`, inf when a
        pair at distance <= 0 carries different weights.

        A column's gap |w_i(x) - w_i(y)| is symmetric, so it is divided by
        the least distance over a class pair's members in either
        orientation, min(least, least.T): d is symmetric, so that is the
        least over both orders of each pair.  Only the class pairs with an
        end in the column's support are read: the others have gap 0.
        """
        least = np.minimum(self.least, self.least.T)
        w = self.op.matrix[self.classes.reps].T      # w[i, a]: column i on class a
        nz_i, nz_a = np.nonzero(w)
        out = np.zeros(len(w))
        # each nonzero (i, a) against every class b, in chunks of about
        # _LIP_CELLS gaps
        step = max(1, _LIP_CELLS // len(least))
        for lo in range(0, len(nz_i), step):
            i, a = nz_i[lo:lo + step], nz_a[lo:lo + step]
            gap = np.abs(w[i, a, None] - w[i])
            ds = least[a]
            pos = ds > 0.0
            ratio = np.divide(gap, ds, out=np.zeros_like(gap), where=pos)
            best = ratio.max(axis=1)
            # a class pair (a, a) has gap 0, whatever least holds there
            best[((~pos) & (gap > 0.0)).any(axis=1)] = np.inf
            np.maximum.at(out, i, best)
        return out


# Gaps per chunk of `ClassPairs.lipschitz_constants`.
_LIP_CELLS = 2 ** 16


def operator_norm(op: WeightOperator, d: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Norm of op from Lip0(A, d|A) to Lip0(T, d) via the molecule reduction,
    and its witness: max over pairs x != y of ||row(x) - row(y)||_{F(A)} /
    d(x, y), with the first maximising pair (x < y, row-major).  The sweep
    runs over the pairs of classes of equal weight rows
    (`ClassPairs.operator_norm`), and value and witness are bitwise the
    exhaustive sweep's over the point pairs."""
    return ClassPairs(op, d).operator_norm()


# ---------------------------------------------------------------------------
# metric extension with certified sup distortion


@dataclass(frozen=True)
class MetricExtension:
    matrix: np.ndarray
    certificate: Certificate


def metric_extension_lp(d: np.ndarray, members, rho: np.ndarray) -> MetricExtension:
    """Extend the metric rho from a subset S to all points of (T, d).

    With delta = sup |rho - d| on S x S, the extension d2 is the shortest-path
    closure of the weights rho on S x S and d + delta on every other pair:
      (1) d2 <= d + delta off S x S, because every pair is its own path;
      (2) a path leaving S between s and s' costs at least d(s, s') + 2 delta
          >= rho(s, s') + delta per excursion, so d2 = rho on S x S;
      (3) each run of a path inside S costs at least d - delta and is entered
          or left by an edge of cost d + delta, so d2 >= d off S x S.
    The certificate checks (1) in the claim's own arithmetic, d2 <= w entrywise
    for the matrix w = fl(d + delta) the closure starts from, which needs no
    tolerance since the closure only lowers entries.  It measures the lower
    side, max (d - d2) off S x S, against delta with slack 1e-9; a d2 above w
    or not a metric measures inf.  A failure raises MetricExtensionError.
    The certificate's details hold sup |d2 - d| off S x S as `sup_distortion`.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    s_idx = list(as_indices(members))
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (len(s_idx), len(s_idx)):
        raise ValueError("rho must be a matrix over the subset")
    require_metric(rho, what="subset metric rho")

    on_s = np.ix_(s_idx, s_idx)
    claimed = sup_distance(rho, d[on_s])
    w = d + claimed
    w[on_s] = rho
    d2 = floyd_warshall(w)
    # rho is a metric only up to DEFAULT_TOL, so the closure may undercut it
    d2[on_s] = rho
    np.fill_diagonal(d2, 0.0)

    off = np.ones((n, n), dtype=bool)
    off[on_s] = False
    distortion = float(np.abs(d2 - d)[off].max()) if off.any() else 0.0
    below = float((d - d2)[off].max()) if off.any() else 0.0
    above_w = int(np.count_nonzero(d2[off] > w[off]))
    check = validate_metric(d2)
    cert = make_certificate(
        "metric-extension-distortion", claimed,
        below if check.ok and above_w == 0 else float("inf"), "le", 1e-9,
        inputs={"n": n, "subset": s_idx},
        details={"metric_check": check.summary(), "entries_above_w": above_w,
                 "sup_distortion": distortion},
    )
    if not cert.passed:
        raise MetricExtensionError(cert)
    return MetricExtension(d2, cert)
