"""Set families, order-bounded brick covers of grids, and separated nets.

build_net_cover turns any fine cover (diameter below eps/6, order at most r)
into a separated net A and a merged cover (U_i) with:

  (i)   a_i belongs to U_j exactly when i = j,
  (ii)  U_i is contained in the open ball of radius eps/2 around a_i,
  (iii) distinct net points are more than eps/3 apart,

and the merged family never has larger order than the input family.  All the
choices the construction leaves open (representatives, the separated
subfamily, the assignment of leftover sets) are made by first index, the last
as the nearest kept representative, first on ties, so the output is a
deterministic function of the input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .certs import Certificate, make_certificate
from .spaces import FiniteMetricSpace, as_indices, bad_indices, row_spans


class CoverError(ValueError):
    """A family fails the preconditions of the net construction."""


@dataclass(frozen=True)
class CoverFamily:
    space: FiniteMetricSpace
    sets: tuple[tuple[int, ...], ...]
    nominal_order_bound: int

    def __post_init__(self):
        sets = [list(s) for s in self.sets]     # one test of every entry; as_indices names one
        if bad_indices(list(itertools.chain.from_iterable(sets)), self.space.n):
            for s in sets:
                as_indices(s, self.space)
        object.__setattr__(self, "sets", tuple(tuple(sorted(set(map(int, s)))) for s in sets))

    def covers(self) -> bool:
        return bool(_counts(self.sets, self.space.n).all())


def flatten_sets(sets) -> tuple[np.ndarray, np.ndarray]:
    """The members of the sets end to end, and the offsets: set i holds
    members[starts[i]:starts[i + 1]], in its own order."""
    sizes = [len(s) for s in sets]
    starts = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=starts[1:])
    members = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.intp,
                          count=int(starts[-1]))
    return members, starts


def _counts(sets, n: int = 0) -> np.ndarray:
    """Entry p counts the sets containing point p, for p below max(n, largest
    member + 1); order, redundancy, private points and coverage read it."""
    return np.bincount(flatten_sets(sets)[0], minlength=n)


def order(sets) -> int:
    """Largest n such that n+1 members share a point; -1 for all-empty input."""
    if isinstance(sets, CoverFamily):
        sets = sets.sets
    return int(_counts(sets).max(initial=0)) - 1


# ---------------------------------------------------------------------------
# brick covers of lattice-backed spaces


def _windows(v: np.ndarray, m: int, offset: int = 0,
             shared: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The closed windows [s, s+m-1] of an axis holding the integer
    coordinates v, as the index of the first and of the last window that
    holds each coordinate.

    Window k starts at lo - offset % step + k step, lo = min v, for k = 0,
    1, ... until a window starts beyond max v.  Shared windows advance by
    step = m-1, so consecutive windows meet in one slot and a coordinate
    there lies in two; unshared windows advance by m and partition the
    range; width-1 windows (m = 1) hold one coordinate each.
    """
    step = 1 if m == 1 else (m - 1 if shared else m)
    rel = v - v.min() + offset % step          # v less the first window's start
    return np.maximum(-((m - 1 - rel) // step), 0), rel // step


def _bricks(coords: np.ndarray, active: list[int], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Staggered brick pattern with multiplicity at most 3 on the lattice
    points, as (members, starts) of `flatten_sets`: the nonempty bricks in
    pattern order, repeats kept, each brick's points ascending.

    The first two active axes form a running-bond pattern (windows share
    endpoints, odd rows shifted by half a brick); remaining axes are sliced
    into disjoint windows.  A point then lies in at most 2 x 2 bricks minus
    the staggered corner, so the order is at most min(#active axes, 3).

    A brick is a window on each later active axis, in axis order, then one
    on the first axis, shifted by half a brick when the second axis's window
    index is odd; pattern order is lexicographic in those indices.  A point
    lies in one or two windows per axis, so its bricks, one window per axis,
    are formed for all points by broadcasting and grouped by a stable sort.
    """
    n = coords.shape[0]
    if not active or m < 1:
        return np.arange(n), np.array([0, n])
    points = np.arange(n)
    key = np.zeros((n, 1), dtype=np.int64)        # the window choices so far
    held = np.ones((n, 1), dtype=bool)            # ... that hold the point
    odd = np.zeros((n, 1), dtype=bool)            # ... with an odd second-axis window

    def choose(first, last, width):
        nonlocal key, held, odd
        key = (key[..., None] * width + np.stack([first, last], axis=-1)).reshape(n, -1)
        # the first choice always holds the point, the second when it differs
        held = (held[..., None] & ((last > first)[..., None] | [True, False])).reshape(n, -1)
        odd = np.repeat(odd, 2, axis=1)

    stagger = m >= 3
    for pos, a in enumerate(active[1:]):
        first, last = _windows(coords[:, a], m, shared=pos == 0 and stagger)
        choose(first[:, None], last[:, None], int(last.max()) + 1)
        if pos == 0 and stagger:
            odd = (key % 2 == 1)
    v = coords[:, active[0]]
    shift = max((m - 1) // 2, 1)
    spans = [_windows(v, m, offset=k * shift) for k in (0, 1)]
    width = max(int(last.max()) + 1 for _, last in spans)
    first = np.where(odd, spans[1][0][:, None], spans[0][0][:, None])
    last = np.where(odd, spans[1][1][:, None], spans[0][1][:, None])
    choose(first, last, width)
    keys = key[held]
    order = np.argsort(keys, kind="stable")       # points stay ascending per brick
    keys = keys[order]
    members = np.broadcast_to(points[:, None], held.shape)[held][order]
    bounds = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    return members, np.concatenate(([0], bounds, [len(keys)]))


def _build_bricks(coords: np.ndarray, active: list[int], m: int) -> list[tuple[int, ...]]:
    """The bricks of `_bricks` as tuples, each once, in the order of their
    first occurrence."""
    members, starts = _bricks(coords, active, m)
    flat, ends = members.tolist(), starts.tolist()
    return list(dict.fromkeys(tuple(flat[a:b]) for a, b in zip(ends, ends[1:])))


def _largest_diameter(d: np.ndarray, members: np.ndarray, starts: np.ndarray) -> float:
    """Largest d(p, q) over p, q in one set, for nonempty sets given as
    (members, starts) of `flatten_sets`.  Each set is padded to the longest by
    repeating its last member, which adds no new pair, and gathered with its
    pairwise distances by the row blocks of `row_spans`; a maximum is exact in
    any order, so this is the largest of the sets' `diameter`s."""
    sizes = np.diff(starts)
    width = int(sizes.max())
    slots = np.minimum(np.arange(width), sizes[:, None] - 1) + starts[:-1, None]
    padded = members[slots]
    blocks = (padded[lo:hi] for lo, hi in row_spans(len(padded), width * width))
    return max(float(d[rows[:, :, None], rows[:, None, :]].max()) for rows in blocks)


def brick_cover(space: FiniteMetricSpace, eps: float) -> CoverFamily:
    """Cover a lattice-backed space by bricks of diameter below eps/6.

    The brick size is the largest window width whose diameter stays below
    eps/6 (singletons always qualify), searched one width at a time from the
    least nonzero coordinate gap g of an active axis: the widths up to g all
    give the bricks of width 1, in the same order.  The order never exceeds
    the number of axes along which the points vary.  CoverError names the
    first active axis where the product of spans + 1, a bound on `_bricks`'
    int64 keys, passes 2^62.
    """
    if eps <= 0:
        raise CoverError("eps must be positive")
    if space.coords is None:
        raise CoverError("brick covers need lattice coordinates; supply a custom refiner")
    coords = space.coords
    active = np.flatnonzero(coords.min(axis=0) != coords.max(axis=0)).tolist()
    bound = max(len(active), 0)
    spans, keys = [int(coords[:, a].max()) - int(coords[:, a].min()) for a in active], 1
    for a, span in zip(active, spans):
        keys *= span + 1
        if keys > 2 ** 62:
            raise CoverError(f"axis {a} spans {span} lattice steps: brick keys pass 2**62")

    def max_diam(m: int) -> float:
        return _largest_diameter(space.dist, *_bricks(coords, active, m))

    limit = eps / 6.0
    cap = max(spans, default=0) + 1
    # a window of width m <= g, the least gap between distinct coordinates
    # of an active axis, holds one coordinate per axis, so every such width
    # gives the bricks of width 1, in the same order: start the search at g
    steps = np.diff(np.sort(coords[:, active], axis=0), axis=0)
    m = int(steps[steps > 0].min()) if (steps > 0).any() else 1
    while m < cap and max_diam(m + 1) < limit:
        m += 1
    if m == 2 and len(active) >= 2:
        m = 1                      # 2-wide bricks cannot stagger; fall back
    bricks = _build_bricks(coords, active, m)
    family = CoverFamily(space, tuple(bricks), nominal_order_bound=bound)
    if not family.covers():
        raise CoverError("brick pattern failed to cover the space")
    got = order(family)
    if got > bound:
        raise CoverError(f"brick pattern has order {got} > {bound}")
    return family


# ---------------------------------------------------------------------------
# net plus cover


@dataclass(frozen=True)
class NetAndCover:
    space: FiniteMetricSpace
    net: tuple[int, ...]
    sets: tuple[tuple[int, ...], ...]
    eps: float
    order_bound: int


def _prune_irredundant(sets: list, n: int) -> list:
    """Drop sets, first index first, until no set of the cover of range(n)
    lies in the union of the others, i.e. until each has a member of count 1.

    One ordered pass suffices: dropping a set only lowers counts, so a set
    kept earlier keeps its count-1 member and never becomes redundant later.
    For the same reason a set that holds a count-1 member at the start is
    kept without a test; only the others are tested in turn.
    """
    members, starts = flatten_sets(sets)
    counts = np.bincount(members, minlength=n)
    owner = np.repeat(np.arange(len(sets)), np.diff(starts))
    private = np.zeros(len(sets), dtype=bool)
    private[owner[counts[members] == 1]] = True
    kept = []
    for i, s in enumerate(sets):
        if not private[i]:
            idx = members[starts[i]:starts[i + 1]]
            if (counts[idx] >= 2).all():
                counts[idx] -= 1
                continue
        kept.append(s)
    return kept


def build_net_cover(space: FiniteMetricSpace, eps: float,
                    refiner=brick_cover) -> NetAndCover:
    """Separated net and merged cover from a fine cover of the space.

    Each set of the pruned cover is represented by its smallest private point,
    a member of count 1, or by the base point for the first set.  A set is
    kept when its representative lies more than eps/3 from those of all kept
    sets before it; every other set joins the nearest kept representative,
    the first on ties, which lies within eps/3 of it.

    The sets are held end to end as (member, owner) arrays.  The greedy pass
    reads one column of d per kept set: the representatives within eps/3
    of it can no longer be kept.
    """
    d = space.dist
    family = refiner(space, eps)
    if not family.covers():
        raise CoverError("refiner output does not cover the space")
    worst = _largest_diameter(d, *flatten_sets([s for s in family.sets if s]))
    if worst >= eps / 6.0:
        raise CoverError(f"refiner sets have diameter {worst:.6g} >= eps/6")
    r = family.nominal_order_bound
    base = space.base_index
    n = space.n

    sets = _prune_irredundant(family.sets, n)
    # move one set containing the base point to the front, strip the base
    # point from all others (they still cover: each kept set has a private
    # point, which for the others cannot be the base point)
    first = next(i for i, s in enumerate(sets) if base in s)
    sets.insert(0, sets.pop(first))
    x, starts = flatten_sets(sets)
    owner = np.repeat(np.arange(len(sets)), np.diff(starts))
    stays = (x != base) | (owner == 0)
    x, owner = x[stays], owner[stays]

    # reps[i] is set i's smallest count-1 member
    private = np.bincount(x, minlength=n)[x] == 1
    reps = np.full(len(sets), n)
    np.minimum.at(reps, owner[private], x[private])
    if (reps == n).any():
        raise CoverError("pruning failed to leave a private point")
    reps[0] = base

    blocked = np.zeros(len(sets), dtype=bool)
    kept = []
    for i in range(len(sets)):
        if not blocked[i]:
            kept.append(i)
            blocked |= d[reps, reps[i]] <= eps / 3.0
    net = reps[kept]
    assign = np.argmin(d[np.ix_(reps, net)], axis=1)
    merged = np.zeros((len(kept), n), dtype=bool)
    merged[assign[owner], x] = True
    rows, cols = np.nonzero(merged)
    cols, ends = cols.tolist(), np.cumsum(np.bincount(rows, minlength=len(kept))).tolist()
    return NetAndCover(space, tuple(net.tolist()),
                       tuple(tuple(cols[a:b]) for a, b in zip([0] + ends, ends)),
                       float(eps), int(r))


def verify_net_cover(nc: NetAndCover) -> Certificate:
    """Check membership, ball, separation, order and coverage clauses exactly.

    Each clause is one array comparison; its failures are listed in the
    order of the clause's index loops: (net index, set index) row by row for
    membership, set by set and then in each set's own member order for the
    balls, and pairs i < j row by row for separation.

    A net point or member that is not an integer in [0, n) fails the
    certificate with a ("range", "net" | "set", position, entry) witness and
    no other clause: numpy would raise on it, wrap it round to a real point or
    truncate a float to one.
    """
    d = nc.space.dist
    n = nc.space.n
    inputs = {"space": nc.space.key, "eps": nc.eps, "order_bound": nc.order_bound}
    details = {}

    failures = [("range", "net", i, nc.net[i]) for i in bad_indices(nc.net, n)]
    failures += [("range", "set", j, s[m]) for j, s in enumerate(nc.sets)
                 for m in bad_indices(s, n)]
    if failures:
        return make_certificate("net-cover", 0.0, float(len(failures)), "le", 0.0,
                                witnesses=failures[:8], inputs=inputs, details={"range": False})

    net = np.asarray(nc.net, dtype=np.intp)
    # member x[m] of set owner[m], set by set in each set's own order
    owner = np.repeat(np.arange(len(nc.sets)), [len(s) for s in nc.sets])
    x = np.fromiter(itertools.chain.from_iterable(nc.sets), dtype=np.intp)
    member = np.zeros((len(nc.sets), n), dtype=bool)
    member[owner, x] = True
    wrong = member[:, net].T != np.eye(len(net), len(nc.sets), dtype=bool)
    failures = [("membership", int(i), int(j)) for i, j in np.argwhere(wrong)]
    details["membership"] = not wrong.any()

    paired = owner < len(net)
    owner, x = owner[paired], x[paired]
    outside = ~(d[x, net[owner]] < nc.eps / 2.0)
    failures += [("ball", int(i), int(p)) for i, p in zip(owner[outside], x[outside])]
    details["balls"] = not outside.any()

    near = np.triu(~(d[np.ix_(net, net)] > nc.eps / 3.0), 1)
    failures += [("separation", int(net[i]), int(net[j])) for i, j in np.argwhere(near)]
    details["separation"] = not near.any()

    got = order(nc.sets)
    details["order"] = got
    if got > nc.order_bound:
        failures.append(("order", got, nc.order_bound))

    missing = np.flatnonzero(_counts(nc.sets, n) == 0)
    details["coverage"] = not missing.size
    if missing.size:
        failures.append(("coverage", int(missing[0])))

    if nc.space.base_index not in nc.net or (nc.net and nc.net[0] != nc.space.base_index):
        failures.append(("base", nc.space.base_index))

    # density follows from coverage plus the ball clause; record it
    if details["coverage"] and nc.net:
        md = float(d[:, net].min(axis=1).max())
        details["net_density"] = md
        if not md <= nc.eps / 2.0:
            failures.append(("density", md))

    return make_certificate("net-cover", 0.0, float(len(failures)), "le", 0.0,
                            witnesses=failures[:8], inputs=inputs, details=details)

