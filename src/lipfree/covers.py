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
from .spaces import FiniteMetricSpace, as_indices, bad_indices, diameter


class CoverError(ValueError):
    """A family fails the preconditions of the net construction."""


@dataclass(frozen=True)
class CoverFamily:
    space: FiniteMetricSpace
    sets: tuple[tuple[int, ...], ...]
    nominal_order_bound: int

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(as_indices(s, self.space) for s in self.sets))

    def covers(self) -> bool:
        return bool(_counts(self.sets, self.space.n).all())


def _counts(sets, n: int = 0) -> np.ndarray:
    """Entry p counts the sets containing point p, for p below max(n, largest
    member + 1); order, redundancy, private points and coverage read it."""
    members = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.intp)
    return np.bincount(members, minlength=n)


def order(sets) -> int:
    """Largest n such that n+1 members share a point; -1 for all-empty input."""
    if isinstance(sets, CoverFamily):
        sets = sets.sets
    return int(_counts(sets).max(initial=0)) - 1


# ---------------------------------------------------------------------------
# brick covers of lattice-backed spaces


def _axis_windows(lo: int, hi: int, m: int, offset: int = 0, shared: bool = True):
    """Closed coordinate windows [s, s+m-1] covering lo..hi.

    Shared windows advance by m-1 so consecutive windows meet in one slot;
    unshared windows advance by m and partition the range.
    """
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


def _build_bricks(coords: np.ndarray, active: list[int], m: int) -> list[tuple[int, ...]]:
    """Staggered brick pattern with multiplicity at most 3 on the lattice points.

    The first two active axes form a running-bond pattern (windows share
    endpoints, odd rows shifted by half a brick); remaining axes are sliced
    into disjoint windows.  A point then lies in at most 2 x 2 bricks minus
    the staggered corner, so the order is at most min(#active axes, 3).
    """
    npts = coords.shape[0]
    if not active or m < 1:
        return [tuple(range(npts))]
    ranges = {a: (int(coords[:, a].min()), int(coords[:, a].max())) for a in active}
    shift = max((m - 1) // 2, 1)

    first = active[0]
    rest = active[1:]
    bricks = []
    slab_axes = []
    slab_windows = []
    for pos, a in enumerate(rest):
        lo, hi = ranges[a]
        shared = pos == 0 and m >= 3            # only the second axis staggers
        slab_axes.append(a)
        slab_windows.append(list(enumerate(_axis_windows(lo, hi, m, shared=shared))))
    lo1, hi1 = ranges[first]

    for combo in itertools.product(*slab_windows) if slab_windows else [()]:
        parity = combo[0][0] % 2 if combo and m >= 3 else 0
        mask = np.ones(npts, dtype=bool)
        for (idx, (wlo, whi)), a in zip(combo, slab_axes):
            mask &= (coords[:, a] >= wlo) & (coords[:, a] <= whi)
        for wlo, whi in _axis_windows(lo1, hi1, m, offset=parity * shift, shared=True):
            sub = mask & (coords[:, first] >= wlo) & (coords[:, first] <= whi)
            if sub.any():
                bricks.append(tuple(int(i) for i in np.flatnonzero(sub)))
    # dedupe while preserving first occurrence
    seen, out = set(), []
    for b in bricks:
        if b not in seen:
            seen.add(b)
            out.append(b)
    return out


def brick_cover(space: FiniteMetricSpace, eps: float) -> CoverFamily:
    """Cover a lattice-backed space by bricks of diameter below eps/6.

    The brick size is the largest window width whose diameter stays below
    eps/6 (singletons always qualify); the order never exceeds the number of
    axes along which the points vary.
    """
    if eps <= 0:
        raise CoverError("eps must be positive")
    if space.coords is None:
        raise CoverError("brick covers need lattice coordinates; supply a custom refiner")
    coords = space.coords
    active = np.flatnonzero(coords.min(axis=0) != coords.max(axis=0)).tolist()
    bound = max(len(active), 0)

    def max_diam(m: int) -> float:
        return max(diameter(space.dist, b) for b in _build_bricks(coords, active, m))

    limit = eps / 6.0
    cap = max((int(coords[:, a].max() - coords[:, a].min()) + 1 for a in active), default=1)
    m = 1
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


def _prune_irredundant(sets: list[set], n: int) -> list[set]:
    """Drop sets, first index first, until no set of the cover of range(n)
    lies in the union of the others, i.e. until each has a member of count 1.

    One ordered pass suffices: dropping a set only lowers counts, so a set
    kept earlier keeps its count-1 member and never becomes redundant later.
    """
    counts = _counts(sets, n)
    kept = []
    for s in sets:
        idx = list(s)
        if (counts[idx] >= 2).all():
            counts[idx] -= 1
        else:
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
    """
    d = space.dist
    family = refiner(space, eps)
    if not family.covers():
        raise CoverError("refiner output does not cover the space")
    worst = max(diameter(d, s) for s in family.sets if s)
    if worst >= eps / 6.0:
        raise CoverError(f"refiner sets have diameter {worst:.6g} >= eps/6")
    r = family.nominal_order_bound
    base = space.base_index
    n = space.n

    sets = _prune_irredundant([set(s) for s in family.sets], n)
    # move one set containing the base point to the front, strip the base
    # point from all others (they still cover: each kept set has a private
    # point, which for the others cannot be the base point)
    first = next(i for i, s in enumerate(sets) if base in s)
    sets.insert(0, sets.pop(first))
    for s in sets[1:]:
        s.discard(base)

    # member[i] is set i as a mask; reps[i] its smallest count-1 member
    member = np.zeros((len(sets), n), dtype=bool)
    for i, s in enumerate(sets):
        member[i, list(s)] = True
    private = member & (_counts(sets, n) == 1)
    if not private.any(axis=1).all():
        raise CoverError("pruning failed to leave a private point")
    reps = private.argmax(axis=1)
    reps[0] = base

    close = d[np.ix_(reps, reps)] <= eps / 3.0
    kept = np.zeros(len(sets), dtype=bool)
    for i in range(len(sets)):
        kept[i] = not (close[i] & kept).any()
    assign = np.argmin(d[np.ix_(reps, reps[kept])], axis=1)
    merged = np.zeros((int(kept.sum()), n), dtype=bool)
    np.logical_or.at(merged, assign, member)
    return NetAndCover(space, tuple(reps[kept].tolist()),
                       tuple(tuple(np.flatnonzero(row).tolist()) for row in merged),
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

