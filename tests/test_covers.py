from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lipfree as lf
from conftest import (brick_cover_by_windows, build_bricks_by_windows, net_cover_by_loops,
                      prune_irredundant_by_unions, verify_net_cover_by_loops)
from lipfree import covers
from lipfree.covers import CoverError, CoverFamily, _prune_irredundant


@st.composite
def covering_families(draw):
    """Families of subsets of range(n) whose union is range(n): each point
    joins a nonempty choice of sets, so some sets may stay empty, and a few
    sets are repeated before the family is shuffled."""
    n = draw(st.integers(0, 8))
    k = draw(st.integers(1, 6))
    sets = [set() for _ in range(k)]
    for p in range(n):
        for i in draw(st.sets(st.integers(0, k - 1), min_size=1)):
            sets[i].add(p)
    sets += [set(sets[i]) for i in draw(st.lists(st.integers(0, k - 1), max_size=3))]
    return draw(st.permutations(sets)), n


@st.composite
def fine_families(draw):
    """An integer-valued metric space, an eps and a covering family whose sets
    have diameter below eps/6.  Every distance is an integer and eps/3 is one
    too, so ties in the nearest representative and distances of exactly eps/3
    are common."""
    n = draw(st.integers(1, 10))
    w = np.array(draw(st.lists(st.integers(1, 4), min_size=n * n, max_size=n * n)),
                 dtype=float).reshape(n, n)
    w = np.triu(w, 1)
    d = lf.floyd_warshall(w + w.T)
    space = lf.FiniteMetricSpace(tuple(f"q{i}" for i in range(n)), d,
                                 base_index=draw(st.integers(0, n - 1)))
    t = draw(st.integers(0, 3))                  # largest set diameter
    sets = []
    for cand in draw(st.lists(st.lists(st.integers(0, n - 1)), max_size=2 * n)):
        s = []
        for p in cand:
            if p not in s and all(d[p, q] <= t for q in s):
                s.append(p)
        sets.append(s)
    covered = {p for s in sets for p in s}
    sets += [[p] for p in range(n) if p not in covered]
    family = CoverFamily(space, tuple(draw(st.permutations(sets))), lf.order(sets))
    return space, 6.0 * t + 3.0, family


def build_from(space, eps, family):
    return lf.build_net_cover(space, eps, refiner=lambda sp, e: family)


class TestOrder:
    def test_disjoint_sets(self):
        assert lf.order([(0, 1), (2, 3), (4,)]) == 0

    def test_single_shared_point(self):
        assert lf.order([(1, 2), (2, 3)]) == 1

    def test_all_empty(self):
        assert lf.order([(), ()]) == -1

    def test_triple_overlap(self):
        assert lf.order([(0,), (0,), (0,), (1,)]) == 2


class TestBrickCover:
    def test_1d_overlapping_intervals(self):
        space = lf.make_grid_space([65], 1 / 64)
        fam = lf.brick_cover(space, 0.25)
        assert fam.covers()
        assert lf.order(fam) <= 1
        assert any(len(b) > 1 for b in fam.sets)
        assert max(lf.diameter(space.dist, b) for b in fam.sets) < 0.25 / 6

    def test_2d_staggered(self):
        space = lf.make_grid_space([13, 13], 1 / 50)
        fam = lf.brick_cover(space, 0.25)
        assert fam.covers()
        assert lf.order(fam) <= 2
        assert any(len(b) >= 9 for b in fam.sets)
        assert max(lf.diameter(space.dist, b) for b in fam.sets) < 0.25 / 6

    def test_3d_order_bound(self):
        space = lf.make_grid_space([5, 5, 5], 1 / 40)
        fam = lf.brick_cover(space, 0.6)
        assert fam.covers()
        assert lf.order(fam) <= 3

    def test_singletons_when_spacing_coarse(self):
        space = lf.make_grid_space([9], 0.125)
        fam = lf.brick_cover(space, 0.25)   # eps/6 < spacing
        assert all(len(b) == 1 for b in fam.sets)
        assert lf.order(fam) == 0

    def test_line_inside_grid(self):
        space = lf.make_grid_space([10, 4], 0.1)
        row = [i for i in range(space.n) if space.coords[i, 1] == 0]
        sub = lf.restrict_space(space, row)
        fam = lf.brick_cover(sub, 0.9)
        assert fam.covers()
        assert lf.order(fam) <= 1
        assert fam.nominal_order_bound == 1

    @pytest.mark.parametrize("dims, members", [
        ([1], [0]), ([3, 3], [4]), ([1, 5], range(5)), ([4, 1, 3], range(12)),
        ([4, 3], [0, 3, 6, 9]), ([3, 3, 3], [1, 4, 7]), ([2, 2], range(4)),
    ])
    def test_active_axes_are_the_varying_ones(self, dims, members):
        # lattices with constant axes, and single points
        space = lf.restrict_space(lf.make_grid_space(dims, 0.1), members)
        coords = space.coords
        want = [a for a in range(coords.shape[1]) if len(np.unique(coords[:, a])) > 1]
        with mock.patch.object(covers, "_bricks", wraps=covers._bricks) as build:
            fam = lf.brick_cover(space, 0.9)
        assert build.call_args_list
        assert all(call.args[1] == want for call in build.call_args_list)
        assert fam.nominal_order_bound == len(want) == space.nominal_dim
        assert fam.covers()

    def test_requires_coordinates(self):
        space = lf.random_metric_space(5, seed=0)
        with pytest.raises(CoverError):
            lf.brick_cover(space, 0.5)

    def test_nonpositive_eps(self):
        space = lf.make_grid_space([4], 1.0)
        with pytest.raises(CoverError):
            lf.brick_cover(space, 0.0)


class TestBrickKeyRange:
    """The window indices and brick keys of `covers._bricks` are int64; a
    space whose active axes could wrap them is refused, naming the axis,
    before any of them is computed."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_axis_spanning_past_int64_is_refused(self):
        space = lf.FiniteMetricSpace(("a", "b", "c"), np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0.0]]),
                                     coords=np.array([[-2 ** 63], [0], [2 ** 63 - 1]]))
        with pytest.raises(CoverError, match=f"axis 0 spans {2 ** 64 - 1} lattice steps"):
            lf.brick_cover(space, 0.25)
        with pytest.raises(CoverError, match="axis 0 spans"):
            lf.build_net_cover(space, 0.25)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_product_of_axis_spans_is_bounded(self):
        # each axis alone fits, the keys of the two together would not
        space = lf.FiniteMetricSpace(("a", "b"), np.array([[0, 1], [1, 0.0]]),
                                     coords=np.array([[0, 0], [2 ** 31, 2 ** 31]]))
        with pytest.raises(CoverError, match=f"axis 1 spans {2 ** 31} lattice steps"):
            lf.brick_cover(space, 0.25)


class TestBuildNetCover:
    def test_single_point_space(self):
        space = lf.make_grid_space([1], 1.0)
        nc = lf.build_net_cover(space, 0.5)
        assert nc.net == (0,)
        assert nc.sets == ((0,),)
        assert lf.verify_net_cover(nc).passed

    def test_seventeen_point_line(self):
        space = lf.make_grid_space([17], 1 / 16)
        nc = lf.build_net_cover(space, 0.25)
        assert lf.verify_net_cover(nc).passed

    def test_base_point_in_exactly_one_set(self):
        space = lf.make_grid_space([17], 1 / 16)
        nc = lf.build_net_cover(space, 0.25)
        count = sum(space.base_index in s for s in nc.sets)
        assert count == 1
        assert nc.net[0] == space.base_index

    def test_net_is_half_eps_dense(self):
        space = lf.make_grid_space([9, 9], 1 / 32)
        nc = lf.build_net_cover(space, 0.25)
        assert lf.is_eps_dense(space.dist, nc.net, 0.25 / 2).dense

    def test_merge_never_increases_order(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            dims = [int(rng.integers(4, 14))] if seed % 2 else [int(rng.integers(3, 7))] * 2
            spacing = float(rng.choice([1 / 8, 1 / 16, 1 / 32]))
            space = lf.make_grid_space(dims, spacing)
            eps = float(rng.choice([0.2, 0.3, 0.5]))
            fam = lf.brick_cover(space, eps)
            nc = lf.build_net_cover(space, eps)
            assert lf.order(nc.sets) <= max(lf.order(fam), 0)

    def test_deterministic(self):
        space = lf.make_grid_space([7, 7], 1 / 24)
        a = lf.build_net_cover(space, 0.3)
        b = lf.build_net_cover(space, 0.3)
        assert a == b


@st.composite
def lattice_subsets(draw):
    """A lattice of one to three axes (extents 1..7, some constant), each
    ground, restricted to a drawn subset of its points half the time."""
    dims = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
    space = lf.make_grid_space(dims, draw(st.sampled_from([1 / 8, 1 / 16, 0.02])),
                               draw(st.sampled_from(["linf", "l1", "l2"])))
    if draw(st.booleans()):
        members = draw(st.sets(st.integers(0, space.n - 1), min_size=1))
        space = lf.restrict_space(space, members)
    return space


class TestBricksMatchWindows:
    """The whole-array brick pattern is bitwise the window-by-window one:
    brick order, members and first-occurrence dedupe, for any list of
    axes, so also on constant and reordered ones."""

    @given(lattice_subsets(), st.integers(0, 5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bricks_match_the_window_loop(self, space, m, data):
        coords = space.coords
        axes = data.draw(st.permutations(range(coords.shape[1])))
        active = axes[:data.draw(st.integers(0, len(axes)))]
        assert covers._build_bricks(coords, active, m) == \
            build_bricks_by_windows(coords, active, m)

    @given(lattice_subsets(), st.sampled_from([1 / 8, 1 / 4, 1 / 3, 0.6, 0.9]))
    @settings(max_examples=150, deadline=None)
    def test_cover_and_net_match_the_window_loop(self, space, eps):
        family = brick_cover_by_windows(space, eps)
        assert lf.brick_cover(space, eps).sets == family.sets
        nc = lf.build_net_cover(space, eps)
        assert (nc.net, nc.sets) == net_cover_by_loops(space, eps, family)

    def test_largest_diameter_is_the_largest_set_diameter(self):
        space = lf.make_grid_space([6, 5], 0.1, "l2")
        sets = [(0,), (1, 2, 9), (), (3, 29), tuple(range(7))]
        members, starts = covers.flatten_sets([s for s in sets if s])
        assert covers._largest_diameter(space.dist, members, starts) == \
            max(lf.diameter(space.dist, s) for s in sets if s)


class TestNetCoverMatchesLoops:
    @given(fine_families())
    @settings(max_examples=300, deadline=None)
    def test_net_and_sets_match_the_loops(self, case):
        space, eps, family = case
        nc = build_from(space, eps, family)
        assert (nc.net, nc.sets) == net_cover_by_loops(space, eps, family)
        assert all(type(p) is int for p in nc.net)
        assert all(type(p) is int for s in nc.sets for p in s)

    def test_tie_goes_to_the_first_kept_representative(self):
        # point 1 is 1 away from both 0 and 2, which are 2 apart: with
        # eps/3 = 1.5, 0 and 2 are kept and 1 joins 0, the first on the tie
        space = lf.make_grid_space([3], 1.0)
        family = CoverFamily(space, ((0,), (2,), (1,)), 0)
        nc = build_from(space, 4.5, family)
        assert nc.net == (0, 2)
        assert nc.sets == ((0, 1), (2,))
        assert (nc.net, nc.sets) == net_cover_by_loops(space, 4.5, family)


@st.composite
def corrupted_net_covers(draw):
    """A built net and cover with one to three faults: a moved net point, an
    added (possibly repeated, unsorted) or dropped member, a shrunk eps, or a
    net and a family of different lengths."""
    space, eps, family = draw(fine_families())
    nc = build_from(space, eps, family)
    net, sets = list(nc.net), [list(s) for s in nc.sets]
    point = st.integers(0, space.n - 1)
    for fault in draw(st.lists(st.sampled_from(
            ["move", "add", "drop", "shrink", "length"]), min_size=1, max_size=3)):
        if fault == "move" and net:
            net[draw(st.integers(0, len(net) - 1))] = draw(point)
        elif fault == "add" and sets:
            sets[draw(st.integers(0, len(sets) - 1))].append(draw(point))
        elif fault == "drop" and any(sets):
            s = draw(st.sampled_from([s for s in sets if s]))
            s.pop(draw(st.integers(0, len(s) - 1)))
        elif fault == "shrink":
            eps *= draw(st.sampled_from([0.25, 0.5, 2.0 / 3.0, 0.9]))
        elif fault == "length":
            change = draw(st.sampled_from(["net-", "sets-", "net+", "sets+"]))
            if change == "net-":
                net = net[:-1]
            elif change == "sets-":
                sets = sets[:-1]
            elif change == "net+":
                net.append(draw(point))
            else:
                sets.append(draw(st.lists(point, max_size=3)))
    return lf.NetAndCover(space, tuple(net), tuple(tuple(s) for s in sets),
                          eps, nc.order_bound)


class TestVerifyMatchesLoops:
    @given(corrupted_net_covers())
    @settings(max_examples=300, deadline=None)
    def test_certificate_matches_the_loops(self, nc):
        assert lf.verify_net_cover(nc) == verify_net_cover_by_loops(nc)

    @given(fine_families())
    @settings(max_examples=100, deadline=None)
    def test_built_cover_verifies(self, case):
        nc = build_from(*case)
        cert = lf.verify_net_cover(nc)
        assert cert.passed
        assert cert == verify_net_cover_by_loops(nc)


class TestPruneIrredundant:
    @given(covering_families())
    @example(([set()], 0))
    @example(([{0, 1, 2}], 3))
    @example(([set(), {0, 1}, set()], 2))
    @example(([{0, 1}, {0, 1}, {1, 2}, {1, 2}], 3))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_union_loop(self, family):
        sets, n = family
        got = _prune_irredundant([set(s) for s in sets], n)
        assert got == prune_irredundant_by_unions([set(s) for s in sets], n)
        # what is left still covers and has no redundant set
        assert set().union(*got) == set(range(n))
        assert not any(set().union(*(t for j, t in enumerate(got) if j != i)) >= s
                       for i, s in enumerate(got))


class TestVerifyNetCover:
    def _good(self):
        space = lf.make_grid_space([17], 1 / 16)
        return space, lf.build_net_cover(space, 0.25)

    def test_valid_passes(self):
        _, nc = self._good()
        assert lf.verify_net_cover(nc).passed

    def test_perturbed_net_fails_separation(self):
        space, nc = self._good()
        bad_net = list(nc.net)
        bad_net[1] = bad_net[0] + 1 if bad_net[0] + 1 not in bad_net else bad_net[0]
        bad = lf.NetAndCover(space, tuple(bad_net), nc.sets, nc.eps, nc.order_bound)
        cert = lf.verify_net_cover(bad)
        assert not cert.passed
        assert any(w[0] == "separation" for w in cert.witnesses)

    @pytest.mark.parametrize("net, sets, eps, witness", [
        ((0,), ((0, 1, -1),), 1.0, ["range", "set", 0, -1]),
        ((0,), ((0, 1, 7),), 1.0, ["range", "set", 0, 7]),
        ((0, 9), ((0, 1, 2), (3, 4)), 0.5, ["range", "net", 1, 9]),
        # -1 would wrap round to point 4, and this cover would pass
        ((0, -1), ((0, 1, 2), (3, 4)), 0.5, ["range", "net", 1, -1]),
    ])
    def test_out_of_range_point_fails(self, net, sets, eps, witness):
        nc = lf.NetAndCover(lf.make_grid_space([5], 0.1), net, sets, eps, 1)
        cert = lf.verify_net_cover(nc)
        assert not cert.passed
        assert cert.witnesses == (witness,)

    def test_dropped_set_fails_coverage(self):
        space, nc = self._good()
        bad = lf.NetAndCover(space, nc.net[:-1], nc.sets[:-1], nc.eps, nc.order_bound)
        cert = lf.verify_net_cover(bad)
        assert not cert.passed
        assert any(w[0] == "coverage" for w in cert.witnesses)


class TestRoundTripProperty:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_grids_verify(self, seed):
        rng = np.random.default_rng(1000 + seed)
        if seed % 3 == 0:
            dims = [int(rng.integers(5, 30))]
        elif seed % 3 == 1:
            dims = [int(rng.integers(3, 8)), int(rng.integers(3, 8))]
        else:
            dims = [int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(2, 4))]
        spacing = float(rng.choice([1 / 8, 1 / 16, 1 / 48]))
        eps = float(rng.choice([1 / 3, 1 / 4, 1 / 8]))
        space = lf.make_grid_space(dims, spacing)
        nc = lf.build_net_cover(space, eps)
        assert lf.verify_net_cover(nc).passed
