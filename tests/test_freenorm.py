import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lipfree as lf
from lipfree import freenorm as fn, gluing as gluemod, lp as lpmod, spaces
from conftest import (ONE_900, count_solves, dense_rows, exact_transport,
                      free_norm_by_vertices, free_space_norm, lipschitz_constant_dense,
                      line_space, lipschitz_lp_with_scipy, lp_norm_dense,
                      molecule_norm_matrix_by_rows, molecule_norm_matrix_dense,
                      molecule_norms_by_pairs, operator_norm_by_molecules,
                      operator_norm_by_ratio_vector, operator_norm_dense,
                      tamper_transport, traced_peak, triage_dense, upper_pair)


@st.composite
def lipschitz_inputs(draw):
    """Values with planted zeros, all zero or supported at one point, against
    a metric, a pseudometric with zero off-diagonal pairs, or a matrix with a
    one-sided zero d[x, y] = 0 < d[y, x]."""
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    d = lf.random_metric_space(n, seed=seed).dist.copy()
    kind = draw(st.sampled_from(["metric", "pseudometric", "one-sided"]))
    if kind == "pseudometric":
        d = lf.quotient_pseudometric(d, rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                   replace=False))
    elif kind == "one-sided" and n > 1:
        x, y = rng.choice(n, size=2, replace=False)
        d[x, y] = 0.0
    shape = draw(st.sampled_from(["planted-zeros", "zero", "one-point"]))
    f = np.zeros(n)
    if shape == "planted-zeros":
        # few distinct values, so equal values meet zero distances often
        f = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, 0.0, 1.0, -1.5, 2.0])))
    elif shape == "one-point":
        f[draw(st.integers(0, n - 1))] = draw(st.sampled_from([1.0, -0.25, 3.0]))
    return f, d


def identity_operator(space):
    return lf.WeightOperator(space, tuple(range(space.n)), np.eye(space.n), partition=True)


class TestLipschitzConstant:
    def test_distance_to_base_has_constant_one(self, small_random_spaces):
        for space in small_random_spaces:
            f = space.dist[:, space.base_index]
            assert lf.lipschitz_constant(f, space.dist) == pytest.approx(1.0)

    def test_constant_function(self):
        d = lf.random_metric_space(5, seed=0).dist
        assert lf.lipschitz_constant(np.zeros(5), d) == 0.0

    def test_line_values(self, three_line):
        assert lf.lipschitz_constant([0.0, 2.0, 3.0], three_line.dist) == 2.0

    def test_degenerate_pair_reports_infinity(self):
        d = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert lf.lipschitz_constant([0.0, 1.0], d) == float("inf")

    def test_one_sided_zero_off_the_support_is_degenerate(self):
        # the pair (0, 1) lies only in the columns (all - S) x S of the support S = {1}
        d = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert lf.lipschitz_constant([0.0, 1.0], d) == float("inf")

    @given(lipschitz_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_dense_sweep(self, inputs):
        f, d = inputs
        assert lf.lipschitz_constant(f, d) == lipschitz_constant_dense(f, d)


class TestFreeSpaceNorm:
    def test_single_delta_is_distance_to_base(self):
        space = line_space([0.0, 2.0])
        assert free_space_norm(space, [0.0, 1.0]) == pytest.approx(2.0, abs=1e-9)

    def test_zero_element(self):
        space = lf.random_metric_space(4, seed=1)
        assert free_space_norm(space, np.zeros(4)) == 0.0

    def test_line_combination(self):
        # weights +1 at position 2, -2 at position 1 on the line 0,1,2
        space = line_space([0.0, 1.0, 2.0])
        assert free_space_norm(space, [0.0, -2.0, 1.0]) == pytest.approx(2.0, abs=1e-9)

    def test_molecule_identity_small(self, small_random_spaces):
        for space in small_random_spaces:
            eye = np.eye(space.n)
            for x in range(space.n):
                for y in range(x + 1, space.n):
                    assert free_space_norm(space, eye[x] - eye[y]) == pytest.approx(
                        space.dist[x, y], abs=1e-9)

    def test_support_restriction_matches_full_lp(self):
        rng = np.random.default_rng(4)
        for seed in range(6):
            space = lf.random_metric_space(6, seed=seed)
            w = np.round(rng.normal(size=6), 3)
            fast = free_space_norm(space, w)
            # the Lipschitz LP over all six points, by HiGHS
            slow = lipschitz_lp_with_scipy(w, space.dist, space.base_index)
            assert fast == pytest.approx(slow, abs=1e-8)

    def test_agrees_with_vertex_enumeration(self):
        for seed in range(8):
            space = lf.random_metric_space(4, seed=seed)
            rng = np.random.default_rng(seed)
            w = rng.normal(size=4)
            oracle = free_norm_by_vertices(w, space.dist, space.base_index)
            assert free_space_norm(space, w) == pytest.approx(oracle, abs=1e-8)

    @given(st.integers(0, 40), st.floats(-3, 3))
    @settings(max_examples=25, deadline=None)
    def test_absolute_homogeneity(self, seed, scale):
        space = lf.random_metric_space(5, seed=seed)
        rng = np.random.default_rng(seed)
        w = rng.normal(size=5)
        base = free_space_norm(space, w)
        scaled = free_space_norm(space, scale * w)
        assert scaled == pytest.approx(abs(scale) * base, abs=1e-7)

    @given(st.integers(0, 40))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed):
        space = lf.random_metric_space(5, seed=seed)
        rng = np.random.default_rng(seed + 99)
        a, b = rng.normal(size=(2, 5))
        nab = free_space_norm(space, a + b)
        assert nab <= free_space_norm(space, a) + free_space_norm(space, b) + 1e-7

    def test_base_weight_is_irrelevant(self):
        space = lf.random_metric_space(5, seed=7)
        w = np.array([5.0, 1.0, -2.0, 0.5, 0.0])
        w2 = w.copy()
        w2[space.base_index] = -123.0
        norm = fn._row_norms(*fn._sparse_rows(w[None, :]), space.dist, space.base_index, {})[0]
        assert fn._row_norms(*fn._sparse_rows(w2[None, :]), space.dist, space.base_index,
                             {})[0] == norm
        assert norm == pytest.approx(free_space_norm(space, w2), abs=1e-12)

    def test_perturbed_plan_entry_is_rejected(self, monkeypatch):
        space = line_space([0.0, 1.0, 3.0, 4.5])
        assert free_space_norm(space, [0.0, 1.0, -0.5, 0.25]) > 0.0
        tamper_transport(monkeypatch, 0, "plan")
        with pytest.raises(lf.LpError, match="marginal"):
            free_space_norm(space, [0.0, 1.0, -0.5, 0.25])

    def test_norm_lp_residual_rejected(self, monkeypatch):
        # a reported cost off the plan and potential it came with: the
        # residual between cost and sum mu g is the gap
        space = line_space([0.0, 1.0, 3.0, 4.5])
        assert free_space_norm(space, [0.0, 1.0, -0.5, 0.25]) > 0.0
        tamper_transport(monkeypatch, 0, "cost")
        with pytest.raises(lf.LpError, match="program 0: gap"):
            free_space_norm(space, [0.0, 1.0, -0.5, 0.25])

    @pytest.mark.parametrize("index", [0, 1, 4])
    def test_each_program_of_a_stack_has_its_potential_checked(self, monkeypatch, index):
        # five programs over the same three points and the base, one stack
        d = line_space([0.0, 1.0, 3.0, 4.5]).dist
        cols = np.tile([1, 2, 3], (5, 1))
        weights = np.array([[1.0, 0.5, 0.25], [0.5, -1.0, 2.0], [1.0, 1.0, 1.0],
                            [0.25, 2.0, -0.5], [3.0, 0.5, 1.0]])
        calls = count_solves(monkeypatch)
        assert np.all(fn._lp_norms(cols, weights, d, 0, {}) > 0.0)
        assert len(calls) == 5
        tamper_transport(monkeypatch, index, "potential")
        with pytest.raises(lf.LpError, match=f"program {index}: (potential excess|gap)"):
            fn._lp_norms(cols, weights, d, 0, {})

    @given(st.integers(0, 2**16), st.integers(1, 8), st.integers(1, 6),
           st.sampled_from(["random", "line"]))
    @settings(max_examples=60, deadline=None)
    def test_stacked_norms_are_the_exact_transport_values(self, seed, q, k, metric):
        # each program of a stack against the rational transport oracle, on
        # random closures and on lines of dyadic spots, exact in floats
        rng = np.random.default_rng(seed)
        if metric == "random":
            d = lf.random_metric_space(q + 3, seed=seed).dist
        else:
            d = line_space(rng.integers(0, 6, q + 3) + np.arange(q + 3) / 64).dist
        subs = np.array([np.sort(rng.choice(np.arange(1, q + 3), q, replace=False))
                         for _ in range(k)])
        weights = np.where(rng.random((k, q)) < 0.5, rng.integers(1, 5, (k, q)) / 4.0,
                           np.round(rng.uniform(0.01, 2.0, (k, q)), 2))
        weights *= np.where(rng.random((k, q)) < 0.5, -1.0, 1.0)
        got = fn._lp_norms(subs, weights, d, 0, {})
        for p in range(k):
            mu = np.append(weights[p], -weights[p].sum())
            sub = np.append(subs[p], 0)
            want, _ = exact_transport(mu, d[np.ix_(sub, sub)])
            assert abs(got[p] - float(want)) <= 1e-12 * d.max() * np.abs(mu).sum()


class TestMcShane:
    def test_full_subset_is_identity(self):
        space = lf.random_metric_space(5, seed=3)
        f = space.dist[:, 0]
        out = gluemod._mcshane_values(space.dist, list(range(5)), f, 1.0)
        assert np.array_equal(out, f)

    def test_zero_seed_gives_scaled_distance(self):
        space = line_space([0.0, 1.0, 2.0, 3.0])
        out = gluemod._mcshane_values(space.dist, [0, 1], np.zeros(2), 2.0)
        expected = 2.0 * space.dist[:, [0, 1]].min(axis=1)
        assert np.allclose(out, expected)

    def test_restriction_exact_and_constant_bounded(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            space = lf.random_metric_space(7, seed=seed)
            members = [0, 2, 5]
            f = rng.normal(size=3)
            sub = space.dist[np.ix_(members, members)]
            lip = lf.lipschitz_constant(f, sub)
            out = gluemod._mcshane_values(space.dist, members, f, lip)
            assert np.array_equal(out[members], f)
            assert lf.lipschitz_constant(out, space.dist) <= lip * (1 + 1e-12)

    def test_vanishes_at_base_when_seed_does(self):
        space = lf.random_metric_space(6, seed=11)
        members = [space.base_index, 2, 4]
        f = np.array([0.0, 0.7, -0.3])
        sub = space.dist[np.ix_(members, members)]
        lip = lf.lipschitz_constant(f, sub)
        out = gluemod._mcshane_values(space.dist, members, f, lip)
        assert out[space.base_index] == 0.0


class TestWeightOperator:
    def test_indicator_weights_are_identity(self):
        space = lf.random_metric_space(4, seed=2)
        op = identity_operator(space)
        f = np.array([0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(op.apply(f), f)
        assert np.array_equal(op.matrix[list(op.domain)], np.eye(len(op.domain)))

    def test_partition_type_preserves_constants(self):
        space = lf.random_metric_space(5, seed=9)
        rng = np.random.default_rng(1)
        w = rng.uniform(0.1, 1.0, size=(5, 3))
        w /= w.sum(axis=1, keepdims=True)
        op = lf.WeightOperator(space, (0, 2, 4), w, partition=True)
        out = op.apply(np.full(3, 7.5))
        assert np.allclose(out, 7.5)

    def test_partition_validation(self):
        space = lf.random_metric_space(3, seed=10)
        with pytest.raises(ValueError):
            lf.WeightOperator(space, (0, 1), np.array([[0.5, 0.6]] * 3), partition=True)

    @pytest.mark.parametrize("dom", [(0, -1), (0, 3), (0, 0)])
    def test_domain_out_of_range_or_repeated_rejected(self, dom):
        # -1 would measure with the last point's distances
        space = lf.random_metric_space(3, seed=11)
        with pytest.raises(ValueError, match="domain"):
            lf.WeightOperator(space, dom, np.zeros((3, 2)))

    def test_domain_mismatch(self):
        space = lf.random_metric_space(3, seed=12)
        op = lf.WeightOperator(space, (0, 1), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            op.apply(np.zeros(3))


class TestOperatorNorm:
    def test_zero_operator(self):
        space = lf.random_metric_space(4, seed=13)
        op = lf.WeightOperator(space, (0, 1), np.zeros((4, 2)))
        assert lf.operator_norm(op, space.dist)[0] == 0.0

    def test_identity_has_norm_one(self):
        space = lf.random_metric_space(5, seed=14)
        op = identity_operator(space)
        assert lf.operator_norm(op, space.dist)[0] == pytest.approx(1.0, abs=1e-9)

    def test_base_must_be_in_domain(self):
        space = lf.random_metric_space(4, seed=16)
        op = lf.WeightOperator(space, (1, 2), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            lf.operator_norm(op, space.dist)

    def test_metric_shape_checked(self):
        space = lf.random_metric_space(5, seed=16)
        op = lf.WeightOperator(space, (space.base_index, 3), np.zeros((5, 2)))
        wrong = lf.random_metric_space(7, seed=16).dist
        with pytest.raises(ValueError, match="5 x 5"):
            lf.operator_norm(op, wrong)
        with pytest.raises(ValueError, match="5 x 5"):
            lf.molecule_norm_matrix(op, wrong)

    def test_thread_safety_of_pair_sweep(self):
        # pure function: concurrent evaluation must agree with serial
        from concurrent.futures import ThreadPoolExecutor

        space = lf.random_metric_space(6, seed=17)
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 1, size=(6, 3))
        w /= w.sum(axis=1, keepdims=True)
        op = lf.WeightOperator(space, (0, 2, 4), w, partition=True)
        serial = lf.molecule_norm_matrix(op, space.dist)
        with ThreadPoolExecutor(2) as pool:
            results = list(pool.map(
                lambda _: lf.molecule_norm_matrix(op, space.dist), range(4)))
        assert all(np.array_equal(r, serial) for r in results)


@st.composite
def transport_molecules(draw):
    """A metric, a base and a weight row c whose row balanced at the base
    has one point on a side ("source" or "target", the lone point returned
    as hub) or two on each ("2x2").  The base lies outside the support, or
    is a source (c sums below zero) or a target.  The metric is a random
    closure, points on a line, or the discrete metric, on which every plan
    costs the same and the two ends of a 2 x 2 interval tie.  Masses are
    multiples of 1/8, so every sum is exact and the base takes the mass it
    was drawn with."""
    shape = draw(st.sampled_from(["source", "target", "2x2"]))
    role = draw(st.sampled_from(["outside", "source", "target"]))
    used = 4 if shape == "2x2" else draw(st.integers(2, 6))
    n = draw(st.integers(used + (role == "outside"), 7))
    metric = draw(st.sampled_from(["random", "line", "discrete"]))
    if metric == "random":
        d = lf.random_metric_space(n, seed=draw(st.integers(0, 2**16))).dist
    elif metric == "line":
        spots = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
        d = line_space(np.array(spots) / 8.0).dist
    else:
        d = 1.0 - np.eye(n)
    points = draw(st.permutations(range(n)))
    mass = st.integers(1, 32).map(lambda k: k / 8.0)
    mu = np.zeros(n)
    hub = points[0]
    if shape == "2x2":
        a1, a2 = draw(mass), draw(mass)
        b1 = draw(st.integers(1, int(8 * (a1 + a2)) - 1)) / 8.0
        mu[list(points[:4])] = a1, a2, -b1, -(a1 + a2 - b1)
    else:
        far = list(points[1:used])
        mu[far] = [draw(mass) for _ in far]
        mu[hub] = -mu.sum()
        mu *= 1.0 if shape == "target" else -1.0
    if role == "outside":
        base = points[-1]
    else:
        side = np.flatnonzero(mu > 0.0 if role == "source" else mu < 0.0)
        base = int(side[draw(st.integers(0, len(side) - 1))])
    c = mu.copy()
    c[base] = 0.0
    return d, base, c, shape, hub


class TestTransportForms:
    """`freenorm._triage` answers a molecule with one point on a side, or two
    on each, by its transport plan; the norm LP must agree to a few ulps of
    mass times diameter."""

    @staticmethod
    def tolerance(c, d, base):
        mu = c.copy()
        mu[base] = -c.sum()
        return 8 * np.finfo(float).eps * np.abs(mu).sum() * d.max()

    @given(transport_molecules())
    @settings(max_examples=400, deadline=None)
    def test_closed_forms_equal_the_lp(self, case):
        d, base, c, shape, hub = case
        value, needs_lp = fn._triage(*fn._sparse_rows(c[None]), d, base)
        assert not needs_lp[0]
        tol = self.tolerance(c, d, base)
        assert abs(value[0] - lp_norm_dense(c, d, base, {})) <= tol
        if shape == "2x2":
            return
        # the lone source p's potential d(base, p) - d(., p), negated for a
        # lone target, is 1-Lipschitz, 0 at the base and attains the value
        f = d[base, hub] - d[:, hub]
        f = f if shape == "source" else -f
        assert f[base] == 0.0
        assert np.all(np.abs(f[:, None] - f[None, :]) <= d + 4 * np.finfo(float).eps * d.max())
        assert abs(c @ f - value[0]) <= tol

    def test_two_by_two_ends_that_coincide(self):
        # the base is the second target: its balance fl(1 + 2**-60 - 0.5)
        # drops the second source's mass, so b2 = 0.5 and the interval
        # [max(0, a1 - b2), min(a1, b1)] is the one point 0.5
        d = lf.random_metric_space(5, seed=3).dist
        c = np.array([0.0, 1.0, 2.0**-60, -0.5, 0.0])
        a1, b1, b2 = 1.0, 0.5, 1.0 + 2.0**-60 - 0.5
        assert max(0.0, a1 - b2) == min(a1, b1)
        value, needs_lp = fn._triage(*fn._sparse_rows(c[None]), d, 0)
        assert not needs_lp[0]
        assert abs(value[0] - lp_norm_dense(c, d, 0, {})) <= self.tolerance(c, d, 0)

    def test_larger_shapes_go_to_the_lp(self):
        # two sources onto three targets, and three onto four with the base
        d = lf.random_metric_space(7, seed=4).dist
        rows = np.array([[0.0, 0.5, 0.25, -0.25, -0.25, -0.25, 0.0],
                         [0.0, 0.5, 0.25, 0.25, -0.25, -0.25, -0.25]])
        _, needs_lp = fn._triage(*fn._sparse_rows(rows), d, 0)
        assert needs_lp.tolist() == [True, True]


def random_operator(seed: int, partition: bool):
    """Weight operator on a random metric space whose rows mix random weights
    with the special shapes the triage answers: duplicated rows, rows that
    differ only at the base, exact +-1 molecules and single-point rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    space = lf.random_metric_space(n, seed=seed)
    b = space.base_index
    others = rng.permutation([i for i in range(n) if i != b])[: int(rng.integers(0, 5))]
    domain = tuple(sorted([b, *others.tolist()]))
    k, base = len(domain), domain.index(b)
    rows = []
    for _ in range(n):
        kind = int(rng.integers(6)) if rows else 0
        prev = rows[int(rng.integers(len(rows)))].copy() if rows else None
        i, j = rng.integers(k, size=2)
        if kind == 0:
            # quarter steps, so equal supports with equal weights recur
            row = rng.integers(0 if partition else -4, 5, size=k) / 4.0
            if partition:
                row[base] += 1.0 if not row.any() else 0.0
                row /= row.sum()
        elif kind == 1:
            row = np.eye(k)[i]
        elif kind == 2:
            row = prev
        elif kind == 3 and partition:
            t = prev[i] / 2
            row = prev
            row[i] -= t
            row[base] += t
        elif kind == 3:
            row = prev
            row[base] += 0.5
        elif partition:
            row = np.eye(k)[i] if kind == 4 else prev
        else:
            row = prev
            row[i] += 1.0
            if kind == 4:
                row[j] -= 1.0
        rows.append(row)
    op = lf.WeightOperator(space, domain, np.array(rows), partition=partition)
    return op, lf.perturb_metric(space.dist, 0.05, rng).matrix


# Few distinct weights, so that entries of two rows cancel and +-1 pairs recur;
# -0.0 makes merges meet signed zeros.
WEIGHTS = (1.0, -1.0, 0.5, -0.5, 0.25, 2.0, 1.0 / 3.0, -0.1, -0.0)


@st.composite
def merge_operators(draw):
    """Weight operators on 1 to 7 points, domain in any order (so the base
    sits at any position), down to a single-point domain.  Rows are equal
    copies whose differences cancel, copies with weight added at the base or
    one entry changed, +-1 indicators, rows of three or more nonzeros and
    random sparse rows; or the whole operator is fully dense."""
    n = draw(st.integers(1, 7))
    space = lf.random_metric_space(n, seed=draw(st.integers(0, 2**16)))
    others = draw(st.permutations([i for i in range(n) if i != space.base_index]))
    domain = draw(st.permutations([space.base_index, *others[:draw(st.integers(0, n - 1))]]))
    m, base = len(domain), domain.index(space.base_index)
    weight = st.sampled_from(WEIGHTS)
    if draw(st.booleans()) and draw(st.booleans()):
        rows = draw(st.lists(st.lists(weight, min_size=m, max_size=m),
                             min_size=n, max_size=n))
        return lf.WeightOperator(space, tuple(domain), np.array(rows))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["copy", "base", "change", "indicator", "wide", "sparse"]))
        j = draw(st.integers(0, m - 1))
        if kind in ("copy", "base", "change") and rows:
            row = rows[draw(st.integers(0, len(rows) - 1))].copy()
            if kind == "base":
                row[base] += draw(weight)
            elif kind == "change":
                row[j] = draw(weight)
        elif kind == "indicator":
            row = np.zeros(m)
            row[j] = draw(st.sampled_from([1.0, -1.0]))
        elif kind == "wide" and m >= 3:
            row = np.array(draw(st.lists(weight, min_size=m, max_size=m)))
        else:
            row = np.array(draw(st.lists(st.sampled_from((0.0, 0.0) + WEIGHTS),
                                         min_size=m, max_size=m)))
        rows.append(row)
    return lf.WeightOperator(space, tuple(domain), np.array(rows))


@st.composite
def repeated_row_operators(draw):
    """Weight operators on 2 to 9 points whose rows are copies of one to four
    distinct rows, most wide enough to need the norm LP, with the copies in
    any order, so that both orientations of a pair of classes occur among
    the pairs x < y."""
    n = draw(st.integers(2, 9))
    space = lf.random_metric_space(n, seed=draw(st.integers(0, 2**16)))
    others = draw(st.permutations([i for i in range(n) if i != space.base_index]))
    domain = draw(st.permutations([space.base_index, *others[:draw(st.integers(0, n - 1))]]))
    row = st.lists(st.sampled_from((0.0,) + WEIGHTS), min_size=len(domain),
                   max_size=len(domain))
    distinct = draw(st.lists(row, min_size=1, max_size=4))
    classes = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    return lf.WeightOperator(space, tuple(domain), np.array([distinct[c] for c in classes]))


@pytest.fixture(scope="module")
def grid_operators():
    """A 13 x 13 grid bundle and two operators rebuilt on perturbed metrics,
    as the extend pipeline makes them: 539, 436 and 429 of their molecules
    have two points on one side and three or more on the other, which only
    the norm LP answers."""
    space = lf.make_grid_space([13, 13], 0.02)
    bundle = lf.build_extension_bundle(lf.build_net_cover(space, 0.25))
    rng = np.random.default_rng(3)
    radius = lf.admission_radius(0.25, bundle.nc.order_bound)
    ops = [(bundle.pou, bundle.adapted)]
    for _ in range(2):
        e = lf.perturb_metric(bundle.adapted, 0.9 * radius, rng).matrix
        ops.append((lf.build_perturbed_operator(bundle, e).pou, e))
    return ops


def on_domain(op, d):
    """The metric d restricted to the operator domain."""
    return d[np.ix_(op.domain, op.domain)]


def lp_pair_rows(op, d_a):
    """Base-zeroed row differences of every pair the triage leaves to the LP,
    as sparse rows (cols, vals)."""
    xs, ys = np.triu_indices(op.space.n, k=1)
    cols, vals = fn._sparse_rows(op.matrix)
    c, v = fn._difference(cols[xs], vals[xs], cols[ys], vals[ys], len(op.domain))
    _, needs_lp = fn._triage(c, v, d_a, op.base_position)
    return c[needs_lp], v[needs_lp]


class TestMoleculeNormLayer:
    @given(st.integers(1, 14), st.integers(0, 2 ** 16), st.sampled_from(["indicator", "order 2"]),
           st.integers(1, 4))
    @settings(max_examples=80, deadline=None)
    def test_fill_equals_the_row_loop(self, n, seed, kind, rows):
        # indicator rows (order 0) and rows of two nonzeros (order 1), many of
        # them equal, filled by row blocks of `rows` rows against the point loop
        rng = np.random.default_rng(seed)
        space = lf.random_metric_space(n, seed=rng)
        others = [i for i in range(n) if i != space.base_index]
        domain = [space.base_index, *rng.permutation(others)[:rng.integers(0, n)].tolist()]
        w = np.zeros((n, len(domain)))
        first, second = rng.integers(0, len(domain), (2, n))
        share = rng.choice([0.25, 0.5, 1.0], n) if kind == "order 2" else np.ones(n)
        np.add.at(w, (np.arange(n), first), share)
        np.add.at(w, (np.arange(n), second), 1.0 - share)
        op = lf.WeightOperator(space, tuple(domain), w, partition=True)
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * n):
            got = lf.molecule_norm_matrix(op, space.dist)
        assert got.tobytes() == molecule_norm_matrix_by_rows(op, space.dist).tobytes()

    @pytest.mark.parametrize("dims, ground, eps, probe", [
        ((13, 13), "linf", 0.25, None), ((13, 13), "linf", 0.25, 3), ((9, 7), "l1", 0.4, 1)])
    def test_fill_equals_the_row_loop_on_pipeline_partitions(self, dims, ground, eps, probe):
        op = grid_partition(dims, ground, eps, probe)
        for d in (op.space.dist, lf.quotient_pseudometric(op.space.dist, op.domain)):
            got = lf.molecule_norm_matrix(op, d)
            assert got.tobytes() == molecule_norm_matrix_by_rows(op, d).tobytes()

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matrix_equals_per_pair_sweep(self, seed, partition):
        op, d_t = random_operator(seed, partition)
        for metric in (d_t, op.space.dist):
            assert np.array_equal(lf.molecule_norm_matrix(op, metric),
                                  molecule_norms_by_pairs(op, on_domain(op, metric)))

    @given(st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pruned_norm_equals_exhaustive(self, seed, partition):
        op, d_t = random_operator(seed, partition)
        for metric in (d_t, op.space.dist):
            assert lf.operator_norm(op, metric) == operator_norm_by_molecules(op, metric)

    @given(merge_operators())
    @settings(max_examples=300, deadline=None)
    def test_sparse_sweep_equals_dense_sweep(self, op):
        d = op.space.dist
        d_a, base, m = on_domain(op, d), op.base_position, len(op.domain)
        xs, ys = np.triu_indices(op.space.n, k=1)
        dense = op.matrix[xs] - op.matrix[ys]
        want, want_lp = triage_dense(dense, d_a, base)
        cols, vals = fn._sparse_rows(op.matrix)
        c, v = fn._difference(cols[xs], vals[xs], cols[ys], vals[ys], m)
        got, got_lp = fn._triage(c, v, d_a, base)
        assert np.array_equal(dense_rows(c, v, m), dense)
        assert np.array_equal(got, want) and np.array_equal(got_lp, want_lp)
        assert np.array_equal(lf.molecule_norm_matrix(op, d), molecule_norm_matrix_dense(op, d))
        assert lf.operator_norm(op, d) == operator_norm_dense(op, d)

    def test_pruned_norm_equals_exhaustive_on_grid(self, grid_operators):
        for op, d in grid_operators:
            assert lf.operator_norm(op, d) == operator_norm_by_molecules(op, d)

    def test_chunked_solves_keep_value_and_witness(self, monkeypatch):
        # the pairs left to the solver are taken by descending bound in
        # chunks of 1, 2, 4, ...: here three chunks, solving 1, 2 and 2
        # programs, against the one-pair-at-a-time loop of earlier versions
        op, d = random_operator(153, False)
        sizes = []
        real = lpmod.transport
        monkeypatch.setattr(lpmod, "transport",
                            lambda mu, e: sizes.append(len(mu)) or real(mu, e))
        got = lf.operator_norm(op, d)
        assert sizes == [1, 2, 2]
        assert got == operator_norm_dense(op, d)

    def test_bound_dominates_lp_norm(self, grid_operators, monkeypatch):
        # without the margin, so the bound itself is shown to hold up to the
        # enclosure term 2 n (eta + TOL max d) m of `_ratio_upper_bounds`
        monkeypatch.setattr(fn, "PRUNE_MARGIN", 0.0)
        cases = list(grid_operators)
        cases += [random_operator(seed, seed % 2 == 0) for seed in range(40)]
        checked = 0
        for op, d in cases:
            d_a = on_domain(op, d)
            c, v = lp_pair_rows(op, d_a)
            base = op.base_position
            bounds = fn._ratio_upper_bounds(c, v, d_a, base, np.ones(len(c)))
            norms = fn._lp_norms(c, v, d_a, base, {})
            eta = max(0.0, (d_a[:, None, :] - d_a[:, :, None] - d_a[None, :, :]).max())
            n = (v != 0.0).sum(axis=1) + 1
            mass = np.abs(v).sum(axis=1) + np.abs(v.sum(axis=1))
            assert np.all(bounds + 2 * n * (eta + lpmod.TOL * d_a.max()) * mass >= norms)
            checked += len(c)
        assert checked > 1000

    def test_dedup_and_pruning_solve_fewer_lps(self, grid_operators, monkeypatch):
        calls = count_solves(monkeypatch)
        for op, d in grid_operators:
            d_a = on_domain(op, d)
            c = dense_rows(*lp_pair_rows(op, d_a), len(d_a))
            distinct = {(np.flatnonzero(r).tobytes(), r[r != 0].tobytes()) for r in c}
            calls.clear()
            full = lf.molecule_norm_matrix(op, d)
            assert len(calls) == len(distinct) < len(c)
            calls.clear()
            lf.operator_norm(op, d)
            assert len(calls) < len(distinct)
            calls.clear()
            assert np.array_equal(molecule_norms_by_pairs(op, d_a), full)
            assert len(calls) == len(c)

    @given(repeated_row_operators())
    @settings(max_examples=200, deadline=None)
    def test_repeated_rows_equal_the_per_pair_sweep(self, op):
        for d in (op.space.dist, 1.5 * op.space.dist):
            got = lf.molecule_norm_matrix(op, d)
            assert got.tobytes() == molecule_norms_by_pairs(op, on_domain(op, d)).tobytes()

    def test_repeated_rows_solve_each_distinct_lp_once(self, monkeypatch):
        # rows 0 and 2 are class a, rows 1 and 3 class b: pairs (0, 1) and
        # (1, 2) take a - b and b - a, and (2, 3) takes a - b again; a - b
        # moves 0.5 and 0.25 onto three points of 0.25, which needs the LP
        space = lf.random_metric_space(6, seed=8)
        a, b = [0.0, 0.5, 0.25, 0.0, 0.0, 0.25], [0.0, 0.0, 0.0, 0.25, 0.25, 0.5]
        rows = np.array([a, b, a, b, [0.0, 0.0, 0.0, 0.0, 0.0, 1.0], a])
        op = lf.WeightOperator(space, tuple(range(6)), rows)
        d_a = on_domain(op, space.dist)
        c = dense_rows(*lp_pair_rows(op, d_a), len(d_a))
        distinct = {(np.flatnonzero(r).tobytes(), r[r != 0].tobytes()) for r in c}
        calls = count_solves(monkeypatch)
        got = lf.molecule_norm_matrix(op, space.dist)
        assert len(calls) == len(distinct) < len(c)
        assert got.tobytes() == molecule_norms_by_pairs(op, d_a).tobytes()
        assert got[0, 1] == got[2, 3] == got[0, 3] and got[1, 2] == got[1, 5]

    def test_each_orientation_keeps_its_own_lp(self):
        # on this space the transport solver answers c and -c a bit apart
        space = lf.random_metric_space(6, seed=4)
        a = np.array([0.0, 0.25, 0.0, 0.0, 1.0, 1.0])
        b = np.array([0.0, 0.0, 0.0, 0.5, 0.0, 0.0])
        op = lf.WeightOperator(space, tuple(range(6)), np.array([a, b, a, b, a, b]))
        support = np.flatnonzero(a - b)
        forward = fn._lp_norms(support[None], (a - b)[support][None], space.dist, 0, {})[0]
        backward = fn._lp_norms(support[None], (b - a)[support][None], space.dist, 0, {})[0]
        assert forward != backward
        got = lf.molecule_norm_matrix(op, space.dist)
        assert got[0, 1] == got[1, 0] == forward and got[1, 2] == got[2, 1] == backward
        assert got.tobytes() == molecule_norms_by_pairs(op, space.dist).tobytes()

    def test_bound_of_a_row_does_not_depend_on_its_block(self):
        # rows of six nonzeros over 150 columns: a matrix product rounds
        # such rows differently inside a block than alone
        rng = np.random.default_rng(5)
        m = 150
        d = lf.random_metric_space(m, seed=5).dist
        cols = np.sort(np.array([rng.choice(np.arange(1, m), 6, replace=False)
                                 for _ in range(400)]), axis=1)
        vals = rng.uniform(-1.0, 1.0, cols.shape)
        ones = np.ones(len(cols))
        block = fn._ratio_upper_bounds(cols, vals, d, 0, ones)
        alone = [fn._ratio_upper_bounds(cols[r:r + 1], vals[r:r + 1], d, 0, ones[:1])[0]
                 for r in range(len(cols))]
        assert block.tobytes() == np.array(alone).tobytes()

    @given(st.lists(st.integers(0, 9), max_size=12), st.lists(st.integers(0, 9), max_size=12),
           st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_pair_blocks_list_each_pair_once_in_row_major_order(self, starts, ends, rows):
        starts, ends = np.array(starts, dtype=int), np.array(ends, dtype=int)
        with mock.patch.object(fn, "_BLOCK_ROWS", rows):
            got = [(int(a), int(b)) for xs, ys in fn._pair_blocks(starts, ends)
                   for a, b in zip(xs, ys)]
        assert got == [(a, b) for a in range(len(starts)) for b in range(len(ends))
                       if starts[a] < ends[b]]

    @pytest.mark.parametrize("n", [2, 3, 17, 130])
    def test_upper_pair_matches_triu_indices(self, n):
        xs, ys = np.triu_indices(n, k=1)
        x, y = upper_pair(n, np.arange(len(xs)))
        assert np.array_equal(x, xs) and np.array_equal(y, ys)
        assert upper_pair(n, len(xs) - 1) == (n - 2, n - 1)

    @given(st.integers(0, 10_000), st.booleans(), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_running_maximum_matches_the_ratio_vector(self, seed, partition, rows):
        op, d_t = random_operator(seed, partition)
        with mock.patch.object(fn, "_BLOCK_ROWS", rows):
            for metric in (d_t, op.space.dist):
                assert lf.operator_norm(op, metric) == operator_norm_by_ratio_vector(op, metric)

    def test_exact_ties_across_blocks_keep_the_first_pair(self, monkeypatch):
        # every molecule of the identity is exact and every ratio is 1
        monkeypatch.setattr(fn, "_BLOCK_ROWS", 1)
        space = line_space(np.arange(12.0))
        op = identity_operator(space)
        assert lf.operator_norm(op, space.dist) == (1.0, (0, 1))
        # rows 0 and 1 equal: the ratio-1 pairs left start at (0, 2)
        rows = np.eye(12)
        rows[1] = rows[0]
        op = lf.WeightOperator(space, tuple(range(12)), rows)
        assert lf.operator_norm(op, space.dist) == (2.0, (1, 2))
        assert lf.operator_norm(op, space.dist) == operator_norm_by_ratio_vector(op, space.dist)

    def test_lp_ties_solved_out_of_order_keep_the_first_pair(self, monkeypatch):
        # a - b at the unit pairs (0, 1), (2, 3), (4, 5) and b - a at (1, 2),
        # (3, 4) need LPs; the bounds below hold (they are huge) and rise with
        # the pair index, so the tied LP pairs are solved last pair first
        space = line_space([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        a, b = [0.5, 0.25, 0.0, 0.25], [0.0, 0.5, 0.25, 0.25]
        op = lf.WeightOperator(space, (0, 2, 3, 5), np.array([a, b, a, b, a, b]))
        seen = []

        def rising(cols, vals, d, base, d_t):
            seen.extend(range(len(seen), len(seen) + len(cols)))
            return 1e9 + np.array(seen[len(seen) - len(cols):], dtype=float)

        monkeypatch.setattr(fn, "_ratio_upper_bounds", rising)
        monkeypatch.setattr(fn, "_BLOCK_ROWS", 1)
        got = lf.operator_norm(op, space.dist)
        assert got == operator_norm_by_molecules(op, space.dist)
        assert got[1] in ((0, 1), (1, 2))

    def test_memory_budget_at_900_points(self):
        space = lf.make_grid_space([30, 30], 0.02)
        nc = lf.build_net_cover(space, 0.125)
        op = lf.partition_of_unity(space.dist, nc.sets, nc.net, space)
        got, peak = traced_peak(lambda: lf.operator_norm(op, space.dist))
        assert peak < ONE_900
        assert got == operator_norm_by_ratio_vector(op, space.dist)

    def test_memory_budget_on_the_glue_collar(self):
        # the collar operator of the glue workload's probe 0, on which the
        # point-pair sweep of earlier versions peaked at 76,190 B
        space = lf.make_grid_space([10, 10], 0.1)
        cfg = lf.GluingConfig(space, tuple(range(0, 100, 10)), 1, (0.7, 0.5, 0.3, 0.2, 0.1))
        bundle = lf.build_gluing_bundle(cfg, 1, 0.7)
        v = list(bundle.v_indices)
        e = lf.BoundedMetric(bundle.metric[np.ix_(v, v)], bundle.excess)
        op = lf.build_perturbed_operator(bundle.v_bundle, e).pou
        got, peak = traced_peak(lambda: lf.operator_norm(op, e.matrix))
        assert peak <= 76_190
        assert got == operator_norm_by_ratio_vector(op, e.matrix)

    def test_single_point_net(self):
        space = lf.random_metric_space(5, seed=30)
        b = space.base_index
        op = lf.WeightOperator(space, (b,), np.ones((5, 1)), partition=True)
        assert np.array_equal(lf.molecule_norm_matrix(op, space.dist), np.zeros((5, 5)))
        assert lf.operator_norm(op, space.dist) == (0.0, (0, 1))

    def test_two_points(self):
        space = line_space([0.0, 2.5])
        op = identity_operator(space)
        norms = lf.molecule_norm_matrix(op, space.dist)
        assert np.array_equal(norms, space.dist)
        assert lf.operator_norm(op, space.dist) == (1.0, (0, 1))


@functools.lru_cache(maxsize=None)
def grid_partition(dims: tuple, ground: str, eps: float, probe_seed):
    """The partition of unity of a grid's net and cover at eps, on the grid
    metric, or (probe_seed not None) rebuilt on a probe of the adapted metric
    as the extend pipeline rebuilds it: operators with many equal rows."""
    space = lf.make_grid_space(list(dims), 1.0 / max(dims), ground)
    nc = lf.build_net_cover(space, eps)
    if probe_seed is None:
        return lf.partition_of_unity(space.dist, nc.sets, nc.net, space)
    bundle = lf.build_extension_bundle(nc)
    radius = lf.admission_radius(eps, nc.order_bound)
    e = lf.perturb_metric(bundle.adapted, 0.9 * radius,
                          np.random.default_rng(probe_seed)).matrix
    return lf.partition_of_unity(e, nc.sets, nc.net, space)


@st.composite
def class_sweep_cases(draw):
    """A weight operator with many equal rows and a metric with 1-ulp
    distance ties.  The operator is a grid partition of unity (on the grid
    metric or rebuilt on a probe), a `random_operator`, or one to five
    random rows, most needing the norm LP, copied to 2-12 points in any
    order.  The metric is the space's, scaled or not, with a random set of
    entries moved one ulp up or down, in both orientations or in one."""
    kind = draw(st.sampled_from(["grid", "random", "copies"]))
    if kind == "grid":
        op = grid_partition(draw(st.sampled_from([(5, 5), (6, 4), (9,), (4, 4, 2)])),
                            draw(st.sampled_from(["linf", "l1"])),
                            draw(st.sampled_from([0.3, 0.45])),
                            draw(st.sampled_from([None, 1, 2])))
    elif kind == "random":
        op, _ = random_operator(draw(st.integers(0, 10_000)), draw(st.booleans()))
    else:
        n = draw(st.integers(2, 12))
        space = lf.random_metric_space(n, seed=draw(st.integers(0, 2**16)))
        others = draw(st.permutations([i for i in range(n) if i != space.base_index]))
        domain = draw(st.permutations([space.base_index, *others[:draw(st.integers(0, 4))]]))
        row = st.lists(st.sampled_from((0.0,) + WEIGHTS), min_size=len(domain),
                       max_size=len(domain))
        distinct = draw(st.lists(row, min_size=1, max_size=5))
        classes = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
        op = lf.WeightOperator(space, tuple(domain), np.array([distinct[c] for c in classes]))
    return op, ulp_metric(draw, op.space)


def ulp_metric(draw, space) -> np.ndarray:
    """The metric of space, scaled or not, with a random set of off-diagonal
    entries moved one ulp up or down, in both orientations or in one."""
    n = space.n
    d = space.dist * draw(st.sampled_from([1.0, 1.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x, y = rng.integers(n, size=(2, draw(st.integers(0, 3 * n))))
    x, y = x[x != y], y[x != y]
    step = np.where(rng.random(len(x)) < 0.5, np.inf, 0.0)
    d[x, y] = np.nextafter(d[x, y], step)
    if draw(st.booleans()):
        d[y, x] = d[x, y]
    return d


@st.composite
def unit_row_operators(draw):
    """A weight operator on 3 to 12 points whose rows are copies of one to
    six distinct rows, and a metric of `ulp_metric`.  The rows are unit rows
    (one entry 1.0, often at the base column, sometimes beside a -0.0, so
    that two unit classes may share a column), rows of two or three
    nonzeros, or a single entry other than 1.0; mixed, or all unit rows, or
    none.  With up to 12 points on at most six rows, most classes have
    several members."""
    n = draw(st.integers(3, 12))
    space = lf.random_metric_space(n, seed=draw(st.integers(0, 2**16)))
    others = draw(st.permutations([i for i in range(n) if i != space.base_index]))
    domain = draw(st.permutations([space.base_index, *others[:draw(st.integers(2, n - 1))]]))
    m, base = len(domain), domain.index(space.base_index)
    mix = draw(st.sampled_from(["mixed", "all unit", "no unit"]))
    nonzero = [w for w in WEIGHTS if w != 0.0]
    distinct = []
    for _ in range(draw(st.integers(1, 6))):
        row = np.zeros(m)
        if mix == "all unit" or (mix == "mixed" and draw(st.booleans())):
            p = draw(st.sampled_from([base, *range(m)]))
            row[p] = 1.0
            if draw(st.booleans()):
                row[(p + draw(st.integers(1, m - 1))) % m] = -0.0
        else:
            k = draw(st.integers(1, 3))
            cols = draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True))
            weights = nonzero[1:] if k == 1 else nonzero
            row[cols] = draw(st.lists(st.sampled_from(weights), min_size=k, max_size=k))
        distinct.append(row)
    classes = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
    op = lf.WeightOperator(space, tuple(domain), np.array([distinct[c] for c in classes]))
    return op, ulp_metric(draw, space)


def ratio_max_by_pairs(norms: np.ndarray, d: np.ndarray) -> tuple[float, tuple[int, int]]:
    """The largest norms[x, y] / d[x, y] over all pairs x < y at once, and
    its first maximiser in row-major order."""
    xs, ys = np.triu_indices(len(d), k=1)
    ratios = norms[xs, ys] / d[xs, ys]
    top = int(np.argmax(ratios))
    return float(ratios[top]), (int(xs[top]), int(ys[top]))


class TestClassSweep:
    """The sweeps over classes of equal weight rows against sweeps over
    every point pair: operator norms, the bundle's molecule ratio, and the
    Lipschitz constants of the weight columns."""

    @given(class_sweep_cases())
    @settings(max_examples=150, deadline=None)
    def test_operator_norm_equals_the_ratio_vector(self, case):
        op, d = case
        assert lf.operator_norm(op, d) == operator_norm_by_ratio_vector(op, d)

    @given(class_sweep_cases())
    @settings(max_examples=150, deadline=None)
    def test_ratio_max_equals_the_pair_sweep(self, case):
        op, d = case
        norms = lf.molecule_norm_matrix(op, op.space.dist)
        assert fn.ClassPairs(op, d).ratio_max(norms) == ratio_max_by_pairs(norms, d)

    @given(class_sweep_cases(), st.sampled_from(["metric", "quotient", "zero pair"]),
           st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_lipschitz_constants_equal_the_dense_sweep(self, case, zeros, seed):
        op, d = case
        rng = np.random.default_rng(seed)
        n = op.space.n
        lower = np.tril_indices(n, -1)           # symmetric, as the door admits d
        d[lower] = d.T[lower]
        if zeros == "quotient":
            d = lf.quotient_pseudometric(d, rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                       replace=False))
        elif zeros == "zero pair":
            # symmetric by value, the mirrored zero of either sign
            x, y = rng.choice(n, size=2, replace=False)
            d[x, y], d[y, x] = 0.0, rng.choice([0.0, -0.0])
        want = [lipschitz_constant_dense(op.matrix[:, i], d) for i in range(len(op.domain))]
        got = fn.ClassPairs(op, d).lipschitz_constants()
        assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("cells", [fn._LIP_CELLS, 1, 97])
    def test_lipschitz_constants_of_grid_partitions(self, grid_operators, cells):
        # fractional weights: a column is nonzero on many classes, whose
        # gaps are split across chunks of one nonzero and more
        for op, d in grid_operators:
            want = [lf.lipschitz_constant(op.matrix[:, i], d) for i in range(len(op.domain))]
            with mock.patch.object(fn, "_LIP_CELLS", cells):
                got = fn.ClassPairs(op, d).lipschitz_constants()
                assert got.tobytes() == np.array(want).tobytes()

    def test_witness_need_not_lie_at_the_least_distance(self):
        # rows a, b, a, b, a: the class pair (a, b) holds (0, 1), (0, 3) and
        # (2, 3); d(0, 1) is one ulp above the least, d(2, 3), and both
        # round to the same ratio, so (0, 1) is the first maximiser
        top = next(t for t in np.linspace(0.9, 0.99, 91)
                   if 1.0 / t == 1.0 / np.nextafter(t, 2.0))
        space = line_space([0.0, 2.0, 4.0, 6.0, 1.0])
        d = space.dist.copy()
        d[0, 1] = d[1, 0] = np.nextafter(top, 2.0)
        d[2, 3] = d[3, 2] = top
        a, b = [0.0, 1.0], [0.0, 0.0]
        op = lf.WeightOperator(space, (0, 4), np.array([a, b, a, b, a]))
        got = lf.operator_norm(op, d)
        assert got == (1.0 / top, (0, 1)) == operator_norm_by_ratio_vector(op, d)
        norms = lf.molecule_norm_matrix(op, d)
        assert fn.ClassPairs(op, d).ratio_max(norms) == (1.0 / top, (0, 1))

    def test_pseudometric_zero_distance_follows_lipschitz_constant(self):
        # q(0, 1) = 0: under the identity operator N(0, 1) = q(0, 1) = 0, so
        # the pair is skipped, as lipschitz_constant skips it, and every
        # other ratio is 1.  No RuntimeWarning either: pytest makes it an error
        space = lf.random_metric_space(5, seed=3)
        q = lf.quotient_pseudometric(space.dist, [0, 1])
        op = lf.WeightOperator(space, tuple(range(5)), np.eye(5))
        assert lf.operator_norm(op, q) == (1.0, (0, 2))
        norms = lf.molecule_norm_matrix(op, q)
        assert fn.ClassPairs(op, q).ratio_max(norms) == (1.0, (0, 2))

    def test_pseudometric_zero_distance_with_a_gap_is_inf(self):
        # row 1 is the indicator of point 2, so N(0, 1) = q(0, 2) > 0 at q(0, 1) = 0
        space = lf.random_metric_space(5, seed=3)
        q = lf.quotient_pseudometric(space.dist, [0, 1])
        w = np.zeros((5, 4))
        w[[0, 1, 2, 3, 4], [0, 1, 1, 2, 3]] = 1.0
        op = lf.WeightOperator(space, (0, 2, 3, 4), w)
        assert lf.operator_norm(op, q) == (np.inf, (0, 1))
        norms = lf.molecule_norm_matrix(op, q)
        assert fn.ClassPairs(op, q).ratio_max(norms) == (np.inf, (0, 1))
        assert lf.lipschitz_constant(w[:, 1], q) == np.inf

    def test_ratio_max_reads_each_orientation(self):
        # on this space the transport costs of a - b and b - a differ in the
        # last bits, and the least distance lies at (1, 2), of the class pair
        # (b, a)
        space = lf.random_metric_space(6, seed=4)
        a = np.array([0.0, 0.25, 0.0, 0.0, 1.0, 1.0])
        b = np.array([0.0, 0.0, 0.0, 0.5, 0.0, 0.0])
        op = lf.WeightOperator(space, tuple(range(6)), np.array([a, b, a, b, a, b]))
        norms = lf.molecule_norm_matrix(op, space.dist)
        assert norms[1, 2] != norms[0, 1]
        d = np.ones((6, 6))
        d[1, 2] = 0.5
        assert fn.ClassPairs(op, d).ratio_max(norms) == (norms[1, 2] / 0.5, (1, 2))

    def test_single_point(self):
        space = lf.random_metric_space(1, seed=3)
        op = lf.WeightOperator(space, (0,), np.ones((1, 1)), partition=True)
        pairs = fn.ClassPairs(op, space.dist)
        assert pairs.lipschitz_constants().tolist() == [0.0]
        assert pairs.ratio_max(np.zeros((1, 1))) == (0.0, (0, 0))

    def test_wrong_metric_shape_is_refused(self):
        space = lf.random_metric_space(5, seed=15)
        op = lf.WeightOperator(space, (space.base_index, 3), np.zeros((5, 2)))
        wrong = lf.random_metric_space(7, seed=16).dist
        with pytest.raises(ValueError, match="5 x 5"):
            fn.ClassPairs(op, wrong)


def glued_operator():
    """The glued operator H of the glue workload's probe 0 (the README glue
    config, on the glue metric itself) and that metric, as `certify_gluing`
    passes them to `operator_norm`."""
    space = lf.make_grid_space([10, 10], 0.1)
    cfg = lf.GluingConfig(space, tuple(range(0, 100, 10)), 1, (0.7, 0.5, 0.3, 0.2, 0.1))
    bundle = lf.build_gluing_bundle(cfg, 1, 0.7)
    glue = lf.BoundedMetric(bundle.metric, bundle.excess)
    with mock.patch.object(gluemod, "operator_norm", wraps=gluemod.operator_norm) as norm:
        assert gluemod.certify_gluing(bundle, glue, rng=np.random.default_rng(5)).passed
    return norm.call_args.args


def triaged_rows(monkeypatch):
    """A list that gets the row count of every `freenorm._triage` call made
    while the patch holds."""
    rows = []
    triage = fn._triage

    def counted(cols, vals, d, base):
        rows.append(len(cols))
        return triage(cols, vals, d, base)

    monkeypatch.setattr(fn, "_triage", counted)
    return rows


class TestUnitRows:
    """Class pairs of two unit rows take their norm d(p, q) by one gather;
    only the other pairs reach `_difference` and `_triage`."""

    @given(unit_row_operators(), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_gather_equals_the_kernel(self, case, rows):
        op, d = case
        weights = op.matrix[op._classes.reps]
        got = fn._unit_columns(*fn._sparse_rows(weights))
        for p, row in zip(got, weights):
            nz = np.flatnonzero(row)
            assert p == (nz[0] if len(nz) == 1 and row[nz[0]] == 1.0 else -1)
        with mock.patch.object(fn, "_BLOCK_ROWS", rows):
            for metric in (d, op.space.dist):
                got = lf.molecule_norm_matrix(op, metric)
                assert got.tobytes() == molecule_norm_matrix_by_rows(op, metric).tobytes()
                assert lf.operator_norm(op, metric) == operator_norm_by_ratio_vector(op, metric)

    def test_zero_molecules_and_signed_zero_distances(self):
        # rows 0 and 1 differ only in the sign of a zero and row 2 is row 0
        # again: their molecules are zero; rows 4 and 5 are not unit rows.
        # Under a pseudometric with d(0, 1) = -0.0 the molecule of rows 0
        # and 3 has the norm +0.0
        space = lf.random_metric_space(6, seed=2)
        rows = np.array([[1.0, 0.0, 0.0], [1.0, -0.0, 0.0], [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.5, 0.0, 0.5]])
        op = lf.WeightOperator(space, (0, 1, 2), rows)
        distinct = rows[op._classes.reps]
        assert fn._unit_columns(*fn._sparse_rows(distinct)).tolist() == [0, 0, 1, -1, -1]
        signed = space.dist.copy()
        signed[0, 1] = signed[1, 0] = -0.0
        for d in (space.dist, signed):
            got = lf.molecule_norm_matrix(op, d)
            assert got.tobytes() == molecule_norm_matrix_by_rows(op, d).tobytes()
            assert got[0, 1] == got[0, 2] == got[1, 2] == 0.0
        assert not np.signbit(got[0, 3])
        assert lf.operator_norm(op, space.dist) == operator_norm_by_ratio_vector(op, space.dist)

    def test_900_point_partition_triages_no_pair(self, monkeypatch):
        # every class of the extend-30x30-fine partition is a unit row
        space = lf.make_grid_space([30, 30], 0.02)
        nc = lf.build_net_cover(space, 0.125)
        op = lf.partition_of_unity(space.dist, nc.sets, nc.net, space)
        distinct = op.matrix[op._classes.reps]
        assert len(distinct) == 100 and (fn._unit_columns(*fn._sparse_rows(distinct)) >= 0).all()
        rows = triaged_rows(monkeypatch)
        lf.molecule_norm_matrix(op, space.dist)
        lf.operator_norm(op, space.dist)
        assert rows == []

    def test_glued_operator_triages_only_the_other_pairs(self, monkeypatch):
        op, e = glued_operator()
        classes = op._classes
        pairs = [(a, b) for xs, ys in fn._pair_blocks(classes.reps, classes.last)
                 for a, b in zip(xs, ys)]
        unit_rows = [len(np.flatnonzero(r)) == 1 and r.max() == 1.0
                     for r in op.matrix[classes.reps]]
        others = sum(not (unit_rows[a] and unit_rows[b]) for a, b in pairs)
        assert len(pairs) == 4861 and others <= 600
        rows = triaged_rows(monkeypatch)
        got = lf.operator_norm(op, e)
        assert sum(rows) == others
        monkeypatch.undo()
        assert got == operator_norm_by_ratio_vector(op, e)

    def test_memory_budget_on_the_glued_operator(self):
        # the kernel sweep of earlier versions peaked at 416,704 B here
        op, e = glued_operator()
        got, peak = traced_peak(lambda: lf.operator_norm(op, e))
        assert peak <= 416_704
        assert got == operator_norm_by_ratio_vector(op, e)


class TestMetricExtension:
    def test_restriction_returns_original(self):
        space = lf.random_metric_space(6, seed=18)
        s = [0, 2, 3]
        rho = space.dist[np.ix_(s, s)]
        ext = lf.metric_extension_lp(space.dist, s, rho)
        assert ext.certificate.details["sup_distortion"] <= 1e-9
        assert np.allclose(ext.matrix, space.dist, atol=1e-8)

    def test_full_subset_returns_rho(self):
        space = lf.random_metric_space(5, seed=19)
        rho = lf.floyd_warshall(space.dist * 1.3)
        ext = lf.metric_extension_lp(space.dist, range(5), rho)
        assert np.array_equal(ext.matrix, rho)

    def test_exact_on_subset_and_certified(self):
        rng = np.random.default_rng(20)
        for seed in range(5):
            space = lf.random_metric_space(7, seed=seed)
            s = sorted(rng.choice(7, size=3, replace=False).tolist())
            rho = lf.perturb_metric(space.dist[np.ix_(s, s)], 0.15, rng).matrix
            ext = lf.metric_extension_lp(space.dist, s, rho)
            assert np.array_equal(ext.matrix[np.ix_(s, s)], rho)
            bound = lf.sup_distance(rho, space.dist[np.ix_(s, s)])
            assert ext.certificate.details["sup_distortion"] <= bound + 1e-9
            assert lf.validate_metric(ext.matrix).ok
            assert ext.certificate.passed

    def test_empty_subset_keeps_metric(self):
        space = lf.random_metric_space(4, seed=23)
        ext = lf.metric_extension_lp(space.dist, [], np.zeros((0, 0)))
        assert np.array_equal(ext.matrix, space.dist)
        assert ext.certificate.details["sup_distortion"] == 0.0 and ext.certificate.passed

    def test_invalid_rho_reported(self):
        space = lf.random_metric_space(5, seed=21)
        bad = space.dist[np.ix_([0, 1, 2], [0, 1, 2])].copy()
        bad[0, 1] = bad[1, 0] = 100.0   # triangle violation
        with pytest.raises(lf.MetricError):
            lf.metric_extension_lp(space.dist, [0, 1, 2], bad)

    def test_upper_side_checked_without_tolerance(self, monkeypatch):
        space = lf.random_metric_space(6, seed=22)
        s = [0, 1, 4]
        rho = lf.perturb_metric(space.dist[np.ix_(s, s)], 0.1,
                                np.random.default_rng(5)).matrix
        cert = lf.metric_extension_lp(space.dist, s, rho).certificate
        assert cert.passed and not cert.warning
        assert cert.details["entries_above_w"] == 0
        real = lf.floyd_warshall

        def one_ulp_above(w):
            # a metric within 1e-9 of the claim, but one ulp above fl(d + delta)
            out = real(w)
            assert out[2, 3] == w[2, 3]
            out[2, 3] = out[3, 2] = np.nextafter(w[2, 3], np.inf)
            return out

        monkeypatch.setattr("lipfree.freenorm.floyd_warshall", one_ulp_above)
        with pytest.raises(lf.MetricExtensionError) as err:
            lf.metric_extension_lp(space.dist, s, rho)
        cert = err.value.certificate
        assert cert.details["metric_check"] == "valid"
        assert cert.details["entries_above_w"] == 2
        assert cert.details["sup_distortion"] <= cert.claimed + 1e-9

    def test_non_metric_extension_rejected(self, monkeypatch):
        space = lf.random_metric_space(6, seed=22)
        s = [0, 1, 4]
        rho = lf.perturb_metric(space.dist[np.ix_(s, s)], 0.1,
                                np.random.default_rng(5)).matrix
        assert lf.metric_extension_lp(space.dist, s, rho).certificate.passed
        real = lf.floyd_warshall

        def asymmetric(w):
            # within the distortion bound, but no longer symmetric
            out = real(w)
            out[2, 3] = space.dist[2, 3]
            out[3, 2] = space.dist[3, 2] + 1e-3
            return out

        monkeypatch.setattr("lipfree.freenorm.floyd_warshall", asymmetric)
        with pytest.raises(lf.MetricExtensionError) as err:
            lf.metric_extension_lp(space.dist, s, rho)
        cert = err.value.certificate
        assert cert.claimed > 1e-3 and not cert.passed
        assert cert.details["metric_check"].startswith("symmetry")
