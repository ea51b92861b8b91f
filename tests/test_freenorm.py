import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lipfree as lf
from lipfree import freenorm as fn, lp as lpmod
from conftest import (free_norm_by_vertices, free_space_norm, lipschitz_constant_dense,
                      line_space, molecule_norms_by_pairs, operator_norm_by_molecules)


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
            others = [i for i in range(space.n) if i != space.base_index]
            sub = others + [space.base_index]
            slow = fn._dual_norm(w[others], space.dist[np.ix_(sub, sub)])
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
        norm = fn._row_norms(w[None, :].copy(), space.dist, space.base_index, {})[0]
        assert fn._row_norms(w2[None, :].copy(), space.dist, space.base_index, {})[0] == norm
        assert norm == pytest.approx(free_space_norm(space, w2), abs=1e-12)

    def test_norm_lp_residual_rejected(self, monkeypatch):
        real = lpmod.solve

        def sloppy(prog):
            return dataclasses.replace(real(prog), max_violation=1e-6)

        monkeypatch.setattr(lpmod, "solve", sloppy)
        with pytest.raises(lf.LpError, match="residual"):
            free_space_norm(line_space([0.0, 1.0, 3.0]), [0.0, 1.0, 1.0])


class TestMcShane:
    def test_full_subset_is_identity(self):
        space = lf.random_metric_space(5, seed=3)
        f = space.dist[:, 0]
        out = fn._mcshane_values(space.dist, list(range(5)), f, 1.0)
        assert np.array_equal(out, f)

    def test_zero_seed_gives_scaled_distance(self):
        space = line_space([0.0, 1.0, 2.0, 3.0])
        out = fn._mcshane_values(space.dist, [0, 1], np.zeros(2), 2.0)
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
            out = fn._mcshane_values(space.dist, members, f, lip)
            assert np.array_equal(out[members], f)
            assert lf.lipschitz_constant(out, space.dist) <= lip * (1 + 1e-12)

    def test_vanishes_at_base_when_seed_does(self):
        space = lf.random_metric_space(6, seed=11)
        members = [space.base_index, 2, 4]
        f = np.array([0.0, 0.7, -0.3])
        sub = space.dist[np.ix_(members, members)]
        lip = lf.lipschitz_constant(f, sub)
        out = fn._mcshane_values(space.dist, members, f, lip)
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

    def test_zero_operator_defect_matches_delta_norm(self):
        space = lf.random_metric_space(4, seed=15)
        dom = (space.base_index, 1, 2)
        op = lf.WeightOperator(space, dom, np.zeros((4, 3)))
        report = lf.almost_extension_defect(op, space.dist)
        expected = max(space.dist[x, space.base_index] for x in dom)
        assert report.defect == pytest.approx(expected, abs=1e-9)

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
    return op, lf.perturb_metric(space.dist, 0.05, rng)


@pytest.fixture(scope="module")
def grid_operators():
    """A 9 x 9 grid bundle and two operators rebuilt on perturbed metrics, as
    the extend pipeline makes them; the bundle's molecules need 1,314 LPs."""
    space = lf.make_grid_space([9, 9], 0.02)
    bundle = lf.build_extension_bundle(lf.build_net_cover(space, 0.25))
    rng = np.random.default_rng(3)
    radius = lf.admission_radius(0.25, bundle.nc.order_bound)
    ops = [(bundle.pou, bundle.adapted)]
    for _ in range(2):
        e = lf.perturb_metric(bundle.adapted, 0.9 * radius, rng)
        ops.append((lf.build_perturbed_operator(bundle, e).pou, e))
    return ops


def on_domain(op, d):
    """The metric d restricted to the operator domain."""
    return d[np.ix_(op.domain, op.domain)]


def lp_pair_rows(op, d_a):
    """Base-zeroed row differences of every pair the triage leaves to the LP."""
    xs, ys = np.triu_indices(op.space.n, k=1)
    c = op.matrix[xs] - op.matrix[ys]
    _, needs_lp = fn._triage(c, d_a, op.base_position)
    return c[needs_lp]


def count_solves(monkeypatch):
    calls = []
    real = lpmod.solve

    def counted(prog):
        calls.append(1)
        return real(prog)

    monkeypatch.setattr(lpmod, "solve", counted)
    return calls


class TestMoleculeNormLayer:
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

    def test_pruned_norm_equals_exhaustive_on_grid(self, grid_operators):
        for op, d in grid_operators:
            assert lf.operator_norm(op, d) == operator_norm_by_molecules(op, d)

    def test_bound_dominates_lp_norm(self, grid_operators, monkeypatch):
        # without the margin, so the bound itself is shown to hold
        monkeypatch.setattr(fn, "PRUNE_MARGIN", 0.0)
        cases = list(grid_operators)
        cases += [random_operator(seed, seed % 2 == 0) for seed in range(40)]
        checked = 0
        for op, d in cases:
            d_a = on_domain(op, d)
            c = lp_pair_rows(op, d_a)
            base = op.base_position
            bounds = fn._ratio_upper_bounds(c, d_a, base, np.ones(len(c)))
            norms = np.array([fn._lp_norm(row, d_a, base, {}) for row in c])
            assert np.all(bounds >= norms)
            checked += len(c)
        assert checked > 1000

    def test_dedup_and_pruning_solve_fewer_lps(self, grid_operators, monkeypatch):
        calls = count_solves(monkeypatch)
        for op, d in grid_operators:
            d_a = on_domain(op, d)
            c = lp_pair_rows(op, d_a)
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


class TestMetricExtension:
    def test_restriction_returns_original(self):
        space = lf.random_metric_space(6, seed=18)
        s = [0, 2, 3]
        rho = space.dist[np.ix_(s, s)]
        ext = lf.metric_extension_lp(space.dist, s, rho)
        assert ext.distortion <= 1e-9
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
            rho = lf.perturb_metric(space.dist[np.ix_(s, s)], 0.15, rng)
            ext = lf.metric_extension_lp(space.dist, s, rho)
            assert np.array_equal(ext.matrix[np.ix_(s, s)], rho)
            bound = lf.sup_distance(rho, space.dist[np.ix_(s, s)])
            assert ext.distortion <= bound + 1e-9
            assert lf.validate_metric(ext.matrix).ok
            assert ext.certificate.passed

    def test_empty_subset_keeps_metric(self):
        space = lf.random_metric_space(4, seed=23)
        ext = lf.metric_extension_lp(space.dist, [], np.zeros((0, 0)))
        assert np.array_equal(ext.matrix, space.dist)
        assert ext.distortion == 0.0 and ext.certificate.passed

    def test_invalid_rho_reported(self):
        space = lf.random_metric_space(5, seed=21)
        bad = space.dist[np.ix_([0, 1, 2], [0, 1, 2])].copy()
        bad[0, 1] = bad[1, 0] = 100.0   # triangle violation
        with pytest.raises(lf.MetricError):
            lf.metric_extension_lp(space.dist, [0, 1, 2], bad)

    def test_upper_side_checked_without_tolerance(self, monkeypatch):
        space = lf.random_metric_space(6, seed=22)
        s = [0, 1, 4]
        rho = lf.perturb_metric(space.dist[np.ix_(s, s)], 0.1, np.random.default_rng(5))
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
        rho = lf.perturb_metric(space.dist[np.ix_(s, s)], 0.1, np.random.default_rng(5))
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
