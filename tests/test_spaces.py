import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lipfree as lf
from conftest import line_space, min_plus_excess_by_via
from lipfree import spaces
from lipfree.spaces import _min_plus_excess


def random_metric_matrix(seed, n):
    return lf.random_metric_space(n, seed=seed).dist


class TestValidateMetric:
    def test_discrete_metric_valid(self):
        d = np.ones((4, 4)) - np.eye(4)
        assert lf.validate_metric(d).ok

    def test_triangle_violation_witnessed(self):
        d = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
        rep = lf.validate_metric(d)
        kinds = {v.kind: v for v in rep.violations}
        assert "triangle" in kinds
        i, j, k = kinds["triangle"].witness
        assert d[i, k] > d[i, j] + d[j, k]

    def test_negative_entry_witnessed(self):
        d = np.array([[0, 1, -2], [1, 0, 1], [-2, 1, 0]], dtype=float)
        kinds = {v.kind: v for v in lf.validate_pseudometric(d).violations}
        assert (kinds["negative"].witness, kinds["negative"].amount) == ((0, 2), 2.0)

    def test_asymmetric_entry(self):
        d = np.array([[0, 1], [2, 0]], dtype=float)
        rep = lf.validate_metric(d)
        assert any(v.kind == "symmetry" for v in rep.violations)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            lf.validate_metric(np.zeros((2, 3)))

    def test_zero_offdiagonal_flagged_as_metric_only(self):
        d = np.array([[0, 0.0], [0.0, 0]])
        assert not lf.validate_metric(d).ok
        assert lf.validate_pseudometric(d).ok

    def test_empty_matrix_is_a_metric(self):
        rep = lf.validate_metric(np.zeros((0, 0)))
        assert rep.ok and rep.shape == (0, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_is_the_one_violation(self, bad):
        # NaN passes every comparison-based check, so the finiteness check
        # must come first and end the validation
        for d in (np.array([[0, bad, 1], [bad, 0, 1], [1, 1, 0]]),
                  np.array([[0, bad], [bad, 0]])):
            for allow_zero in (False, True):
                rep = lf.validate_metric(d, allow_zero=allow_zero)
                assert [v.kind for v in rep.violations] == ["nonfinite"]
                assert rep.violations[0].witness == (0, 1)
                assert np.array_equal(rep.violations[0].amount, bad, equal_nan=True)


def _report_with_defect(kind, amount):
    """Validation of a matrix whose only defect is `kind`, of exactly `amount`.

    Exact measurement needs the defect next to zeros, so the symmetry and
    triangle cases are pseudometrics.
    """
    if kind == "diagonal":
        return lf.validate_metric(np.array([[amount, 1.0], [1.0, 0.0]]))
    if kind == "symmetry":
        return lf.validate_pseudometric(np.array([[0.0, 0.0], [amount, 0.0]]))
    d = np.zeros((3, 3))
    d[0, 2] = d[2, 0] = amount        # d(0, 2) - (d(0, 1) + d(1, 2)) = amount
    return lf.validate_pseudometric(d)


class TestExactlyAtTolerance:
    @pytest.mark.parametrize("kind", ["diagonal", "symmetry", "triangle"])
    def test_tolerance_is_inclusive(self, kind):
        at = lf.DEFAULT_TOL                      # the largest float <= DEFAULT_TOL
        above = np.nextafter(at, np.inf)         # the next float up
        assert _report_with_defect(kind, at).ok
        rep = _report_with_defect(kind, above)
        assert [(v.kind, v.amount) for v in rep.violations] == [(kind, above)]


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["integers", "floats", "near-metric"]))
    if kind == "near-metric":
        # a metric with every entry scaled by up to 20%: small excesses
        seed = draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        return lf.random_metric_space(n, seed=seed).dist * rng.uniform(0.8, 1.2, (n, n))
    if kind == "integers":
        # many ties among the candidate midpoints j
        elements = st.integers(0, 3).map(float)
    else:
        elements = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
    return draw(arrays(np.float64, (n, n), elements=elements))


class TestMinPlusExcess:
    @given(square_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_via_sweep(self, d):
        assert _min_plus_excess(d) == min_plus_excess_by_via(d)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 200])
    def test_block_and_thread_boundaries(self, n, workers, monkeypatch):
        # 64-row blocks; with two workers, even on one core, block 1 goes to
        # the helper thread
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * n)
        monkeypatch.setattr(spaces, "_WORKERS", workers)
        rng = np.random.default_rng(n)
        d = rng.integers(1, 3, (n, n)).astype(float)   # entries 1 and 2: many ties
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
        assert _min_plus_excess(d) == min_plus_excess_by_via(d)
        i = min(n - 1, 64 + 5)                          # in block 1 once n > 64
        k = (i + 1) % n
        if i != k:
            d[i, k] = 5.0                               # one-sided: excess 3 in row i only
        got = _min_plus_excess(d)
        assert got == min_plus_excess_by_via(d)
        if i != k:
            assert got[0] == 3.0 and (got[1][0], got[1][2]) == (i, k)

    def test_helper_failure_is_raised_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * 130)
        monkeypatch.setattr(spaces, "_WORKERS", 2)
        block_excess = spaces._block_excess
        threads = []

        def failing(d, lo, hi, best, cand):
            if lo == 64:
                threads.append(threading.current_thread())
                raise RuntimeError("block 1 failed")
            return block_excess(d, lo, hi, best, cand)

        monkeypatch.setattr(spaces, "_block_excess", failing)
        with pytest.raises(RuntimeError, match="block 1 failed"):
            lf.validate_metric(random_metric_matrix(0, 130))
        assert threads and threads[0] is not threading.current_thread()

    def test_concurrent_callers_get_their_serial_reports(self, monkeypatch):
        mats = [random_metric_matrix(seed, 130).copy() for seed in (1, 2)]
        mats[1][100, 3] += 1.0                          # triangle and symmetry violations
        monkeypatch.setattr(spaces, "_WORKERS", 1)
        serial = [lf.validate_metric(m) for m in mats]
        assert serial[0].ok and not serial[1].ok
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * 130)
        monkeypatch.setattr(spaces, "_WORKERS", 2)
        results = [[], []]

        def run(k):
            for _ in range(3):
                results[k].append(lf.validate_metric(mats[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=run, args=(k,)) for k in range(2)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == [[serial[0]] * 3, [serial[1]] * 3]


class TestSupDistance:
    def test_self_is_zero(self):
        d = random_metric_matrix(0, 5)
        assert lf.sup_distance(d, d) == 0.0

    def test_doubling_gives_diameter(self):
        space = line_space([0.0, 1.0, 3.0])
        assert lf.sup_distance(space.dist, 2 * space.dist) == 3.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lf.sup_distance(np.zeros((2, 2)), np.zeros((3, 3)))

    @given(st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_metric_axioms_on_matrices(self, seed):
        a = random_metric_matrix(seed, 5)
        b = random_metric_matrix(seed + 1000, 5)
        c = random_metric_matrix(seed + 2000, 5)
        assert lf.sup_distance(a, b) == lf.sup_distance(b, a)
        assert lf.sup_distance(a, c) <= lf.sup_distance(a, b) + lf.sup_distance(b, c) + 1e-12


class TestTruncate:
    def test_level_above_diameter_is_identity(self):
        d = random_metric_matrix(2, 5)
        assert np.array_equal(lf.truncate(d, lf.diameter(d) + 1), d)

    def test_level_below_all_distances(self):
        d = np.ones((3, 3)) * 2
        np.fill_diagonal(d, 0.0)
        out = lf.truncate(d, 0.5)
        off = ~np.eye(3, dtype=bool)
        assert np.all(out[off] == 0.5)

    @given(st.integers(0, 50), st.floats(0.01, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_pseudometric_and_bounds(self, seed, eta):
        d = random_metric_matrix(seed, 6)
        out = lf.truncate(d, eta)
        assert lf.validate_pseudometric(out).ok
        assert np.all(out <= d + 1e-15)
        assert out.max() <= eta

    def test_nonpositive_level_rejected(self):
        with pytest.raises(ValueError):
            lf.truncate(np.zeros((2, 2)), 0.0)


class TestQuotientPseudometric:
    def test_zero_inside_subset(self):
        d = random_metric_matrix(3, 6)
        out = lf.quotient_pseudometric(d, [1, 2, 4])
        for i in (1, 2, 4):
            for j in (1, 2, 4):
                assert out[i, j] == 0.0

    def test_full_subset_gives_zero_matrix(self):
        d = random_metric_matrix(4, 5)
        assert lf.quotient_pseudometric(d, range(5)).max() == 0.0

    def test_never_exceeds_original(self):
        d = random_metric_matrix(5, 7)
        out = lf.quotient_pseudometric(d, [0, 3])
        assert np.all(out <= d + 1e-15)

    def test_sup_bound_for_dense_subset(self):
        # a subset that is (eps/2)-dense keeps the collapse below eps
        space = lf.make_grid_space([9], 0.125)
        eps = 0.5
        members = [0, 2, 4, 6, 8]
        assert lf.is_eps_dense(space.dist, members, eps / 2).dense
        out = lf.quotient_pseudometric(space.dist, members)
        assert out.max() <= eps

    def test_is_pseudometric(self):
        d = random_metric_matrix(6, 7)
        assert lf.validate_pseudometric(lf.quotient_pseudometric(d, [0, 1])).ok

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lf.quotient_pseudometric(np.zeros((2, 2)), [])


class TestSetGeometry:
    def test_dist_to_own_member(self):
        d = random_metric_matrix(7, 5)
        assert lf.dist_to_set_all(d, [3])[3] == 0.0

    def test_singleton_diameter(self):
        d = random_metric_matrix(8, 5)
        assert lf.diameter(d, [2]) == 0.0

    def test_three_point_line_distance(self):
        space = line_space([0.0, 1.0, 2.0])
        assert lf.dist_to_set_all(space.dist, [0, 1])[2] == 1.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            lf.dist_to_set_all(np.zeros((2, 2)), [])

    def test_set_distance_empty_is_inf(self):
        assert lf.set_distance(np.zeros((2, 2)), [0], []) == float("inf")


class TestDensity:
    def test_full_set_always_dense(self):
        d = random_metric_matrix(9, 6)
        assert lf.is_eps_dense(d, range(6), 0.0).dense

    @pytest.mark.parametrize("eps,expect", [(0.124, False), (0.125, True), (0.2, True)])
    def test_alternating_grid_points(self, eps, expect):
        space = lf.make_grid_space([9], 0.125)
        assert lf.is_eps_dense(space.dist, [0, 2, 4, 6, 8], eps).dense is expect

    def test_witness_attains_max(self):
        d = random_metric_matrix(10, 7)
        rep = lf.is_eps_dense(d, [0, 1], 0.01)
        vals = d[:, [0, 1]].min(axis=1)
        assert rep.max_dist == vals.max()
        assert vals[rep.witness] == rep.max_dist


class TestGridSpace:
    def test_two_points(self):
        space = lf.make_grid_space([2], 1.0)
        assert space.n == 2
        assert space.dist[0, 1] == 1.0

    def test_three_by_three_diameter(self):
        space = lf.make_grid_space([3, 3], 0.5)
        assert space.n == 9
        assert lf.diameter(space.dist) == 1.0

    def test_valid_metric_all_grounds(self):
        for ground in ("linf", "l1", "l2"):
            space = lf.make_grid_space([3, 4], 0.25, ground=ground)
            assert lf.validate_metric(space.dist).ok

    def test_empty_dims_rejected(self):
        with pytest.raises(ValueError):
            lf.make_grid_space([], 1.0)

    def test_nominal_dimension_recorded(self):
        assert lf.make_grid_space([4, 4], 1.0).nominal_dim == 2


class TestPseudometricSum:
    @given(st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_sum_of_pseudometrics_is_pseudometric(self, seed):
        p = lf.truncate(random_metric_matrix(seed, 5), 0.8)
        q = lf.quotient_pseudometric(random_metric_matrix(seed + 1, 5), [0, 2])
        assert lf.validate_pseudometric(p + q).ok


class TestRandomAndPerturb:
    def test_random_space_deterministic(self):
        a = lf.random_metric_space(7, seed=42)
        b = lf.random_metric_space(7, seed=42)
        assert np.array_equal(a.dist, b.dist)

    @pytest.mark.parametrize("amplitude", [0.01, 0.1, 0.5])
    def test_perturbation_within_amplitude(self, amplitude):
        d = random_metric_matrix(12, 8)
        rng = np.random.default_rng(3)
        e = lf.perturb_metric(d, amplitude, rng)
        assert lf.validate_metric(e).ok
        assert lf.sup_distance(e, d) <= amplitude + 1e-12

    def test_floyd_warshall_idempotent_on_metric(self):
        d = random_metric_matrix(13, 6)
        assert np.allclose(lf.floyd_warshall(d), d)


class TestRestrictAndJson:
    def test_restrict_line_of_grid(self):
        space = lf.make_grid_space([4, 3], 0.5)
        row = [i for i in range(space.n) if space.coords[i, 1] == 0]
        sub = lf.restrict_space(space, row)
        assert sub.nominal_dim == 1
        assert sub.n == 4

    def test_json_round_trip_bit_exact(self):
        space = lf.random_metric_space(6, seed=5)
        back = lf.space_from_json({
            "points": list(space.points),
            "metric": [list(map(float, row)) for row in space.dist],
            "base_point": space.base_index,
        })
        assert back.points == space.points
        assert np.array_equal(back.dist, space.dist)
        assert back.base_index == space.base_index

    def test_generator_form(self):
        space = lf.space_from_json({"generator": "grid", "dims": [3, 3],
                                    "spacing": 0.5, "ground": "linf"})
        assert space.n == 9
