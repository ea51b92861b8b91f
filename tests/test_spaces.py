import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lipfree as lf
from conftest import floyd_warshall_serial, line_space, min_plus_excess_by_via
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


@st.composite
def symmetric_matrices(draw):
    """Exactly symmetric matrices with a zero diagonal, integer (many ties) or
    float entries, and a block of a few rows, so that blocks straddle the
    diagonal."""
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.integers(0, 4, (n, n)).astype(float)
    else:
        a = rng.uniform(0.0, 10.0, (n, n))
    a = np.triu(a, 1)
    return a + a.T, draw(st.integers(1, 5))


def symmetric_ties(n, seed):
    """Symmetric matrix with a zero diagonal and entries 1 and 2: many ties."""
    d = np.random.default_rng(seed).integers(1, 3, (n, n)).astype(float)
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return d


class TestMinPlusExcess:
    @given(square_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_via_sweep(self, d):
        assert _min_plus_excess(d) == min_plus_excess_by_via(d)

    @given(symmetric_matrices())
    @settings(max_examples=300, deadline=None)
    def test_symmetric_matrices_match_the_via_sweep(self, case):
        d, rows = case
        assert np.array_equal(d, d.T)
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * d.shape[0]):
            assert _min_plus_excess(d) == min_plus_excess_by_via(d)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 200])
    def test_block_boundaries(self, n, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * n)     # 64-row blocks
        d = symmetric_ties(n, n)
        assert _min_plus_excess(d) == min_plus_excess_by_via(d)
        i = min(n - 1, 64 + 5)                          # in block 1 once n > 64
        k = (i + 1) % n
        if i != k:
            d[i, k] = 5.0                               # one-sided: excess 3 in row i only
        got = _min_plus_excess(d)
        assert got == min_plus_excess_by_via(d)
        if i != k:
            assert got[0] == 3.0 and (got[1][0], got[1][2]) == (i, k)

    def test_symmetric_matrix_sweeps_the_upper_triangle(self, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * 130)
        block_excess = spaces._block_excess
        starts = []

        def recording(d, lo, hi, k0, best, cand):
            starts.append((lo, k0))
            return block_excess(d, lo, hi, k0, best, cand)

        monkeypatch.setattr(spaces, "_block_excess", recording)
        d = symmetric_ties(130, 0)
        _min_plus_excess(d)
        assert starts == [(0, 0), (64, 64), (128, 128)]
        starts.clear()
        d[100, 3] += 1.0
        _min_plus_excess(d)
        assert starts == [(0, 0), (64, 0), (128, 0)]

    def test_worst_pair_across_a_block_boundary(self, monkeypatch):
        # the worst pair (60, 70) has its row in block 0 and its mirror image
        # (70, 60) left of block 1's first column
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * 130)
        d = symmetric_ties(130, 1)
        d[60, 70] = d[70, 60] = 4.0                     # excess 2, the largest
        got = _min_plus_excess(d)
        assert got == min_plus_excess_by_via(d)
        assert got[0] == 2.0 and (got[1][0], got[1][2]) == (60, 70)

    def test_one_sided_violation_below_the_diagonal(self, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * 130)
        d = symmetric_ties(130, 2)
        d[100, 3] = 5.0                                 # excess 3 in row 100 only
        got = _min_plus_excess(d)
        assert got == min_plus_excess_by_via(d)
        assert got[0] == 3.0 and (got[1][0], got[1][2]) == (100, 3)
        kinds = {v.kind: v for v in lf.validate_metric(d).violations}
        assert kinds["triangle"].witness == got[1] and kinds["triangle"].amount == 3.0

    def test_last_bit_asymmetry_takes_the_full_sweep(self, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * 130)
        d = symmetric_ties(130, 3)
        d[100, 3] = d[3, 100] = 4.0                     # excess 2 at both pairs
        d[100, 3] = np.nextafter(4.0, np.inf)           # one ulp more below the diagonal
        assert not np.array_equal(d, d.T)
        got = _min_plus_excess(d)
        assert got == min_plus_excess_by_via(d)
        assert got[0] > 2.0 and (got[1][0], got[1][2]) == (100, 3)

    def test_concurrent_callers_get_their_serial_reports(self, monkeypatch):
        mats = [random_metric_matrix(seed, 130).copy() for seed in (1, 2)]
        mats[1][100, 3] += 1.0                          # triangle and symmetry violations
        serial = [lf.validate_metric(m) for m in mats]
        assert serial[0].ok and not serial[1].ok
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * 130)
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


# Class entries with ties, zeros of both signs and values far enough apart to
# break the triangle inequality between classes.
CLASS_ENTRIES = (0.0, -0.0, 0.5, 1.0, 2.0, 3.0)


@st.composite
def repeated_row_matrices(draw):
    """Exactly symmetric matrices with a few distinct rows: d(i, k) =
    b(class of i, class of k) for a symmetric k x k matrix b and a class per
    point in any order, so classes interleave.  Optionally classes 0 and 1
    differ only in the sign of one zero, on both sides of the diagonal or on
    one (then d is symmetric by value but not bitwise).  Also returns a block
    height."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 30))
    cls = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    b = np.array(draw(st.lists(st.sampled_from(CLASS_ENTRIES), min_size=k * k,
                               max_size=k * k))).reshape(k, k)
    lower = np.tril_indices(k, -1)
    b[lower] = b.T[lower]
    if k >= 3 and draw(st.booleans()):
        b[:, 1] = b[:, 0]
        b[1] = b[0]
        c = draw(st.integers(2, k - 1))
        b[0, c] = b[c, 0] = 0.0
        b[1, c] = -0.0
        b[c, 1] = draw(st.sampled_from([0.0, -0.0]))
    return b[np.ix_(cls, cls)], draw(st.integers(1, 5))


def swept_sizes(monkeypatch):
    """Record (size of the swept matrix, first column) of every block of
    `_min_plus_excess`."""
    block_excess = spaces._block_excess
    seen = []

    def recording(d, lo, hi, k0, best, cand):
        seen.append((d.shape[0], k0))
        return block_excess(d, lo, hi, k0, best, cand)

    monkeypatch.setattr(spaces, "_block_excess", recording)
    return seen


class TestFirstEqualRows:
    @given(arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(0, 4)),
                  elements=st.sampled_from([0.0, -0.0, 1.0, np.nan, np.inf])))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_byte_comparison(self, mat):
        rows = [r.tobytes() for r in mat]
        assert spaces.first_equal_rows(mat).tolist() == [rows.index(r) for r in rows]

    def test_hash_collisions_are_settled_by_the_bytes(self, monkeypatch):
        monkeypatch.setattr(spaces, "hash", lambda data: 0, raising=False)
        mat = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [-0.0, 1.0]])
        assert spaces.first_equal_rows(mat).tolist() == [0, 1, 0, 3, 1]


class TestRepeatedRows:
    @given(repeated_row_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_via_sweep(self, case):
        d, rows = case
        assert np.array_equal(d, d.T)
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * d.shape[0]):
            assert _min_plus_excess(d) == min_plus_excess_by_via(d)

    @given(repeated_row_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_ulp_of_asymmetry_matches_the_via_sweep(self, case, data):
        d, rows = case
        n = d.shape[0]
        i, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        d[i, k] = np.nextafter(d[i, k], np.inf)
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * n):
            assert _min_plus_excess(d) == min_plus_excess_by_via(d)

    def test_only_the_distinct_rows_are_swept(self, monkeypatch):
        # classes interleave; classes 2 and 3 start at points 3 and 8
        cls = [0, 1, 0, 2, 1, 2, 2, 0, 3, 3, 1]
        b = np.array([[0.0, 1.0, 1.0, 1.0],
                      [1.0, 0.0, 1.0, 1.0],
                      [1.0, 1.0, 0.0, 5.0],       # d(2, 3) = 5 > 1 + 1
                      [1.0, 1.0, 5.0, 0.0]])
        d = b[np.ix_(cls, cls)]
        seen = swept_sizes(monkeypatch)
        got = _min_plus_excess(d)
        assert got == min_plus_excess_by_via(d) == (3.0, (3, 0, 8))
        assert seen == [(4, 0)]
        seen.clear()
        d[9, 3] = np.nextafter(5.0, np.inf)     # one ulp: no longer symmetric
        got = _min_plus_excess(d)
        assert got == min_plus_excess_by_via(d)
        assert got[0] > 3.0 and (got[1][0], got[1][2]) == (9, 3)
        assert seen == [(11, 0)]

    def test_quotient_pseudometric_sweeps_its_distinct_rows(self, monkeypatch):
        # collapsing 10 of 40 points leaves 31 distinct rows
        d = lf.quotient_pseudometric(random_metric_matrix(4, 40), range(10))
        calls = []
        real = spaces.first_equal_rows
        monkeypatch.setattr(spaces, "first_equal_rows", lambda m: calls.append(1) or real(m))
        seen = swept_sizes(monkeypatch)
        assert lf.validate_pseudometric(d).ok
        assert calls == [1] and seen == [(31, 0)]


class TestRowBlockEngine:
    def _bufsize_after(self, call):
        old = np.setbufsize(4096)                       # not numpy's default
        try:
            call()
            return np.getbufsize()
        finally:
            np.setbufsize(old)

    def test_caller_buffer_size_is_restored(self, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * 130)
        d = random_metric_matrix(0, 130)
        assert self._bufsize_after(lambda: lf.validate_metric(d)) == 4096
        assert self._bufsize_after(lambda: lf.floyd_warshall(d)) == 4096

    @pytest.mark.parametrize("failing_lo", [64, 128])  # a middle block, the last
    def test_caller_buffer_size_is_restored_when_a_block_raises(self, failing_lo, monkeypatch):
        d = random_metric_matrix(0, 130)
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * 130)
        block_excess = spaces._block_excess

        def failing(d, lo, hi, k0, best, cand):
            if lo == failing_lo:
                raise RuntimeError("block failed")
            return block_excess(d, lo, hi, k0, best, cand)

        monkeypatch.setattr(spaces, "_block_excess", failing)

        def call():
            with pytest.raises(RuntimeError, match="block failed"):
                lf.validate_metric(d)

        assert self._bufsize_after(call) == 4096


@st.composite
def weight_matrices(draw):
    """Nonnegative, possibly asymmetric weights with many ties, zeros and
    missing edges (+inf), and a block of a few rows."""
    n = draw(st.integers(1, 150))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.integers(0, draw(st.integers(1, 6)), (n, n)).astype(float)
    w[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = np.inf
    if draw(st.booleans()):
        w = np.minimum(w, w.T)
    return w, draw(st.integers(1, 5))


@st.composite
def symmetric_weights(draw):
    """Bitwise symmetric weights with ties, zeros of both signs and missing
    edges (+inf), and a block of a few rows."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.integers(0, draw(st.integers(1, 6)), (n, n)).astype(float)
    w[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = np.inf
    w[rng.random((n, n)) < 0.1] = -0.0
    lower = np.tril_indices(n, -1)
    w[lower] = w.T[lower]
    return w, draw(st.integers(1, 5))


class TestFloydWarshall:
    @given(weight_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_serial_k_loop(self, case):
        w, rows = case
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * w.shape[0]):
            got = lf.floyd_warshall(w)
        assert np.array_equal(got, floyd_warshall_serial(w))

    def test_default_blocks_match_the_serial_k_loop(self):
        w = lf.random_metric_space(300, seed=3).dist * \
            np.random.default_rng(3).uniform(0.5, 1.5, (300, 300))
        assert np.array_equal(lf.floyd_warshall(w), floyd_warshall_serial(w))

    @given(symmetric_weights())
    @settings(max_examples=200, deadline=None)
    def test_symmetric_weights_sweep_the_upper_triangle(self, case):
        w, rows = case
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * w.shape[0]), \
                mock.patch.object(spaces, "_floyd_warshall_upper",
                                  wraps=spaces._floyd_warshall_upper) as upper:
            got = lf.floyd_warshall(w)
        assert got.tobytes() == floyd_warshall_serial(w).tobytes()
        assert upper.call_count == 1

    @pytest.mark.parametrize("lower", [-0.0, np.nextafter(2.0, np.inf)])
    def test_bitwise_asymmetric_weights_take_the_full_sweep(self, lower, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 3 * 40)
        w = random_metric_matrix(5, 40).copy()
        w[7, 30] = 0.0 if lower == -0.0 else 2.0
        w[30, 7] = lower
        with mock.patch.object(spaces, "_floyd_warshall_upper") as upper:
            got = lf.floyd_warshall(w)
        assert got.tobytes() == floyd_warshall_serial(w).tobytes()
        assert upper.call_count == 0

    def test_input_is_not_modified(self):
        w = np.full((3, 3), 5.0)
        w[0, 1] = w[1, 2] = 1.0
        assert lf.floyd_warshall(w)[0, 2] == 2.0
        assert w[0, 2] == 5.0 and w[0, 0] == 5.0

    def test_infinite_weights_are_missing_edges(self):
        w = np.full((3, 3), np.inf)
        w[0, 1] = w[1, 0] = 1.0
        d = lf.floyd_warshall(w)
        assert d[0, 1] == 1.0 and np.isinf(d[0, 2]) and np.isinf(d[2, 1])
        assert np.array_equal(np.diagonal(d), np.zeros(3))

    @pytest.mark.parametrize("at, bad", [((2, 3), np.nan), ((2, 3), -1.0), ((2, 3), -np.inf),
                                         ((2, 3), -1e-300), ((0, 0), -1.0)])
    def test_nan_or_negative_weights_are_rejected(self, at, bad):
        w = np.ones((4, 4))
        w[at] = bad
        with pytest.raises(ValueError, match="nonnegative"):
            lf.floyd_warshall(w)


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

    def test_restrict_to_empty_subset_rejected(self):
        space = lf.make_grid_space([4], 0.5)
        with pytest.raises(ValueError, match="subset must be nonempty"):
            lf.restrict_space(space, [])
        with pytest.raises(ValueError, match="subset must be nonempty"):
            lf.restrict_space(space, [], base_point=0)


class TestPointIndices:
    SITES = {
        "as_indices": lambda s, v: spaces.as_indices([0, v, 2], s),
        "CoverFamily": lambda s, v: lf.CoverFamily(s, ((0, v),), 1),
        "WeightOperator": lambda s, v: lf.WeightOperator(s, (0, v), np.zeros((5, 2))),
        "GluingConfig": lambda s, v: lf.GluingConfig(s, (0, v), 1, (0.2,)),
    }

    # read with int() each of these named a real point, and the call went on
    @pytest.mark.parametrize("value", [3.9, 1.5, 3.0, np.float64(2.0), True],
                             ids=["3.9", "1.5", "3.0", "float64", "True"])
    @pytest.mark.parametrize("site", [*SITES, "verify_net_cover"])
    def test_non_integer_index_rejected(self, site, value):
        space = lf.make_grid_space([5], 0.1)
        if site == "verify_net_cover":
            nc = lf.NetAndCover(space, (0, value), ((0, 1, 2), (3, 4)), 0.5, 1)
            cert = lf.verify_net_cover(nc)
            assert not cert.passed
            assert cert.witnesses == (["range", "net", 1, value],)
            assert cert.details == {"range": False}
        else:
            with pytest.raises(ValueError, match=r"entry 1 \("):
                self.SITES[site](space, value)

    def test_python_and_numpy_integers_accepted(self):
        space = lf.make_grid_space([5], 0.1)
        assert spaces.as_indices(np.array([3, 0, 3]), space) == (0, 3)
        assert spaces.as_indices([np.int32(4), 1], space) == (1, 4)
        assert lf.CoverFamily(space, ((np.int64(2), 0),), 1).sets == ((0, 2),)
        op = lf.WeightOperator(space, (np.uint8(0), 3), np.zeros((5, 2)))
        assert op.domain == (0, 3) and all(type(i) is int for i in op.domain)
