import functools
import hashlib
import itertools
import json
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lipfree as lf
from conftest import (ONE_900, floyd_warshall_serial, grid_metric_by_broadcast,
                      grid_metric_by_rows, line_space, min_plus_excess_by_via,
                      random_metric_by_triu, reach_by_two_adds, shorten_edge_by_outer, sweeps_of,
                      traced_peak, validate_metric_by_scans, validate_metric_full)
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

    @pytest.mark.parametrize("kind, cell, value, witness, amount", [
        ("symmetry", (1, 2), np.nextafter(1.0, 2.0), (1, 2), 2.0 ** -52),
        ("diagonal", (1, 1), 5e-324, (1,), 5e-324),
        ("negative", (0, 2), -5e-324, (0, 2), 5e-324),
    ])
    def test_space_refuses_the_least_defect(self, kind, cell, value, witness, amount):
        # one ulp of asymmetry, the least subnormal on the diagonal and the
        # least subnormal below zero (on both sides of the diagonal)
        d = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        d[cell] = value
        if kind == "negative":
            d[cell[::-1]] = value
        with pytest.raises(lf.MetricError, match=kind) as err:
            lf.FiniteMetricSpace(["a", "b", "c"], d)
        found = {v.kind: v for v in err.value.report.violations}[kind]
        assert (found.witness, found.amount) == (witness, amount)
        # an asymmetric matrix is not swept for triangles
        assert (err.value.report.excess is None) == (kind == "symmetry")

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

    Exact measurement needs the defect next to zeros, so the symmetry,
    negative and triangle cases are pseudometrics.
    """
    if kind == "diagonal":
        return lf.validate_metric(np.array([[amount, 1.0], [1.0, 0.0]]))
    if kind == "symmetry":
        return lf.validate_pseudometric(np.array([[0.0, 0.0], [amount, 0.0]]))
    if kind == "negative":
        return lf.validate_pseudometric(np.array([[0.0, -amount], [-amount, 0.0]]))
    d = np.zeros((3, 3))
    d[0, 2] = d[2, 0] = amount        # d(0, 2) - (d(0, 1) + d(1, 2)) = amount
    return lf.validate_pseudometric(d)


# The largest defect each axiom admits: the diagonal, symmetry and sign
# axioms are exact, and the triangle inequality has DEFAULT_TOL.
ADMITTED = {"diagonal": 0.0, "symmetry": 0.0, "negative": 0.0, "triangle": lf.DEFAULT_TOL}


class TestExactlyAtTolerance:
    @pytest.mark.parametrize("kind", ["diagonal", "symmetry", "negative", "triangle"])
    def test_tolerance_is_inclusive(self, kind):
        at = ADMITTED[kind]                      # negative at 0 puts -0.0 entries
        above = np.nextafter(at, np.inf)         # the next float up: 5e-324 above 0
        assert above == 5e-324 or kind == "triangle"
        assert _report_with_defect(kind, at).ok
        rep = _report_with_defect(kind, above)
        assert [(v.kind, v.amount) for v in rep.violations] == [(kind, above)]


@st.composite
def square_matrices(draw):
    """Matrices equal to their transpose, the only ones `_min_plus_excess`
    sweeps, with any diagonal: the upper triangle of the draw, mirrored."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["integers", "floats", "near-metric"]))
    if kind == "near-metric":
        # a metric with every entry scaled by up to 20%: small excesses
        seed = draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        d = lf.random_metric_space(n, seed=seed).dist * rng.uniform(0.8, 1.2, (n, n))
    else:
        if kind == "integers":
            # many ties among the candidate midpoints j
            elements = st.integers(0, 3).map(float)
        else:
            elements = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
        d = draw(arrays(np.float64, (n, n), elements=elements))
    lower = np.tril_indices(n, -1)
    d[lower] = d.T[lower]
    return d


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
            d[i, k] = d[k, i] = 5.0                     # excess 3 at (i, k) and (k, i)
        got = _min_plus_excess(d)
        assert got == min_plus_excess_by_via(d)
        if i != k:
            assert got[0] == 3.0 and (got[1][0], got[1][2]) == (min(i, k), max(i, k))

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
        # the door refuses the asymmetry before any triangle is swept
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * 130)
        d = symmetric_ties(130, 2)
        d[100, 3] = 5.0                                 # excess 3 in row 100 only
        calls = sweeps_of(monkeypatch)
        rep = lf.validate_metric(d)
        assert [(v.kind, v.witness) for v in rep.violations] == [("symmetry", (3, 100))]
        assert rep.excess is None and calls == []

    def test_last_bit_asymmetry_is_refused_before_the_sweep(self, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 64 * 130)
        d = symmetric_ties(130, 3)
        d[100, 3] = d[3, 100] = 4.0                     # excess 2 at both pairs
        assert lf.validate_metric(d).excess == 2.0
        d[100, 3] = np.nextafter(4.0, np.inf)           # one ulp more below the diagonal
        calls = sweeps_of(monkeypatch)
        rep = lf.validate_metric(d)
        assert [(v.kind, v.witness, v.amount) for v in rep.violations] == \
            [("symmetry", (3, 100), np.nextafter(4.0, np.inf) - 4.0)]
        assert rep.excess is None and calls == []

    def test_concurrent_callers_get_their_serial_reports(self, monkeypatch):
        mats = [random_metric_matrix(seed, 130).copy() for seed in (1, 2)]
        mats[1][100, 3] += 1.0                          # a triangle violation
        mats[1][3, 100] = mats[1][100, 3]
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


class TestLeastClassDistances:
    @given(st.integers(1, 14), st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.integers(1, 4), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_pair_minima(self, n, k, seed, rows, transpose):
        # few values with zeros and asymmetric entries, so minima tie, and
        # blocks of 1-4 rows, which split the class runs
        rng = np.random.default_rng(seed)
        cls = np.unique(rng.integers(0, k, n), return_inverse=True)[1]
        d = rng.integers(0, 4, (n, n)) * 0.5
        m = d.T if transpose else d
        # the table's blocks are a quarter of _BLOCK_CELLS
        with mock.patch.object(spaces, "_BLOCK_CELLS", 4 * rows * n):
            got = spaces.least_class_distances(m, cls)
        want = np.full((cls.max() + 1,) * 2, np.inf)
        for x in range(n):
            for y in range(x + 1, n):
                want[cls[x], cls[y]] = min(want[cls[x], cls[y]], m[x, y])
        assert got.tobytes() == want.tobytes()


class TestIsSymmetric:
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(1, 4),
           st.sampled_from(["symmetric", "one ulp", "nan", "signed zero"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_whole_transpose(self, n, seed, rows, change):
        rng = np.random.default_rng(seed)
        d = rng.random((n, n))
        d = d + d.T
        x, y = rng.integers(n, size=2)
        if change == "one ulp":
            d[x, y] = np.nextafter(d[x, y], np.inf)
        elif change == "nan":
            d[x, y] = np.nan
        elif change == "signed zero":
            d[x, y], d[y, x] = 0.0, -0.0
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * n):
            assert spaces.is_symmetric(d) == np.array_equal(d, d.T)


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
    def test_one_ulp_on_a_symmetric_pair_matches_the_via_sweep(self, case, data):
        # the pair's rows and columns leave their classes
        d, rows = case
        n = d.shape[0]
        i, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        d[i, k] = d[k, i] = np.nextafter(d[i, k], np.inf)
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
        d[9, 3] = d[3, 9] = np.nextafter(5.0, np.inf)   # one ulp: rows 3 and 9 leave their classes
        got = _min_plus_excess(d)
        assert got == min_plus_excess_by_via(d)
        assert got[0] > 3.0 and (got[1][0], got[1][2]) == (3, 9)
        assert seen == [(6, 0)]

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
def scan_matrices(draw):
    """Square matrices for the row-block scans of validate_metric: a
    symmetric base of few values, with off-diagonal zeros of both signs, then
    planted asymmetries of a few equal sizes, so worst entries tie across
    blocks; sometimes a NaN or infinite entry.  Also a block height."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 3, (n, n)) * 0.5
    a[rng.random((n, n)) < 0.1] = -0.0
    lower = np.tril_indices(n, -1)
    a[lower] = a.T[lower]
    for _ in range(draw(st.integers(0, 4))):
        i, j = rng.integers(n, size=2)
        a[i, j] += draw(st.sampled_from([0.25, 1.0, -0.5]))
    if draw(st.integers(0, 5)) == 0:
        i, j = rng.integers(n, size=2)
        a[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return a, draw(st.integers(1, 3))


class TestRowBlockScans:
    @given(scan_matrices(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_reports_match_the_full_matrix_scans(self, case, allow_zero):
        mat, rows = case
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * mat.shape[0]):
            got = lf.validate_metric(mat, allow_zero=allow_zero)
            scans = validate_metric_by_scans(mat, allow_zero=allow_zero)
        # repr tells NaN from NaN and -0.0 from 0.0 apart, as the bits would
        assert repr(got) == repr(validate_metric_full(mat, allow_zero=allow_zero)) == repr(scans)

    def test_ties_across_blocks_go_to_the_first_row(self, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 6)         # one row per block
        d = np.ones((6, 6)) - np.eye(6)
        d[4, 1] = d[1, 4] = d[5, 3] = 0.0                    # zeros in rows 1, 4, 5
        d[3, 5] = 2.0                                        # asymmetry 2 at (3, 5), (5, 3)
        d[2, 0] = 3.0                                        # asymmetry 2 at (0, 2), (2, 0)
        kinds = {v.kind: v for v in lf.validate_metric(d).violations}
        assert (kinds["symmetry"].witness, kinds["symmetry"].amount) == ((0, 2), 2.0)
        assert (kinds["zero_offdiag"].witness, kinds["zero_offdiag"].amount) == ((1, 4), -0.0)
        assert repr(lf.validate_metric(d)) == repr(validate_metric_full(d))
        d[5, 2] = -1.0                                       # a smaller one in the last block
        kinds = {v.kind: v for v in lf.validate_metric(d).violations}
        assert (kinds["zero_offdiag"].witness, kinds["zero_offdiag"].amount) == ((5, 2), 1.0)
        assert kinds["symmetry"].witness == (0, 2)

    def test_first_nonfinite_entry_in_a_later_block(self, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 2 * 5)     # two rows per block
        d = np.ones((5, 5)) - np.eye(5)
        d[3, 1], d[4, 0], d[2, 4] = np.inf, np.nan, -np.inf
        rep = lf.validate_metric(d)
        assert [(v.kind, v.witness, v.amount) for v in rep.violations] == \
            [("nonfinite", (2, 4), -np.inf)]


TOL = lf.DEFAULT_TOL


def axiom_case(name):
    """A matrix for one edge of the one-pass axiom check."""
    d = np.ones((4, 4)) - np.eye(4)
    if name in ("asymmetry at tol", "asymmetry one ulp above"):
        # |2 tol - tol| is tol exactly; one ulp less on the lower side is one above
        d[0, 1], d[1, 0] = 2 * TOL, TOL if name == "asymmetry at tol" else np.nextafter(TOL, 0.0)
    elif name == "signed zero pair":
        d[1, 2], d[2, 1] = 0.0, -0.0
    elif name == "nan":
        d[2, 3] = np.nan
    elif name == "negative diagonal":
        d[3, 3] = -2 * TOL
    else:
        d = {"n0": np.zeros((0, 0)), "n1": np.zeros((1, 1)), "n2": np.array([[0.0, 1.0], [1.0, 0.0]]),
             "n2 zero": np.array([[0.0, -0.0], [0.0, 0.0]])}[name]
    return d


class TestAxiomPass:
    """`validate_metric` decides finiteness, the minimum and the off-diagonal
    minimum in one pass, tests symmetry once, and scans for a witness only
    when an axiom fails: on the edges of each axiom, every report, witnesses
    and amounts included, is bitwise what the scans of earlier versions give
    under the exact axioms (`validate_metric_by_scans`), as on the drawn
    matrices of `TestRowBlockScans`.  Any asymmetry, even at DEFAULT_TOL,
    is refused before the triangle sweep; a signed zero pair is not one."""

    @pytest.mark.parametrize("name", ["asymmetry at tol", "asymmetry one ulp above",
                                      "signed zero pair", "nan", "negative diagonal",
                                      "n0", "n1", "n2", "n2 zero"])
    @pytest.mark.parametrize("allow_zero", [False, True])
    @pytest.mark.parametrize("rows", [1, 2, 4])
    def test_edge_cases_equal_the_scans(self, name, allow_zero, rows, monkeypatch):
        d = axiom_case(name)
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", rows * max(len(d), 1))
        got = lf.validate_metric(d, allow_zero=allow_zero)
        assert repr(got) == repr(validate_metric_by_scans(d, allow_zero=allow_zero))
        kinds = {v.kind for v in got.violations}
        if name.startswith("asymmetry"):
            assert abs(d[0, 1] - d[1, 0]) == (TOL if name.endswith("tol")
                                              else np.nextafter(TOL, 1.0))
            assert "symmetry" in kinds and got.excess is None
        if name in ("signed zero pair", "n2 zero"):
            assert got.excess == 0.0 and "symmetry" not in kinds
            assert ("zero_offdiag" in kinds) != allow_zero and got.ok == allow_zero
        if name == "nan":
            assert [v.kind for v in got.violations] == ["nonfinite"] and got.excess is None

    def test_passing_matrix_is_not_scanned(self, monkeypatch):
        # a valid metric costs no witness scan at all
        scans = []
        first_max = spaces._first_max
        monkeypatch.setattr(spaces, "_first_max", lambda *a: scans.append(a) or first_max(*a))
        assert lf.validate_metric(lf.make_grid_space([6, 5], 0.1).dist).ok
        assert scans == []


@st.composite
def weight_matrices(draw):
    """Nonnegative, possibly asymmetric weights with many ties, zeros of
    both signs and missing edges (+inf), and a block of a few rows."""
    n = draw(st.integers(1, 150))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    w = rng.integers(0, draw(st.integers(1, 6)), (n, n)).astype(float)
    w[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = np.inf
    w[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1]))] = -0.0
    if draw(st.booleans()):
        w = np.minimum(w, w.T)
    return w, draw(st.integers(1, 5))


@st.composite
def closure_weights(draw):
    """Nonnegative weights to close: uniform floats of three scales, a few
    values with ties, or 1 + ulp steps, with zeros and missing edges (+inf),
    bitwise symmetric or not.  Sizes run from 1 to 40."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "ties", "ulps"]))
    if kind == "uniform":
        w = rng.uniform(0.0, draw(st.sampled_from([1e-3, 1.0, 1e6])), (n, n))
    elif kind == "ties":
        w = rng.integers(0, 4, (n, n)) * 0.1
    else:
        w = 1.0 + rng.integers(0, 4, (n, n)) * 2.0 ** -52
    w[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = np.inf
    w[rng.random((n, n)) < 0.05] = 0.0
    if draw(st.booleans()):
        spaces._mirror_upper(w)
    return w, draw(st.integers(1, 5))


class TestFloydWarshall:
    @given(weight_matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_serial_k_loop(self, case):
        w, rows = case
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * w.shape[0]):
            got = lf.floyd_warshall(w)
        assert got.tobytes() == floyd_warshall_serial(w).tobytes()

    def test_default_blocks_match_the_serial_k_loop(self):
        w = lf.random_metric_space(300, seed=3).dist * \
            np.random.default_rng(3).uniform(0.5, 1.5, (300, 300))
        assert np.array_equal(lf.floyd_warshall(w), floyd_warshall_serial(w))

    @pytest.mark.parametrize("lower", [-0.0, np.nextafter(2.0, np.inf)])
    def test_bitwise_asymmetric_weights_take_the_full_sweep(self, lower, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 3 * 40)
        w = random_metric_matrix(5, 40).copy()
        w[7, 30] = 0.0 if lower == -0.0 else 2.0
        w[30, 7] = lower
        assert lf.floyd_warshall(w).tobytes() == floyd_warshall_serial(w).tobytes()

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

    @given(arrays(np.float64, st.tuples(st.integers(0, 9), st.integers(0, 9)),
                  elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0, np.nan, np.inf])),
           st.integers(0, 2**16), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_row_blocks_give_the_whole_matrix_maximum(self, d, seed, rows):
        e = np.random.default_rng(seed).permutation(d.reshape(-1)).reshape(d.shape)
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * max(1, d.shape[1])), \
                np.errstate(invalid="ignore"):                  # inf - inf
            got = lf.sup_distance(d, e)
            want = float(np.abs(d - e).max(initial=0.0))
        assert repr(got) == repr(want)        # a NaN included

    def test_vectors_and_scalars(self):
        assert lf.sup_distance([0.0, 1.0, 5.0], [0.5, 1.0, 2.0]) == 3.0
        assert lf.sup_distance(2.0, -1.0) == 3.0

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
        assert lf.dist_to_set_all(space.dist, members).max() <= eps / 2
        out = lf.quotient_pseudometric(space.dist, members)
        assert out.max() <= eps

    def test_is_pseudometric(self):
        d = random_metric_matrix(6, 7)
        assert lf.validate_pseudometric(lf.quotient_pseudometric(d, [0, 1])).ok

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lf.quotient_pseudometric(np.zeros((2, 2)), [])

    @pytest.mark.parametrize("members", [[0], [3, 1, 3], list(range(0, 40, 3)), range(40)])
    def test_matches_the_broadcast_formula(self, members, monkeypatch):
        monkeypatch.setattr(spaces, "_BLOCK_CELLS", 3 * 40)
        d = random_metric_matrix(11, 40).copy()
        d[5, 7] = d[7, 5] = -0.0                       # signed zeros meet the minimum
        da = d[:, list(members)].min(axis=1)
        want = np.minimum(d, da[:, None] + da[None, :])
        np.fill_diagonal(want, 0.0)
        assert lf.dist_to_set_all(d, members).tobytes() == da.tobytes()
        assert lf.quotient_pseudometric(d, members).tobytes() == want.tobytes()


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
        assert lf.dist_to_set_all(d, range(6)).max() <= 0.0

    @pytest.mark.parametrize("eps,expect", [(0.124, False), (0.125, True), (0.2, True)])
    def test_alternating_grid_points(self, eps, expect):
        space = lf.make_grid_space([9], 0.125)
        assert bool(lf.dist_to_set_all(space.dist, [0, 2, 4, 6, 8]).max() <= eps) is expect

    def test_witness_attains_max(self):
        d = random_metric_matrix(10, 7)
        dist = lf.dist_to_set_all(d, [0, 1])
        witness = int(np.argmax(dist))
        vals = d[:, [0, 1]].min(axis=1)
        assert dist[witness] == vals.max()
        assert vals[witness] == dist[witness]


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

    @pytest.mark.parametrize("dims, entry", [([3.7, True], 0), ([3, True], 1), ([2, 3.0], 1),
                                             ([np.float64(2.0)], 0), (["3"], 0)])
    def test_non_integer_dims_rejected(self, dims, entry):
        # read with int() these built a smaller grid without a word
        with pytest.raises(ValueError, match=rf"dims entry {entry} \("):
            lf.make_grid_space(dims, 0.5)

    def test_numpy_integer_dims_accepted(self):
        space = lf.make_grid_space(np.array([3, 2]), 0.5)
        assert space.n == 6 and space.nominal_dim == 2

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.sampled_from(["linf", "l1", "l2"]), st.sampled_from([1.0, 0.02, 0.1, 1 / 3, 7.5]),
           st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_broadcast_formula(self, dims, ground, spacing, rows):
        # the axis tables folded by broadcast, against the whole difference
        # array and the row-block loop of earlier versions, with the points
        # in itertools.product order
        space = lf.make_grid_space(dims, spacing, ground=ground)
        want = grid_metric_by_broadcast(dims, spacing, ground)
        assert space.dist.tobytes() == want.tobytes()
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * int(np.prod(dims))):
            assert grid_metric_by_rows(dims, spacing, ground).tobytes() == want.tobytes()
        coords = list(itertools.product(*(range(k) for k in dims)))
        assert space.coords.tolist() == [list(c) for c in coords]
        assert space.points == tuple("-".join(map(str, c)) for c in coords)
        assert space.excess == (2 * (1 + (ground == "l2")) + 2) * U * want.max()

    @pytest.mark.parametrize("ground", ["linf", "l1", "l2"])
    def test_three_axes_match_the_broadcast_formula(self, ground):
        got = lf.make_grid_space([6, 5, 4], 0.05, ground=ground).dist
        assert got.tobytes() == grid_metric_by_broadcast([6, 5, 4], 0.05, ground).tobytes()

    def test_unknown_ground_rejected(self):
        with pytest.raises(ValueError, match="unknown ground metric 'l3'"):
            lf.make_grid_space([3, 3], 1.0, ground="l3")


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
        e = lf.perturb_metric(d, amplitude, rng).matrix
        assert lf.validate_metric(e).ok
        assert lf.sup_distance(e, d) <= amplitude + 1e-12

    def test_floyd_warshall_idempotent_on_metric(self):
        d = random_metric_matrix(13, 6)
        assert np.allclose(lf.floyd_warshall(d), d)

    @pytest.mark.parametrize("n, seed, scale", [(1, 0, 1.0), (2, 1, 1.0), (7, 42, 1.0),
                                                (40, 3, 0.25), (130, 9, 3.0)])
    def test_random_space_matches_the_triu_formula(self, n, seed, scale):
        got = lf.random_metric_space(n, seed=seed, scale=scale).dist
        assert got.tobytes() == random_metric_by_triu(n, seed, scale).tobytes()


class TestRestrictAndJson:
    def test_restrict_line_of_grid(self):
        space = lf.make_grid_space([4, 3], 0.5)
        row = [i for i in range(space.n) if space.coords[i, 1] == 0]
        sub = lf.restrict_space(space, row)
        assert sub.nominal_dim == 1
        assert sub.n == 4

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(1, 4), min_size=1, max_size=3), data=st.data())
    def test_nominal_dimension_counts_the_varying_axes(self, dims, data):
        # lattices with constant axes, single points among them
        space = lf.make_grid_space(dims, 0.5)
        members = data.draw(st.lists(st.integers(0, space.n - 1), min_size=1, unique=True))
        sub = lf.restrict_space(space, members)
        coords = space.coords[sorted(members)]
        assert sub.nominal_dim == sum(len(np.unique(coords[:, a])) > 1
                                      for a in range(coords.shape[1]))

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

    def test_key_is_the_digest_of_the_metric_bytes(self):
        def bytes_key(space):
            digest = hashlib.sha256()
            digest.update(json.dumps(space.points).encode())
            digest.update(space.dist.tobytes())
            digest.update(str(space.base_index).encode())
            return digest.hexdigest()[:16]

        inline = lf.space_from_json({"points": ["a", "b", "c"], "base_point": 2,
                                     "metric": [[0, 1, 2.5], [1, 0, 1.5], [2.5, 1.5, 0]]})
        for space in (lf.make_grid_space([30, 30], 0.02), lf.random_metric_space(17, seed=4),
                      inline):
            assert space.key == bytes_key(space)

    @pytest.mark.parametrize("spec, named", [
        ({"generator": "grid", "dims": 5, "spacing": 0.1}, "'dims'"),
        ({"generator": "grid", "dims": [5, 2.0], "spacing": 0.1}, "'dims'"),
        ({"generator": "grid", "dims": [5, True], "spacing": 0.1}, "'dims'"),
        ({"generator": "grid", "dims": [5], "spacing": "0.1"}, "'spacing'"),
        ({"generator": "grid", "dims": [5], "spacing": None}, "'spacing'"),
        ({"generator": "random", "n": 2.5, "seed": 1}, "'n'"),
        ({"generator": "random", "n": 4, "seed": "1"}, "'seed'"),
        ({"generator": "random", "n": 4, "seed": 1.0}, "'seed'"),
        ({"points": "ab", "metric": [[0, 1], [1, 0]]}, "'points'"),
        ({"points": ["a", "b"], "metric": 1.0}, "'metric'"),
        ({"generator": "random", "n": 4, "seed": 1, "scale": "2"}, "'scale'"),
    ])
    def test_entries_of_the_wrong_type_are_named(self, spec, named):
        with pytest.raises(ValueError, match=f"entry {named} must be"):
            lf.space_from_json(spec)

    def test_entries_of_the_right_type_pass(self):
        assert lf.space_from_json({"generator": "grid", "dims": (2, np.int64(3)),
                                   "spacing": 1}).n == 6
        assert lf.space_from_json({"generator": "random", "n": np.int32(3), "seed": 0}).n == 3
        assert lf.space_from_json({"points": ("a", "b"), "metric": ((0, 1), (1, 0))}).n == 2

    def test_restrict_to_empty_subset_rejected(self):
        space = lf.make_grid_space([4], 0.5)
        with pytest.raises(ValueError, match="subset must be nonempty"):
            lf.restrict_space(space, [])
        with pytest.raises(ValueError, match="subset must be nonempty"):
            lf.restrict_space(space, [], base_point=0)


class TestSpecEntries:
    """Inline space entries that int() or np.array(dtype=int) would truncate
    are rejected and named."""

    LINE = {"points": ["a", "b", "c"],
            "metric": [[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]]}

    @pytest.mark.parametrize("key, value", [
        ("base_point", 1.7), ("base_point", True), ("base_point", "1"),
        ("coords", [[0.6], [1.2], [2.9]]), ("coords", [[0], [1, 0], [2]]),
        ("coords", [0, 1, 2]), ("coords", [[0], [True], [2]]),
        ("nominal_dim", "two"), ("nominal_dim", 1.0), ("nominal_dim", None),
    ])
    def test_wrong_entry_is_named(self, key, value):
        with pytest.raises(ValueError, match=f"entry '{key}' must be"):
            lf.space_from_json({**self.LINE, key: value})

    def test_right_entries_pass(self):
        space = lf.space_from_json({**self.LINE, "base_point": np.int64(2),
                                    "coords": [[0], [1], [2]], "nominal_dim": 1})
        assert (space.base_index, space.nominal_dim) == (2, 1)
        assert type(space.base_index) is int and space.coords.tolist() == [[0], [1], [2]]

    @pytest.mark.parametrize("kwargs, message", [
        ({"base_index": True}, "base point"),
        ({"base_index": 1.0}, "base point"),
        ({"base_index": 3}, "base point"),
        ({"coords": np.array([[0.6], [1.2], [2.9]])}, "coords"),
        ({"coords": [[0], [1]]}, "coords"),
        ({"coords": [0, 1, 2]}, "coords"),
        ({"nominal_dim": "two"}, "nominal_dim"),
    ])
    def test_constructor_rejects_what_it_would_truncate(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            lf.FiniteMetricSpace(("a", "b", "c"), np.array(self.LINE["metric"]), **kwargs)

    def test_constructor_rejects_a_negative_nominal_dim(self):
        metric = np.array(self.LINE["metric"])
        with pytest.raises(ValueError, match="nominal_dim must be an integer >= 0, got -1"):
            lf.FiniteMetricSpace(("a", "b", "c"), metric, nominal_dim=-1)
        assert lf.FiniteMetricSpace(("a", "b", "c"), metric, nominal_dim=0).nominal_dim == 0


class TestMatrixOwnership:
    def test_caller_array_is_copied(self):
        d = np.array(TestSpecEntries.LINE["metric"])
        space = lf.FiniteMetricSpace(("a", "b", "c"), d)
        dist, key = space.dist.copy(), space.key
        d[0, 1] = d[1, 0] = 0.75
        assert space.dist.tobytes() == dist.tobytes() and space.key == key
        assert not space.dist.flags.writeable

    def test_builders_hand_over_their_matrix(self):
        space, peak = traced_peak(lambda: lf.make_grid_space([30, 30], 0.02))
        assert peak - space.dist.nbytes < ONE_900
        for built in (space, lf.random_metric_space(5, seed=1),
                      lf.restrict_space(space, range(10))):
            assert not built.dist.flags.writeable and built.dist.flags.c_contiguous


class TestLatticeExcess:
    """A lattice metric is certified by the bound (2r + 2) u max d that
    `make_grid_space` hands over instead of the min-plus sweep, and that
    bound is never below what the sweep measures."""

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
           ground=st.sampled_from(["linf", "l1", "l2"]),
           spacing=st.one_of(st.sampled_from([0.02, 0.1, 1 / 3, 0.7, 2.0 ** -5, 1.0, 8.0]),
                             st.floats(1e-3, 1e3)))
    def test_bound_covers_the_sweep(self, dims, ground, spacing):
        space = lf.make_grid_space(dims, spacing, ground)
        assert space.excess >= _min_plus_excess(space.dist)[0]
        rounds = {"linf": 1, "l1": 1, "l2": 2}[ground]
        assert space.excess == (2 * rounds + 2) * 2.0 ** -53 * space.dist.max()

    @pytest.mark.parametrize("dims, spacing, ground", [
        ([30, 30], 0.02, "linf"), ([8, 8], 0.7, "l1"), ([5, 5, 5], 0.1, "l2"), ([9], 0.1, "linf"),
    ])
    def test_rounding_term_is_needed(self, dims, spacing, ground):
        # these lattices have a positive measured excess, which a bound
        # without its rounding term (zero) would miss
        space = lf.make_grid_space(dims, spacing, ground)
        measured = _min_plus_excess(space.dist)[0]
        assert 0.0 < measured <= space.excess < 1e-12

    @pytest.mark.parametrize("ground", ["linf", "l1", "l2"])
    def test_lattice_spaces_skip_the_sweep(self, ground, monkeypatch):
        calls = sweeps_of(monkeypatch)
        space = lf.make_grid_space([5, 4], 0.1, ground)
        sub = lf.restrict_space(space, [0, 1, 5, 6, 7])
        assert calls == []
        assert sub.excess == space.excess > 0

    def test_inline_coords_take_the_sweep(self, monkeypatch):
        # nothing is rediscovered from a matrix: the same lattice metric
        # given inline is swept, with the same verdict and key
        space = lf.make_grid_space([5, 4], 0.1)
        calls = sweeps_of(monkeypatch)
        inline = lf.space_from_json({"points": list(space.points),
                                     "metric": space.dist.tolist(),
                                     "coords": space.coords.tolist()})
        assert calls == [(20, 20)] and inline.key == space.key
        assert inline.excess == _min_plus_excess(space.dist)[0] <= space.excess

    def test_one_ulp_off_the_lattice_takes_the_sweep(self, monkeypatch):
        space = lf.make_grid_space([4, 4], 0.1)
        metric = space.dist.copy()
        metric[5, 10] = metric[10, 5] = np.nextafter(metric[5, 10], 1.0)
        calls = sweeps_of(monkeypatch)
        inline = lf.space_from_json({"points": list(space.points), "metric": metric.tolist(),
                                     "coords": space.coords.tolist()})
        assert calls == [(16, 16)]
        assert inline.excess == _min_plus_excess(metric)[0]

    def test_restriction_without_a_unit_step_inherits_the_bound(self, monkeypatch):
        calls = sweeps_of(monkeypatch)
        space = lf.make_grid_space([7], 0.5)
        sub = lf.restrict_space(space, [0, 2, 4, 6])
        assert calls == [] and sub.excess == space.excess
        assert _min_plus_excess(sub.dist)[0] <= sub.excess

    def test_triangle_violation_with_lattice_coords_is_rejected(self):
        d = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
        with pytest.raises(lf.MetricError) as err:
            lf.space_from_json({"points": ["a", "b", "c"], "metric": d.tolist(),
                                "coords": [[0], [1], [2]]})
        assert err.value.report == lf.validate_metric(d)
        assert [v.kind for v in err.value.report.violations] == ["triangle"]


class TestRestrictionExcess:
    """A restriction is certified by its parent's excess, never swept: every
    triple of the subset is one of the parent's, over fewer candidates j."""

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["grid", "random", "perturbed"]), n=st.integers(2, 12),
           seed=st.integers(0, 2 ** 16), ground=st.sampled_from(["linf", "l1", "l2"]),
           data=st.data())
    def test_parent_excess_covers_the_subset(self, kind, n, seed, ground, data):
        if kind == "grid":
            parent = lf.make_grid_space([n, 2], 0.1, ground)
        elif kind == "random":
            parent = lf.random_metric_space(n, seed)
        else:
            base = lf.make_grid_space([n], 0.1, ground)
            parent = lf.FiniteMetricSpace(base.points, lf.perturb_metric(
                base.dist, 0.03, np.random.default_rng(seed)))
        members = data.draw(st.lists(st.integers(0, parent.n - 1), min_size=1, unique=True))
        calls = []
        sweep = spaces._min_plus_excess
        with mock.patch.object(spaces, "_min_plus_excess",
                               lambda d, *rest: calls.append(d.shape) or sweep(d, *rest)):
            sub = lf.restrict_space(parent, members)
            again = lf.restrict_space(sub, range(0, sub.n, 2))
        assert calls == []
        assert sub.excess == again.excess == parent.excess
        assert _min_plus_excess(sub.dist)[0] <= sub.excess
        assert _min_plus_excess(again.dist)[0] <= again.excess


class TestClosureExcessBound:
    """`_close` returns the derived bound of its lemma for the closure it
    just made."""

    @given(closure_weights())
    @settings(max_examples=200, deadline=None)
    def test_bound_covers_the_sweep(self, case):
        w, rows = case
        d = w.copy()
        with mock.patch.object(spaces, "_BLOCK_CELLS", rows * w.shape[0]):
            bound = spaces._close(d)
        if np.isfinite(d).all():
            assert 0.0 <= _min_plus_excess(d)[0] <= bound
            assert bound <= 2.01 * len(d) * 2.0 ** -53 * d.max()
        else:
            assert bound is None

    @pytest.mark.parametrize("dims, amplitude, ulps", [([10, 10], 0.01, 1), ([30, 30], 0.005, 3)])
    def test_rounding_term_is_needed(self, dims, amplitude, ulps):
        # closures of lattice metrics under symmetric noise measure an excess
        # above `ulps` u M, which a bound without its rounding term, or with
        # a smaller one, would miss
        d = lf.make_grid_space(dims, 0.02).dist
        beta = amplitude / d.max()
        e = np.random.default_rng(7).uniform(-beta, beta, d.shape)
        spaces._mirror_upper(e)
        e += 1.0
        e *= d
        bound = spaces._close(e)
        measured = _min_plus_excess(e)[0]
        assert ulps * 2.0 ** -53 * e.max() < measured <= bound < 1e-12

    def test_random_spaces_skip_the_sweep(self, monkeypatch):
        calls = sweeps_of(monkeypatch)
        space = lf.random_metric_space(40, seed=4)
        assert calls == []
        assert space.excess == (2 * 40 * 2.0 ** -53) * space.dist.max() * (1.0 + 2.0 ** -10)
        assert _min_plus_excess(space.dist)[0] <= space.excess < 1e-13
        calls.clear()
        edited = space.dist.copy()
        edited[3, 8] = edited[8, 3] = np.nextafter(edited[3, 8], 0.0)
        again = lf.FiniteMetricSpace(space.points, edited)
        assert calls == [(40, 40)] and again.excess == _min_plus_excess(edited)[0]

    def test_close_returns_the_bound_it_records(self):
        # the random generator records the bound as its space's excess
        d = np.random.default_rng(5).uniform(0.5, 1.5, (6, 6))
        spaces._mirror_upper(d)
        bound = spaces._close(d)
        assert bound is not None and bound == lf.random_metric_space(6, seed=5).excess
        assert 0.0 <= _min_plus_excess(d)[0] <= bound
        w = np.random.default_rng(5).uniform(0.5, 1.5, (4, 4))
        w[0, 1:] = w[1:, 0] = np.inf                        # point 0 stays unreachable
        assert spaces._close(w) is None


@functools.lru_cache(maxsize=None)
def adapted_metric(dims, eps):
    bundle = lf.build_extension_bundle(lf.build_net_cover(lf.make_grid_space(dims, 0.1), eps))
    return lf.BoundedMetric(bundle.adapted, bundle.excess)


@st.composite
def bounded_metrics(draw):
    """A bitwise symmetric metric with a proven bound on the excess the sweep
    measures on it: a random closure, a lattice metric of each ground, or an
    extension bundle's adapted metric."""
    kind = draw(st.sampled_from(["random", "lattice", "adapted"]))
    if kind == "adapted":
        return adapted_metric(*draw(st.sampled_from([((9,), 0.25), ((5, 5), 0.3),
                                                     ((7, 4), 0.45)])))
    if kind == "random":
        space = lf.random_metric_space(draw(st.integers(2, 30)), draw(st.integers(0, 2 ** 16)),
                                       draw(st.sampled_from([1e-3, 1.0, 1e3])))
    else:
        space = lf.make_grid_space([draw(st.integers(2, 6)), draw(st.integers(1, 5))],
                                   draw(st.sampled_from([0.1, 0.3])),
                                   draw(st.sampled_from(["linf", "l1", "l2"])))
    return lf.BoundedMetric(space.dist, space.excess)


def bitwise_symmetric(e):
    bits = e.view(np.uint64)
    return np.array_equal(bits, bits.T)


U = 2.0 ** -53


class TestShortenEdge:
    """An added edge keeps a metric a metric, bitwise symmetric, lowers no
    entry by more than the edge's own drop plus rounding, and keeps the
    excess bound up to 9 u max d: the lemma of `perturb_metric` with one
    shortcut.  A probe of 16 shortcuts carries a bound above what the sweep
    measures."""

    @given(bounded_metrics(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_shortcut_keeps_the_bound(self, start, data):
        d, bound = start
        n, top = len(d), float(d.max())
        x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        length = max(d[x, y] * data.draw(st.floats(0.01, 1.5)), 1e-3 * top)
        e = d.copy()
        with mock.patch.object(spaces, "_BLOCK_CELLS", data.draw(st.integers(1, 4)) * n):
            spaces.shorten_edge(e, x, y, length)
        assert e.tobytes() == shorten_edge_by_outer(d, x, y, length).tobytes()
        assert bitwise_symmetric(d) and bitwise_symmetric(e)
        assert not np.diagonal(e).any() and (e[~np.eye(n, dtype=bool)] > 0).all()
        assert (e <= d).all()
        assert (d - e).max() <= max(d[x, y] - length, 0.0) + 2.01 * bound + 10 * U * top
        assert _min_plus_excess(e)[0] <= bound * (1 + 2.0 ** -50) + 9 * U * top

    @given(bounded_metrics(), st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-4, 0.01, 0.3]))
    @settings(max_examples=100, deadline=None)
    def test_probe_carries_its_bound(self, start, seed, fraction):
        d = start.matrix
        amplitude = fraction * d.max()
        probe = lf.perturb_metric(start, amplitude, np.random.default_rng(seed))
        e = probe.matrix
        assert _min_plus_excess(e)[0] <= probe.excess <= lf.DEFAULT_TOL
        assert bitwise_symmetric(e) and (e <= d).all()
        assert lf.sup_distance(e, d) <= amplitude + 1e-12
        assert lf.validate_metric(e).ok
        again = lf.perturb_metric(start, amplitude, np.random.default_rng(seed))
        assert again.matrix.tobytes() == e.tobytes() and again.excess == probe.excess

    @pytest.mark.parametrize("n, seed, scale, fraction, draws", [(6, 38, 7.3, 0.5, 4),
                                                                 (7, 31, 7.3, 2.0, 5)])
    def test_rounding_term_is_needed(self, n, seed, scale, fraction, draws):
        # the shortcuts of these probes raise the measured excess of a start
        # that has none above 1.5 u M, which a bound without its rounding
        # term would miss
        d = lf.random_metric_space(n, seed, scale).dist
        assert _min_plus_excess(d)[0] == 0.0
        probe = lf.perturb_metric(lf.BoundedMetric(d, 0.0), fraction * d.max(),
                                  np.random.default_rng(draws))
        assert 1.5 * U * d.max() < _min_plus_excess(probe.matrix)[0] <= probe.excess

    def test_no_bound_without_a_proven_start(self, monkeypatch):
        space = lf.make_grid_space([4, 4], 0.1)
        rng = np.random.default_rng(3)
        bare = lf.perturb_metric(space.dist, 0.01, rng)
        assert bare.excess is None
        calls = sweeps_of(monkeypatch)
        assert lf.FiniteMetricSpace(space.points, bare).excess == _min_plus_excess(bare.matrix)[0]
        assert calls == [(16, 16)]
        # a start outside the lemma's precondition gives a probe the door refuses
        skewed = space.dist.copy()
        skewed[0, 1] = np.nextafter(skewed[0, 1], 1.0)      # symmetric only up to one ulp
        probe = lf.perturb_metric(lf.BoundedMetric(skewed, 0.0), 0.01, rng)
        with pytest.raises(lf.MetricError, match="symmetry") as err:
            lf.FiniteMetricSpace(space.points, probe)
        assert err.value.report.violations[0].witness == (0, 1)
        same = lf.perturb_metric(lf.BoundedMetric(space.dist, space.excess), 0.0, rng)
        assert same.excess == space.excess and np.array_equal(same.matrix, space.dist)

    @given(bounded_metrics(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_bounded_update_is_the_full_one(self, start, data):
        # the bound on the exact excess that the sweep's measured bound gives
        d, bound = start
        n, top = len(d), float(d.max())
        x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        length = max(d[x, y] * data.draw(st.floats(0.01, 1.5)), 1e-3 * top)
        eps = bound * (1 + 2.0 ** -50) + 2 * U * top
        e = d.copy()
        with mock.patch.object(spaces, "_BLOCK_CELLS", data.draw(st.integers(1, 4)) * n):
            spaces.shorten_edge(e, x, y, length, eps)
        assert e.tobytes() == shorten_edge_by_outer(d, x, y, length).tobytes()

    @given(bounded_metrics(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_row_at_the_filter_boundary(self, start, data):
        # the largest bound that leaves row p out of U, and the next float,
        # which takes it in: U grows with the bound, and every bound at or
        # above the proven one gives the full update
        d, bound = start
        n, top = len(d), float(d.max())
        x, y, p = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        length = max(d[x, y] * data.draw(st.floats(0.01, 1.0)), 1e-3 * top)
        a, b = d[:, x].copy(), d[:, y].copy()

        def near_x(bits):
            return p in spaces._lowerable(a, b, length, float(bits.view(np.float64)))[0]

        proven = bound * (1 + 2.0 ** -50) + 2 * U * top
        lo, hi = np.float64(proven).view(np.int64), np.float64(4 * top).view(np.int64)
        assume(not near_x(lo))
        assert near_x(hi)
        while hi - lo > 1:
            mid = lo + (hi - lo) // 2
            lo, hi = (lo, mid) if near_x(mid) else (mid, hi)
        for bits in (lo, hi):
            e = d.copy()
            spaces.shorten_edge(e, x, y, length, float(bits.view(np.float64)))
            assert e.tobytes() == shorten_edge_by_outer(d, x, y, length).tobytes()

    def test_filter_needs_its_rounding_term(self):
        # x, p, y, q on a line at exact float positions: every entry is an
        # exact difference and every triangle sum is exact, so 0 bounds the
        # exact excess.  The shortcut x-y of length B - A ties p's two
        # routes to y, fl(A + l) = B, yet fl(fl(A + C) + l) rounds below
        # e(p, q) = B + C: cell (p, q) falls, and only the rounding term of
        # tau puts p in U
        a_, b_, c_ = 0.21257659174954635, 0.2583950185640512, 0.8911505854161911
        pos = np.array([0.0, a_, a_ + b_, a_ + b_ + c_])
        d = np.abs(pos[:, None] - pos[None, :])
        x, p, y, q, length = 0, 1, 2, 3, b_ - a_
        want = shorten_edge_by_outer(d, x, y, length)
        assert want[p, q] < d[p, q] and not d[p, x] + length < d[p, y]
        assert p in spaces._lowerable(d[:, x], d[:, y], length, 0.0)[0]
        e = d.copy()
        spaces.shorten_edge(e, x, y, length, 0.0)
        assert e.tobytes() == want.tobytes()

    @given(bounded_metrics(), st.integers(0, 2 ** 32 - 1), st.sampled_from([1e-4, 0.01, 0.3]))
    @settings(max_examples=100, deadline=None)
    def test_filtered_probe_is_the_unfiltered_one(self, start, seed, fraction):
        amplitude = fraction * start.matrix.max()
        probe = lf.perturb_metric(start, amplitude, np.random.default_rng(seed))
        bare = lf.perturb_metric(start.matrix, amplitude, np.random.default_rng(seed))
        assert probe.matrix.tobytes() == bare.matrix.tobytes()
        assert probe.excess is not None and bare.excess is None

    def test_probe_rewrites_few_cells(self, monkeypatch):
        # on a 30 x 30 grid the 16 shortcuts of a probe rewrite a small share
        # of the 810,000 cells each, where the unfiltered update rewrites all
        space = lf.make_grid_space([30, 30], 0.02)
        cells = []
        lowerable = spaces._lowerable

        def counted(*args):
            near_x, near_y = lowerable(*args)
            cells.append(900 ** 2 if near_x is None else 2 * len(near_x) * len(near_y))
            return near_x, near_y

        monkeypatch.setattr(spaces, "_lowerable", counted)
        start = lf.BoundedMetric(space.dist, space.excess)
        probe = lf.perturb_metric(start, 0.01, np.random.default_rng(7))
        assert len(cells) == 16 and sum(cells) < 0.05 * 16 * 900 ** 2
        cells.clear()
        bare = lf.perturb_metric(space.dist, 0.01, np.random.default_rng(7))
        assert bare.matrix.tobytes() == probe.matrix.tobytes()
        assert cells == [900 ** 2] * 16

    def test_length_must_be_positive(self):
        e = lf.make_grid_space([3], 0.1).dist.copy()
        for length in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="positive"):
                spaces.shorten_edge(e, 0, 2, length)


class TestReachOneAdd:
    """On a start symmetric by value, `_reach` forms one path sum per cell,
    and its value is the two-add pass of earlier versions
    (`reach_by_two_adds`): on starts, on probes mid-way through their
    shortcuts, and on a pseudometric with a signed zero pair.  One add
    would misread an asymmetric start, which the door refuses."""

    @given(bounded_metrics(), st.integers(0, 16), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_add_equals_two_adds(self, start, shortcuts, mid_probe_start, data):
        d = start.matrix
        n = len(d)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        e = d.copy()
        for _ in range(shortcuts):
            x, y = rng.choice(n, 2, replace=False)
            spaces.shorten_edge(e, x, y, e[x, y] * rng.uniform(0.25, 1.0))
        if mid_probe_start:              # a probe is bitwise symmetric too
            d = e.copy()
        x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        a, b = e[:, x].copy(), e[:, y].copy()
        want = reach_by_two_adds(d, a, b)
        assert spaces._reach(d, a, b) == want

    @given(bounded_metrics(), st.integers(0, 2 ** 16), st.sampled_from([0.05, 0.3, 2.0]))
    @settings(max_examples=80, deadline=None)
    def test_probes_equal_the_two_add_probes(self, start, seed, scale):
        amplitude = scale * float(start.matrix.max())
        got = lf.perturb_metric(start, amplitude, np.random.default_rng(seed))
        with mock.patch.object(spaces, "_reach",
                               lambda d, a, b: reach_by_two_adds(d, a, b)):
            want = lf.perturb_metric(start, amplitude, np.random.default_rng(seed))
        assert got.matrix.tobytes() == want.matrix.tobytes() and got.excess == want.excess

    def test_signed_zero_pair_keeps_the_probe(self):
        d = lf.quotient_pseudometric(lf.random_metric_space(12, seed=4).dist, [2, 5, 7])
        d[2, 5] = -0.0                   # symmetric by value, not bitwise
        assert spaces.is_symmetric(d) and d.view(np.uint64)[2, 5] != d.view(np.uint64)[5, 2]
        a, b = d[:, 2].copy(), d[:, 9].copy()
        assert spaces._reach(d, a, b) == reach_by_two_adds(d, a, b)
        got = lf.perturb_metric(d, 0.1, np.random.default_rng(1)).matrix
        with mock.patch.object(spaces, "_reach",
                               lambda d, a, b: reach_by_two_adds(d, a, b)):
            want = lf.perturb_metric(d, 0.1, np.random.default_rng(1)).matrix
        assert got.tobytes() == want.tobytes()

    def test_asymmetric_start_is_refused(self):
        d = np.array([[0.0, 1.0], [5.0, 0.0]])
        a, b = d[:, 0].copy(), d[:, 1].copy()
        # the B term of (1, 0) is 0 + 0 and holds the maximum; its mirror is 1 + 5
        assert reach_by_two_adds(d, a, b) == 5.0 and spaces._reach(d, a, b) == 1.0
        with pytest.raises(lf.MetricError, match="symmetry"):
            lf.FiniteMetricSpace(["a", "b"], d)
        # one ulp of asymmetry: refused as a start, and its probe refused too
        start = lf.random_metric_space(9, seed=2).dist.copy()
        start[3, 4] = np.nextafter(start[3, 4], 9.0)
        assert [v.kind for v in lf.validate_metric(start).violations] == ["symmetry"]
        probe = lf.perturb_metric(start, 0.2, np.random.default_rng(5)).matrix
        assert [(v.kind, v.witness) for v in lf.validate_metric(probe).violations] == \
            [("symmetry", (3, 4))]


class TestExcessBoundArgument:
    @pytest.mark.parametrize("bound", [1e-15, lf.DEFAULT_TOL])
    def test_small_bound_stands_in_for_the_sweep(self, bound, monkeypatch):
        d = random_metric_matrix(3, 6)
        calls = sweeps_of(monkeypatch)
        report = lf.validate_metric(d, excess_bound=bound)
        assert report.ok and report.excess == bound and calls == []

    @pytest.mark.parametrize("bound", [None, 2 * lf.DEFAULT_TOL, np.inf])
    def test_large_bound_leaves_the_sweep_to_decide(self, bound):
        d = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float)
        report = lf.validate_metric(d, excess_bound=bound)
        assert report == validate_metric_full(d)
        assert report.excess == 1.0


class TestPointIndices:
    SITES = {
        "as_indices": lambda s, v: spaces.as_indices([0, v, 2], s),
        "CoverFamily": lambda s, v: lf.CoverFamily(s, ((0, v),), 1),
        "WeightOperator": lambda s, v: lf.WeightOperator(s, (0, v), np.zeros((5, 2))),
        "GluingConfig": lambda s, v: lf.GluingConfig(s, (0, v), 1, (0.2,)),
        "restrict_space": lambda s, v: lf.restrict_space(s, [0, 1, 2], base_point=v),
    }
    # a sequence's entry is named by its position, an argument by its name
    NAMED = {"restrict_space": r"base_point \("}

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
            with pytest.raises(ValueError, match=self.NAMED.get(site, r"entry 1 \(")):
                self.SITES[site](space, value)

    def test_python_and_numpy_integers_accepted(self):
        space = lf.make_grid_space([5], 0.1)
        assert spaces.as_indices(np.array([3, 0, 3]), space) == (0, 3)
        assert spaces.as_indices([np.int32(4), 1], space) == (1, 4)
        assert lf.CoverFamily(space, ((np.int64(2), 0),), 1).sets == ((0, 2),)
        op = lf.WeightOperator(space, (np.uint8(0), 3), np.zeros((5, 2)))
        assert op.domain == (0, 3) and all(type(i) is int for i in op.domain)


@pytest.fixture(scope="module")
def grid_900():
    return lf.make_grid_space([30, 30], 0.02)


class TestMemoryBudgets:
    """At 900 points each call holds its inputs and its result, and no n x n
    temporary: its traced peak beyond an n x n result stays under one 900 x
    900 float array (`ONE_900`)."""

    def test_validate_metric(self, grid_900):
        report, peak = traced_peak(lambda: lf.validate_metric(grid_900.dist))
        assert report.ok and peak < ONE_900

    def test_validate_metric_with_violations(self, grid_900):
        d = grid_900.dist.copy()
        d[700, 3] = 0.0                                     # asymmetric, zero: not swept
        report, peak = traced_peak(lambda: lf.validate_metric(d))
        assert [v.kind for v in report.violations] == ["symmetry", "zero_offdiag"]
        assert peak < ONE_900

    def test_symmetric_metric_with_violations(self, grid_900):
        d = grid_900.dist.copy()
        d[700, 3] = d[3, 700] = 0.0                         # zero, triangle
        report, peak = traced_peak(lambda: lf.validate_metric(d))
        kinds = {v.kind: v for v in report.violations}
        assert list(kinds) == ["zero_offdiag", "triangle"]
        assert kinds["triangle"] == validate_metric_full(d).violations[1]
        assert peak < ONE_900

    def test_sup_distance(self, grid_900):
        e = grid_900.dist * 1.5
        value, peak = traced_peak(lambda: lf.sup_distance(grid_900.dist, e))
        assert value == np.abs(grid_900.dist - e).max() and peak < ONE_900

    def test_quotient_pseudometric(self, grid_900):
        out, peak = traced_peak(lambda: lf.quotient_pseudometric(grid_900.dist, range(450)))
        assert out.shape == (900, 900) and peak - out.nbytes < ONE_900

    @pytest.mark.parametrize("size", [9, 1])
    def test_least_class_distances(self, grid_900, size):
        # classes of 9 points, or 900 classes and a 900 x 900 result
        cls = np.arange(900) // size
        out, peak = traced_peak(lambda: spaces.least_class_distances(grid_900.dist, cls))
        assert out.shape == (900 // size,) * 2 and peak - out.nbytes < ONE_900

    def test_perturb_metric(self, grid_900):
        start = lf.BoundedMetric(grid_900.dist, grid_900.excess)
        probe, peak = traced_peak(lambda: lf.perturb_metric(start, 1e-3,
                                                            np.random.default_rng(7)))
        assert peak - probe.matrix.nbytes < ONE_900
        assert probe.excess < 1e-13 and lf.sup_distance(probe.matrix, grid_900.dist) <= 1e-3
