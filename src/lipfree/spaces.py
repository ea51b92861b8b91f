"""Finite metric spaces: validation, transforms, subsets, and generators.

All distances are plain float64 numpy matrices.  A matrix is a metric when it
is symmetric, zero exactly on the diagonal, positive off it, and satisfies the
triangle inequality; pseudometrics drop the positivity requirement.  Every
operation here is a pure function of its inputs, and keeps the one-scratch
rule of the row-block engine below.

Validation scans every matrix in O(n^2) for the axioms other than the
triangle inequality.  The triangle inequality costs an O(n^3) min-plus sweep,
unless the code that built the matrix hands over a proven upper bound on its
triangle excess in a `BoundedMetric`, whose docstring lists the builders
that do.  Every other matrix is swept: inline metrics, with or without
coords, and matrices a caller made.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import reprlib
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# Slack used when comparing floating-point quantities against exact bounds:
# the metric axioms of validate_metric, and every certificate that does not
# record a fixed tolerance of its own.  It is not configurable.
DEFAULT_TOL = 1e-7


class MetricError(ValueError):
    """A candidate distance matrix violates the metric axioms."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class Violation:
    kind: str          # nonfinite | diagonal | symmetry | negative | zero_offdiag | triangle
    witness: tuple
    amount: float


@dataclass(frozen=True)
class ValidationReport:
    shape: tuple
    violations: tuple[Violation, ...]
    # the triangle excess the check used: the sweep's maximum or a derived
    # bound; None when a nonfinite entry ended the check before it
    excess: float | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(
            f"{v.kind} at {v.witness} (excess {v.amount:.3g})" for v in self.violations
        )


def first_equal_rows(mat: np.ndarray) -> np.ndarray:
    """For each row of the 2-D array mat, the index of the first row that is
    bitwise equal to it (a row seen for the first time maps to itself).

    Rows are bucketed by the hash of their bytes, and every hit is confirmed
    by comparing the bytes, so the result is exact and does not depend on the
    hash function or the interpreter's hash seed.  The buckets hold row
    indices only: O(n) memory beyond one row's bytes at a time.  Bitwise
    means 0.0 and -0.0 differ and so do NaNs of different payloads.

    The triangle check runs it on every exactly symmetric matrix and the
    molecule sweep on the weight rows; it costs one hash of each row's bytes,
    about 3 ms on a 900-point matrix.
    """
    first = np.arange(len(mat))
    buckets: dict[int, list[int]] = {}
    for i, row in enumerate(mat):
        data = row.tobytes()
        bucket = buckets.setdefault(hash(data), [])
        for j in bucket:
            if mat[j].tobytes() == data:
                first[i] = j
                break
        else:
            bucket.append(i)
    return first


# The row-block engine behind the two O(n^3) min-plus sweeps, the triangle
# check and Floyd-Warshall, and the O(n^2) shortcut update `shorten_edge`,
# all on the caller's thread.  _row_blocks cuts the rows into blocks of about
# _BLOCK_CELLS entries, so a block's candidate sums stay in cache while each
# numpy call still does enough work to hide its overhead.  On an exactly
# symmetric matrix the triangle check sweeps only the columns from each
# block's first row on, about half the work, and only the first of each set
# of bitwise-equal rows.
#
# The one-scratch rule: no function here holds an n x n temporary beyond its
# inputs and its result.  O(n^2) elementwise passes run in place on the
# result or over the same row blocks (`_spans`): the scans of validate_metric
# and sup_distance, the symmetry test of is_symmetric, the grid metric, built
# one axis at a time, perturb_metric's shortcuts, applied in place to its
# output, and the class tables of least_class_distances.
_BLOCK_CELLS = 2 ** 16


def _spans(rows: int, width: int) -> list[tuple[int, int]]:
    """Row ranges (lo, hi), in order, covering `rows` rows of `width` entries
    in blocks of about _BLOCK_CELLS entries (at least one row each)."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def is_symmetric(d: np.ndarray) -> bool:
    """Whether the square matrix d equals its transpose bitwise (NaN never
    does), compared by the row blocks of `_spans`."""
    n = len(d)
    return all(np.array_equal(d[lo:hi], d[:, lo:hi].T) for lo, hi in _spans(n, n))


def least_class_distances(d: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """The least distance between each oriented pair of classes of the labels
    cls, which take every value in 0..k-1: a k x k table whose entry (a, b)
    is the least d(x, y) over x < y with x in class a and y in class b; +inf
    where no such pair exists.  On d.T it gives the least d(y, x) instead.

    The points are sorted by class once.  Each row block of `_spans` is
    gathered in that order, set to +inf at the pairs x >= y, gathered in
    that order along its columns too, and reduced over the class runs of its
    rows and then, by np.minimum.reduceat, of its columns.  A minimum is
    exact in any order, so the table does not depend on the blocking; one
    block is held at a time.
    """
    cls = np.asarray(cls)
    n = len(cls)
    k = int(cls.max()) + 1 if n else 0
    order = np.argsort(cls, kind="stable")
    # class a holds the sorted positions runs[a]..runs[a + 1] - 1
    runs = np.searchsorted(cls[order], np.arange(k + 1))
    table = np.full((k, k), np.inf)
    # quarter-size blocks: the gather in class order and the reduced rows
    # hold up to three copies of a block, and the pipelines build these
    # tables while their n x n matrices are alive, near their peak of memory
    for lo, hi in _spans(n, 4 * n):
        rows = order[lo:hi]
        block = d[rows]
        for r, x in enumerate(rows):
            block[r, :x + 1] = np.inf
        block = np.take(block, order, axis=1)
        # the block's classes are consecutive; class first + j's run of rows
        # (the slice stops at the block's end) gives row j: a run of one row
        # is taken as it is, and a longer run is reduced into it
        first, last = cls[rows[0]], cls[rows[-1]] + 1
        starts = np.maximum(runs[first:last], lo) - lo
        ends = runs[first + 1:last + 1] - lo
        reduced = block[starts]
        for j in np.flatnonzero(ends - starts > 1):
            np.min(block[starts[j]:ends[j]], axis=0, out=reduced[j])
        least = np.minimum.reduceat(reduced, runs[:k], axis=1)
        np.minimum(table[first:last], least, out=table[first:last])
    return table


def _first_max(rows: int, block) -> tuple[float, int, int]:
    """Largest entry of a 2-D array of `rows` rows of length `rows`, given
    block by block as block(lo, hi) for the rows lo..hi-1, and its first
    position in row-major order, as (value, i, j).  Only one block exists at
    a time.  Gives (-inf, 0, 0) when no entry exceeds -inf; NaN is never
    the maximum, so call it on finite values."""
    best = (-np.inf, 0, 0)
    for lo, hi in _spans(rows, rows):
        values = block(lo, hi)
        r, c = np.unravel_index(np.argmax(values), values.shape)
        # a later block's entry counts only when it beats every earlier one
        if values[r, c] > best[0]:
            best = (float(values[r, c]), lo + int(r), int(c))
    return best


@contextlib.contextmanager
def _row_blocks(n: int, buffers: int):
    """Yield (blocks, scratch) for n >= 1 rows of length n: the row blocks as
    (lo, hi) pairs from `_spans`, and `buffers` arrays of one block's shape,
    allocated once for the call; a block takes views of them.

    Inside the scope numpy's ufunc buffer is sized to one row, rounded up to
    a multiple of 16.  The inner step of both sweeps is a broadcast add of a
    column slice to a row, and a buffer that spans several rows makes numpy
    copy both broadcast operands on every call: at 900 points that step takes
    about 4x longer with the default 8192 elements.  The setting is
    context-local in numpy 2, so concurrent callers do not see each other's,
    and the old value is put back on exit.  No sum or mean may run inside the
    scope: numpy's pairwise summation splits at the inner-loop length, so its
    rounding could depend on the buffer.  Elementwise adds, minima and argmax
    are exact whatever the buffer.
    """
    blocks = _spans(n, n)
    scratch = np.empty((buffers, blocks[0][1], n))
    old = np.setbufsize(-(-n // 16) * 16)
    try:
        yield blocks, scratch
    finally:
        np.setbufsize(old)


def _block_excess(d: np.ndarray, lo: int, hi: int, k0: int, best: np.ndarray,
                  cand: np.ndarray) -> tuple[float, int, int]:
    """Worst triangle excess d(i,k) - min_j (d(i,j) + d(j,k)) over the rows
    lo <= i < hi and the columns k >= k0, as (excess, i, k) with (i, k) first
    in row-major order.  best and cand are contiguous scratch buffers of at
    least (hi - lo) * (n - k0) entries; j runs in ascending order exactly as a
    whole-matrix sweep would, so every cell is the whole sweep's value."""
    shape = (hi - lo, d.shape[0] - k0)
    best = best.reshape(-1)[:shape[0] * shape[1]].reshape(shape)
    cand = cand.reshape(-1)[:best.size].reshape(shape)
    best.fill(np.inf)
    for j in range(d.shape[0]):
        np.add(d[lo:hi, j, None], d[j, k0:], out=cand)
        np.minimum(best, cand, out=best)
    np.subtract(d[lo:hi, k0:], best, out=best)
    r, k = np.unravel_index(np.argmax(best), shape)
    return float(best[r, k]), lo + int(r), k0 + int(k)


def _min_plus_excess(d: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Largest triangle excess d(i,k) - min_j (d(i,j) + d(j,k)) and a witness.

    (i, k) is the first worst pair in row-major order and j its first
    minimiser.  On an exactly symmetric matrix each row block sweeps only the
    columns k from its first row on, about half the work.  The result is the
    full sweep's: excess(i, k) and excess(k, i) are then minima of the same
    IEEE sums d(i,j) + d(j,k) = d(k,j) + d(j,i), so the first worst pair lies
    on or above the diagonal, and each swept cell is computed as in the full
    sweep.  Any other matrix is swept in full.

    A symmetric matrix with repeated rows (a pseudometric pulled back through
    a partition of unity has many) is swept only over the first occurrences
    R of its bitwise-distinct rows, in ascending order.  Row i equal to row r
    makes column i equal to column r, so excess(i, k) = excess(r, s) for the
    first occurrences r of i and s of k, and a j in the class of j' adds the
    same values as j'.  The minimum over j in R is the full minimum, and the
    first worst pair in row-major order has first occurrences at both ends,
    since each class's first occurrence is its least index: the reduced
    sweep's first worst pair, read through R, is the full sweep's.  j is
    taken from the full rows.  A metric has no two equal rows (equal rows
    i != j would give d(i, j) = d(j, j) = 0), so it is swept whole.
    """
    symmetric = is_symmetric(d)
    reps = np.arange(len(d))
    if symmetric:
        reps = np.flatnonzero(first_equal_rows(d) == reps)
    swept = d if len(reps) == len(d) else d[np.ix_(reps, reps)]
    with _row_blocks(len(swept), 2) as (blocks, scratch):
        worst = [_block_excess(swept, lo, hi, lo if symmetric else 0, *scratch)
                 for lo, hi in blocks]
    # max keeps the first of equal excesses, so ties go to the first block
    excess, i, k = max(worst, key=lambda t: t[0])
    i, k = int(reps[i]), int(reps[k])
    j = np.argmin(d[i] + d[:, k])
    return excess, (i, int(j), k)


def validate_metric(mat: np.ndarray, allow_zero: bool = False,
                    excess_bound: float | None = None) -> ValidationReport:
    """Check the metric axioms up to DEFAULT_TOL, reporting one witness per
    violated axiom.

    With allow_zero=True the matrix is checked as a pseudometric (zero
    off-diagonal entries permitted).  Non-square input is rejected outright.
    A NaN or infinite entry is the one violation reported: every other check
    is a comparison, which NaN would pass.  The scans of the other axioms are
    O(n^2) and run on every matrix.

    The triangle check is the O(n^3) min-plus sweep of _min_plus_excess on
    the caller's thread, over the upper triangle only when the matrix is
    exactly symmetric, and then only over its distinct rows.  It measures the
    triangle excess, the largest d(i, k) - (d(i, j) + d(j, k)) in floats.
    excess_bound is a proven upper bound on that value, for a matrix whose
    construction gives one.  A bound of at most DEFAULT_TOL stands in for
    the sweep, since no triangle can then fail; a larger one is ignored and
    the sweep decides, with its witness.  Callers pass the bound of a
    `BoundedMetric` or of the adapted metric (`build_extension_bundle`).
    The report's `excess` is the value used.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {mat.shape}")
    n = mat.shape[0]
    bad, i, j = _first_max(n, lambda lo, hi: ~np.isfinite(mat[lo:hi]))
    if bad > 0:
        return ValidationReport(tuple(mat.shape),
                                (Violation("nonfinite", (i, j), float(mat[i, j])),))
    violations = []

    diag = np.abs(np.diagonal(mat))
    if diag.size and diag.max() > DEFAULT_TOL:
        i = int(np.argmax(diag))
        violations.append(Violation("diagonal", (i,), float(diag[i])))

    # The symmetry and zero scans go by row blocks, the first worst entry in
    # row-major order as their witness, so no n x n temporary is made.
    asym, i, j = _first_max(n, lambda lo, hi: np.abs(mat[lo:hi] - mat[:, lo:hi].T))
    if asym > DEFAULT_TOL:
        violations.append(Violation("symmetry", (i, j), asym))

    if n and -mat.min() > DEFAULT_TOL:
        i, j = np.unravel_index(np.argmin(mat), mat.shape)
        violations.append(Violation("negative", (int(i), int(j)), float(-mat[i, j])))

    if not allow_zero and n > 1:
        def negated_off_diagonal(lo, hi):
            block = np.negative(mat[lo:hi])
            block[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
            return block

        # the first largest -d(i, j) is the first smallest off-diagonal entry
        gap, i, j = _first_max(n, negated_off_diagonal)
        if -gap <= DEFAULT_TOL:
            violations.append(Violation("zero_offdiag", (i, j), gap))

    excess = 0.0                            # an empty matrix has no triangle
    if excess_bound is not None and excess_bound <= DEFAULT_TOL:
        excess = float(excess_bound)
    elif n:
        excess, witness = _min_plus_excess(mat)
        if excess > DEFAULT_TOL:
            violations.append(Violation("triangle", witness, excess))

    return ValidationReport(tuple(mat.shape), tuple(violations), excess)


def validate_pseudometric(mat: np.ndarray) -> ValidationReport:
    return validate_metric(mat, allow_zero=True)


def require_metric(mat: np.ndarray, what: str = "matrix",
                   excess_bound: float | None = None) -> ValidationReport:
    """`validate_metric`'s report; MetricError when it finds a violation."""
    report = validate_metric(mat, excess_bound=excess_bound)
    if not report.ok:
        raise MetricError(f"{what} is not a metric: {report.summary()}", report)
    return report


# Ground metrics of a lattice, with the number of roundings in each entry of
# its metric: the product by the spacing, and for l2 the square root.
_GROUNDS = {"linf": 1, "l1": 1, "l2": 2}


def _lattice_rows(axes: np.ndarray, lo: int, hi: int, ground: str, spacing: float,
                  out: np.ndarray) -> np.ndarray:
    """Rows lo..hi-1 of the lattice metric, written into out and returned.

    axes holds one row of float coordinates per axis.  The ground norm is
    built one axis at a time: integer coordinate differences are exact in
    float64, and so are their squares and sums, so each entry is bitwise what
    an n x n x len(axes) difference array would give.  The norm is then
    square-rooted for l2 and multiplied by the spacing.
    """
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
    return out


class BoundedMetric(NamedTuple):
    """A matrix with a proven upper bound on the triangle excess
    `validate_metric` would measure on it, or None.

    This module's builders hand one to FiniteMetricSpace: the lattice lemma
    of `make_grid_space`, the closure lemma of `_close` for
    `random_metric_space`, and the parent's `excess` for `restrict_space`
    (a subset's triples are the parent's).  `perturb_metric` returns its
    probe as one, with the shortcut lemma's bound, and
    `build_perturbed_operator` and `certify_gluing` take it.  Whoever builds
    one asserts its bound: nothing checks it, so the probe certificates
    record the bound they took as `excess_bound`."""
    matrix: np.ndarray
    excess: float | None = None


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Finite set of named points with a validated metric and a base point.

    Construction sets two attributes besides the fields: `key`, a digest of
    the points, the metric bytes and the base point, and `excess`, the
    triangle excess its validation used (`ValidationReport.excess`).  The
    triangle inequality is certified by the bound of a `BoundedMetric`,
    whose matrix is kept without a copy, else by the O(n^3) sweep of a copy.
    """

    points: tuple[str, ...]
    dist: np.ndarray
    base_index: int = 0
    coords: np.ndarray | None = None     # integer lattice coordinates, if any
    nominal_dim: int | None = None       # declared dimension of the model

    def __post_init__(self):
        pts = tuple(str(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        bound = None
        if isinstance(self.dist, BoundedMetric):
            d = np.ascontiguousarray(self.dist.matrix, dtype=float)
            bound = self.dist.excess
        else:
            d = np.array(self.dist, dtype=float)
        if self.coords is not None:
            c = np.asarray(self.coords)
            if c.dtype.kind not in "iu" or c.ndim != 2 or len(c) != len(pts):
                raise ValueError("coords must be integers, one row of equal length per point")
            c = np.array(c, dtype=int)
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)
        report = require_metric(d, what="space metric", excess_bound=bound)
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "excess", report.excess)
        if len(pts) != d.shape[0]:
            raise ValueError("point count does not match matrix size")
        if len(set(pts)) != len(pts):
            raise ValueError("point names must be unique")
        if bad_indices([self.base_index], len(pts)):
            raise ValueError("base point must be one of the points")
        object.__setattr__(self, "base_index", int(self.base_index))
        if self.nominal_dim is not None and bad_indices([self.nominal_dim]):
            raise ValueError(f"nominal_dim must be an integer, got {self.nominal_dim!r}")
        digest = hashlib.sha256()
        digest.update(json.dumps(pts).encode())
        digest.update(d)                 # C-contiguous: the bytes of d.tobytes()
        digest.update(str(self.base_index).encode())
        object.__setattr__(self, "key", digest.hexdigest()[:16])

    @property
    def n(self) -> int:
        return len(self.points)


def bad_indices(values, n: int | None = None) -> list[int]:
    """Positions of the entries of `values` that are not point indices.

    A point index is a Python or numpy integer, not a bool, and lies in
    [0, n) when n is given.  A float fails even when it is whole (3.0), since
    int() would read 3.9 as point 3 without a word.
    """
    return [p for p, v in enumerate(values)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer))
            or n is not None and not 0 <= v < n]


def as_indices(subset, space: FiniteMetricSpace | None = None) -> tuple[int, ...]:
    """Normalize an index sequence to a sorted tuple without duplicates;
    ValueError names the first entry that is not a point index of `space`."""
    subset = list(subset)
    bad = bad_indices(subset, None if space is None else space.n)
    if bad:
        raise ValueError(f"subset entry {bad[0]} ({subset[bad[0]]!r}) is not a point index")
    return tuple(sorted(set(int(i) for i in subset)))


# ---------------------------------------------------------------------------
# elementary set geometry


def sup_distance(d: np.ndarray, e: np.ndarray) -> float:
    """Uniform distance max |d - e| between two same-shape matrices."""
    d = np.atleast_1d(np.asarray(d, dtype=float))
    e = np.atleast_1d(np.asarray(e, dtype=float))
    if d.shape != e.shape:
        raise ValueError(f"shape mismatch {d.shape} vs {e.shape}")
    # by row blocks; np.max keeps a NaN, as the whole-matrix maximum would
    worst = [np.abs(d[lo:hi] - e[lo:hi]).max(initial=0.0)
             for lo, hi in _spans(len(d), d[:1].size)]
    return float(np.max(worst, initial=0.0))


def dist_to_set_all(d: np.ndarray, members: Sequence[int]) -> np.ndarray:
    """Vector of distances from every point to the given set."""
    members = list(members)
    if not members:
        raise ValueError("set must be nonempty")
    d = np.asarray(d)
    out = np.empty(len(d), dtype=d.dtype)
    for lo, hi in _spans(len(d), len(members)):
        out[lo:hi] = d[lo:hi, members].min(axis=1)
    return out


def set_distance(d: np.ndarray, a: Sequence[int], b: Sequence[int]) -> float:
    """min over a x b; +inf if either side is empty."""
    a, b = list(a), list(b)
    if not a or not b:
        return float("inf")
    return float(np.asarray(d)[np.ix_(a, b)].min())


def diameter(d: np.ndarray, members: Sequence[int] | None = None) -> float:
    d = np.asarray(d)
    if members is not None:
        members = list(members)
        if not members:
            raise ValueError("set must be nonempty")
        d = d[np.ix_(members, members)]
    return float(d.max()) if d.size else 0.0


class DensityReport(NamedTuple):
    dense: bool
    witness: int       # point attaining the largest distance to the set
    max_dist: float


def is_eps_dense(d: np.ndarray, members: Sequence[int], eps: float) -> DensityReport:
    """True iff every point lies within eps of the set; returns the worst point."""
    vals = dist_to_set_all(d, members)
    w = int(np.argmax(vals))
    return DensityReport(bool(vals[w] <= eps), w, float(vals[w]))


# ---------------------------------------------------------------------------
# metric transforms


def truncate(d: np.ndarray, eta: float) -> np.ndarray:
    """Entrywise min(d, eta); bounded metric with the same small-scale geometry."""
    if eta <= 0:
        raise ValueError(f"truncation level must be positive, got {eta}")
    return np.minimum(np.asarray(d, dtype=float), eta)


def quotient_pseudometric(d: np.ndarray, members: Sequence[int]) -> np.ndarray:
    """Pseudometric of collapsing a subset to one point: min(d, d(x,A)+d(A,y)).

    Vanishes exactly on pairs inside the subset, never exceeds d, and its sup
    norm is at most 2r when the subset is r-dense.
    """
    d = np.asarray(d, dtype=float)
    da = dist_to_set_all(d, members)
    out = np.add.outer(da, da)
    np.minimum(d, out, out=out)
    np.fill_diagonal(out, 0.0)
    return out


def floyd_warshall(w: np.ndarray) -> np.ndarray:
    """All-pairs shortest-path completion of a nonnegative weight matrix.

    Entries may be +inf (no edge); a NaN or negative entry raises ValueError.
    The diagonal is set to 0.  The k-loop runs row block by row block on the
    engine of _row_blocks: for each k, every block takes
    min(d(i, j), d(i, k) + d(k, j)) in place.  The result is bitwise the
    whole-matrix k-loop's.  That needs the precondition: with a zero diagonal
    and nonnegative weights, step k rewrites row k with d(k, k) + d(k, j) =
    d(k, j) and column k with d(i, k) + d(k, k) = d(i, k), its own values
    but for the sign of a zero.  So each block reads column k of its own
    rows before it writes them, and row k from a copy taken at the start of
    the step, and sees the whole-matrix step's operands bit for bit.

    The input is copied; `_close` runs the same completion in place and
    returns the result's derived excess bound.
    """
    d = np.array(w, dtype=float)
    _close(d)
    return d


def _close(d: np.ndarray) -> float | None:
    """`floyd_warshall` in place on the square float64 array d.  Returns the
    closure's derived excess bound, or None.

    Lemma.  Let w >= 0 be the weights with their diagonal set to 0, S the
    exact shortest-path distances of w, D the float k-loop's result (any of
    its bitwise-equal variants), n = len(D), u = 2^-53 and M = max D, finite.
    Then
        (1 - u)^n S <= D <= (1 + u)^max(n-2, 0) S,
    and every triangle excess D(i, k) - fl(D(i, j) + D(j, k)) is at most
        M ((1 + u)^max(n-2, 0) / (1 - u)^(n+1) - 1) < 2 n u M (1 + 2^-11)
    when 2^-900 <= M <= 2^1000 and n <= 2^40.  Proof.  Every rounding of a
    sum of floats a, b >= 0 gives fl(a + b) = (a + b)(1 + t), |t| <= u
    (a sum in the subnormal range is exact), and a min picks one operand.
      * Lower bound.  Step k sets D(i, j) to D(i, j) or to a rounded sum of
        D(i, k) and D(k, j), so each entry after step k is a rounded sum of
        the weights of some walk from i to j, over an evaluation tree of
        depth at most k.  Its terms are >= 0, so each is scaled by at least
        (1 - u)^n, and the walk weighs at least S(i, j).
      * Upper bound.  By induction on k: after step k, D(i, j) <= (1 + u)^t
        L(P) for every simple path P from i to j with t intermediate
        vertices, all among the first k pivots.  With none, D(i, j) is the
        weight or 0.  Otherwise split P at its largest intermediate vertex
        v into P1 and P2 with t1 + t2 + 1 = t; at step v, D(i, j) <=
        fl(D(i, v) + D(v, j)) <= (1 + u)((1 + u)^t1 L(P1) + (1 + u)^t2
        L(P2)) <= (1 + u)^t L(P), and later steps only lower it.  A
        shortest simple path has t <= n - 2.  No such sum overflows: it is
        at most (1 + u)^n S <= 2M, since S <= D / (1 - u)^n.
      * Excess.  S is exact, so S(i, k) <= S(i, j) + S(j, k) =: T.  An
        excess that is positive has (1 - u)^(n+1) T <= fl(D(i, j) + D(j, k))
        < D(i, k) <= M, and D(i, k) - fl(D(i, j) + D(j, k)) <= T ((1 + u)^a -
        (1 - u)^(n+1)) with a = max(n - 2, 0), which gives the first form.
        Its log is at most c = u (a + (n + 1) / (1 - u)) < 2nu for n >= 2
        (at n = 1, M = 0), and e^c - 1 <= c / (1 - c) < 2nu (1 + 2^-11)
        for n <= 2^40.
    The bound is evaluated as (2n u) M (1 + 2^-10): 2nu is exact, and the
    two roundings of a normal product cost less than the extra 2^-11.  The
    sweep rounds its final subtraction monotonically, so the bound also
    covers what `_min_plus_excess` measures.  At 900 points and M = 0.62 it
    is about 1.2e-13.  A closure with an infinite entry, or with M outside
    that range, gets no bound; M = 0 gets 0, since every entry is 0.
    """
    if not (d >= 0).all():                  # also false on NaN
        raise ValueError("weights must be nonnegative and not NaN")
    np.fill_diagonal(d, 0.0)
    n = d.shape[0]
    if not n:
        return None
    with _row_blocks(n, 1) as (blocks, (cand,)):
        row = np.empty(n)
        for k in range(n):
            # row k as the step found it: its own block may turn a -0.0 of
            # it into d(k, k) + -0.0 = +0.0 before later blocks read it
            row[:] = d[k]
            for lo, hi in blocks:
                np.add(d[lo:hi, k, None], row, out=cand[:hi - lo])
                np.minimum(d[lo:hi], cand[:hi - lo], out=d[lo:hi])
    top = float(d.max())
    if n > 2 ** 40 or not (top == 0 or 2.0 ** -900 <= top <= 2.0 ** 1000):
        return None
    return (2 * n * 2.0 ** -53) * top * (1.0 + 2.0 ** -10)


def _mirror_upper(a: np.ndarray) -> None:
    """Copy the strict upper triangle of the square a onto its lower one and
    zero the diagonal, in place.  On entries that are not -0.0 this is
    bitwise `np.triu(a, 1) + np.triu(a, 1).T`, whose sums add +0.0."""
    for i in range(len(a)):
        a[i, :i] = a[:i, i]
        a[i, i] = 0.0


def _edge_paths(e: np.ndarray, x: int, y: int):
    """Yield (lo, hi, s) over the row blocks of _row_blocks: s(u, v) =
    min(fl(a_u + b_v), fl(b_u + a_v)), a and b the columns x and y of e, in
    a reused buffer.  Consume it whole, so that the scope closes."""
    a, b = e[:, x].copy(), e[:, y].copy()
    with _row_blocks(len(e), 2) as (blocks, (p, q)):
        for lo, hi in blocks:
            via, other = p[:hi - lo], q[:hi - lo]
            np.add(a[lo:hi, None], b, out=via)
            np.add(b[lo:hi, None], a, out=other)
            yield lo, hi, np.minimum(via, other, out=via)


def shorten_edge(e: np.ndarray, x: int, y: int, length: float) -> None:
    """Add an edge of length l > 0 between the points x and y to the square
    float64 array e, in place: the exact shortest-path update
        e'(u, v) = min(e(u, v), fl(fl(a_u + b_v) + l), fl(fl(b_u + a_v) + l))
    with a, b copies of the columns x and y.  Each row block takes the
    path sums of `_edge_paths` plus l, the same value since rounding is
    monotone; the scratch is two columns and two block buffers.

    Lemma, for e symmetric by value with entries >= 0; u = 2^-53, M = max e.
      * fl(a_v + b_u) is fl(b_u + a_v), so a bitwise symmetric e gives a
        bitwise symmetric e'.  Both candidates are >= l > 0: the diagonal
        keeps its zeros and no positive entry drops to 0.
      * Let G be the exact update and eps >= 0 bound e(i, k) - e(i, j) -
        e(j, k) over all triples; G keeps that bound.  By the terms that
        attain G(i, j) and G(j, k), with P = a + l + b and Q = b + l + a:
        (e, e) as G(i, k) <= e(i, k); (P, e) as G(i, k) <= a_i + l + e(y, k)
        and e(y, k) <= b_j + e(j, k) + eps, and (Q, e), (e, P), (e, Q)
        alike by symmetry; (P, P) as G(i, k) <= a_i + l + b_k and b_j + l +
        a_j >= 0, and (Q, Q) alike; (P, Q) as G(i, k) <= e(i, k) <= a_i +
        a_k + eps, through x, and (Q, P) through y.
      * Each candidate is a rounded sum of terms >= 0, so the float update F
        has (1 - u)^2 G <= F <= (1 + u)^2 G.  A positive excess of F has
        F(i, j) + F(j, k) < F(i, k) <= M, so it is at most eps + (2u + u^2)
        M + (2u - u^2) M / (1 - u)^2 < eps + 4.0001 uM.  No sum overflows
        when M <= 2^1000.
      * e(u, v) - G(u, v) <= (e(x, y) - l) + 2 eps, by triangles through x
        and y: no entry drops by more than the edge did plus 2 eps + 2uM,
        and none rises.
    """
    if not length > 0:
        raise ValueError(f"length must be positive, got {length}")
    for lo, hi, via in _edge_paths(e, x, y):
        via += length
        np.minimum(e[lo:hi], via, out=e[lo:hi])


# Seeded single-edge shortcuts in one `perturb_metric` probe.
_SHORTCUTS = 16


def perturb_metric(d, amplitude: float, rng: np.random.Generator) -> BoundedMetric:
    """Random metric within sup-distance `amplitude` of d, returned with a
    proven bound on its triangle excess as `BoundedMetric(matrix, excess)`.

    d is a matrix, or a `BoundedMetric` whose excess bounds the excess
    `validate_metric` measures on it.  The probe e is a copy of d after
    _SHORTCUTS seeded shortcuts (`shorten_edge`): the shortest-path metric
    of d with those edges added, so e <= d.  All draws come first: shortcut
    i joins a uniform pair x != y and lowers e(x, y) by a fraction f_i,
    uniform in [0, 1), of the way to its floor: the larger of e(x, y) / 2
    and the least length the ball allows, m - amplitude + 16uM, with m the
    largest fl(d - s) over the path sums s of `_edge_paths(e, x, y)`.  So a
    shortcut may spend what is left of the ball where it lands.  No n x n
    array is held but d and the result.

    Lemma.  Let u = 2^-53, M = max d and K = _SHORTCUTS.
      * Ball.  As 0 <= s <= 2M(1 + u) and l <= M, d(u, v) - s <= m + u
        max(d(u, v), s) and a candidate fl(s + l) >= (s + l)(1 - u): a
        length at or above the float floor keeps every entry >= d -
        amplitude (roundings below 11uM when amplitude <= 2M; above it,
        every candidate is >= 0).  A final `sup_distance` check raises
        RuntimeError otherwise.
      * Excess.  Let R0 >= 0 bound the excess d(i, k) - fl(d(i, j) + d(j,
        k)) the sweep measures on d.  If d is symmetric by value with
        entries >= 0 and M <= 2^1000, the probe's is at most R0 (1 + 2^-50)
        + (5K + 4) uM; the excess returned is None otherwise, or with no R0.
        A triple of d whose exact excess d(i, k) - s is positive has s < M,
        and the sweep's rounded sum is at most (1 + u) s, so that excess is
        at most R0 / (1 - u) + uM.  Each shortcut keeps the matrix symmetric
        with entries in [0, M] and adds at most 4.0001 uM.  At the end the
        sweep's sum loses at most uM / (1 - u) on a positive excess, and its
        rounded difference is at most (1 + u) times the exact one: in all (1
        + u) (R0 / (1 - u) + (4.0001 K + 2.0001) uM), inside the bound with
        room for its three roundings.
    """
    start = None
    if isinstance(d, BoundedMetric):
        d, start = d
    d = np.asarray(d, dtype=float)
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    e = d.copy()
    n, top = len(d), diameter(d)
    if top == 0 or amplitude == 0 or n < 2:
        return BoundedMetric(e, start)
    xs = rng.integers(0, n, _SHORTCUTS)
    ys = rng.integers(0, n - 1, _SHORTCUTS)
    ys += ys >= xs                          # uniform over the pairs x != y
    fractions = rng.uniform(0.0, 1.0, _SHORTCUTS)
    slack = 16 * 2.0 ** -53 * top
    for x, y, f in zip(xs, ys, fractions):
        reach = max(float(np.subtract(d[lo:hi], via, out=via).max())
                    for lo, hi, via in _edge_paths(e, x, y))
        floor = max(reach - amplitude + slack, e[x, y] / 2)
        if floor < e[x, y]:
            shorten_edge(e, x, y, max(e[x, y] - f * (e[x, y] - floor), floor))
    achieved = sup_distance(e, d)
    if achieved > amplitude + 1e-12:
        raise RuntimeError(f"perturbation overshoot: {achieved} > {amplitude}")
    excess = None
    if (start is not None and top <= 2.0 ** 1000 and d.min() >= 0
            and sup_distance(d, d.T) == 0):
        excess = max(start, 0.0) * (1.0 + 2.0 ** -50) + (5 * _SHORTCUTS + 4) * 2.0 ** -53 * top
    return BoundedMetric(e, excess)


# ---------------------------------------------------------------------------
# generators


def make_grid_space(dims: Sequence[int], spacing: float, ground: str = "linf") -> FiniteMetricSpace:
    """Lattice of the given extents with an l-infinity (default) ground metric.

    The nominal dimension is len(dims); the base point is the origin.  The
    metric is built by row blocks with `_lattice_rows`, and the space is
    certified by the lemma's bound (2r + 2) u M below, not by a sweep.  When
    its preconditions fail (coordinates too large, or a spacing below the
    least normal float or not finite) the space is swept.

    Lemma.  Let u = 2^-53, s the spacing, N(x, y) the exact ground norm of
    the integer difference c_x - c_y, and M the largest entry of d.  Every
    triangle excess d(i, k) - fl(d(i, j) + d(j, k)) is at most
    (2r + 2) u M, where r is the number of roundings per entry (_GROUNDS: 1
    for linf and l1, 2 for l2).  Proof: the coordinates are exact, and so
    are their differences, squares and sums, since k (2 max|c|)^2 < 2^53 is
    required.  So the ground value is N exactly for linf and l1, and
    fl(sqrt(N^2)), one rounding, for l2.  The product by s >= the least
    normal float adds one relative rounding and no underflow, so
    d(x, y) = s N(x, y) (1 + t) with (1 - u)^r <= 1 + t <= (1 + u)^r.
    N is a norm of exact integer vectors, so
    N(i, k) <= N(i, j) + N(j, k) =: S.  An excess that is positive has
    fl(d(i, j) + d(j, k)) < d(i, k) <= M, so s S (1 - u)^(r+1) <= M, and
        d(i, k) - fl(d(i, j) + d(j, k))
            <= s S ((1 + u)^r - (1 - u)^(r+1))
            <= M ((1 + u)^r / (1 - u)^(r+1) - 1),
    which is (2r + 1) u M + O(u^2 M) < (2r + 2) u M.  The bound is
    computed in floats with one rounding, inside that margin, and the sweep
    rounds its final subtraction monotonically, so it also bounds what the
    sweep would measure.
    """
    dims = list(dims)
    bad = bad_indices(dims)
    if bad:
        raise ValueError(f"dims entry {bad[0]} ({dims[bad[0]]!r}) is not an integer")
    dims = [int(k) for k in dims]
    if not dims or any(k < 1 for k in dims):
        raise ValueError("dims must be a nonempty list of positive extents")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    if ground not in _GROUNDS:
        raise ValueError(f"unknown ground metric {ground!r}")
    coords = np.array(list(itertools.product(*(range(k) for k in dims))), dtype=int)
    n = len(coords)
    axes = coords.T.astype(float)
    d = np.empty((n, n))
    for lo, hi in _spans(n, n):
        _lattice_rows(axes, lo, hi, ground, spacing, d[lo:hi])
    excess = None
    if (len(dims) * (2 * (max(dims) - 1)) ** 2 < 2 ** 53
            and np.finfo(float).tiny <= spacing < np.inf):
        excess = (2 * _GROUNDS[ground] + 2) * 2.0 ** -53 * float(d.max())
    names = tuple("-".join(map(str, c)) for c in coords)
    return FiniteMetricSpace(names, BoundedMetric(d, excess), base_index=0,
                             coords=coords, nominal_dim=len(dims))


def random_metric_space(n: int, seed: int | np.random.Generator, scale: float = 1.0) -> FiniteMetricSpace:
    """Seeded random metric: shortest-path completion of random edge weights,
    certified by the closure bound `_close` derives, not by a sweep."""
    if n < 1:
        raise ValueError("need at least one point")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    d = rng.uniform(0.5, 1.5, size=(n, n))
    d *= scale
    _mirror_upper(d)
    names = tuple(f"r{i}" for i in range(n))
    return FiniteMetricSpace(names, BoundedMetric(d, _close(d)), base_index=0)


def restrict_space(space: FiniteMetricSpace, members: Sequence[int],
                   base_point: int | None = None) -> FiniteMetricSpace:
    """Subspace on the given points with the restricted metric.

    For lattice-backed spaces the coordinates are carried over and the nominal
    dimension becomes the number of axes along which the subset actually varies.

    The subspace is certified by its parent's `excess`, not by a sweep.
    Lemma: that value bounds the triangle excess the sweep would measure on
    the submatrix.  Its entries are bitwise the parent's, and every triple
    (i, j, k) of the subset is a triple of the parent.  For a pair (i, k) of
    the subset the minimum of fl(d(i, j) + d(j, k)) runs over fewer
    candidates j than in the parent, so it is no lower, and the subset's
    excess at (i, k) is at most the parent's.  So the measured excess of the
    subset is at most the parent's, which `space.excess` bounds: it is that
    measurement or a derived bound above it.  A constructed space always has
    `excess` <= DEFAULT_TOL, so a restriction is never swept.
    """
    idx = as_indices(members, space)
    if not idx:
        raise ValueError("subset must be nonempty")
    if base_point is None:
        base_point = space.base_index if space.base_index in idx else idx[0]
    elif bad_indices([base_point]):
        raise ValueError(f"base_point ({base_point!r}) is not a point index")
    if base_point not in idx:
        raise ValueError("base point must belong to the subset")
    sub = list(idx)
    coords = None
    nominal = space.nominal_dim
    if space.coords is not None:
        coords = space.coords[sub]
        nominal = int(np.count_nonzero(coords.min(axis=0) != coords.max(axis=0)))
    return FiniteMetricSpace(
        tuple(space.points[i] for i in sub),
        BoundedMetric(space.dist[np.ix_(sub, sub)], space.excess),
        base_index=sub.index(base_point),
        coords=coords,
        nominal_dim=nominal,
    )


# ---------------------------------------------------------------------------
# JSON space specs


def _is_int(value) -> bool:
    return not bad_indices([value])


def _is_number(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _is_list(value) -> bool:
    return isinstance(value, (list, tuple))


def _is_int_rows(value) -> bool:
    return (_is_list(value) and all(_is_list(row) and not bad_indices(row) for row in value)
            and len({len(row) for row in value}) <= 1)


def space_from_json(obj: dict) -> FiniteMetricSpace:
    """Space from a config spec: a generator entry or an inline metric.  An
    entry of the wrong type (`dims` a list of integers, `spacing` and
    `scale` numbers, `n`, `seed`, `base_point` and `nominal_dim` integers,
    `points` and `metric` lists, `coords` lists of integers of one length)
    or a required entry that is missing is a ValueError that names it."""
    def need(key, fits, what):
        if key not in obj:
            raise ValueError(f"space spec needs a '{key}' entry")
        value = obj[key]
        if not fits(value):
            raise ValueError(f"space spec entry '{key}' must be {what}, "
                             f"got {reprlib.repr(value)}")
        return value

    def optional(key, fits, what, default=None):
        return need(key, fits, what) if key in obj else default

    if "generator" in obj:
        kind = obj["generator"]
        if kind == "grid":
            dims = need("dims", lambda v: _is_list(v) and not bad_indices(v),
                        "a list of integers")
            return make_grid_space(dims, need("spacing", _is_number, "a number"),
                                   obj.get("ground", "linf"))
        if kind == "random":
            return random_metric_space(need("n", _is_int, "an integer"),
                                       need("seed", _is_int, "an integer"),
                                       optional("scale", _is_number, "a number", 1.0))
        raise ValueError(f"unknown generator {kind!r}")
    coords = optional("coords", _is_int_rows, "lists of integers of one length")
    return FiniteMetricSpace(
        tuple(need("points", _is_list, "a list")),
        np.array(need("metric", _is_list, "a list"), dtype=float),
        base_index=optional("base_point", _is_int, "an integer", 0),
        coords=None if coords is None else np.array(coords, dtype=int),
        nominal_dim=optional("nominal_dim", _is_int, "an integer"),
    )
