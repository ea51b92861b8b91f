"""Finite metric spaces: validation, transforms, subsets, and generators.

All distances are plain float64 numpy matrices.  A matrix is a metric when it
is symmetric, zero exactly on the diagonal, positive off it, and satisfies the
triangle inequality; pseudometrics drop the positivity requirement.  Every
operation here is a pure function of its inputs, and keeps the one-scratch
rule of the row-block engine below.

Validation reads every matrix in O(n^2) for the axioms other than the
triangle inequality (one symmetry test and one pass, plus a witness scan
per failed axiom).  Those axioms are exact: a matrix is admitted only when
it equals its transpose by value, its diagonal is zero and no entry is
negative, so every proof below may use them without testing them again.
The triangle inequality costs an O(n^3) min-plus sweep,
unless the code that built the matrix hands over a proven upper bound on its
triangle excess in a `BoundedMetric`, whose docstring lists the builders
that do.  Every other matrix is swept: inline metrics, with or without
coords, and matrices a caller made.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

# Slack used when comparing floating-point quantities against exact bounds:
# the triangle inequality and the positivity floor of validate_metric, and
# every certificate that does not record a fixed tolerance of its own.  It is
# not configurable.
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
    # the triangle excess the check used (the sweep's or a derived bound);
    # None when a nonfinite entry or an asymmetry ended the check before it
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
    bitwise equal to it (0.0 and -0.0 differ, and so do NaN payloads); a row
    seen for the first time maps to itself.  Rows are bucketed by the hash
    of their bytes, and every hit is confirmed by comparing the bytes, so the
    result does not depend on the hash function or seed.  The buckets hold
    row indices only.  It costs a hash of each row's bytes, about 3 ms for
    900 rows of 900 entries."""
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
# check and Floyd-Warshall, and the O(n^2) path sums of `_edge_paths`, all on
# the caller's thread.  _row_blocks cuts the rows into blocks of about
# _BLOCK_CELLS entries, so a block's candidate sums stay in cache while each
# numpy call still does enough work to hide its overhead.
#
# The one-scratch rule: no function here holds an n x n temporary beyond its
# inputs and its result.  O(n^2) elementwise passes run in place on the
# result or over the same row blocks (`row_spans`): the scans of validate_metric
# and sup_distance, the symmetry test of is_symmetric, the grid metric, folded
# into its result from one k x k table per axis, perturb_metric's reach passes
# and its shortcuts, in place, and the class tables of least_class_distances.
_BLOCK_CELLS = 2 ** 16


def row_spans(rows: int, width: int) -> list[tuple[int, int]]:
    """Row ranges (lo, hi), in order, covering `rows` rows of `width` entries
    in blocks of about _BLOCK_CELLS entries (at least one row each)."""
    step = max(1, _BLOCK_CELLS // max(width, 1))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def is_symmetric(d: np.ndarray) -> bool:
    """Whether the square matrix d equals its transpose by value (NaN never
    does; 0.0 equals -0.0), each row block from its first row's column on."""
    n = len(d)
    return all(np.array_equal(d[lo:hi, lo:], d[lo:, lo:hi].T) for lo, hi in row_spans(n, n))


def least_class_distances(d: np.ndarray, cls: np.ndarray) -> np.ndarray:
    """The least distance between each oriented pair of classes of the labels
    cls, which take every value in 0..k-1: a k x k table whose entry (a, b)
    is the least d(x, y) over x < y with x in class a and y in class b; +inf
    where no such pair exists.  On d.T it gives the least d(y, x) instead.

    Each row block of `row_spans`, in class order, is set to +inf at the
    pairs x >= y, gathered in class order along its columns, and reduced over
    the class runs of its rows and then of its columns (np.minimum.reduceat).
    A minimum is exact in any order, so the blocking does not show.
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
    for lo, hi in row_spans(n, 4 * n):
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
    for lo, hi in row_spans(rows, rows):
        values = block(lo, hi)
        r, c = np.unravel_index(np.argmax(values), values.shape)
        # a later block's entry counts only when it beats every earlier one
        if values[r, c] > best[0]:
            best = (float(values[r, c]), lo + int(r), int(c))
    return best


@contextlib.contextmanager
def _row_blocks(n: int, buffers: int, width: int | None = None):
    """Yield (blocks, scratch) for n >= 1 rows of length `width` >= 1 (n when
    None): the row blocks of `row_spans` and `buffers` arrays of one block's
    shape, allocated once; a block takes views of them.

    Inside the scope numpy's ufunc buffer is one row, rounded up to a
    multiple of 16: the sweeps' inner step is a broadcast add of a column
    slice to a row, and a buffer of several rows makes numpy copy both
    operands on every call (4x slower at 900 points with the default 8192).
    The setting is context-local in numpy 2, so concurrent callers do not
    see each other's, and it is restored on exit.  No sum or mean may run
    inside the scope: pairwise summation splits at the inner-loop length, so
    its rounding could depend on the buffer.  Elementwise adds, minima and
    argmax are exact whatever the buffer.
    """
    width = n if width is None else width
    blocks = row_spans(n, width)
    scratch = np.empty((buffers, blocks[0][1], width))
    old = np.setbufsize(-(-width // 16) * 16)
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


def _min_plus_excess(d: np.ndarray) -> tuple[float, tuple]:
    """Largest triangle excess d(i,k) - min_j (d(i,j) + d(j,k)) and a witness
    (i, j, k), for d symmetric by value (`validate_metric` sweeps no other).

    (i, k) is the first worst pair in row-major order and j its first
    minimiser.  Each row block sweeps only the columns k from its first row
    on, about half the work.  The result is the full sweep's: excess(i, k)
    and excess(k, i) are minima of the same IEEE sums d(i,j) + d(j,k) =
    d(k,j) + d(j,i), so the first worst pair lies on or above the diagonal,
    and each swept cell is computed as in the full sweep.

    A matrix with repeated rows (a pseudometric pulled back through a
    partition of unity has many) is swept only over the first occurrences
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
    reps = np.flatnonzero(first_equal_rows(d) == np.arange(len(d)))
    swept = d if len(reps) == len(d) else d[np.ix_(reps, reps)]
    with _row_blocks(len(swept), 2) as (blocks, scratch):
        worst = [_block_excess(swept, lo, hi, lo, *scratch) for lo, hi in blocks]
    # max keeps the first of equal excesses, so ties go to the first block
    excess, i, k = max(worst, key=lambda t: t[0])
    i, k = int(reps[i]), int(reps[k])
    j = np.argmin(d[i] + d[:, k])
    return excess, (i, int(j), k)


def _axiom_scan(mat: np.ndarray) -> tuple[bool, float, float]:
    """(all entries finite, least entry, least off-diagonal entry or +inf) of
    the square mat, in one pass over its row blocks: a block's maximum is NaN
    or +inf if it holds one, and its own square is read with an inf diagonal."""
    tops, offs = [-np.inf], [np.inf]
    for lo, hi in row_spans(len(mat), len(mat)):
        block = mat[lo:hi]
        square = block[:, lo:hi].copy()
        np.fill_diagonal(square, np.inf)
        tops.append(block.max())
        offs += [part.min(initial=np.inf) for part in (block[:, :lo], square, block[:, hi:])]
    off = float(np.min(offs))
    least = min(off, float(np.diagonal(mat).min(initial=np.inf)))
    return bool(np.max(tops) < np.inf and least > -np.inf), least, off


def validate_metric(mat: np.ndarray, allow_zero: bool = False,
                    excess_bound: float | None = None) -> ValidationReport:
    """Check the metric axioms, reporting one witness per violated axiom.

    The diagonal must be zero (either sign), the matrix must equal its
    transpose by value (0.0 against -0.0 passes) and no entry may be
    negative (-0.0 is not), all exactly; an off-diagonal entry must exceed
    DEFAULT_TOL, or be >= 0 with allow_zero=True (a pseudometric), and the
    triangle excess may reach DEFAULT_TOL.  Non-square input is rejected
    outright.  A NaN or infinite entry is the one violation reported: every
    other check is a comparison, which NaN would pass.  The other axioms
    cost one pass of `_axiom_scan` and one `is_symmetric` test; only an
    axiom that fails is scanned by `_first_max` for its witness, the first
    worst entry in row-major order.  An asymmetric matrix ends the check
    there, with no triangle sweep and `excess` None.

    The triangle check is the O(n^3) min-plus sweep of `_min_plus_excess`.
    It measures the triangle excess, the largest d(i, k) - (d(i, j) +
    d(j, k)) in floats.
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
    finite, least, off = _axiom_scan(mat)
    if not finite:
        bad, i, j = _first_max(n, lambda lo, hi: ~np.isfinite(mat[lo:hi]))
        return ValidationReport(tuple(mat.shape),
                                (Violation("nonfinite", (i, j), float(mat[i, j])),))
    violations = []

    diag = np.abs(np.diagonal(mat))
    if diag.size and diag.max() > 0:
        i = int(np.argmax(diag))
        violations.append(Violation("diagonal", (i,), float(diag[i])))

    symmetric = is_symmetric(mat)
    if not symmetric:
        asym, i, j = _first_max(n, lambda lo, hi: np.abs(mat[lo:hi] - mat[:, lo:hi].T))
        violations.append(Violation("symmetry", (i, j), asym))

    if least < 0:
        i, j = np.unravel_index(np.argmin(mat), mat.shape)
        violations.append(Violation("negative", (int(i), int(j)), float(-mat[i, j])))

    if not allow_zero and off <= DEFAULT_TOL:
        # the first largest -d(i, j) is the first smallest off-diagonal entry
        gap, i, j = _first_max(n, lambda lo, hi: np.where(
            np.arange(n) == np.arange(lo, hi)[:, None], -np.inf, np.negative(mat[lo:hi])))
        violations.append(Violation("zero_offdiag", (i, j), gap))

    if not symmetric:
        return ValidationReport(tuple(mat.shape), tuple(violations))
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


class BoundedMetric(NamedTuple):
    """A matrix with a proven upper bound on the triangle excess
    `validate_metric` would measure on it, or None.  The builders here hand
    one to FiniteMetricSpace (the lemmas of `make_grid_space` and `_close`,
    and the parent's `excess` for `restrict_space`); `perturb_metric`
    returns its probe as one, which `build_perturbed_operator` and
    `certify_gluing` take.  Whoever builds one asserts its bound: nothing
    checks it, so the probe certificates record it as `excess_bound`."""
    matrix: np.ndarray
    excess: float | None = None


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Finite set of named points with a validated metric and a base point.

    Construction sets two attributes besides the fields: `key`, a digest of
    the points, the metric bytes and the base point, and the `excess` of its
    `ValidationReport`.  The triangle inequality is
    certified by the bound of a `BoundedMetric`, whose matrix is kept
    without a copy, else by the O(n^3) sweep of a copy.
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
        if self.nominal_dim is not None and (bad_indices([self.nominal_dim]) or self.nominal_dim < 0):
            raise ValueError(f"nominal_dim must be an integer >= 0, got {self.nominal_dim!r}")
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
             for lo, hi in row_spans(len(d), d[:1].size)]
    return float(np.max(worst, initial=0.0))


def dist_to_set_all(d: np.ndarray, members: Sequence[int]) -> np.ndarray:
    """Vector of distances from every point to the given set."""
    members = list(members)
    if not members:
        raise ValueError("set must be nonempty")
    d = np.asarray(d)
    out = np.empty(len(d), dtype=d.dtype)
    for lo, hi in row_spans(len(d), len(members)):
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


def _edge_paths(a: np.ndarray, b: np.ndarray, rows: np.ndarray | None = None,
                cols: np.ndarray | None = None, one_sided: bool = False):
    """Yield (cells, s) over the row blocks of _row_blocks: s(u, v) =
    min(fl(a_u + b_v), fl(b_u + a_v)), or fl(a_u + b_v) when one_sided, on
    the cells rows x cols, index arrays, or on every cell of the n x n array
    when both are None, with a and b its columns x and y.  cells indexes the
    block in that array, and s is a reused buffer.  Consume it whole."""
    whole = rows is None
    h, w = (len(a), len(a)) if whole else (len(rows), len(cols))
    if not h or not w:
        return
    with _row_blocks(h, 2, w) as (blocks, (p, q)):
        for lo, hi in blocks:
            r, c = (slice(lo, hi), slice(None)) if whole else (rows[lo:hi], cols)
            via, other = p[:hi - lo], q[:hi - lo]
            np.add(a[r, None], b[c], out=via)
            if not one_sided:
                np.minimum(via, np.add(b[r, None], a[c], out=other), out=via)
            yield (r, c) if whole else np.ix_(r, c), via


def shorten_edge(e: np.ndarray, x: int, y: int, length: float,
                 excess: float | None = None) -> None:
    """Add an edge of length l > 0 between the points x and y to the square
    float64 array e, in place: the exact shortest-path update
        e'(u, v) = min(e(u, v), fl(fl(a_u + b_v) + l), fl(fl(b_u + a_v) + l))
    with a, b copies of the columns x and y, computed as
    min(e(u, v), fl(min(fl(a_u + b_v), fl(b_u + a_v)) + l)), the same value
    since rounding is monotone.

    excess is None or a proven bound eps on e's exact triangle excess, under
    the lemma's preconditions below, which a caller passing it asserts.
    With a bound, only the cells of U x V and V x U are rewritten, with
        U = {p : fl(a_p + l) < fl(b_p + tau)},  V = {q : fl(b_q + l) < fl(a_q + tau)},
    tau = eps (1 + 2^-50) + 8uS and S = max a + max b + l (`_lowerable`); no
    other cell can fall (last point below), so e' is bitwise the full
    update.  Without a bound, or when S lies outside [2^-900, 2^1000], U and
    V hold every row.  Either way the cells go by the row blocks of
    `_row_blocks`, and the scratch is two columns and two block buffers.

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
      * Filter.  Let c = fl(fl(a_p + b_q) + l) < e(p, q).  A rounded sum of
        terms >= 0 loses at most u of it, so c >= a_p + b_q + l - 2uS.
        Through y, e(p, q) <= b_p + b_q + eps, so a_p + l < b_p + eps +
        2uS; then fl(a_p + l) <= a_p + l + uS and fl(b_p + tau) >= b_p +
        tau - u(S + tau), and tau >= (eps + 4uS)(1 + 2u) after its own
        three roundings (2^-50 S is exact in that range), so p is in U.
        Through x, e(p, q) <= a_p + a_q + eps gives q in V alike.  The
        other candidate of (p, q) is this one of (q, p), so it puts (p, q)
        in V x U.  A cell whose candidates are both >= e(p, q) keeps its
        bits: they are >= l > 0, so an equal one has e(p, q)'s bits.
    """
    if not length > 0:
        raise ValueError(f"length must be positive, got {length}")
    a, b = e[:, x].copy(), e[:, y].copy()
    near_x, near_y = _lowerable(a, b, length, excess)
    spans = [(near_x, near_y)]
    if near_x is not None and not np.array_equal(near_x, near_y):
        spans.append((near_y, near_x))
    for rows, cols in spans:
        for cells, via in _edge_paths(a, b, rows, cols):
            via += length
            if rows is None:                 # a block of whole rows: a view of e
                np.minimum(e[cells], via, out=e[cells])
            else:
                e[cells] = np.minimum(e[cells], via, out=via)


def _reach(d: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """`perturb_metric`'s m, max fl(d - s) over the path sums s of `_edge_paths`
    on the columns a and b, one-sided by its lemma: d is symmetric."""
    return max(float(np.subtract(d[cells], via, out=via).max())
               for cells, via in _edge_paths(a, b, one_sided=True))


def _lowerable(a: np.ndarray, b: np.ndarray, length: float,
               excess: float | None) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The rows U and V of `shorten_edge`'s filter for the columns a and b,
    or (None, None) for every row when there is no bound or S is out of
    range."""
    total = float(a.max() + b.max() + length) if len(a) else 0.0
    if excess is None or not 2.0 ** -900 <= total <= 2.0 ** 1000:
        return None, None
    tau = excess * (1.0 + 2.0 ** -50) + 2.0 ** -50 * total
    return np.flatnonzero(a + length < b + tau), np.flatnonzero(b + length < a + tau)


# Seeded single-edge shortcuts in one `perturb_metric` probe.
_SHORTCUTS = 16


def perturb_metric(d, amplitude: float, rng: np.random.Generator) -> BoundedMetric:
    """Random metric within sup-distance `amplitude` of d, returned with a
    proven bound on its triangle excess as `BoundedMetric(matrix, excess)`.

    d is a matrix `validate_metric` admitted, so symmetric by value with a
    zero diagonal and no negative entry, as the lemma needs, or a
    `BoundedMetric` of one whose excess bounds the excess `validate_metric`
    measures on it.  Every caller passes one: a space's metric, an adapted
    metric or a glue metric.  The lemma says nothing of another start; its
    probe may keep the asymmetry, which the door refuses wherever the probe
    is validated, and the bound returned with it is not proven.  The probe
    e is a copy of d after _SHORTCUTS seeded shortcuts (`shorten_edge`):
    the shortest-path metric of d with those edges added, so e <= d.  All
    draws come first: shortcut i joins a uniform pair x != y and lowers
    e(x, y) by a fraction f_i, uniform in [0, 1), of the way to its floor:
    the larger of e(x, y) / 2 and the least length the ball allows, m -
    amplitude + 16uM, with m the largest fl(d - s) over the path sums s of
    `_edge_paths` on e (`_reach`).  So a shortcut may spend what is left of
    the ball where it lands.  No n x n array is held but d and the result.

    Lemma.  Let u = 2^-53, M = max d and K = _SHORTCUTS.
      * Reach with one add.  Let A(u, v) = fl(a_u + b_v), B(u, v) =
        fl(b_u + a_v) for the columns a, b of e.  Rounded subtraction is
        monotone, so fl(d - min(A, B)) = max(fl(d - A), fl(d - B)); B(u, v)
        = A(v, u) as fl commutes, and d(u, v) = d(v, u), so m is the largest
        A term, up to the sign of a zero, which m - amplitude (amplitude > 0)
        drops.
      * Ball.  As 0 <= s <= 2M(1 + u) and l <= M, d(u, v) - s <= m + u
        max(d(u, v), s) and a candidate fl(s + l) >= (s + l)(1 - u): a
        length at or above the float floor keeps every entry >= d -
        amplitude (roundings below 11uM when amplitude <= 2M; above it,
        every candidate is >= 0).  A final `sup_distance` check raises
        RuntimeError otherwise.
      * Excess.  Let R0 >= 0 bound the excess d(i, k) - fl(d(i, j) + d(j,
        k)) the sweep measures on d.  If M <= 2^1000, the probe's is at
        most R0 (1 + 2^-50) + (5K + 4) uM; the excess returned is None
        otherwise, or with no R0.
        A triple of d whose exact excess d(i, k) - s is positive has s < M,
        and the sweep's rounded sum is at most (1 + u) s, so that excess is
        at most R0 / (1 - u) + uM.  Each shortcut keeps the matrix symmetric
        with entries in [0, M] and adds at most 4.0001 uM.  At the end the
        sweep's sum loses at most uM / (1 - u) on a positive excess, and its
        rounded difference is at most (1 + u) times the exact one: in all (1
        + u) (R0 / (1 - u) + (4.0001 K + 2.0001) uM), inside the bound with
        room for its three roundings.
      * Filter.  Before shortcut i (from 0) the exact excess is at most
        R0 / (1 - u) + uM + 4.0001 i uM, and R0 (1 + 2^-50) + (5i + 2) uM
        stays above it after its roundings; `shorten_edge` takes that bound,
        so it rewrites only the cells the shortcut can lower.  Without a
        bound every shortcut rewrites every cell.
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
    proven = start is not None and top <= 2.0 ** 1000
    xs = rng.integers(0, n, _SHORTCUTS)
    ys = rng.integers(0, n - 1, _SHORTCUTS)
    ys += ys >= xs                          # uniform over the pairs x != y
    fractions = rng.uniform(0.0, 1.0, _SHORTCUTS)
    slack = 16 * 2.0 ** -53 * top

    def bound(k):           # the lemma's: k = 5i + 2 before shortcut i, 5K + 4 at the end
        return max(start, 0.0) * (1.0 + 2.0 ** -50) + k * 2.0 ** -53 * top if proven else None

    for i, (x, y, f) in enumerate(zip(xs, ys, fractions)):
        reach = _reach(d, e[:, x].copy(), e[:, y].copy())
        floor = max(reach - amplitude + slack, e[x, y] / 2)
        if floor < e[x, y]:
            shorten_edge(e, x, y, max(e[x, y] - f * (e[x, y] - floor), floor), bound(5 * i + 2))
    achieved = sup_distance(e, d)
    if achieved > amplitude + 1e-12:
        raise RuntimeError(f"perturbation overshoot: {achieved} > {amplitude}")
    return BoundedMetric(e, bound(5 * _SHORTCUTS + 4))


# ---------------------------------------------------------------------------
# generators


def make_grid_space(dims: Sequence[int], spacing: float, ground: str = "linf") -> FiniteMetricSpace:
    """Lattice of the given extents with an l-infinity (default) ground metric.

    The nominal dimension is len(dims); the base point is the origin.  The
    metric folds one k x k table of |i - j| per axis (squared for l2) into
    the result, read as a (dims + dims) array, by broadcast maxima (linf)
    or sums of exact integers, then takes the root (l2) and the product by
    the spacing.  It is certified by the lemma's bound (2r + 2) u M below,
    or swept when the preconditions fail (coordinates too large, or a
    spacing below the least normal float or not finite).

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
    k = len(dims)
    coords = np.indices(dims).reshape(k, -1).T       # row-major, the last axis fastest
    tables = [(np.abs(np.subtract.outer(np.arange(m), np.arange(m))) ** (1 + (ground == "l2")))
              .astype(float).reshape([m if b % k == a else 1 for b in range(2 * k)])
              for a, m in enumerate(dims)]
    d = np.empty((len(coords),) * 2)
    grid, fold = d.reshape(dims + dims), (np.maximum if ground == "linf" else np.add)
    fold(tables[0], tables[1] if k > 1 else 0.0, out=grid)
    for table in tables[2:]:
        fold(grid, table, out=grid)
    if ground == "l2":
        np.sqrt(d, out=d)
    d *= spacing
    excess = None
    if (len(dims) * (2 * (max(dims) - 1)) ** 2 < 2 ** 53
            and np.finfo(float).tiny <= spacing < np.inf):
        # the far corner has the largest ground value, and an entry rises with it
        excess = (2 * _GROUNDS[ground] + 2) * 2.0 ** -53 * float(d[0, -1])
    names = tuple("-".join(map(str, c)) for c in coords.tolist())
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
    the submatrix.  Its entries are bitwise the parent's, and for a pair
    (i, k) of the subset the minimum of fl(d(i, j) + d(j, k)) runs over
    fewer candidates j than in the parent, so it is no lower: the subset's
    excess at (i, k) is at most the parent's, which `space.excess` bounds
    (it is that measurement or a derived bound above it).  A constructed
    space has `excess` <= DEFAULT_TOL, so a restriction is never swept.
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
