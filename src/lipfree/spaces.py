"""Finite metric spaces: validation, transforms, subsets, and generators.

All distances are plain float64 numpy matrices.  A matrix is a metric when it
is symmetric, zero exactly on the diagonal, positive off it, and satisfies the
triangle inequality; pseudometrics drop the positivity requirement.  Every
operation here is a pure function of its inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
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
# check and Floyd-Warshall, both on the caller's thread.  _row_blocks cuts the
# rows into blocks of about _BLOCK_CELLS entries, so a block's candidate sums
# stay in cache while each numpy call still does enough work to hide its
# overhead.  On an exactly symmetric matrix both sweep only the columns from
# each block's first row on, about half the work, and the triangle check
# sweeps only the first of each set of bitwise-equal rows.
_BLOCK_CELLS = 2 ** 16


@contextlib.contextmanager
def _row_blocks(n: int, buffers: int):
    """Yield (blocks, scratch) for n >= 1 rows of length n: the row blocks as
    (lo, hi) pairs, and `buffers` arrays of one block's shape, allocated once
    for the call; a block takes views of them.

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
    rows = min(n, max(1, _BLOCK_CELLS // n))
    blocks = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    scratch = np.empty((buffers, rows, n))
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
    symmetric = np.array_equal(d, d.T)
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


def validate_metric(mat: np.ndarray, allow_zero: bool = False) -> ValidationReport:
    """Check the metric axioms up to DEFAULT_TOL, reporting one witness per
    violated axiom.

    With allow_zero=True the matrix is checked as a pseudometric (zero
    off-diagonal entries permitted).  Non-square input is rejected outright.
    A NaN or infinite entry is the one violation reported: every other check
    is a comparison, which NaN would pass.  The triangle check is the O(n^3)
    min-plus sweep of _min_plus_excess on the caller's thread, over the upper
    triangle only when the matrix is exactly symmetric, and then only over
    its distinct rows.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"distance matrix must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        i, j = np.unravel_index(np.argmin(np.isfinite(mat)), mat.shape)
        return ValidationReport(tuple(mat.shape),
                                (Violation("nonfinite", (int(i), int(j)), float(mat[i, j])),))
    n = mat.shape[0]
    violations = []

    diag = np.abs(np.diagonal(mat))
    if diag.size and diag.max() > DEFAULT_TOL:
        i = int(np.argmax(diag))
        violations.append(Violation("diagonal", (i,), float(diag[i])))

    # Each n x n temporary is dropped before the next check: the triangle
    # check runs with no other full-size array alive.
    asym = mat - mat.T
    np.abs(asym, out=asym)
    if asym.size and asym.max() > DEFAULT_TOL:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        violations.append(Violation("symmetry", (int(i), int(j)), float(asym[i, j])))
    del asym

    if n and -mat.min() > DEFAULT_TOL:
        i, j = np.unravel_index(np.argmin(mat), mat.shape)
        violations.append(Violation("negative", (int(i), int(j)), float(-mat[i, j])))

    if not allow_zero and n > 1:
        off = mat.copy()
        np.fill_diagonal(off, np.inf)
        i, j = np.unravel_index(np.argmin(off), off.shape)
        if off[i, j] <= DEFAULT_TOL:
            violations.append(Violation("zero_offdiag", (int(i), int(j)), float(-off[i, j])))
        del off

    if n:
        excess, witness = _min_plus_excess(mat)
        if excess > DEFAULT_TOL:
            violations.append(Violation("triangle", witness, excess))

    return ValidationReport(tuple(mat.shape), tuple(violations))


def validate_pseudometric(mat: np.ndarray) -> ValidationReport:
    return validate_metric(mat, allow_zero=True)


def require_metric(mat: np.ndarray, what: str = "matrix") -> None:
    report = validate_metric(mat)
    if not report.ok:
        raise MetricError(f"{what} is not a metric: {report.summary()}", report)


@dataclass(frozen=True)
class FiniteMetricSpace:
    """Finite set of named points with a validated metric and a base point."""

    points: tuple[str, ...]
    dist: np.ndarray
    base_index: int = 0
    coords: np.ndarray | None = None     # integer lattice coordinates, if any
    nominal_dim: int | None = None       # declared dimension of the model

    def __post_init__(self):
        pts = tuple(str(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        d = np.array(self.dist, dtype=float)
        require_metric(d, what="space metric")
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)
        if len(pts) != d.shape[0]:
            raise ValueError("point count does not match matrix size")
        if len(set(pts)) != len(pts):
            raise ValueError("point names must be unique")
        if not 0 <= self.base_index < len(pts):
            raise ValueError("base point must be one of the points")
        if self.coords is not None:
            c = np.array(self.coords, dtype=int)
            if c.shape[0] != len(pts):
                raise ValueError("coords row count does not match points")
            c.setflags(write=False)
            object.__setattr__(self, "coords", c)
        digest = hashlib.sha256()
        digest.update(json.dumps(pts).encode())
        digest.update(d.tobytes())
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
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    if d.shape != e.shape:
        raise ValueError(f"shape mismatch {d.shape} vs {e.shape}")
    return float(np.abs(d - e).max(initial=0.0))


def dist_to_set_all(d: np.ndarray, members: Sequence[int]) -> np.ndarray:
    """Vector of distances from every point to the given set."""
    members = list(members)
    if not members:
        raise ValueError("set must be nonempty")
    return np.asarray(d)[:, members].min(axis=1)


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
    da = dist_to_set_all(d, members)
    out = np.minimum(np.asarray(d, dtype=float), da[:, None] + da[None, :])
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
    d(k, j) and column k with d(i, k) + d(k, k) = d(i, k), its own values,
    so no block sees row k or column k change during step k.

    Weights symmetric bit for bit are swept by `_floyd_warshall_upper`, about
    half the work, with the same result.  Symmetry by value is not enough:
    0.0 and -0.0 compare equal, and a mirrored copy would swap them.
    """
    d = np.array(w, dtype=float)
    if not (d >= 0).all():                  # also false on NaN
        raise ValueError("weights must be nonnegative and not NaN")
    np.fill_diagonal(d, 0.0)
    n = d.shape[0]
    if n:
        bits = d.view(np.uint64)
        symmetric = np.array_equal(bits, bits.T)
        with _row_blocks(n, 1) as (blocks, (cand,)):
            if symmetric:
                _floyd_warshall_upper(d, blocks, cand)
            else:
                for k in range(n):
                    for lo, hi in blocks:
                        np.add(d[lo:hi, k, None], d[k], out=cand[:hi - lo])
                        np.minimum(d[lo:hi], cand[:hi - lo], out=d[lo:hi])
    return d


def _floyd_warshall_upper(d: np.ndarray, blocks, cand: np.ndarray) -> None:
    """The k-loop of `floyd_warshall` on a bitwise symmetric d, in place.

    Every step keeps d bitwise symmetric: d(i, k) + d(k, j) and
    d(j, k) + d(k, i) are the same IEEE sum, and the minimum then sees the
    same operands in the same order.  So each block (lo, hi) updates only its
    columns j >= lo, which hold every cell on or above the diagonal; the cells
    left of a block go stale.  Row k is read from the start of step k: its
    entries from its own block's first column on are current, and the stale
    ones left of it are read from column k above that block, which is
    current and equal to them.  The same vector serves as column k, equal to
    row k bit for bit.  At the end the stale cells are overwritten with exact
    copies of their mirror images.
    """
    n = d.shape[0]
    row = np.empty(n)
    for klo, khi in blocks:
        for k in range(klo, khi):
            row[klo:] = d[k, klo:]
            row[:klo] = d[:klo, k]
            for lo, hi in blocks:
                upper = d[lo:hi, lo:]
                sums = cand.reshape(-1)[:upper.size].reshape(upper.shape)
                np.add(row[lo:hi, None], row[None, lo:], out=sums)
                np.minimum(upper, sums, out=upper)
    for lo, hi in blocks:
        d[lo:hi, :lo] = d[:lo, lo:hi].T


def perturb_metric(d: np.ndarray, amplitude: float, rng: np.random.Generator) -> np.ndarray:
    """Random metric within sup-distance `amplitude` of d.

    Multiplies distances by symmetric factors in [1-b, 1+b] with
    b = amplitude/diam and re-metrizes by shortest paths, which keeps every
    path cost within a factor (1 +- b) of its original cost and therefore the
    sup deviation at most `amplitude`.
    """
    d = np.asarray(d, dtype=float)
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    diam = diameter(d)
    if diam == 0 or amplitude == 0:
        return d.copy()
    beta = min(amplitude / diam, 0.999)
    noise = rng.uniform(-beta, beta, size=d.shape)
    noise = np.triu(noise, 1)
    noise = noise + noise.T
    e = floyd_warshall(d * (1.0 + noise))
    achieved = sup_distance(e, d)
    if achieved > amplitude + 1e-12:
        raise RuntimeError(f"perturbation overshoot: {achieved} > {amplitude}")
    return e


# ---------------------------------------------------------------------------
# generators


def make_grid_space(dims: Sequence[int], spacing: float, ground: str = "linf") -> FiniteMetricSpace:
    """Lattice of the given extents with an l-infinity (default) ground metric.

    The nominal dimension is len(dims); the base point is the origin.
    """
    dims = [int(k) for k in dims]
    if not dims or any(k < 1 for k in dims):
        raise ValueError("dims must be a nonempty list of positive extents")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    coords = np.array(list(itertools.product(*(range(k) for k in dims))), dtype=int)
    delta = np.abs(coords[:, None, :] - coords[None, :, :]).astype(float)
    if ground == "linf":
        d = delta.max(axis=2)
    elif ground == "l1":
        d = delta.sum(axis=2)
    elif ground == "l2":
        d = np.sqrt((delta ** 2).sum(axis=2))
    else:
        raise ValueError(f"unknown ground metric {ground!r}")
    d *= spacing
    names = tuple("-".join(map(str, c)) for c in coords)
    return FiniteMetricSpace(names, d, base_index=0, coords=coords,
                             nominal_dim=len(dims))


def random_metric_space(n: int, seed: int | np.random.Generator, scale: float = 1.0) -> FiniteMetricSpace:
    """Seeded random metric: shortest-path completion of random edge weights."""
    if n < 1:
        raise ValueError("need at least one point")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, size=(n, n)) * scale
    w = np.triu(w, 1)
    w = w + w.T
    d = floyd_warshall(w)
    names = tuple(f"r{i}" for i in range(n))
    return FiniteMetricSpace(names, d, base_index=0)


def restrict_space(space: FiniteMetricSpace, members: Sequence[int],
                   base_point: int | None = None) -> FiniteMetricSpace:
    """Subspace on the given points with the restricted metric.

    For lattice-backed spaces the coordinates are carried over and the nominal
    dimension becomes the number of axes along which the subset actually varies.
    """
    idx = as_indices(members, space)
    if not idx:
        raise ValueError("subset must be nonempty")
    if base_point is None:
        base_point = space.base_index if space.base_index in idx else idx[0]
    if base_point not in idx:
        raise ValueError("base point must belong to the subset")
    sub = list(idx)
    coords = None
    nominal = space.nominal_dim
    if space.coords is not None:
        coords = space.coords[sub]
        nominal = int(sum(len(np.unique(coords[:, a])) > 1 for a in range(coords.shape[1])))
    return FiniteMetricSpace(
        tuple(space.points[i] for i in sub),
        space.dist[np.ix_(sub, sub)],
        base_index=sub.index(base_point),
        coords=coords,
        nominal_dim=nominal,
    )


# ---------------------------------------------------------------------------
# JSON space specs


def space_from_json(obj: dict) -> FiniteMetricSpace:
    """Space from a config spec: a generator entry or an inline metric."""
    if "generator" in obj:
        kind = obj["generator"]
        if kind == "grid":
            return make_grid_space(obj["dims"], obj["spacing"], obj.get("ground", "linf"))
        if kind == "random":
            return random_metric_space(obj["n"], obj["seed"], obj.get("scale", 1.0))
        raise ValueError(f"unknown generator {kind!r}")
    coords = np.array(obj["coords"], dtype=int) if "coords" in obj else None
    return FiniteMetricSpace(
        tuple(obj["points"]),
        np.array(obj["metric"], dtype=float),
        base_index=int(obj.get("base_point", 0)),
        coords=coords,
        nominal_dim=obj.get("nominal_dim"),
    )
