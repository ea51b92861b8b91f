"""Finite metric spaces: validation, transforms, subsets, and generators.

All distances are plain float64 numpy matrices.  A matrix is a metric when it
is symmetric, zero exactly on the diagonal, positive off it, and satisfies the
triangle inequality; pseudometrics drop the positivity requirement.  Every
operation here is a pure function of its inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import threading
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


# _min_plus_excess sweeps the min-plus product in row blocks of about
# _BLOCK_CELLS entries, so a block's candidate sums stay in cache while each
# numpy call still does enough work to hide its overhead, and deals the blocks
# round-robin to the caller and at most one helper thread: numpy's add and
# minimum release the GIL, and a minimum is exact in any grouping of rows.
_BLOCK_CELLS = 2 ** 16
_WORKERS = min(2, os.cpu_count() or 1)


def _block_excess(d: np.ndarray, lo: int, hi: int, best: np.ndarray, cand: np.ndarray
                  ) -> tuple[float, int, int]:
    """Worst triangle excess d(i,k) - min_j (d(i,j) + d(j,k)) over the rows
    lo <= i < hi, as (excess, i, k) with (i, k) first in row-major order.
    best and cand are scratch buffers of at least hi - lo rows; j runs in
    ascending order exactly as a whole-matrix sweep would."""
    best, cand = best[:hi - lo], cand[:hi - lo]
    best.fill(np.inf)
    for j in range(d.shape[0]):
        np.add(d[lo:hi, j, None], d[j], out=cand)
        np.minimum(best, cand, out=best)
    np.subtract(d[lo:hi], best, out=best)
    r, k = np.unravel_index(np.argmax(best), best.shape)
    return float(best[r, k]), lo + int(r), int(k)


def _min_plus_excess(d: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Largest triangle excess d(i,k) - min_j (d(i,j) + d(j,k)) and a witness.

    (i, k) is the first worst pair in row-major order and j its first
    minimiser.  Worker w takes row blocks w, w + workers, ...; worker 0 is the
    caller, and an exception in a helper is raised here before any block
    result is read.
    """
    n = d.shape[0]
    rows = min(n, max(1, _BLOCK_CELLS // n))
    starts = range(0, n, rows)
    workers = min(_WORKERS, len(starts))
    scratch = np.empty((workers, 2, rows, n))
    worst = [None] * len(starts)
    errors = []

    def share(w):
        for b in range(w, len(starts), workers):
            worst[b] = _block_excess(d, starts[b], min(starts[b] + rows, n), *scratch[w])

    def helper_share(w):
        try:
            share(w)
        except BaseException as exc:    # handed to the caller, which raises it
            errors.append(exc)

    helpers = [threading.Thread(target=helper_share, args=(w,)) for w in range(1, workers)]
    for t in helpers:
        t.start()
    try:
        share(0)
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]
    excess, i, k = max(worst, key=lambda t: t[0])     # the first block on ties
    j = np.argmin(d[i] + d[:, k])
    return excess, (i, int(j), k)


def validate_metric(mat: np.ndarray, allow_zero: bool = False) -> ValidationReport:
    """Check the metric axioms up to DEFAULT_TOL, reporting one witness per
    violated axiom.

    With allow_zero=True the matrix is checked as a pseudometric (zero
    off-diagonal entries permitted).  Non-square input is rejected outright.
    A NaN or infinite entry is the one violation reported: every other check
    is a comparison, which NaN would pass.
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
    ground: str | None = None            # grid ground metric, if generated

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


def as_indices(subset, space: FiniteMetricSpace | None = None) -> tuple[int, ...]:
    """Normalize an index sequence to a sorted tuple without duplicates."""
    idx = tuple(sorted(set(int(i) for i in subset)))
    if space is not None and idx and (idx[0] < 0 or idx[-1] >= space.n):
        raise ValueError("subset indices out of range")
    return idx


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
    """All-pairs shortest-path completion of a symmetric weight matrix."""
    d = np.array(w, dtype=float)
    np.fill_diagonal(d, 0.0)
    for k in range(d.shape[0]):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


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
                             nominal_dim=len(dims), ground=ground)


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
        ground=space.ground,
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
        ground=obj.get("ground"),
    )
