"""Lipschitz constants, free-space norms, extension operators, metric extension.

The norm of a finitely supported functional mu = sum_i w_i delta_{x_i} over a
finite metric space is computed in the dual formulation:

    max  sum_i w_i f(x_i)
    s.t. f(base) = 0 and |f(x) - f(y)| <= d(x, y) for all pairs,

a finite LP whose value equals the norm by LP duality.  The norm only depends
on the metric restricted to the support plus the base point, so the LP is
solved on that subspace; the equivalence with the full LP is covered by the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp as lpmod
from .certs import Certificate, make_certificate
from .spaces import (FiniteMetricSpace, as_indices, floyd_warshall,
                     require_metric, sup_distance, validate_metric)


class AdmissionError(ValueError):
    """A perturbed metric lies outside the admissible radius."""

    def __init__(self, measured, radius):
        super().__init__(f"perturbation {measured:.6g} exceeds admissible radius {radius:.6g}")
        self.measured = measured
        self.radius = radius


class MetricExtensionError(RuntimeError):
    """A metric extension exceeded its certified distortion bound or is not a
    metric."""

    def __init__(self, certificate):
        super().__init__(str(certificate))
        self.certificate = certificate


def lipschitz_constant(values, d: np.ndarray) -> float:
    """Best Lipschitz constant of values w.r.t. d; inf when a zero-distance
    pair carries different values (pseudometrics only).

    Only pairs with an end in the support S of values are swept, as the rows
    S x all and the columns (all - S) x S: a pair with both ends off S has
    df = 0, so it can neither raise the maximum, which is >= 0, nor be
    degenerate.  The result is the all-pairs one for any d.
    """
    f = np.asarray(values, dtype=float)
    d = np.asarray(d, dtype=float)
    s = np.flatnonzero(f)
    off = np.flatnonzero(f == 0.0)
    best, degenerate = 0.0, False
    for df, ds in ((np.abs(f[s, None] - f[None, :]), d[s]),
                   (np.abs(f[off, None] - f[None, s]), d[np.ix_(off, s)])):
        pos = ds > 0.0
        best = np.maximum(best, (df[pos] / ds[pos]).max(initial=0.0))
        # df is 0 or NaN on the diagonal, so a diagonal pair is never degenerate
        degenerate |= bool(((~pos) & (df > 0.0)).any())
    return float("inf") if degenerate else float(best)


# ---------------------------------------------------------------------------
# free-space norm


def _dual_norm(weights: np.ndarray, d_sub: np.ndarray) -> float:
    """LP value for weights over points 0..q-1 with the base at index q.

    d_sub is the (q+1) x (q+1) metric on support + base, base last.  The rows
    are f_i - f_j <= d(i, j) for i != j in row-major order, then
    f_i <= d(i, base) and -f_i <= d(base, i) for each i.
    """
    q = len(weights)
    if q == 0:
        return 0.0
    eye = np.eye(q)
    i, j = np.nonzero(~np.eye(q, dtype=bool))
    prog = lpmod.LinearProgram(
        objective=np.asarray(weights, dtype=float),
        rows=np.vstack([eye[i] - eye[j], np.stack([eye, -eye], axis=1).reshape(2 * q, q)]),
        rhs=np.concatenate([d_sub[i, j], np.stack([d_sub[:q, q], d_sub[q, :q]], axis=1).ravel()]),
    )
    sol = lpmod.solve(prog)
    if sol.status != "optimal":
        raise lpmod.LpError(f"norm LP ended with status {sol.status}")
    allowed = lpmod.SOLVER_TOL * max(1.0, float(np.abs(prog.rhs).max()))
    if sol.max_violation > allowed:
        raise lpmod.LpError(f"norm LP residual {sol.max_violation:.3g} exceeds {allowed:.3g}")
    return max(sol.value, 0.0)


def _triage(c: np.ndarray, d: np.ndarray, base: int) -> tuple[np.ndarray, np.ndarray]:
    """Shortcut norms of the rows of c, and a mask of the rows that need the LP.

    Zeroes the base column of c in place.  Rows answered here, by the same
    IEEE expressions as the scalar identities:
      zero rows: 0;
      single-point rows: |c_i| d(i, base), since ||w delta_i|| = |w| d(i, base);
      exact molecules +-(delta_i - delta_j), i < j: d(i, j).
    """
    c[:, base] = 0.0
    nz = c != 0.0
    count = nz.sum(axis=1)
    value = np.zeros(len(c))
    needs_lp = count > 1
    one = np.flatnonzero(count == 1)
    i = nz[one].argmax(axis=1)
    value[one] = np.abs(c[one, i]) * d[i, base]
    two = np.flatnonzero(count == 2)
    i = nz[two].argmax(axis=1)
    j = c.shape[1] - 1 - nz[two, ::-1].argmax(axis=1)
    ci, cj = c[two, i], c[two, j]
    unit = ((ci == 1.0) & (cj == -1.0)) | ((ci == -1.0) & (cj == 1.0))
    value[two[unit]] = d[i[unit], j[unit]]
    needs_lp[two[unit]] = False
    return value, needs_lp


def _lp_norm(c: np.ndarray, d: np.ndarray, base: int, memo: dict) -> float:
    """LP norm of a weight row whose base entry is zero, memoised in memo.

    The key is the exact bytes of the support and of its weights; with d fixed
    per memo, equal keys pose the same LP, which the deterministic simplex
    answers identically.
    """
    support = np.flatnonzero(c)
    weights = c[support]
    key = (support.tobytes(), weights.tobytes())
    value = memo.get(key)
    if value is None:
        sub = np.append(support, base)
        value = memo[key] = _dual_norm(weights, d[np.ix_(sub, sub)])
    return value


def _row_norms(c: np.ndarray, d: np.ndarray, base: int, memo: dict) -> np.ndarray:
    """Norms of the weight rows c over the points of d with the given base.

    The base column never matters and is zeroed in place.  `_triage` answers
    zero, single-point and exact two-point rows; every other row solves the
    norm LP once per distinct (support, weights) in memo.
    """
    value, needs_lp = _triage(c, d, base)
    for r in np.flatnonzero(needs_lp):
        value[r] = _lp_norm(c[r], d, base, memo)
    return value


def _pair_blocks(n: int):
    """All pairs x < y as (x, y) index arrays in row-major order, one x per
    block, so the row differences of a block never outgrow the weight
    matrix."""
    for x in range(n - 1):
        yield np.full(n - 1 - x, x), np.arange(x + 1, n)


# Relative slack an upper bound on a molecule ratio must clear before its pair
# is pruned.  It dwarfs the rounding in the bound and in the LP optimum, so a
# pruned pair lies strictly below the maximum.
PRUNE_MARGIN = 1e-6


def _ratio_upper_bounds(c: np.ndarray, d: np.ndarray, base: int,
                        d_t: np.ndarray) -> np.ndarray:
    """Upper bounds on LP-norm / d_t for rows c with zero base entries.

    For f with f(base) = 0 and Lipschitz constant 1 and any point p,
      sum_i c_i f(i) = sum_i c_i (f(i) - f(p)) + (sum_i c_i) f(p)
                     <= sum_i |c_i| d(i, p) + |sum_i c_i| d(p, base),
    so the minimum over p bounds the norm.  The LP may accept potentials that
    break each constraint by its residual limit; that adds at most twice the
    limit times ||c||_1.  PRUNE_MARGIN covers the rounding of all of it.
    """
    abs_c = np.abs(c)
    star = abs_c @ d + np.abs(c.sum(axis=1))[:, None] * d[base][None, :]
    residual = 2.0 * lpmod.SOLVER_TOL * max(1.0, float(d.max())) * abs_c.sum(axis=1)
    return (star.min(axis=1) + residual) * (1.0 + PRUNE_MARGIN) / d_t


# ---------------------------------------------------------------------------
# McShane extension


def _mcshane_values(d: np.ndarray, idx, f: np.ndarray, lip: float) -> np.ndarray:
    """g(x) = min_a f(a) + lip d(x, a) over the points idx; g = f on idx."""
    g = (f[None, :] + lip * d[:, idx]).min(axis=1)
    g[idx] = f
    return g


# ---------------------------------------------------------------------------
# weight operators


@dataclass(frozen=True)
class WeightOperator:
    """Linear map from functions on a subset A to functions on all points,
    f -> sum_i f(a_i) w_i.  Partition-type operators have nonnegative rows
    summing to one."""

    space: FiniteMetricSpace
    domain: tuple[int, ...]
    matrix: np.ndarray
    partition: bool = False

    def __post_init__(self):
        dom = tuple(int(i) for i in self.domain)
        object.__setattr__(self, "domain", dom)
        w = np.array(self.matrix, dtype=float)
        if w.shape != (self.space.n, len(dom)):
            raise ValueError(f"weight matrix must be {self.space.n} x {len(dom)}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if self.partition:
            if w.min() < -1e-12:
                raise ValueError("partition weights must be nonnegative")
            sums = w.sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-9:
                raise ValueError("partition weights must sum to one at every point")
        w.setflags(write=False)
        object.__setattr__(self, "matrix", w)

    @property
    def base_position(self) -> int:
        b = self.space.base_index
        if b not in self.domain:
            raise ValueError("base point missing from the operator domain")
        return self.domain.index(b)

    def apply(self, f_values) -> np.ndarray:
        f = np.asarray(f_values, dtype=float)
        if f.shape != (len(self.domain),):
            raise ValueError("need one value per domain point")
        return self.matrix @ f


def _metrics(op: WeightOperator, d) -> tuple[np.ndarray, np.ndarray, int]:
    """d as a float matrix over all points, its restriction to the operator
    domain, and the base position in the domain."""
    d = np.asarray(d, dtype=float)
    n = op.space.n
    if d.shape != (n, n):
        raise ValueError(f"metric must be {n} x {n}, got {d.shape}")
    return d, d[np.ix_(op.domain, op.domain)], op.base_position


def molecule_norm_matrix(op: WeightOperator, d: np.ndarray) -> np.ndarray:
    """Matrix of free-space norms of the row differences of op over (A, d|A).

    Entry (x, y) is the norm of sum_i (w_i(x) - w_i(y)) delta_{a_i}, the exact
    sup over the unit ball of Lip0(A, d|A) of |op(f)(x) - op(f)(y)|, for the
    n x n metric d on all points.

    The row differences are formed a block of pairs at a time and passed to
    `_row_norms`, which answers zero, single-point and exact two-point
    molecules with numpy and solves the norm LP once per distinct (support,
    weights) in this call.
    """
    _, d_a, base = _metrics(op, d)
    n = op.space.n
    w = op.matrix
    out = np.zeros((n, n))
    memo: dict = {}
    for x, y in _pair_blocks(n):
        value = _row_norms(w[x] - w[y], d_a, base, memo)
        out[x, y] = value
        out[y, x] = value
    return out


def _pruned_ratios(w: np.ndarray, d_a: np.ndarray, base: int,
                   d_t: np.ndarray) -> np.ndarray:
    """Ratios norm(x, y) / d_t(x, y) over the pairs x < y of the weight rows w
    in row-major order: exact wherever they can reach the maximum, -inf where
    a bound proves they cannot."""
    n = len(w)
    ratios = np.empty(n * (n - 1) // 2)
    lp_parts = []
    start = 0
    for x, y in _pair_blocks(n):
        c = w[x] - w[y]
        value, needs_lp = _triage(c, d_a, base)
        ratios[start:start + len(x)] = value / d_t[x, y]
        rows = np.flatnonzero(needs_lp)
        lp_parts.append((rows + start, x[rows], y[rows],
                         _ratio_upper_bounds(c[rows], d_a, base, d_t[x[rows], y[rows]])))
        start += len(x)
    index, lp_x, lp_y, bounds = map(np.concatenate, zip(*lp_parts))
    exact = np.ones(len(ratios), dtype=bool)
    exact[index] = False
    best = float(ratios[exact].max()) if exact.any() else -np.inf
    memo: dict = {}
    for i in np.argsort(-bounds, kind="stable"):
        if bounds[i] < best:
            ratios[index[i]] = -np.inf
            continue
        x, y = lp_x[i], lp_y[i]
        c = w[x] - w[y]
        c[base] = 0.0
        ratios[index[i]] = _lp_norm(c, d_a, base, memo) / d_t[x, y]
        best = max(best, ratios[index[i]])
    return ratios


def operator_norm(op: WeightOperator, d: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Norm of op from Lip0(A, d|A) to Lip0(T, d) via the molecule reduction,
    and its witness: max over pairs x != y of ||row(x) - row(y)||_{F(A)} /
    d(x, y), with the first maximising pair (x < y, row-major).

    Only the maximum is needed: shortcut pairs (see `molecule_norm_matrix`)
    give exact ratios, and the LP pairs are solved in descending order of a
    proven upper bound on their ratio (`_ratio_upper_bounds`), skipping every
    pair whose bound falls below the best exact ratio so far.  A skipped pair
    lies strictly below the maximum, so the value and the witness equal those
    of the exhaustive sweep.
    """
    d, d_a, base = _metrics(op, d)
    n = op.space.n
    if n < 2:
        return 0.0, (0, 0)
    xs, ys = np.triu_indices(n, k=1)
    ratios = _pruned_ratios(op.matrix, d_a, base, d)
    best = int(np.argmax(ratios))
    return float(ratios[best]), (int(xs[best]), int(ys[best]))


# ---------------------------------------------------------------------------
# metric extension with certified sup distortion


@dataclass(frozen=True)
class MetricExtension:
    matrix: np.ndarray
    distortion: float
    certificate: Certificate


def metric_extension_lp(d: np.ndarray, members, rho: np.ndarray) -> MetricExtension:
    """Extend the metric rho from a subset S to all points of (T, d).

    With delta = sup |rho - d| on S x S, the extension d2 is the shortest-path
    closure of the weights rho on S x S and d + delta on every other pair:
      (1) d2 <= d + delta off S x S, because every pair is its own path;
      (2) a path leaving S between s and s' costs at least d(s, s') + 2 delta
          >= rho(s, s') + delta per excursion, so d2 = rho on S x S;
      (3) each run of a path inside S costs at least d - delta and is entered
          or left by an edge of cost d + delta, so d2 >= d off S x S.
    The certificate checks (1) in the claim's own arithmetic, d2 <= w entrywise
    for the matrix w = fl(d + delta) the closure starts from, which needs no
    tolerance since the closure only lowers entries.  It measures the lower
    side, max (d - d2) off S x S, against delta with slack 1e-9; a d2 above w
    or not a metric measures inf.  A failure raises MetricExtensionError.
    `distortion` is sup |d2 - d| off S x S, also recorded in the details.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    s_idx = list(as_indices(members))
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (len(s_idx), len(s_idx)):
        raise ValueError("rho must be a matrix over the subset")
    require_metric(rho, what="subset metric rho")

    on_s = np.ix_(s_idx, s_idx)
    claimed = sup_distance(rho, d[on_s])
    w = d + claimed
    w[on_s] = rho
    d2 = floyd_warshall(w)
    # rho is a metric only up to DEFAULT_TOL, so the closure may undercut it
    d2[on_s] = rho
    np.fill_diagonal(d2, 0.0)

    off = np.ones((n, n), dtype=bool)
    off[on_s] = False
    distortion = float(np.abs(d2 - d)[off].max()) if off.any() else 0.0
    below = float((d - d2)[off].max()) if off.any() else 0.0
    above_w = int(np.count_nonzero(d2[off] > w[off]))
    check = validate_metric(d2)
    cert = make_certificate(
        "metric-extension-distortion", claimed,
        below if check.ok and above_w == 0 else float("inf"), "le", 1e-9,
        inputs={"n": n, "subset": s_idx},
        details={"metric_check": check.summary(), "entries_above_w": above_w,
                 "sup_distortion": distortion},
    )
    if not cert.passed:
        raise MetricExtensionError(cert)
    return MetricExtension(d2, distortion, cert)
