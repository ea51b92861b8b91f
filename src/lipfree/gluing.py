"""Gluing a bounded extension operator near a low-dimensional core to the
identity far from it.

Starting from a space T with metric d, a distinguished subset K of declared
dimension dim K containing the base point, and an exhaustion C_1 subset C_2
subset ... of T minus K by distance thresholds, the pipeline:

  1. builds a net A inside K and a cover of K of order at most dim K,
  2. dilates the cover into T by the largest radius that preserves the order
     bound and keeps foreign net points out, giving a collar V around K,
  3. runs the extension-bundle construction on (V, d) to get an inner metric,
  4. extends the inner metric to all of T as a shortest-path closure whose
     sup distortion is certified,
  5. adds c min(d, eta)/eta with c = eps/(14 (dim K + 1)), producing the glue
     metric, which detects proximity to K at a known scale.

For any probe metric e uniformly within eps/(480 (dim K + 1)) of the glue
metric, a cutoff rho built from e interpolates between the inner extension
operator (rebuilt for e) near K and the identity on C_m, and the glued
operator H(f) = (1 - rho) E(f on A) + rho f is certified to fix functions on
C_n and A and to have norm at most (150 dim K + 152)(Gamma + 1) with
Gamma = 88 (dim K + 1)(2 dim K + 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certs import Certificate, make_certificate, all_passed
from .covers import NetAndCover, build_net_cover, verify_net_cover
from .extension import (BundleError, ExtensionBundle, PerturbedBundle,
                        build_extension_bundle, build_perturbed_operator,
                        perturbed_norm_bound)
from .freenorm import (AdmissionError, WeightOperator, lipschitz_constant,
                       metric_extension_lp, operator_norm)
from .spaces import (DEFAULT_TOL, BoundedMetric, FiniteMetricSpace, as_indices,
                     bad_indices, dist_to_set_all, restrict_space, set_distance,
                     sup_distance, truncate, validate_metric)


class GluingError(RuntimeError):
    """The gluing pipeline could not be assembled from the given data."""


# Number of random McShane functions certify_gluing drives through the glued
# operator.
FAMILY_SIZE = 6


def glued_norm_bound(dim_k: int) -> float:
    """Norm bound of the glued operator: (150 dimK + 152)(Gamma + 1), with
    Gamma = 88 (dimK+1)(2 dimK+3) the norm bound of the inner operator."""
    return (150.0 * dim_k + 152.0) * (perturbed_norm_bound(dim_k) + 1.0)


def probe_radius(eps: float, dim_k: int) -> float:
    """Admissible uniform distance of probe metrics from the glue metric."""
    return eps / (480.0 * (dim_k + 1))


@dataclass(frozen=True)
class GluingConfig:
    space: FiniteMetricSpace
    k: tuple[int, ...]
    dim_k: int
    thresholds: tuple[float, ...]

    def __post_init__(self):
        k = as_indices(self.k, self.space)
        object.__setattr__(self, "k", k)
        if not k:
            raise ValueError("core subset must be nonempty")
        if self.space.base_index not in k:
            raise ValueError("base point must belong to the core subset")
        if bad_indices([self.dim_k]):
            raise ValueError(f"dim_k must be an integer, got {self.dim_k!r}")
        object.__setattr__(self, "dim_k", int(self.dim_k))
        if self.dim_k < 0:
            raise ValueError("dim_k must be nonnegative")
        ts = tuple(float(t) for t in self.thresholds)
        object.__setattr__(self, "thresholds", ts)
        if not ts or any(t <= 0 for t in ts):
            raise ValueError("thresholds must be positive")
        if any(ts[i] <= ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError("thresholds must be strictly decreasing")


def build_exhaustion(cfg: GluingConfig) -> tuple[tuple[int, ...], ...]:
    """Increasing sets C_n = {x : d(x, K) >= t_n}, disjoint from K, whose
    union is all of T minus K; uncovered remainders are reported."""
    d = cfg.space.dist
    dk = dist_to_set_all(d, cfg.k)
    levels = tuple(tuple(int(i) for i in np.flatnonzero(dk >= t)) for t in cfg.thresholds)
    in_k = np.zeros(cfg.space.n, dtype=bool)
    in_k[list(cfg.k)] = True
    uncovered = np.flatnonzero(~in_k & (dk < cfg.thresholds[-1]))
    if uncovered.size:
        raise GluingError(
            f"threshold {cfg.thresholds[-1]} leaves point {int(uncovered[0])} "
            f"(distance {dk[uncovered[0]]:.6g} from the core) uncovered")
    return levels


_SANDWICH = {
    "reference": (1.0 / 32.0, 1.0 / 14.0),
    "probe": (1.0 / 30.0, 1.0 / 15.0),
}


def sandwich_sets(metric: np.ndarray, k, eps: float, dim_k: int,
                  variant: str = "reference") -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sublevel sets of the distance to the core at the two calibrated scales.

    The lower set is closed (<=), the upper set open (<); "reference" uses the
    1/32 and 1/14 fractions of eps/(dimK+1), "probe" the 1/30 and 1/15 ones.
    """
    if variant not in _SANDWICH:
        raise ValueError(f"variant must be one of {sorted(_SANDWICH)}")
    lo_frac, hi_frac = _SANDWICH[variant]
    dk = dist_to_set_all(np.asarray(metric, dtype=float), as_indices(k))
    denom = dim_k + 1
    lo = tuple(int(i) for i in np.flatnonzero(dk <= lo_frac * eps / denom))
    hi = tuple(int(i) for i in np.flatnonzero(dk < hi_frac * eps / denom))
    return lo, hi


def cutoff(e: np.ndarray, w1, eps: float, dim_k: int) -> np.ndarray:
    """rho(x) = min(1, (30 (dimK+1)/eps) e(x, W1)); 1-Lipschitz up to scale."""
    w1 = as_indices(w1)
    if not w1:
        raise ValueError("cutoff needs a nonempty inner set")
    scale = 30.0 * (dim_k + 1) / eps
    return np.minimum(1.0, scale * dist_to_set_all(np.asarray(e, dtype=float), w1))


@dataclass(frozen=True)
class GluingBundle:
    """Glue metric of level n, what the probes read, and the certificates; the extended
    inner metric is `metric_extension_lp(cfg.space.dist, v_indices, v_bundle.adapted).matrix`."""

    cfg: GluingConfig
    n: int
    m: int
    eps: float
    net: tuple[int, ...]                  # net inside the core, T indices
    exhaustion: tuple[tuple[int, ...], ...]
    v_indices: tuple[int, ...]            # the collar V around the core
    v_bundle: ExtensionBundle
    metric: np.ndarray                    # extended + c min(d, eta) / eta, c = eps/(14 (dimK+1))
    excess: float                         # the triangle excess validating `metric` measured
    core_lo: tuple[int, ...]              # reference sandwich sets for `metric`
    core_hi: tuple[int, ...]
    certificates: tuple[Certificate, ...]

    @property
    def passed(self) -> bool:
        return all_passed(self.certificates)


def build_gluing_bundle(cfg: GluingConfig, n: int, eps: float) -> GluingBundle:
    """Assemble the glue metric and its certificates for exhaustion level n."""
    space = cfg.space
    d = space.dist
    exhaustion = build_exhaustion(cfg)
    if not 1 <= n <= len(exhaustion):
        raise ValueError(f"n must index the exhaustion, got {n}")
    dk_cn = set_distance(d, cfg.k, exhaustion[n - 1])
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if eps > dk_cn:
        raise ValueError(f"eps must not exceed d(core, C_n) = {dk_cn:.6g}")

    k_space = restrict_space(space, cfg.k, base_point=space.base_index)
    if k_space.nominal_dim is not None and k_space.nominal_dim != cfg.dim_k:
        raise GluingError(
            f"declared dim_k={cfg.dim_k} but the core varies along "
            f"{k_space.nominal_dim} axes")
    knc = build_net_cover(k_space, eps)
    k_list = list(cfg.k)
    net = tuple(k_list[i] for i in knc.net)
    u_sets = tuple(tuple(k_list[i] for i in s) for s in knc.sets)

    # Dilate each U_i by the largest radius t that keeps the order bound and
    # net exclusivity, clipped to the eps/2 ball around its net point: column
    # i of `member` is the dilated set, so a row sum is how many sets cover a
    # point, and member[net] off the diagonal puts a foreign net point in a set.
    du = np.stack([d[:, list(s)].min(axis=1) for s in u_sets], axis=1)
    ball = d[:, list(net)] < eps / 2.0
    for t in _distinct(du)[::-1]:
        member = (du <= t) & ball
        foreign = member[list(net)]
        np.fill_diagonal(foreign, False)
        if member.sum(axis=1).max() <= cfg.dim_k + 1 and not foreign.any():
            break
    else:
        raise GluingError("no dilation radius preserves the order bound")

    dk = dist_to_set_all(d, cfg.k)
    cut = min(float(np.min(dk[~member.any(axis=1)], initial=np.inf)), eps / 2.0)
    attained = dk[(0.0 < dk) & (dk < cut)]
    if attained.size:
        eta = float(attained.max())
    elif np.isfinite(cut) and cut > 0:
        eta = cut / 2.0
    else:
        eta = eps / 4.0
    in_v = dk <= eta
    v_indices = tuple(int(i) for i in np.flatnonzero(in_v))

    v_space = restrict_space(space, v_indices, base_point=space.base_index)
    nc_v = NetAndCover(
        v_space,
        tuple(np.searchsorted(v_indices, net).tolist()),
        tuple(tuple(int(i) for i in np.flatnonzero(col)) for col in member[in_v].T),
        float(eps),
        cfg.dim_k,
    )
    nc_cert = verify_net_cover(nc_v)
    if not nc_cert.passed:
        raise GluingError(f"collar cover failed verification: {nc_cert}")
    v_bundle = build_extension_bundle(nc_v)

    ext = metric_extension_lp(d, v_indices, v_bundle.adapted)
    extended = ext.matrix
    # fl(min(d, eta) / eta) <= 1, so every added entry is at most c exactly
    c = eps / (14.0 * (cfg.dim_k + 1))
    glue = extended + c * (truncate(d, eta) / eta)
    report = validate_metric(glue)
    if not report.ok:
        raise GluingError(f"glue metric invalid: {report.summary()}")

    inputs = {"space": space.key, "n": n, "eps": eps, "dim_k": cfg.dim_k}
    certs = [nc_cert, ext.certificate]
    certs.append(make_certificate(
        "glue-extension-sup", 4.0 * eps, sup_distance(extended, d), "lt", DEFAULT_TOL,
        inputs=inputs))
    # the claim sup |glue - extended| <= c, in its own arithmetic
    outside = np.count_nonzero((glue < extended) | (glue > extended + c))
    certs.append(make_certificate(
        "glue-truncation-scale", 0.0, float(outside), "le", 0.0, inputs=inputs,
        details={"scale": c, "sup_distance": sup_distance(glue, extended)}))
    certs.append(make_certificate(
        "glue-sup-distance", 5.0 * eps, sup_distance(glue, d), "lt", DEFAULT_TOL,
        inputs=inputs))

    core_lo, core_hi = sandwich_sets(glue, cfg.k, eps, cfg.dim_k, "reference")
    rest = np.setdiff1d(np.arange(space.n), core_lo, assume_unique=True)
    m_found = next((m for m in range(n, len(exhaustion) + 1)
                    if np.isin(rest, exhaustion[m - 1]).all()), None)
    if m_found is None:
        raise GluingError("no exhaustion level joins the inner sandwich set to cover T")

    bundle = GluingBundle(
        cfg=cfg, n=int(n), m=int(m_found), eps=float(eps), net=net,
        exhaustion=exhaustion, v_indices=v_indices, v_bundle=v_bundle,
        metric=glue, excess=report.excess, core_lo=core_lo, core_hi=core_hi,
        certificates=tuple(certs),
    )
    failed = [c for c in certs if not c.passed]
    if failed:
        raise GluingError(f"bundle certificate failed: {failed[0]}")
    return bundle


def _distinct(values) -> np.ndarray:
    """The distinct entries of an array, ascending: `np.unique` by a sort and
    a mask, so that numpy.ma, which np.unique imports, is never loaded."""
    values = np.sort(values, axis=None)
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _union(a, b) -> np.ndarray:
    """Sorted union of two index sequences, as indices even when both are empty."""
    return _distinct(np.concatenate([np.asarray(a, dtype=np.intp).ravel(),
                                     np.asarray(b, dtype=np.intp).ravel()]))


def glue_domain(bundle: GluingBundle) -> tuple[int, ...]:
    """Domain of the glued operator: C_m together with the net."""
    return tuple(_union(bundle.exhaustion[bundle.m - 1], bundle.net).tolist())


def build_h_operator(bundle: GluingBundle, inner: PerturbedBundle,
                     rho: np.ndarray) -> WeightOperator:
    """Glued operator rows: (1 - rho(x)) inner-weights + rho(x) identity.

    Requires the cutoff supports to be exact: rho saturates to 1 outside the
    collar and vanishes outside C_m, otherwise rows are undefined.
    """
    space = bundle.cfg.space
    dom = glue_domain(bundle)
    points = np.arange(space.n)
    v = np.asarray(bundle.v_indices)
    w = 1.0 - rho
    unsaturated = (w > 0.0) & ~np.isin(points, v)
    stray = (rho > 0.0) & ~np.isin(points, bundle.exhaustion[bundle.m - 1])
    # the lowest faulty point is named, its collar fault before its C_m one
    bad = np.flatnonzero(unsaturated | stray)
    if bad.size:
        x = bad[0]
        if unsaturated[x]:
            raise GluingError(f"cutoff not saturated at point {x} outside the collar")
        raise GluingError(f"cutoff positive at point {x} outside C_m")
    rows = np.zeros((space.n, len(dom)))
    inner_rows = w[v] > 0.0
    xs = v[inner_rows]
    rows[np.ix_(xs, np.searchsorted(dom, bundle.net))] += w[xs, None] * inner.pou.matrix[inner_rows]
    xs = np.flatnonzero(rho > 0.0)
    rows[xs, np.searchsorted(dom, xs)] += rho[xs]
    return WeightOperator(space, dom, rows, partition=True)


def _mcshane_values(d: np.ndarray, idx, f: np.ndarray, lip: float) -> np.ndarray:
    """g(x) = min_a f(a) + lip d(x, a) over the points idx; g = f on idx."""
    g = (f[None, :] + lip * d[:, idx]).min(axis=1)
    g[idx] = f
    return g


@dataclass(frozen=True)
class GluingCertificate:
    h_matrix: np.ndarray | None
    measured_norm: float
    certificates: tuple[Certificate, ...]

    @property
    def passed(self) -> bool:
        return all_passed(self.certificates)


def certify_gluing(bundle: GluingBundle, e, rng=None) -> GluingCertificate:
    """Certify the glued operator for one probe metric.

    Never raises on a failed bound; the returned certificate carries every
    failed clause.  The checks: admission radius, sandwich inclusion chain,
    cutoff supports and Lipschitz estimate, exact restriction identity, the
    operator norm against (150 dimK + 152)(Gamma + 1), and a random spanning
    family driven through the operator as a guard on the identity part.
    e is a matrix or a `BoundedMetric`, whose bound the collar restriction
    inherits (`restrict_space`'s lemma) and every certificate records as
    `excess_bound`; for a bare matrix it is None, and the collar is swept.
    """
    space = bundle.cfg.space
    excess = None
    if isinstance(e, BoundedMetric):
        e, excess = e
    e = np.asarray(e, dtype=float)
    eps, dim_k = bundle.eps, bundle.cfg.dim_k
    bound = glued_norm_bound(dim_k)
    inputs = {"space": space.key, "n": bundle.n, "m": bundle.m, "eps": eps,
              "excess_bound": excess}
    certs: list[Certificate] = []

    def finish(h_matrix=None, measured=float("inf")):
        return GluingCertificate(h_matrix=h_matrix, measured_norm=measured,
                                 certificates=tuple(certs))

    radius = probe_radius(eps, dim_k)
    measured_dist = sup_distance(e, bundle.metric)
    certs.append(make_certificate(
        "probe-admission", radius, measured_dist, "lt", 0.0, inputs=inputs,
        details={"excess_bound": excess}))
    if not certs[-1].passed:
        return finish()

    w1, w2 = sandwich_sets(e, bundle.cfg.k, eps, dim_k, "probe")
    chain = [
        ("inclusion-lo-probe", bundle.core_lo, w1),
        ("inclusion-probe-pair", w1, w2),
        ("inclusion-probe-hi", w2, bundle.core_hi),
        ("inclusion-hi-collar", bundle.core_hi, bundle.v_indices),
    ]
    for kind, small, big in chain:
        missing = np.setdiff1d(small, big, assume_unique=True)
        certs.append(make_certificate(
            kind, 0.0, float(len(missing)), "le", 0.0,
            witnesses=missing[:4], inputs=inputs))
    if not all(c.passed for c in certs):
        return finish()

    v_list = list(bundle.v_indices)
    try:
        inner = build_perturbed_operator(
            bundle.v_bundle, BoundedMetric(e[np.ix_(v_list, v_list)], excess))
    except (AdmissionError, BundleError) as err:
        certs.append(make_certificate(
            "inner-operator", 0.0, 1.0, "le", 0.0,
            details={"error": str(err)}, inputs=inputs))
        return finish()
    certs.extend(inner.certificates)

    rho = cutoff(e, w1, eps, dim_k)
    cn = list(bundle.exhaustion[bundle.n - 1])
    points = np.arange(space.n)
    not_cm = ~np.isin(points, bundle.exhaustion[bundle.m - 1])
    not_v = ~np.isin(points, bundle.v_indices)
    certs.append(make_certificate(
        "cutoff-vanishes-inside", 0.0,
        float(np.max(rho[list(w1)], initial=0.0)), "le", 0.0, inputs=inputs))
    certs.append(make_certificate(
        "cutoff-vanishes-off-cm", 0.0,
        float(np.max(rho[not_cm], initial=0.0)), "le", 0.0, inputs=inputs))
    certs.append(make_certificate(
        "cutoff-saturates-outside-collar", 1.0,
        float(np.min(rho[not_v], initial=1.0)), "ge", 0.0, inputs=inputs))
    certs.append(make_certificate(
        "cutoff-saturates-on-cn", 1.0,
        float(np.min(rho[cn], initial=1.0)), "ge", 0.0, inputs=inputs))
    certs.append(make_certificate(
        "cutoff-lipschitz", 30.0 * (dim_k + 1) / eps,
        lipschitz_constant(rho, e), "le", DEFAULT_TOL, inputs=inputs))
    if not all(c.passed for c in certs):
        return finish()

    h_op = build_h_operator(bundle, inner, rho)
    dom = list(h_op.domain)
    fixed = _union(cn, bundle.net)
    fixed_pos = np.searchsorted(dom, fixed)
    eye_rows = np.zeros((len(fixed), len(dom)))
    eye_rows[np.arange(len(fixed)), fixed_pos] = 1.0
    identity_gap = float(np.abs(h_op.matrix[fixed] - eye_rows).max(initial=0.0))
    certs.append(make_certificate(
        "restriction-identity", 0.0, identity_gap, "le", 0.0, inputs=inputs))

    norm, wit = operator_norm(h_op, e)
    certs.append(make_certificate(
        "glued-operator-norm", bound, norm, "le", DEFAULT_TOL,
        witnesses=[wit], details={"headroom": bound - norm}, inputs=inputs))

    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng or 0)
    base_pos = np.searchsorted(dom, space.base_index)
    e_dom = e[np.ix_(dom, dom)]
    family_gap = 0.0
    family_lip = 0.0
    base_gap = 0.0
    for _ in range(FAMILY_SIZE):
        size = max(2, int(gen.integers(2, max(3, len(dom) // 2 + 1))))
        seed_pos = sorted(gen.choice(len(dom), size=min(size, len(dom)), replace=False))
        seed_vals = gen.choice([-1.0, 1.0], size=len(seed_pos))
        lip = lipschitz_constant(seed_vals, e_dom[np.ix_(seed_pos, seed_pos)])
        if not np.isfinite(lip) or lip == 0.0:
            continue
        f = _mcshane_values(e_dom, seed_pos, seed_vals, lip)
        f = (f - f[base_pos]) / lip
        hf = h_op.apply(f)
        # Lip(f) is one only up to rounding, so the ratio is what ||H|| bounds
        family_lip = max(family_lip, lipschitz_constant(hf, e) / lipschitz_constant(f, e_dom))
        family_gap = max(family_gap, float(np.abs(hf[fixed] - f[fixed_pos]).max()))
        base_gap = max(base_gap, abs(float(hf[space.base_index])))
    certs.append(make_certificate(
        "family-restriction-identity", 0.0, family_gap, "le", 0.0, inputs=inputs))
    certs.append(make_certificate(
        "family-lipschitz", norm, family_lip, "le", DEFAULT_TOL * (1 + norm),
        details={"bound": bound}, inputs=inputs))
    certs.append(make_certificate(
        "glued-vanishes-at-base", 0.0, base_gap, "le", 0.0,
        details={"dual_operator": "finite rank, automatic"}, inputs=inputs))

    return finish(h_matrix=h_op.matrix, measured=float(norm))
