"""Partition-of-unity extension operators with certified norm bounds.

Given a net A = {a_0, ..., a_n} and a cover (U_i) satisfying the net-cover
clauses for (d, eps) with order at most r, the bundle assembles:

  * the partition of unity  lam_i(x) = d(x, U_i^c) / sum_j d(x, U_j^c),
  * the induced pseudometric  (x, y) -> || sum_i (lam_i(x)-lam_i(y)) delta_{a_i} ||,
    computed exactly per pair, by a transport closed form or the free-norm LP,
  * its sum with the quotient pseudometric collapsing A, the adapted metric,
    which agrees with d on A x A exactly, stays uniformly within 4 eps of d,
    and makes f -> sum f(a_i) lam_i an extension operator of norm exactly one.

For any metric e within eps/(12(r+1)) of the adapted metric, the same recipe
run on e yields an extension operator whose norm is certified against the
bound 88 (r+1) (2r+3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certs import Certificate, make_certificate, all_passed
from .covers import NetAndCover, flatten_sets, verify_net_cover
from .freenorm import AdmissionError, WeightOperator, ClassPairs, molecule_norm_matrix
from .spaces import (DEFAULT_TOL, BoundedMetric, FiniteMetricSpace, diameter,
                     quotient_pseudometric, row_spans, sup_distance, validate_metric,
                     validate_pseudometric)


class BundleError(RuntimeError):
    """A certified invariant failed while assembling a bundle."""

    def __init__(self, certificate):
        super().__init__(str(certificate))
        self.certificate = certificate


def admission_radius(eps: float, r: int) -> float:
    """Perturbation radius under which the bounded extension operator survives."""
    return eps / (12.0 * (r + 1))


def perturbed_norm_bound(r: int) -> float:
    return 88.0 * (r + 1) * (2 * r + 3)


def complement_distances(d: np.ndarray, sets) -> np.ndarray:
    """Column i holds d(x, U_i^c); an empty complement contributes the
    constant max(diam, 1).

    Row x's minimum is attained first at the column first[x], taken by the
    row blocks of `row_spans` (numpy's argmin copies a read-only array
    whole).  When first[x] lies outside U_i, d(x, U_i^c) is that minimum
    exactly.  Only the (set, row) pairs with first[x] in U_i take the masked
    minimum over the complement, in one pass by row blocks; for a metric
    first[x] = x, so those are the members of U_i.
    """
    d = np.asarray(d, dtype=float)
    n, k = d.shape[0], len(sets)
    fallback = max(diameter(d), 1.0)
    first = np.zeros(n, dtype=np.intp)
    for lo, hi in row_spans(n, n):
        first[lo:hi] = d[lo:hi].argmin(axis=1)
    members, starts = flatten_sets(sets)
    inside = np.zeros((k, n), dtype=bool)
    inside[np.repeat(np.arange(k), np.diff(starts)), members] = True
    full = inside.all(axis=1)
    out = np.empty((n, k))
    out[:] = d[np.arange(n), first][:, None]
    out[:, full] = fallback
    owners, rows = np.nonzero(inside[:, first] & ~full[:, None])
    for lo, hi in row_spans(len(rows), n):
        r, i = rows[lo:hi], owners[lo:hi]
        out[r, i] = np.min(d[r], axis=1, where=~inside[i], initial=np.inf)
    return out


def partition_of_unity(d: np.ndarray, sets, domain,
                       space: FiniteMetricSpace) -> WeightOperator:
    """Weights lam_i(x) = d(x, U_i^c) / sum_j d(x, U_j^c) aligned with `domain`.

    Rejects input whose denominator vanishes somewhere (a point covered by no
    set).  Rows at the aligned points are exact indicator vectors whenever the
    membership clause holds.
    """
    dmat = np.asarray(d, dtype=float)
    domain = tuple(int(i) for i in domain)
    if len(domain) != len(sets):
        raise ValueError("need one aligned domain point per cover set")
    numer = complement_distances(dmat, sets)
    denom = numer.sum(axis=1)
    dead = np.flatnonzero(denom <= 0.0)
    if dead.size:
        raise ValueError(f"point {int(dead[0])} is covered by no set")
    weights = numer / denom[:, None]
    return WeightOperator(space, domain, weights, partition=True)


def _adapted_excess_bound(d: np.ndarray, d_excess: float, induced: np.ndarray,
                          induced_excess: float, adapted: np.ndarray, symmetric: bool) -> float:
    """A proven upper bound on the triangle excess `validate_metric` would
    measure on adapted = fl(q + induced), where q =
    `quotient_pseudometric(d, A)` for a nonempty net A, given bounds on the
    excesses it measures on d and on induced; +inf unless d is exactly
    symmetric (symmetric, as d's validation found it) and neither d nor
    induced has a negative entry.

    Lemma.  Let u = 2^-53 and M = max adapted.  Write a(x) = min over z in A
    of d(x, z), exact; p(x, y) = fl(a(x) + a(y)); q = min(d, p) off the
    diagonal and 0 on it; b = induced, so adapted = fl(q + b).  With d
    symmetric and d, b >= 0, every q and b entry lies in [0, adapted], so
    in [0, M], and every triangle excess
        adapted(i, k) - fl(adapted(i, j) + adapted(j, k))
    is at most (d_excess+ + induced_excess+) (1 + 2^-50) + 2^-48 M, where
    x+ = max(x, 0).  Proof, triple by triple; e(X) is the exact excess
    X(i, k) - X(i, j) - X(j, k).
      * From measured to exact: for X = d or b and any triple,
        e(X) <= excess+ / (1 - u) + u (X(i, j) + X(j, k)), since the sweep
        rounds the sum once and the difference once, monotonically.
      * q, for distinct i, j, k, by which term attains q(i, j) and q(j, k).
        (d, d): q(i, k) <= d(i, k), so e(q) <= e(d).  (p, p):
        a(i) + a(k) <= (a(i) + a(j)) + (a(j) + a(k)), so e(q) <= 2u (p(i, j)
        + p(j, k)) / (1 - u) <= 4uM / (1 - u).  (d, p): a is 1-Lipschitz up
        to the excess, a(i) <= d(i, j) + a(j) + e(d) on the triangle
        (i, j, z) for the z that attains a(j), so e(q) <= (1 + u) e(d)+ +
        uM + 2uM / (1 - u).  (p, d) is the mirror case and reads d(k, j) =
        d(j, k), the one use of symmetry.  Every d entry these triangles
        read is q(i, j), q(j, k) or a(j) <= M / (1 - u), so the first step
        turns e(d) into d_excess+ with a term of 2uM / (1 - u).  A triple
        with i = k has e(q) = -q(i, j) - q(j, i) <= 0, one with j = i or
        j = k has e(q) = 0.
      * Sum: e(q + b) = e(q) + e(b) exactly, and rounding each of the three
        entries of fl(q + b) moves the excess by at most 3uM / (1 - u); the
        sweep's rounded sum adds 2uM more.
    The terms add up to (1 + 2u) d_excess+ + (1 + u) induced_excess+ +
    12uM + O(u^2 M).  The bound's factors 1 + 8u and 32uM leave room for
    the O(u^2) terms and for the rounding of its own evaluation.  The
    preconditions cost two O(n^2) passes.
    """
    if not symmetric or d.min() < 0 or induced.min() < 0:
        return np.inf
    excess = max(d_excess, 0.0) + max(induced_excess, 0.0)
    return excess * (1.0 + 2.0 ** -50) + 2.0 ** -48 * float(adapted.max())


def verify_complement_margin(metric: np.ndarray, sets, eps: float) -> Certificate:
    """Certify min_x sum_i metric(x, U_i^c) >= eps/3."""
    sums = complement_distances(metric, sets).sum(axis=1)
    w = int(np.argmin(sums))
    return make_certificate(
        "complement-margin", eps / 3.0, float(sums[w]), "ge", DEFAULT_TOL,
        witnesses=[w], details={"points": int(sums.shape[0])},
    )


@dataclass(frozen=True)
class ExtensionBundle:
    """Net, cover, partition weights, the adapted metric, and its certificates;
    the induced pseudometric is `molecule_norm_matrix(pou, nc.space.dist)`."""

    nc: NetAndCover
    pou: WeightOperator          # the weights, read as the operator under `adapted`
    adapted: np.ndarray          # induced + quotient pseudometric of the net
    excess: float                # the triangle excess validating `adapted` used
    enorm: float
    certificates: tuple[Certificate, ...]

    @property
    def net(self) -> tuple[int, ...]:
        return self.nc.net

    @property
    def passed(self) -> bool:
        return all_passed(self.certificates)


def build_extension_bundle(nc: NetAndCover) -> ExtensionBundle:
    """Assemble and certify the extension bundle of the net and cover nc at
    its scale nc.eps; aborts on any failed clause."""
    space, eps = nc.space, nc.eps
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    d = space.dist
    nc_cert = verify_net_cover(nc)
    if not nc_cert.passed:
        raise BundleError(nc_cert)
    a = list(nc.net)
    r = nc.order_bound

    pou = partition_of_unity(d, nc.sets, nc.net, space=space)
    induced = molecule_norm_matrix(pou, d)       # norms of the weight-row differences
    ps_report = validate_pseudometric(induced)
    if not ps_report.ok:
        raise BundleError(make_certificate(
            "induced-pseudometric", 0.0, 1.0, "le", 0.0,
            details={"violations": ps_report.summary()}))
    adapted = quotient_pseudometric(d, a)
    adapted += induced                           # = induced + quotient, bitwise
    m_report = validate_metric(adapted, excess_bound=_adapted_excess_bound(
        d, space.excess, induced, ps_report.excess, adapted, space.symmetric))
    if not m_report.ok:
        raise BundleError(make_certificate(
            "adapted-metric", 0.0, 1.0, "le", 0.0,
            details={"violations": m_report.summary()}))

    inputs = {"space": space.key, "eps": eps, "r": r, "net": a}
    certs = [nc_cert]
    certs.append(make_certificate(
        "adapted-sup-distance", 4.0 * eps, sup_distance(d, adapted), "lt", DEFAULT_TOL,
        inputs=inputs))
    agree = float(np.abs(adapted[np.ix_(a, a)] - d[np.ix_(a, a)]).max())
    certs.append(make_certificate(
        "adapted-extends-net-metric", 0.0, agree, "le", 0.0, inputs=inputs))

    pairs = ClassPairs(pou, adapted, m_report.symmetric)   # pou's classes against adapted
    if len(a) >= 2:
        enorm, wit = pairs.ratio_max(induced)
        certs.append(make_certificate(
            "extension-operator-norm", 1.0, enorm, "abs_le", 1e-9,
            witnesses=[wit], inputs=inputs))
    else:
        enorm = 0.0
        certs.append(make_certificate(
            "extension-operator-norm", 0.0, 0.0, "abs_le", 0.0,
            details={"note": "single-point net"}, inputs=inputs))

    lips = pairs.lipschitz_constants()
    certs.append(make_certificate(
        "partition-lipschitz", 3.0 / eps, float(lips.max()), "le", DEFAULT_TOL,
        witnesses=[int(np.argmax(lips))], inputs=inputs))
    certs.append(verify_complement_margin(adapted, nc.sets, eps))

    bundle = ExtensionBundle(nc=nc, pou=pou, adapted=adapted, excess=m_report.excess,
                             enorm=float(enorm), certificates=tuple(certs))
    failed = [c for c in certs if not c.passed]
    if failed:
        raise BundleError(failed[0])
    return bundle


@dataclass(frozen=True)
class PerturbedBundle:
    """Extension operator rebuilt for a metric near the adapted one."""

    pou: WeightOperator          # weights rebuilt for the metric, read as the operator
    gnorm: float
    certificates: tuple[Certificate, ...]

    @property
    def passed(self) -> bool:
        return all_passed(self.certificates)


def build_perturbed_operator(bundle: ExtensionBundle, e) -> PerturbedBundle:
    """Extension operator for a metric e within the admissible radius.

    Rejects e outside the radius with the measured distance; otherwise
    certifies the Lipschitz estimate on the weights and the operator norm
    against 88 (r+1) (2r+3).  e is a matrix or a `BoundedMetric`, whose
    bound stands in for the triangle sweep and every certificate records as
    `excess_bound`, readable in the admission's details (None: swept).
    """
    excess = None
    if isinstance(e, BoundedMetric):
        e, excess = e
    e = np.asarray(e, dtype=float)
    nc = bundle.nc
    eps, r = nc.eps, nc.order_bound
    radius = admission_radius(eps, r)
    measured = sup_distance(e, bundle.adapted)
    if measured > radius:
        raise AdmissionError(measured, radius)
    report = validate_metric(e, excess_bound=excess)
    if not report.ok:
        raise BundleError(make_certificate(
            "perturbed-metric", 0.0, 1.0, "le", 0.0,
            details={"violations": report.summary(), "excess_bound": excess}))

    a = list(bundle.net)
    mu = partition_of_unity(e, nc.sets, nc.net, space=nc.space)
    inputs = {"space": nc.space.key, "eps": eps, "r": r, "excess_bound": excess}
    certs = [make_certificate("perturbation-admission", radius, measured, "le", 0.0,
                              inputs=inputs, details={"excess_bound": excess})]
    pairs = ClassPairs(mu, e, report.symmetric)            # mu's classes against e
    lips = pairs.lipschitz_constants()
    certs.append(make_certificate(
        "perturbed-partition-lipschitz", 4.0 * (2 * r + 3) / eps, float(lips.max()),
        "le", DEFAULT_TOL, witnesses=[int(np.argmax(lips))], inputs=inputs))
    bound = perturbed_norm_bound(r)
    if len(a) >= 2:
        gnorm, wit = pairs.operator_norm()
        certs.append(make_certificate(
            "perturbed-operator-norm", bound, gnorm, "le", DEFAULT_TOL,
            witnesses=[wit], details={"headroom": bound - gnorm}, inputs=inputs))
    else:
        gnorm = 0.0
        certs.append(make_certificate(
            "perturbed-operator-norm", bound, 0.0, "le", 0.0,
            details={"note": "single-point net"}, inputs=inputs))
    return PerturbedBundle(pou=mu, gnorm=float(gnorm), certificates=tuple(certs))
