"""Partition-of-unity extension operators with certified norm bounds.

Given a net A = {a_0, ..., a_n} and a cover (U_i) satisfying the net-cover
clauses for (d, eps) with order at most r, the bundle assembles:

  * the partition of unity  lam_i(x) = d(x, U_i^c) / sum_j d(x, U_j^c),
  * the induced pseudometric  (x, y) -> || sum_i (lam_i(x)-lam_i(y)) delta_{a_i} ||,
    computed exactly per pair, by a norm identity or the free-norm LP,
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
from .covers import NetAndCover, verify_net_cover
from .freenorm import (AdmissionError, WeightOperator, lipschitz_constant,
                       molecule_norm_matrix, operator_norm)
from .spaces import (DEFAULT_TOL, FiniteMetricSpace, diameter,
                     quotient_pseudometric, sup_distance, validate_metric,
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
    constant max(diam, 1)."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    fallback = max(diameter(d), 1.0)
    cols = []
    for s in sets:
        comp = sorted(set(range(n)) - set(s))
        cols.append(d[:, comp].min(axis=1) if comp else np.full(n, fallback))
    return np.stack(cols, axis=1)


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
    """Net, cover, partition weights, the adapted metric, and its certificates."""

    nc: NetAndCover
    pou: WeightOperator          # the weights, read as the operator under `adapted`
    induced: np.ndarray          # pseudometric pulled back through the weights
    adapted: np.ndarray          # induced + quotient pseudometric of the net
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
    adapted = induced + quotient_pseudometric(d, a)
    m_report = validate_metric(adapted)
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

    if len(a) >= 2:
        # the first row-major maximiser of the molecule ratios over x < y
        xs, ys = np.triu_indices(space.n, k=1)
        ratios = induced[xs, ys] / adapted[xs, ys]
        best = int(np.argmax(ratios))
        enorm, wit = float(ratios[best]), (int(xs[best]), int(ys[best]))
        certs.append(make_certificate(
            "extension-operator-norm", 1.0, enorm, "abs_le", 1e-9,
            witnesses=[wit], inputs=inputs))
    else:
        enorm = 0.0
        certs.append(make_certificate(
            "extension-operator-norm", 0.0, 0.0, "abs_le", 0.0,
            details={"note": "single-point net"}, inputs=inputs))

    lips = [lipschitz_constant(pou.matrix[:, i], adapted) for i in range(len(a))]
    certs.append(make_certificate(
        "partition-lipschitz", 3.0 / eps, float(max(lips)), "le", DEFAULT_TOL,
        witnesses=[int(np.argmax(lips))], inputs=inputs))
    certs.append(verify_complement_margin(adapted, nc.sets, eps))

    bundle = ExtensionBundle(
        nc=nc, pou=pou, induced=induced, adapted=adapted,
        enorm=float(enorm), certificates=tuple(certs),
    )
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


def build_perturbed_operator(bundle: ExtensionBundle, e: np.ndarray) -> PerturbedBundle:
    """Extension operator for a metric e within the admissible radius.

    Rejects e outside the radius with the measured distance; otherwise
    certifies the Lipschitz estimate on the weights and the operator norm
    against 88 (r+1) (2r+3).
    """
    e = np.asarray(e, dtype=float)
    nc = bundle.nc
    eps, r = nc.eps, nc.order_bound
    radius = admission_radius(eps, r)
    measured = sup_distance(e, bundle.adapted)
    if measured > radius:
        raise AdmissionError(measured, radius)
    report = validate_metric(e)
    if not report.ok:
        raise BundleError(make_certificate(
            "perturbed-metric", 0.0, 1.0, "le", 0.0,
            details={"violations": report.summary()}))

    a = list(bundle.net)
    mu = partition_of_unity(e, nc.sets, nc.net, space=nc.space)
    inputs = {"space": nc.space.key, "eps": eps, "r": r}
    certs = [make_certificate("perturbation-admission", radius, measured, "le", 0.0,
                              inputs=inputs)]
    lips = [lipschitz_constant(mu.matrix[:, i], e) for i in range(len(a))]
    certs.append(make_certificate(
        "perturbed-partition-lipschitz", 4.0 * (2 * r + 3) / eps, float(max(lips)),
        "le", DEFAULT_TOL, witnesses=[int(np.argmax(lips))], inputs=inputs))
    bound = perturbed_norm_bound(r)
    if len(a) >= 2:
        gnorm, wit = operator_norm(mu, e)
        certs.append(make_certificate(
            "perturbed-operator-norm", bound, gnorm, "le", DEFAULT_TOL,
            witnesses=[wit], details={"headroom": bound - gnorm}, inputs=inputs))
    else:
        gnorm = 0.0
        certs.append(make_certificate(
            "perturbed-operator-norm", bound, 0.0, "le", 0.0,
            details={"note": "single-point net"}, inputs=inputs))
    return PerturbedBundle(pou=mu, gnorm=float(gnorm), certificates=tuple(certs))
