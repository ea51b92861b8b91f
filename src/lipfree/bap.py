"""Almost-extension defect harness for the bounded approximation property.

For an operator T from functions on a finite net M_n into functions on the
whole space, the defect

    sup over the unit ball of Lip0(M_n) of  max_{x in M_n} |T(f)(x) - f(x)|

collapses to max_{x in M_n} of the free-space norm of row(x) - delta_x over
(M_n, d restricted), so the exact value takes at most one small LP per net
point.  A sequence of uniformly bounded operators on finer and finer nets
whose defects decay certifies a BAP-style approximation scheme at finite
scale; a finite run cannot certify the limit, so the decay is reported
against a linear envelope C * eps_n rather than asserted as a limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certs import Certificate, make_certificate, all_passed
from .freenorm import WeightOperator, _metrics, _row_norms, operator_norm
from .spaces import DEFAULT_TOL, is_eps_dense


@dataclass(frozen=True)
class DefectReport:
    net: tuple[int, ...]
    defect: float
    witness: int                 # net point attaining the defect

    def __post_init__(self):
        if self.defect < -1e-12:
            raise ValueError("defect cannot be negative")


def almost_extension_defect(op: WeightOperator, dist: np.ndarray) -> DefectReport:
    """Exact defect of op against the identity on its domain net.

    Zero exactly when the rows at the net points are indicators, i.e. when op
    is an extension operator.
    """
    _, d_a, base_pos = _metrics(op, dist)   # raises on a wrong shape or a missing base
    dom = list(op.domain)
    values = _row_norms(op.matrix[dom] - np.eye(len(dom)), d_a, base_pos, {})
    w = int(np.argmax(values))
    return DefectReport(tuple(dom), float(values[w]), w)


@dataclass(frozen=True)
class BapStage:
    """One rung of the approximation scheme: an operator sourced from a net
    (its domain), the metric the operator is bounded against, and the net
    scale."""

    label: int
    op: WeightOperator
    metric: np.ndarray
    eps: float


@dataclass(frozen=True)
class BapReport:
    rows: tuple[dict, ...]
    certificates: tuple[Certificate, ...]

    @property
    def passed(self) -> bool:
        return all_passed(self.certificates)


def bap_certificate(stages, d: np.ndarray, norm_bound: float,
                    envelope: float = 4.0) -> BapReport:
    """Per-stage norms and defects with pass criteria.

    Passes when every net is eps_n-dense (under both the stage metric and the
    reference metric d), every operator norm stays at or below norm_bound,
    and every defect stays under the envelope * eps_n line.  Defects are
    measured with the reference metric restricted to the net, which the stage
    metrics are required to match exactly.
    """
    d = np.asarray(d, dtype=float)
    rows = []
    certs = []
    for stage in stages:
        net = list(stage.op.domain)
        density = is_eps_dense(d, net, stage.eps)
        density_stage = is_eps_dense(stage.metric, net, stage.eps)
        if not (density.dense and density_stage.dense):
            raise ValueError(
                f"stage {stage.label}: net is not {stage.eps}-dense "
                f"(worst distance {max(density.max_dist, density_stage.max_dist):.6g})")
        net_metric = np.asarray(stage.metric)[np.ix_(net, net)]
        if not np.array_equal(net_metric, d[np.ix_(net, net)]):
            raise ValueError(f"stage {stage.label}: stage metric differs from the "
                             "reference on the net")
        norm, _ = operator_norm(stage.op, stage.metric)
        report = almost_extension_defect(stage.op, d)
        rows.append({
            "n": stage.label, "net_size": len(net), "eps": stage.eps,
            "density": density.max_dist, "norm": norm,
            "defect": report.defect, "witness": report.witness,
        })
        certs.append(make_certificate(
            f"bap-norm-{stage.label}", norm_bound, norm, "le", DEFAULT_TOL,
            inputs={"stage": stage.label}))
        certs.append(make_certificate(
            f"bap-defect-{stage.label}", envelope * stage.eps, report.defect,
            "le", DEFAULT_TOL, witnesses=[report.witness], inputs={"stage": stage.label}))
    return BapReport(tuple(rows), tuple(certs))
