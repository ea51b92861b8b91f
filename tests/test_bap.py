import numpy as np
import pytest

import lipfree as lf
from conftest import free_space_norm


@pytest.fixture(scope="module")
def line17():
    return lf.make_grid_space([17], 1 / 16)


def stage_for(space, n, nu=1.0):
    eps = min(nu / 4.0, 1.0 / (10.0 * n))
    nc = lf.build_net_cover(space, eps)
    bundle = lf.build_extension_bundle(nc)
    return lf.BapStage(label=n, op=bundle.pou, metric=bundle.adapted,
                       eps=1.0 / n), bundle


class TestDefect:
    def test_extension_operator_has_zero_defect(self, line17):
        _, bundle = stage_for(line17, 2)
        report = lf.almost_extension_defect(bundle.pou, line17.dist)
        assert report.defect == 0.0

    def test_zero_operator_defect(self):
        space = lf.random_metric_space(5, seed=0)
        dom = (space.base_index, 2, 4)
        op = lf.WeightOperator(space, dom, np.zeros((5, 3)))
        report = lf.almost_extension_defect(op, space.dist)
        assert report.defect == pytest.approx(
            max(space.dist[x, space.base_index] for x in dom), abs=1e-9)
        assert report.net[report.witness] in dom

    def test_scaling_interpolates_between_cases(self):
        space = lf.random_metric_space(5, seed=1)
        dom = (space.base_index, 1, 3)
        eye_rows = np.zeros((5, 3))
        for pos, p in enumerate(dom):
            eye_rows[p, pos] = 1.0
        for c in (0.0, 0.5, 1.0):
            op = lf.WeightOperator(space, dom, c * eye_rows)
            report = lf.almost_extension_defect(op, space.dist)
            # the LP norm of (c - 1) delta_x, maximized over the net
            expected = max(free_space_norm(space, (c - 1.0) * np.eye(5)[x]) for x in dom)
            assert report.defect == pytest.approx(expected)
            # |c - 1| times the delta norm, maximized over the net
            want = abs(c - 1.0) * max(space.dist[x, space.base_index] for x in dom)
            assert report.defect == pytest.approx(want, abs=1e-9)

    def test_defect_ignores_points_outside_net(self):
        space = lf.random_metric_space(6, seed=2)
        dom = (space.base_index, 1, 2)
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 1, size=(6, 3))
        w /= w.sum(axis=1, keepdims=True)
        op = lf.WeightOperator(space, dom, w, partition=True)
        base = lf.almost_extension_defect(op, space.dist)
        w2 = w.copy()
        w2[5] = [1.0, 0.0, 0.0]      # changing a non-net row
        op2 = lf.WeightOperator(space, dom, w2, partition=True)
        assert lf.almost_extension_defect(op2, space.dist).defect == base.defect

    def test_base_point_required(self):
        space = lf.random_metric_space(4, seed=3)
        op = lf.WeightOperator(space, (1, 2), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            lf.almost_extension_defect(op, space.dist)

    def test_functional_reduction_matches_brute_force(self):
        from conftest import lip_ball_vertices

        space = lf.random_metric_space(5, seed=4)
        dom = (space.base_index, 1, 4)
        rng = np.random.default_rng(1)
        w = rng.uniform(0, 1, size=(5, 3))
        w /= w.sum(axis=1, keepdims=True)
        op = lf.WeightOperator(space, dom, w, partition=True)
        report = lf.almost_extension_defect(op, space.dist)
        d_a = space.dist[np.ix_(dom, dom)]
        verts = lip_ball_vertices(d_a, 0)
        brute = 0.0
        for pos, p in enumerate(dom):
            gaps = np.abs(verts @ w[p] - verts[:, pos])
            brute = max(brute, float(gaps.max()))
        assert report.defect == pytest.approx(brute, abs=1e-8)


class TestBapCertificate:
    def test_pipeline_sequence_passes(self, line17):
        stages = [stage_for(line17, n)[0] for n in (2, 4)]
        bound = lf.perturbed_norm_bound(1)
        report = lf.bap_certificate(stages, line17.dist, bound)
        assert report.passed
        for row in report.rows:
            assert row["defect"] == 0.0
            assert row["norm"] <= bound + 1e-9

    def test_adversarial_constant_operator_fails(self, line17):
        stage, bundle = stage_for(line17, 2)
        n_pts = line17.n
        k = len(bundle.net)
        const = np.tile(np.eye(k)[0], (n_pts, 1))
        bad_op = lf.WeightOperator(line17, bundle.net, const, partition=True)
        bad = lf.BapStage(label=2, op=bad_op, metric=stage.metric, eps=stage.eps)
        report = lf.bap_certificate([bad], line17.dist, 1000.0, envelope=1.0)
        assert not report.passed
        defect_cert = [c for c in report.certificates if "defect" in c.kind][0]
        assert defect_cert.measured > 0

    def test_density_precondition_enforced(self, line17):
        stage, bundle = stage_for(line17, 2)
        sparse = lf.BapStage(label=2, op=lf.WeightOperator(
            line17, (0, 16), np.tile([1.0, 0.0], (17, 1)), partition=True),
            metric=line17.dist, eps=0.01)
        with pytest.raises(ValueError):
            lf.bap_certificate([sparse], line17.dist, 10.0)
