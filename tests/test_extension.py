import dataclasses

import numpy as np
import pytest

import lipfree as lf
from conftest import lip_ball_vertices, line_space, operator_norm_by_vertices


@pytest.fixture(scope="module")
def line_bundle():
    space = lf.make_grid_space([17], 1 / 16)
    nc = lf.build_net_cover(space, 0.25)
    return lf.build_extension_bundle(nc)


@pytest.fixture(scope="module")
def grid_bundle():
    space = lf.make_grid_space([7, 7], 1 / 24)
    nc = lf.build_net_cover(space, 0.3)
    return lf.build_extension_bundle(nc)


class TestPartitionOfUnity:
    def test_single_set_cover_is_constant_one(self):
        space = lf.random_metric_space(4, seed=0)
        pou = lf.partition_of_unity(space.dist, [tuple(range(4))], (0,), space=space)
        assert np.allclose(pou.matrix, 1.0)

    def test_indicator_rows_at_net_points(self, line_bundle):
        a = list(line_bundle.net)
        eye = np.eye(len(a))
        assert np.array_equal(line_bundle.pou.matrix[a], eye)

    def test_uncovered_point_rejected(self):
        space = lf.random_metric_space(4, seed=1)
        with pytest.raises(ValueError):
            lf.partition_of_unity(space.dist, [(0, 1)], (0,), space=space)

    def test_lipschitz_bound_under_adapted_metric(self, line_bundle, grid_bundle):
        for bundle in (line_bundle, grid_bundle):
            bound = 3.0 / bundle.nc.eps
            for i in range(len(bundle.net)):
                lip = lf.lipschitz_constant(bundle.pou.matrix[:, i], bundle.adapted)
                assert lip <= bound + 1e-7


class TestInducedPseudometric:
    def test_net_pairs_recover_distance(self, line_bundle):
        a = list(line_bundle.net)
        got = line_bundle.induced[np.ix_(a, a)]
        want = line_bundle.nc.space.dist[np.ix_(a, a)]
        assert np.array_equal(got, want)

    def test_diagonal_zero(self, line_bundle):
        assert np.all(np.diagonal(line_bundle.induced) == 0.0)

    def test_within_three_eps(self, line_bundle, grid_bundle):
        for bundle in (line_bundle, grid_bundle):
            assert lf.sup_distance(bundle.induced, bundle.nc.space.dist) < 3 * bundle.nc.eps

    def test_is_pseudometric(self, grid_bundle):
        assert lf.validate_pseudometric(grid_bundle.induced).ok


class TestExtensionBundle:
    def test_two_point_space(self):
        # both points separated beyond eps/3, so the net keeps them both
        space = line_space([0.0, 0.2])
        nc = lf.build_net_cover(space, 0.3,
                                refiner=lambda s, e: lf.CoverFamily(s, ((0,), (1,)), 0))
        assert nc.net == (0, 1)
        bundle = lf.build_extension_bundle(nc)
        assert np.array_equal(bundle.adapted, space.dist)
        assert bundle.enorm == pytest.approx(1.0, abs=1e-9)
        assert np.array_equal(bundle.pou.matrix[list(bundle.net)], np.eye(2))

    def test_adapted_metric_bound(self, line_bundle, grid_bundle):
        for bundle in (line_bundle, grid_bundle):
            assert lf.sup_distance(bundle.nc.space.dist, bundle.adapted) < 4 * bundle.nc.eps

    def test_adapted_extends_exactly_on_net(self, line_bundle, grid_bundle):
        for bundle in (line_bundle, grid_bundle):
            a = list(bundle.net)
            assert np.array_equal(bundle.adapted[np.ix_(a, a)],
                                  bundle.nc.space.dist[np.ix_(a, a)])

    def test_norm_is_one(self, line_bundle, grid_bundle):
        for bundle in (line_bundle, grid_bundle):
            assert abs(bundle.enorm - 1.0) <= 1e-9

    def test_extension_property_exact(self, line_bundle):
        rng = np.random.default_rng(0)
        f = rng.normal(size=len(line_bundle.net))
        f[0] = 0.0
        out = line_bundle.pou.apply(f)
        assert np.array_equal(out[list(line_bundle.net)], f)

    def test_all_certificates_pass(self, line_bundle, grid_bundle):
        for bundle in (line_bundle, grid_bundle):
            assert bundle.passed
            for cert in bundle.certificates:
                assert lf.verify_certificate(cert)

    def test_margin_certificate(self, line_bundle):
        cert = lf.verify_complement_margin(line_bundle.adapted, line_bundle.nc.sets,
                                           line_bundle.nc.eps)
        assert cert.passed
        assert cert.measured >= line_bundle.nc.eps / 3

    def test_single_set_margin_is_single_term(self):
        space = lf.random_metric_space(3, seed=2)
        sums = lf.extension.complement_distances(space.dist, [(0, 1, 2)]).sum(axis=1)
        cert = lf.verify_complement_margin(space.dist, [(0, 1, 2)], 0.1)
        assert cert.measured == pytest.approx(float(sums.min()))

    def test_eps_outside_unit_interval_rejected(self):
        space = lf.make_grid_space([5], 0.1)
        nc = lf.build_net_cover(space, 0.25)
        with pytest.raises(ValueError):
            lf.build_extension_bundle(dataclasses.replace(nc, eps=1.5))

    def test_monotone_refinement(self):
        # finer scales bring the adapted metric uniformly closer
        space = lf.make_grid_space([33], 1 / 32)
        sups = []
        for eps in (1 / 2, 1 / 4, 1 / 8):
            nc = lf.build_net_cover(space, eps)
            bundle = lf.build_extension_bundle(nc)
            sups.append(lf.sup_distance(space.dist, bundle.adapted))
        assert all(s < 4 * e for s, e in zip(sups, (1 / 2, 1 / 4, 1 / 8)))
        assert sups[0] >= sups[1] >= sups[2]


class TestPerturbedOperator:
    def test_adapted_metric_itself_admissible(self, line_bundle):
        pb = lf.build_perturbed_operator(line_bundle, line_bundle.adapted)
        assert pb.passed
        assert np.array_equal(pb.pou.matrix[list(pb.pou.domain)], np.eye(len(pb.pou.domain)))
        assert pb.gnorm <= lf.perturbed_norm_bound(line_bundle.nc.order_bound)

    def test_rebuilt_at_adapted_metric(self, line_bundle, grid_bundle):
        # partition covers reproduce the original weights, so the rebuilt
        # operator is the original one with norm exactly one; the net pairs
        # force norm >= 1 for every admissible rebuild
        for bundle in (line_bundle, grid_bundle):
            pb = lf.build_perturbed_operator(bundle, bundle.adapted)
            if lf.order(bundle.nc.sets) == 0:
                assert np.array_equal(pb.pou.matrix, bundle.pou.matrix)
            assert pb.gnorm >= 1.0 - 1e-9
            assert pb.gnorm <= lf.perturbed_norm_bound(bundle.nc.order_bound)

    def test_admission_rejection_with_measured_distance(self, line_bundle):
        far = line_bundle.adapted * 3.0
        with pytest.raises(lf.AdmissionError) as err:
            lf.build_perturbed_operator(line_bundle, far)
        assert err.value.measured == pytest.approx(
            lf.sup_distance(far, line_bundle.adapted))

    def test_seeded_perturbations_certify(self, line_bundle):
        rng = np.random.default_rng(5)
        radius = lf.admission_radius(line_bundle.nc.eps, line_bundle.nc.order_bound)
        for _ in range(5):
            e = lf.perturb_metric(line_bundle.adapted, 0.9 * radius, rng)
            pb = lf.build_perturbed_operator(line_bundle, e)
            assert pb.passed
            assert np.array_equal(pb.pou.matrix[list(pb.pou.domain)],
                                  np.eye(len(pb.pou.domain)))
            assert pb.gnorm <= lf.perturbed_norm_bound(line_bundle.nc.order_bound) + 1e-7
            lip_bound = 4 * (2 * line_bundle.nc.order_bound + 3) / line_bundle.nc.eps
            for i in range(len(line_bundle.net)):
                assert lf.lipschitz_constant(pb.pou.matrix[:, i], e) <= lip_bound + 1e-7

    def test_unit_ball_transfer_estimate(self):
        # every extreme profile for the perturbed metric stays nearly
        # non-expansive under the adapted metric on the net; the vertex
        # enumeration needs a small net to stay tractable
        space = lf.make_grid_space([7], 1 / 6)
        nc = lf.build_net_cover(space, 0.9)
        bundle = lf.build_extension_bundle(nc)
        assert 2 <= len(bundle.net) <= 4
        rng = np.random.default_rng(6)
        r = bundle.nc.order_bound
        radius = lf.admission_radius(bundle.nc.eps, r)
        e = lf.perturb_metric(bundle.adapted, 0.9 * radius, rng)
        a = list(bundle.net)
        e_a = e[np.ix_(a, a)]
        d_a = bundle.adapted[np.ix_(a, a)]
        verts = lip_ball_vertices(e_a, 0)
        bound = 1 + 1 / (4 * (r + 1))
        for v in verts:
            assert lf.lipschitz_constant(v, d_a) <= bound + 1e-9


class TestOperatorNormOracle:
    def test_molecule_reduction_matches_vertices(self):
        rng = np.random.default_rng(7)
        for seed in range(6):
            space = lf.random_metric_space(5, seed=30 + seed)
            dom = (space.base_index, 1, 3)
            w = rng.uniform(0, 1, size=(5, 3))
            w /= w.sum(axis=1, keepdims=True)
            op = lf.WeightOperator(space, dom, w, partition=True)
            fast, _ = lf.operator_norm(op, space.dist)
            slow = operator_norm_by_vertices(op, space.dist)
            assert fast == pytest.approx(slow, abs=1e-8)
