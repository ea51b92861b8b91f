import numpy as np
import pytest

import lipfree as lf
from lipfree.gluing import GluingError, build_h_operator, glue_domain


def bottom_row(space):
    return [i for i in range(space.n) if space.coords[i, 1] == 0]


def apply_glued(bundle, e, inner, f):
    """The glued operator for the probe metric e, applied to f on its domain."""
    w1, _ = lf.sandwich_sets(e, bundle.cfg.k, bundle.eps, bundle.cfg.dim_k, "probe")
    rho = lf.cutoff(e, w1, bundle.eps, bundle.cfg.dim_k)
    return build_h_operator(bundle, inner, rho).apply(f)


@pytest.fixture(scope="module")
def small_glue():
    space = lf.make_grid_space([6, 6], 1 / 6)
    k = bottom_row(space)
    cfg = lf.GluingConfig(space, tuple(k), 1, (4 / 6, 3 / 6, 2 / 6, 1 / 6))
    bundle = lf.build_gluing_bundle(cfg, 1, 0.6)
    return bundle


@pytest.fixture(scope="module")
def point_core_glue():
    space = lf.make_grid_space([8], 1 / 8)
    cfg = lf.GluingConfig(space, (0,), 0, (0.5, 0.375, 0.25, 0.125))
    return lf.build_gluing_bundle(cfg, 1, 0.45)


class TestExhaustion:
    def test_full_core_gives_empty_levels(self):
        space = lf.make_grid_space([5], 0.25)
        cfg = lf.GluingConfig(space, tuple(range(5)), 1, (0.5,))
        assert lf.build_exhaustion(cfg) == ((),)

    def test_endpoint_core_nested_suffixes(self):
        space = lf.make_grid_space([9], 1 / 8)
        cfg = lf.GluingConfig(space, (0,), 0, (0.5, 0.25, 0.125))
        levels = lf.build_exhaustion(cfg)
        assert levels[0] == tuple(range(4, 9))
        assert levels[1] == tuple(range(2, 9))
        assert levels[2] == tuple(range(1, 9))
        for small, big in zip(levels, levels[1:]):
            assert set(small) <= set(big)
        assert set(levels[-1]) == set(range(1, 9))

    def test_uncovered_points_reported(self):
        space = lf.make_grid_space([9], 1 / 8)
        cfg = lf.GluingConfig(space, (0,), 0, (0.5,))
        with pytest.raises(GluingError):
            lf.build_exhaustion(cfg)

    def test_config_validation(self):
        space = lf.make_grid_space([4], 0.5)
        with pytest.raises(ValueError):
            lf.GluingConfig(space, (1,), 0, (0.5,))       # base not in core
        with pytest.raises(ValueError):
            lf.GluingConfig(space, (0,), 0, (0.5, 0.5))   # not decreasing


class TestSandwichSets:
    def test_full_core_gives_everything(self):
        space = lf.make_grid_space([4], 0.25)
        lo, hi = lf.sandwich_sets(space.dist, range(4), 0.5, 1, "reference")
        assert lo == hi == tuple(range(4))

    def test_band_point_between_thresholds(self):
        eps, dim_k = 0.5, 0
        gamma1 = eps / 30
        d = np.array([
            [0.0, 1.5 * gamma1, 1.0],
            [1.5 * gamma1, 0.0, 1.0],
            [1.0, 1.0, 0.0],
        ])
        lo, hi = lf.sandwich_sets(d, [0], eps, dim_k, "probe")
        assert 1 not in lo and 1 in hi

    def test_inclusion_chain_under_admission(self, small_glue):
        rng = np.random.default_rng(2)
        radius = lf.probe_radius(small_glue.eps, small_glue.cfg.dim_k)
        e = lf.perturb_metric(small_glue.metric, 0.9 * radius, rng)
        w1, w2 = lf.sandwich_sets(e, small_glue.cfg.k, small_glue.eps,
                                  small_glue.cfg.dim_k, "probe")
        assert set(small_glue.core_lo) <= set(w1) <= set(w2) <= set(small_glue.core_hi) \
            <= set(small_glue.v_indices)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            lf.sandwich_sets(np.zeros((2, 2)), [0], 0.5, 0, "other")


class TestCutoff:
    def test_zero_on_inner_set(self, small_glue):
        e = small_glue.metric
        w1, _ = lf.sandwich_sets(e, small_glue.cfg.k, small_glue.eps,
                                 small_glue.cfg.dim_k, "probe")
        rho = lf.cutoff(e, w1, small_glue.eps, small_glue.cfg.dim_k)
        assert np.all(rho[list(w1)] == 0.0)

    def test_one_outside_collar(self, small_glue):
        e = small_glue.metric
        w1, _ = lf.sandwich_sets(e, small_glue.cfg.k, small_glue.eps,
                                 small_glue.cfg.dim_k, "probe")
        rho = lf.cutoff(e, w1, small_glue.eps, small_glue.cfg.dim_k)
        outside = sorted(set(range(small_glue.cfg.space.n)) - set(small_glue.v_indices))
        assert np.all(rho[outside] == 1.0)

    def test_lipschitz_bound(self, small_glue):
        e = small_glue.metric
        w1, _ = lf.sandwich_sets(e, small_glue.cfg.k, small_glue.eps,
                                 small_glue.cfg.dim_k, "probe")
        rho = lf.cutoff(e, w1, small_glue.eps, small_glue.cfg.dim_k)
        bound = 30 * (small_glue.cfg.dim_k + 1) / small_glue.eps
        assert lf.lipschitz_constant(rho, e) <= bound + 1e-7

    def test_empty_inner_set_rejected(self):
        with pytest.raises(ValueError):
            lf.cutoff(np.zeros((2, 2)), [], 0.5, 0)


class TestGluingBundle:
    def test_bundle_certificates(self, small_glue):
        assert small_glue.passed
        assert lf.sup_distance(small_glue.metric, small_glue.cfg.space.dist) \
            < 5 * small_glue.eps
        assert lf.sup_distance(small_glue.metric, small_glue.extended) \
            <= small_glue.eps / (14 * (small_glue.cfg.dim_k + 1)) + 1e-12

    def test_no_certificate_passes_by_rounding(self, small_glue):
        assert not any(c.warning for c in small_glue.certificates)
        c = small_glue.eps / (14 * (small_glue.cfg.dim_k + 1))
        glue, extended = small_glue.metric, small_glue.extended
        assert np.all(extended <= glue) and np.all(glue <= extended + c)
        scale = next(x for x in small_glue.certificates
                     if x.kind == "glue-truncation-scale")
        assert scale.measured == 0.0 and scale.details["scale"] == c

    def test_truncation_scale_checked_without_tolerance(self, small_glue, monkeypatch):
        # a term 1e-12 (relative) above c: inside DEFAULT_TOL, outside the claim
        real = lf.truncate
        monkeypatch.setattr("lipfree.gluing.truncate",
                            lambda d, eta: real(d, eta) * (1 + 1e-12))
        with pytest.raises(GluingError, match="glue-truncation-scale"):
            lf.build_gluing_bundle(small_glue.cfg, 1, small_glue.eps)

    def test_collar_strictly_thicker_than_core(self, small_glue):
        assert set(small_glue.cfg.k) < set(small_glue.v_indices)

    def test_inner_metric_agrees_with_extension_on_collar(self, small_glue):
        v = list(small_glue.v_indices)
        assert np.array_equal(small_glue.extended[np.ix_(v, v)],
                              small_glue.v_bundle.adapted)

    def test_exhaustion_level_joins_core(self, small_glue):
        cm = set(small_glue.exhaustion[small_glue.m - 1])
        assert cm | set(small_glue.core_lo) == set(range(small_glue.cfg.space.n))
        assert small_glue.m >= small_glue.n

    def test_eps_above_core_distance_rejected(self):
        space = lf.make_grid_space([6, 6], 1 / 6)
        k = bottom_row(space)
        cfg = lf.GluingConfig(space, tuple(k), 1, (4 / 6, 1 / 6))
        with pytest.raises(ValueError):
            lf.build_gluing_bundle(cfg, 1, 0.9)

    def test_full_core_degenerates_to_extension(self):
        space = lf.make_grid_space([5], 1 / 5)
        cfg = lf.GluingConfig(space, tuple(range(5)), 1, (0.5,))
        bundle = lf.build_gluing_bundle(cfg, 1, 0.5)
        assert bundle.v_indices == tuple(range(5))
        assert bundle.m == 1
        cert = lf.certify_gluing(bundle, bundle.metric, rng=0)
        assert cert.passed
        # vanishing cutoff: the glued operator is exactly the inner extension
        assert set(glue_domain(bundle)) == set(bundle.net)
        e = bundle.metric
        inner = lf.build_perturbed_operator(bundle.v_bundle, e)
        assert np.array_equal(cert.h_matrix, inner.pou.matrix)
        f = np.array([0.0, 0.3, -0.1])[: len(bundle.net)]
        f = np.resize(f, len(bundle.net))
        f[0] = 0.0
        out = apply_glued(bundle, e, inner, f)
        assert np.array_equal(out, inner.pou.matrix @ f)

    def test_point_core_constants(self, point_core_glue):
        assert lf.perturbed_norm_bound(0) == 264.0
        assert lf.glued_norm_bound(0) == 152.0 * 265.0 == 40280.0
        cert = lf.certify_gluing(point_core_glue, point_core_glue.metric, rng=1)
        assert cert.passed
        norm_cert = next(c for c in cert.certificates if c.kind == "glued-operator-norm")
        assert norm_cert.claimed == 40280.0


class TestCertifyGluing:
    def test_glue_metric_itself_passes(self, small_glue):
        cert = lf.certify_gluing(small_glue, small_glue.metric, rng=3)
        assert cert.passed
        bound = lf.glued_norm_bound(small_glue.cfg.dim_k)
        assert cert.measured_norm <= bound
        # headroom should be enormous
        assert cert.measured_norm < bound / 100

    def test_restriction_identity_exact(self, small_glue):
        cert = lf.certify_gluing(small_glue, small_glue.metric, rng=4)
        ident = [c for c in cert.certificates if c.kind == "restriction-identity"]
        assert ident and ident[0].measured == 0.0

    def test_probe_outside_radius_fails_admission(self, small_glue):
        bad = small_glue.metric * 1.5
        cert = lf.certify_gluing(small_glue, bad, rng=5)
        assert not cert.passed
        assert cert.certificates[0].kind == "probe-admission"
        assert not cert.certificates[0].passed

    def test_seeded_probes_pass(self, small_glue):
        rng = np.random.default_rng(6)
        radius = lf.probe_radius(small_glue.eps, small_glue.cfg.dim_k)
        for _ in range(3):
            e = lf.perturb_metric(small_glue.metric, 0.9 * radius, rng)
            cert = lf.certify_gluing(small_glue, e, rng=rng)
            assert cert.passed

    def test_glued_function_values(self, small_glue):
        # apply the operator as a function gluer and check the fixed part
        e = small_glue.metric
        rng = np.random.default_rng(7)
        v = list(small_glue.v_indices)
        inner = lf.build_perturbed_operator(small_glue.v_bundle, e[np.ix_(v, v)])
        dom = list(glue_domain(small_glue))
        e_dom = e[np.ix_(dom, dom)]
        raw = rng.normal(size=len(dom))
        lip = lf.lipschitz_constant(raw, e_dom)
        base_pos = dom.index(small_glue.cfg.space.base_index)
        f = (raw - raw[base_pos]) / lip
        out = apply_glued(small_glue, e, inner, f)
        cn = small_glue.exhaustion[small_glue.n - 1]
        fixed = sorted(set(cn) | set(small_glue.net))
        for x in fixed:
            assert out[x] == f[dom.index(x)]
        assert out[small_glue.cfg.space.base_index] == 0.0

    def test_mcshane_composite_matches_operator(self, small_glue):
        # (1 - rho) g~ + rho f~ with McShane extensions reproduces the glued
        # operator values everywhere
        e = small_glue.metric
        space = small_glue.cfg.space
        v = list(small_glue.v_indices)
        inner = lf.build_perturbed_operator(small_glue.v_bundle, e[np.ix_(v, v)])
        dom = list(glue_domain(small_glue))
        e_dom = e[np.ix_(dom, dom)]
        rng = np.random.default_rng(8)
        raw = rng.normal(size=len(dom))
        lip = lf.lipschitz_constant(raw, e_dom)
        base_pos = dom.index(space.base_index)
        f = (raw - raw[base_pos]) / lip

        w1, _ = lf.sandwich_sets(e, small_glue.cfg.k, small_glue.eps,
                                 small_glue.cfg.dim_k, "probe")
        rho = lf.cutoff(e, w1, small_glue.eps, small_glue.cfg.dim_k)
        op = build_h_operator(small_glue, inner, rho)
        direct = op.apply(f)

        # McShane route: extend f from the domain and g from the collar
        f_ext = (f[None, :] + 1.0 * e[:, dom]).min(axis=1)
        f_ext[dom] = f
        a_pos_dom = [dom.index(a) for a in small_glue.net]
        g_collar = inner.pou.matrix @ f[a_pos_dom]
        lip_g = lf.lipschitz_constant(g_collar, e[np.ix_(v, v)])
        g_ext = (g_collar[None, :] + lip_g * e[:, v]).min(axis=1)
        g_ext[v] = g_collar
        composite = (1 - rho) * g_ext + rho * f_ext
        assert np.allclose(composite, direct, atol=1e-9)

    def test_cutoff_product_estimate(self, small_glue):
        # Lip_e(u rho) <= (150 dimK + 151) Lip_e(u) for glued differences
        e = small_glue.metric
        space = small_glue.cfg.space
        dim_k = small_glue.cfg.dim_k
        v = list(small_glue.v_indices)
        inner = lf.build_perturbed_operator(small_glue.v_bundle, e[np.ix_(v, v)])
        dom = list(glue_domain(small_glue))
        e_dom = e[np.ix_(dom, dom)]
        w1, _ = lf.sandwich_sets(e, small_glue.cfg.k, small_glue.eps, dim_k, "probe")
        rho = lf.cutoff(e, w1, small_glue.eps, dim_k)
        rng = np.random.default_rng(9)
        factor = 150 * dim_k + 151
        for _ in range(4):
            raw = rng.normal(size=len(dom))
            lip = lf.lipschitz_constant(raw, e_dom)
            base_pos = dom.index(space.base_index)
            f = (raw - raw[base_pos]) / lip
            f_ext = (f[None, :] + 1.0 * e[:, dom]).min(axis=1)
            f_ext[dom] = f
            a_pos_dom = [dom.index(a) for a in small_glue.net]
            g_collar = inner.pou.matrix @ f[a_pos_dom]
            lip_g = lf.lipschitz_constant(g_collar, e[np.ix_(v, v)])
            g_ext = (g_collar[None, :] + lip_g * e[:, v]).min(axis=1)
            g_ext[v] = g_collar
            u = f_ext - g_ext
            lip_u = lf.lipschitz_constant(u, e)
            assert lf.lipschitz_constant(u * rho, e) <= factor * lip_u + 1e-9
