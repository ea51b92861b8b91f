"""Acceptance suite: every headline guarantee at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s); failures also
fail the test itself.  Instances are sized so the whole module runs in a few
minutes on one core.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

import lipfree as lf
from conftest import free_space_norm, metric_extension_by_lp, operator_norm_by_vertices


@contextmanager
def verdict(name):
    outcome = {"pass": False}
    try:
        yield outcome
        outcome["pass"] = True
    finally:
        print(f"[acceptance] {name}: {'PASS' if outcome['pass'] else 'FAIL'}")


@pytest.fixture(scope="module")
def grid_1d():
    return lf.make_grid_space([65], 1 / 64)


@pytest.fixture(scope="module")
def grid_2d():
    return lf.make_grid_space([13, 13], 1 / 50)


EPS_SCHEDULE = (1 / 4, 1 / 8, 1 / 16)


@pytest.fixture(scope="module")
def bundles_1d(grid_1d):
    start = time.perf_counter()
    out = {}
    for eps in EPS_SCHEDULE:
        nc = lf.build_net_cover(grid_1d, eps)
        out[eps] = lf.build_extension_bundle(nc)
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def bundles_2d(grid_2d):
    start = time.perf_counter()
    out = {}
    for eps in EPS_SCHEDULE:
        nc = lf.build_net_cover(grid_2d, eps)
        out[eps] = lf.build_extension_bundle(nc)
    return out, time.perf_counter() - start


@pytest.fixture(scope="module")
def perturbed_20(bundles_1d):
    bundle = bundles_1d[0][1 / 4]
    rng = np.random.default_rng(2024)
    radius = lf.admission_radius(bundle.nc.eps, bundle.nc.order_bound)
    out = []
    for _ in range(20):
        e = lf.perturb_metric(bundle.adapted, 0.95 * radius, rng)
        out.append((e, lf.build_perturbed_operator(bundle, e)))
    return bundle, out


def test_molecule_identity_on_random_spaces():
    with verdict("molecule identity (50 spaces, tol 1e-7)"):
        start = time.perf_counter()
        for seed in range(50):
            n = 3 + seed % 10
            space = lf.random_metric_space(n, seed=seed)
            eye = np.eye(n)
            for x, y in itertools.combinations(range(n), 2):
                err = abs(free_space_norm(space, eye[x] - eye[y]) - space.dist[x, y])
                assert err <= 1e-7, (seed, x, y, err)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_adapted_metric_bounds(bundles_1d, bundles_2d):
    with verdict("adapted metric within 4*eps, exact on the net"):
        for bundles, elapsed in (bundles_1d, bundles_2d):
            assert elapsed < 120.0, f"grid pipeline took {elapsed:.1f}s"
            for eps, bundle in bundles.items():
                sup = lf.sup_distance(bundle.nc.space.dist, bundle.adapted)
                assert sup < 4 * eps, (eps, sup)
                a = list(bundle.net)
                gap = np.abs(bundle.adapted[np.ix_(a, a)]
                             - bundle.nc.space.dist[np.ix_(a, a)]).max()
                assert gap == 0.0, (eps, gap)


def test_operator_norms(bundles_1d, bundles_2d, perturbed_20):
    with verdict("extension norm 1 +- 1e-6; perturbed norms under the bound"):
        for bundles, _ in (bundles_1d, bundles_2d):
            for eps, bundle in bundles.items():
                assert abs(bundle.enorm - 1.0) <= 1e-6, (eps, bundle.enorm)
        bundle, perturbed = perturbed_20
        bound = lf.perturbed_norm_bound(bundle.nc.order_bound)
        assert bound == 880.0
        worst = max(pb.gnorm for _, pb in perturbed)
        assert worst <= bound
        print(f"    perturbed-norm headroom: worst {worst:.4f} vs bound {bound:.0f}")


def test_partition_estimates(bundles_1d, bundles_2d, perturbed_20):
    with verdict("partition Lipschitz and margin estimates, zero failures"):
        for bundles, _ in (bundles_1d, bundles_2d):
            for eps, bundle in bundles.items():
                for cert in bundle.certificates:
                    assert cert.passed, (eps, str(cert))
                lam_bound = 3.0 / eps
                for i in range(len(bundle.net)):
                    lip = lf.lipschitz_constant(bundle.pou.matrix[:, i], bundle.adapted)
                    assert lip <= lam_bound + 1e-7
                margin = lf.verify_complement_margin(bundle.adapted, bundle.nc.sets, eps)
                assert margin.passed
        bundle, perturbed = perturbed_20
        mu_bound = 4 * (2 * bundle.nc.order_bound + 3) / bundle.nc.eps
        for e, pb in perturbed:
            for cert in pb.certificates:
                assert cert.passed, str(cert)
            for i in range(len(bundle.net)):
                lip = lf.lipschitz_constant(pb.pou.matrix[:, i], e)
                assert lip <= mu_bound + 1e-7


def test_net_cover_roundtrip_100_instances():
    with verdict("net-cover construction verifies on 100 seeded grids"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            if seed % 2:
                dims = [int(rng.integers(5, 34))]
            else:
                dims = [int(rng.integers(3, 9)), int(rng.integers(3, 9))]
            spacing = float(rng.choice([1 / 8, 1 / 16, 1 / 32, 1 / 64]))
            eps = float(rng.choice([1 / 3, 1 / 4, 1 / 6, 1 / 8]))
            space = lf.make_grid_space(dims, spacing)
            refined = lf.brick_cover(space, eps)
            nc = lf.build_net_cover(space, eps)
            assert lf.verify_net_cover(nc).passed, (seed, dims, spacing, eps)
            assert lf.order(nc.sets) <= max(lf.order(refined), 0), seed


def test_gluing_certificates():
    with verdict("glued operator certificates on a 2D grid with a line core"):
        start = time.perf_counter()
        space = lf.make_grid_space([10, 10], 1 / 10)
        k = [i for i in range(space.n) if space.coords[i, 1] == 0]
        cfg = lf.GluingConfig(space, tuple(k), 1, (0.7, 0.5, 0.3, 0.2, 0.1))
        eps = 0.7
        bundle = lf.build_gluing_bundle(cfg, 1, eps)
        assert lf.perturbed_norm_bound(1) == 880.0
        assert lf.glued_norm_bound(1) == 302.0 * 881.0 == 266062.0
        rng = np.random.default_rng(99)
        radius = lf.probe_radius(eps, 1)
        probes = [bundle.metric] + [
            lf.perturb_metric(bundle.metric, 0.9 * radius, rng) for _ in range(4)]
        worst = 0.0
        for e in probes:
            cert = lf.certify_gluing(bundle, e, rng=rng)
            assert cert.passed, [str(c) for c in cert.certificates if not c.passed]
            ident = [c for c in cert.certificates if c.kind == "restriction-identity"]
            assert ident[0].measured == 0.0
            for kind in ("cutoff-vanishes-inside", "cutoff-vanishes-off-cm",
                         "cutoff-saturates-outside-collar", "cutoff-saturates-on-cn"):
                sub = [c for c in cert.certificates if c.kind == kind]
                assert sub and sub[0].passed
            worst = max(worst, cert.measured_norm)
        elapsed = time.perf_counter() - start
        print(f"    glued-norm headroom: worst {worst:.4f} vs bound 266062")
        assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_bap_harness(grid_1d):
    with verdict("BAP harness: norms bounded, defects under 4/n"):
        stages = []
        bound = None
        for n in (2, 4, 8):
            eps = min(1.0 / 4.0, 1.0 / (10.0 * n))
            nc = lf.build_net_cover(grid_1d, eps)
            bundle = lf.build_extension_bundle(nc)
            bound = lf.perturbed_norm_bound(bundle.nc.order_bound)
            stages.append(lf.BapStage(label=n, op=bundle.pou, metric=bundle.adapted,
                                      eps=1.0 / n))
        assert bound == 880.0
        report = lf.bap_certificate(stages, grid_1d.dist, bound)
        assert report.passed
        for row in report.rows:
            assert row["defect"] <= 4.0 / row["n"]
            assert row["defect"] <= 1e-9          # exact extension operators
            assert row["norm"] <= bound + 1e-7


def test_metric_extension_50_instances():
    with verdict("metric extension distortion within the interpolation bound"):
        rng = np.random.default_rng(7)
        for seed in range(50):
            n = 5 + seed % 5
            space = lf.random_metric_space(n, seed=1000 + seed)
            size = 2 + seed % 3
            s = sorted(rng.choice(n, size=size, replace=False).tolist())
            rho = lf.perturb_metric(space.dist[np.ix_(s, s)],
                                    0.2 * lf.diameter(space.dist), rng)
            ext = lf.metric_extension_lp(space.dist, s, rho)
            bound = lf.sup_distance(rho, space.dist[np.ix_(s, s)])
            optimum = metric_extension_by_lp(space.dist, s, rho)
            assert optimum <= ext.distortion + 1e-9, seed
            assert ext.distortion <= bound + 1e-9, seed
            off = np.ones((n, n), dtype=bool)
            off[np.ix_(s, s)] = False
            d2, d = ext.matrix[off], space.dist[off]
            assert np.all(d - 1e-9 <= d2) and np.all(d2 <= d + bound + 1e-9), seed
            assert ext.distortion == np.abs(d2 - d).max(), seed
            assert np.array_equal(ext.matrix[np.ix_(s, s)], rho), seed
            assert lf.validate_metric(ext.matrix).ok, seed


def test_operator_norm_oracle_equivalence():
    with verdict("molecule norms agree with vertex enumeration, tol 1e-6"):
        rng = np.random.default_rng(12)
        for seed in range(20):
            n = 4 + seed % 3
            space = lf.random_metric_space(n, seed=2000 + seed)
            k = 2 + seed % 3                    # domain size <= 4
            others = [i for i in range(n) if i != space.base_index]
            dom = tuple([space.base_index] + sorted(
                rng.choice(others, size=k - 1, replace=False).tolist()))
            if seed % 2:
                w = rng.uniform(0, 1, size=(n, k))
                w /= w.sum(axis=1, keepdims=True)
                op = lf.WeightOperator(space, dom, w, partition=True)
            else:
                op = lf.WeightOperator(space, dom, rng.normal(size=(n, k)))
            fast, _ = lf.operator_norm(op, space.dist)
            slow = operator_norm_by_vertices(op, space.dist)
            assert abs(fast - slow) <= 1e-6, (seed, fast, slow)
