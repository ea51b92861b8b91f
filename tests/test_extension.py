import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import lipfree as lf
from lipfree.extension import _adapted_excess_bound
from lipfree.spaces import _min_plus_excess
from conftest import (complement_distances_by_sets, lip_ball_vertices, line_space,
                      operator_norm_by_vertices, sweeps_of)

# Zeros of both signs and entries within DEFAULT_TOL above zero, next to
# ordinary distances.
NEAR_ZERO = [0.0, -0.0, 5e-324, 1e-12, 0.5 * lf.DEFAULT_TOL]


@st.composite
def complement_inputs(draw):
    """A square matrix with no negative entry, whose entries may sit within
    DEFAULT_TOL of zero, with zeros of either sign on its diagonal (the
    precondition of `complement_distances`), and a family with empty, full
    and repeated sets."""
    n = draw(st.integers(1, 7))
    d = draw(arrays(np.float64, (n, n), elements=st.one_of(
        st.sampled_from(NEAR_ZERO), st.floats(0.0, 3.0))))
    d[np.diag_indices(n)] = draw(arrays(np.float64, n, elements=st.sampled_from([0.0, -0.0])))
    point_sets = st.sets(st.integers(0, n - 1))
    sets = draw(st.lists(st.one_of(point_sets, st.just(set(range(n)))),
                         min_size=1, max_size=5))
    sets += draw(st.lists(st.sampled_from(sets), max_size=2))
    return d, [tuple(sorted(s)) for s in sets]


def induced_of(bundle):
    """The bundle's induced pseudometric, rebuilt from its weights."""
    return lf.molecule_norm_matrix(bundle.pou, bundle.nc.space.dist)


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
        got = induced_of(line_bundle)[np.ix_(a, a)]
        want = line_bundle.nc.space.dist[np.ix_(a, a)]
        assert np.array_equal(got, want)

    def test_diagonal_zero(self, line_bundle):
        assert np.all(np.diagonal(induced_of(line_bundle)) == 0.0)

    def test_within_three_eps(self, line_bundle, grid_bundle):
        for bundle in (line_bundle, grid_bundle):
            assert lf.sup_distance(induced_of(bundle), bundle.nc.space.dist) < 3 * bundle.nc.eps

    def test_is_pseudometric(self, grid_bundle):
        assert lf.validate_pseudometric(induced_of(grid_bundle)).ok


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

    def test_norm_witness_is_the_first_row_major_maximiser(self, line_bundle, grid_bundle):
        # the ratio 1 is attained at many pairs, so the witness pins the order
        for bundle in (line_bundle, grid_bundle):
            xs, ys = np.triu_indices(bundle.nc.space.n, k=1)
            ratios = induced_of(bundle)[xs, ys] / bundle.adapted[xs, ys]
            best = int(np.argmax(ratios))
            assert np.count_nonzero(ratios == ratios[best]) > 1
            cert = next(c for c in bundle.certificates if c.kind == "extension-operator-norm")
            assert cert.measured == ratios[best]
            assert cert.witnesses == ([int(xs[best]), int(ys[best])],)

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

    @given(complement_inputs())
    @settings(max_examples=300, deadline=None)
    def test_complement_distances_match_the_index_lists(self, inputs):
        # bitwise but for the sign of a zero, which may come from any zero
        # of the row
        d, sets = inputs
        got = lf.extension.complement_distances(d, sets)
        want = complement_distances_by_sets(d, sets)
        assert got.shape == want.shape and (got + 0.0).tobytes() == (want + 0.0).tobytes()

    def test_complement_distances_where_the_diagonal_is_not_the_row_minimum(self):
        # points 0 and 3 coincide, and so do 2 and 4; one entry below zero and
        # one diagonal entry above it, each by DEFAULT_TOL: the door refuses
        # the matrix, so `complement_distances` never reads it
        pos = np.array([0.0, 1.0, 2.5, 0.0, 2.5, 3.5])
        d = np.abs(pos[:, None] - pos[None, :])
        d[0, 3] = -lf.DEFAULT_TOL
        d[2, 2] = lf.DEFAULT_TOL
        for mat in (d, d.T):
            assert not np.array_equal(mat.argmin(axis=1), np.arange(6))
            report = lf.validate_metric(mat, allow_zero=True)
            assert [(v.kind, v.amount) for v in report.violations] == \
                [("diagonal", lf.DEFAULT_TOL), ("symmetry", lf.DEFAULT_TOL),
                 ("negative", lf.DEFAULT_TOL)]

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


def adapted_bound_and_sweep(d, net, b):
    """The bound `_adapted_excess_bound` derives for quotient(d, net) + b
    from the swept excesses of d and b, and the excess the sweep measures."""
    adapted = lf.quotient_pseudometric(d, net)
    adapted += b
    bound = _adapted_excess_bound(_min_plus_excess(d)[0], _min_plus_excess(b)[0], adapted)
    return bound, _min_plus_excess(adapted)[0]


def bumped(m, i, k, amount):
    """m with the symmetric pair (i, k) raised by amount."""
    m = m.copy()
    m[i, k] += amount
    m[k, i] = m[i, k]
    return m


class TestAdaptedExcessBound:
    """The adapted metric is certified by the bound of
    `_adapted_excess_bound` instead of the min-plus sweep, and that bound is
    never below what the sweep measures."""

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 10), seed=st.integers(0, 2 ** 16), data=st.data())
    def test_bound_covers_the_sweep(self, n, seed, data):
        rng = np.random.default_rng(seed)
        d = lf.random_metric_space(n, seed=rng, scale=rng.uniform(0.01, 10)).dist
        other = lf.random_metric_space(n, seed=rng).dist
        b = lf.quotient_pseudometric(other, data.draw(st.sets(st.integers(0, n - 1),
                                                              min_size=1)))
        if data.draw(st.booleans()):       # triangle excesses well above rounding
            i, k = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True))
            d = bumped(d, i, k, data.draw(st.floats(0.0, 0.5)))
            b = bumped(b, i, k, data.draw(st.floats(0.0, 0.5)))
        net = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
        bound, measured = adapted_bound_and_sweep(d, net, b)
        assert bound >= measured

    def test_rounding_term_is_needed(self):
        # d and b sweep to excess 0, the adapted metric does not
        d = lf.random_metric_space(6, seed=2).dist
        b = lf.quotient_pseudometric(lf.random_metric_space(6, seed=13).dist, [1, 2])
        assert _min_plus_excess(d)[0] == _min_plus_excess(b)[0] == 0.0
        bound, measured = adapted_bound_and_sweep(d, [0, 5], b)
        assert 0.0 < measured <= bound < 1e-14

    @pytest.mark.parametrize("e_d, e_b", [(1e-3, 2e-3), (2e-3, 1e-3)])
    def test_both_excesses_are_summed(self, e_d, e_b):
        # on the line 0, 1, 2 with the net {0}, q keeps d's excess on the
        # triangle (0, 1, 2), and b adds its own on the same triangle
        line = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float)
        bound, measured = adapted_bound_and_sweep(bumped(line, 0, 2, e_d), [0],
                                                  bumped(line, 0, 2, e_b))
        assert measured == pytest.approx(e_d + e_b, abs=1e-15)
        assert measured <= bound <= e_d + e_b + 1e-13

    @pytest.mark.parametrize("where", ["asymmetric d", "negative d", "negative b"])
    def test_inexact_inputs_get_no_bound(self, where):
        # the lemma needs d and b symmetric with no negative entry; the door
        # refuses any other d as a space's metric and any other b as induced
        d = lf.random_metric_space(5, seed=1).dist.copy()
        b = lf.quotient_pseudometric(lf.random_metric_space(5, seed=2).dist, [0])
        if where == "asymmetric d":
            d[1, 2] = np.nextafter(d[1, 2], 9.0)
        elif where == "negative d":
            d[1, 2] = d[2, 1] = -1e-12
        else:
            b[1, 2] = b[2, 1] = -1e-12
        kind = {"asymmetric d": "symmetry"}.get(where, "negative")
        if where.endswith("d"):
            with pytest.raises(lf.MetricError, match=kind):
                lf.FiniteMetricSpace([f"p{i}" for i in range(5)], d)
        else:
            assert kind in [v.kind for v in lf.validate_pseudometric(b).violations]

    def test_bundle_sweeps_only_the_induced_pseudometric(self, monkeypatch):
        nc = lf.build_net_cover(lf.make_grid_space([7, 7], 1 / 24), 0.3)
        swept = sweeps_of(monkeypatch)
        assert lf.build_extension_bundle(nc).passed
        assert swept == [(49, 49)]

    def test_asymmetric_space_metric_is_refused(self, monkeypatch):
        grid = lf.make_grid_space([7, 7], 1 / 24)
        d = grid.dist.copy()
        d[3, 4] = np.nextafter(d[3, 4], 1.0)
        swept = sweeps_of(monkeypatch)
        with pytest.raises(lf.MetricError, match="symmetry") as err:
            lf.FiniteMetricSpace(grid.points, d, coords=grid.coords)
        assert err.value.report.violations[0].witness == (3, 4) and swept == []


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
        start = lf.BoundedMetric(line_bundle.adapted, line_bundle.excess)
        for _ in range(5):
            probe = lf.perturb_metric(start, 0.9 * radius, rng)
            pb = lf.build_perturbed_operator(line_bundle, probe)
            e = probe.matrix
            assert pb.passed
            assert np.array_equal(pb.pou.matrix[list(pb.pou.domain)],
                                  np.eye(len(pb.pou.domain)))
            assert pb.gnorm <= lf.perturbed_norm_bound(line_bundle.nc.order_bound) + 1e-7
            lip_bound = 4 * (2 * line_bundle.nc.order_bound + 3) / line_bundle.nc.eps
            for i in range(len(line_bundle.net)):
                assert lf.lipschitz_constant(pb.pou.matrix[:, i], e) <= lip_bound + 1e-7

    @pytest.mark.parametrize("dims, spacing", [([13, 13], 0.02), ([65], 1 / 64)])
    def test_probes_reach_most_of_the_ball(self, dims, spacing):
        # each shortcut may take what is left of the ball where it lands, so
        # a probe's sup distance is most of its amplitude, not a sixteenth
        nc = lf.build_net_cover(lf.make_grid_space(dims, spacing), 0.25)
        bundle = lf.build_extension_bundle(nc)
        amplitude = 0.9 * lf.admission_radius(nc.eps, nc.order_bound)
        start = lf.BoundedMetric(bundle.adapted, bundle.excess)
        for seed in (7, 11):
            rng = np.random.default_rng(seed)
            for _ in range(4):
                probe = lf.perturb_metric(start, amplitude, rng).matrix
                assert 0.8 * amplitude < lf.sup_distance(probe, bundle.adapted) <= amplitude

    def test_handed_over_bound_is_recorded(self, grid_bundle):
        # a bound in a BoundedMetric is taken on trust, so the certificates
        # record which bound they took; a bare matrix records None
        radius = lf.admission_radius(grid_bundle.nc.eps, grid_bundle.nc.order_bound)
        probe = lf.perturb_metric(lf.BoundedMetric(grid_bundle.adapted, grid_bundle.excess),
                                  0.9 * radius, np.random.default_rng(3))
        taken = lf.build_perturbed_operator(grid_bundle, probe).certificates
        swept = lf.build_perturbed_operator(grid_bundle, probe.matrix).certificates
        assert taken[0].kind == swept[0].kind == "perturbation-admission"
        assert taken[0].details == {"excess_bound": probe.excess} and probe.excess is not None
        assert swept[0].details == {"excess_bound": None}
        assert all(a.inputs_hash != b.inputs_hash for a, b in zip(taken, swept))

    def test_perturbed_metric_is_certified_by_its_closure(self, grid_bundle, monkeypatch):
        # the probe is the shortest-path closure of the adapted metric with
        # its shortcuts added, and carries the bound of that closure
        radius = lf.admission_radius(grid_bundle.nc.eps, grid_bundle.nc.order_bound)
        e = lf.perturb_metric(lf.BoundedMetric(grid_bundle.adapted, grid_bundle.excess),
                              0.9 * radius, np.random.default_rng(3))
        assert e.excess is not None
        swept = sweeps_of(monkeypatch)
        assert lf.build_perturbed_operator(grid_bundle, e).passed
        assert swept == []

    def test_restricted_closure_is_swept(self, grid_bundle, monkeypatch):
        # one more point, one unit from point 0, then the probe restricted
        # back: a bare part is swept, a part handed over with the probe's
        # bound inherits it (the lemma of `restrict_space`)
        n = grid_bundle.adapted.shape[0]
        big = np.zeros((n + 1, n + 1))
        big[:n, :n] = grid_bundle.adapted
        big[n, :n] = big[:n, n] = grid_bundle.adapted[0] + 1.0
        radius = lf.admission_radius(grid_bundle.nc.eps, grid_bundle.nc.order_bound)
        closed = lf.perturb_metric(lf.BoundedMetric(big, lf.validate_metric(big).excess),
                                   0.9 * radius, np.random.default_rng(3))
        assert closed.excess is not None
        part = closed.matrix[np.ix_(range(n), range(n))]
        swept = sweeps_of(monkeypatch)
        assert lf.build_perturbed_operator(grid_bundle, part).passed
        assert swept == [(n, n)]
        swept.clear()
        assert lf.build_perturbed_operator(
            grid_bundle, lf.BoundedMetric(part, closed.excess)).passed
        assert swept == []

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
        e = lf.perturb_metric(bundle.adapted, 0.9 * radius, rng).matrix
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


def widest_row(w) -> int:
    """The largest number of nonzeros in a row of w."""
    return int(np.count_nonzero(w, axis=1).max())


class TestWeightSparsity:
    """lam_i(x) = d(x, U_i^c) / sum_j d(x, U_j^c) vanishes off U_i, so a
    partition of unity subordinate to a cover of order r has at most r + 1
    nonzeros per row.  The molecule sweeps of `freenorm` are only as fast as
    that is small; these are the pipelines' own configs."""

    @pytest.mark.parametrize("dims, spacing, eps", [
        ([13, 13], 0.02, 0.25),     # extend, 13 x 13
        ([30, 30], 0.02, 0.125),    # extend, 30 x 30
        ([65], 1 / 64, 0.1),        # extend staged by nu 1, n 1, 2, 4, 8
        ([65], 1 / 64, 0.05),
        ([65], 1 / 64, 0.025),
        ([65], 1 / 64, 0.0125),
    ])
    def test_bundle_and_perturbed_weights(self, dims, spacing, eps):
        bundle = lf.build_extension_bundle(
            lf.build_net_cover(lf.make_grid_space(dims, spacing), eps))
        r = bundle.nc.order_bound
        assert widest_row(bundle.pou.matrix) <= r + 1
        e = lf.perturb_metric(bundle.adapted, 0.9 * lf.admission_radius(eps, r),
                              np.random.default_rng(7))
        assert widest_row(lf.build_perturbed_operator(bundle, e).pou.matrix) <= r + 1

    def test_glue_collar_and_glued_operator(self):
        space = lf.make_grid_space([10, 10], 0.1)
        cfg = lf.GluingConfig(space, tuple(range(0, 100, 10)), 1, (0.7, 0.5, 0.3, 0.2, 0.1))
        bundle = lf.build_gluing_bundle(cfg, 1, 0.7)
        r = bundle.v_bundle.nc.order_bound
        assert r == cfg.dim_k
        assert widest_row(bundle.v_bundle.pou.matrix) <= r + 1
        rng = np.random.default_rng(5)
        probe = lf.perturb_metric(bundle.metric, 0.9 * lf.probe_radius(0.7, r), rng)
        for e in (bundle.metric, probe):
            cert = lf.certify_gluing(bundle, e, rng=rng)
            assert cert.passed
            # (1 - rho) times an inner row, plus rho on the point's own column:
            # a partition subordinate to the collar sets and the singletons,
            # a family of order r + 1
            assert widest_row(cert.h_matrix) <= r + 2
