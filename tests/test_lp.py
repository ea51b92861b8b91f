from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lipfree as lf

from conftest import (exact_transport, line_space, lipschitz_lp_with_scipy, solve_with_scipy,
                      tamper_transport)
from lipfree import freenorm as fn, lp as lpmod
from lipfree.lp import LpError, transport

EPS = np.finfo(float).eps


def balanced(weights: np.ndarray) -> np.ndarray:
    """The rows of weights with a last entry -sum, as `freenorm._lp_norms`
    balances a row at the base."""
    total = np.zeros(len(weights))
    for s in range(weights.shape[1]):
        total += weights[:, s]
    return np.concatenate([weights, -total[:, None]], axis=1)


@st.composite
def transport_stacks(draw):
    """Stacks of k programs over n <= 9 points (a support of up to 8 and
    the base), as (mu, d).  Metrics are random closures, integer spots on a
    line, where many plans tie, or the discrete metric, where every plan
    costs the same.  Masses are quarters, which sum exactly, or decimals,
    whose float sums leave the base a remainder; some are zero."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    metric = draw(st.sampled_from(["random", "line", "discrete"]))
    if metric == "random":
        d = np.stack([lf.random_metric_space(n, seed=int(s)).dist
                      for s in rng.integers(0, 2**16, k)])
    elif metric == "line":
        spots = rng.integers(0, 6, (k, n)).astype(float)
        d = np.abs(spots[:, :, None] - spots[:, None, :])
    else:
        d = np.tile(1.0 - np.eye(n), (k, 1, 1))
    if draw(st.booleans()):
        weights = rng.integers(-8, 9, (k, n - 1)) / 4.0
    else:
        weights = np.round(rng.normal(size=(k, n - 1)), 2)
    weights[rng.random((k, n - 1)) < 0.2] = 0.0
    return balanced(weights), d


class TestBasics:
    def test_one_source_one_target(self):
        d = np.array([[[0.0, 2.0], [2.0, 0.0]]])
        sol = transport([[1.5, -1.5]], d)
        assert sol.cost.tolist() == [3.0]
        assert sol.plan.tolist() == [[[0.0, 1.5], [0.0, 0.0]]]
        g = sol.potential[0]
        assert g[0] - g[1] == 2.0

    def test_zero_masses_move_nothing(self):
        sol = transport(np.zeros((2, 3)), np.tile(1.0 - np.eye(3), (2, 1, 1)))
        assert sol.cost.tolist() == [0.0, 0.0]
        assert not sol.plan.any() and not sol.potential.any()

    def test_malformed_dimensions(self):
        with pytest.raises(ValueError, match="k x n"):
            transport([1.0, -1.0], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="k x n"):
            transport(np.ones((2, 3)), np.zeros((2, 3, 2)))
        with pytest.raises(ValueError, match="k x n"):
            transport(np.ones((2, 3)), np.zeros((1, 3, 3)))

    def test_costs_must_be_finite_and_nonnegative(self):
        mu = [[1.0, -1.0]]
        for bad in (-1e-12, np.inf, np.nan):
            with pytest.raises(ValueError):
                transport(mu, [[[0.0, 1.0], [bad, 0.0]]])
        with pytest.raises(ValueError, match="finite"):
            transport([[np.nan, 1.0]], [[[0.0, 1.0], [1.0, 0.0]]])

    def test_negative_cycle_is_refused(self):
        # no residual graph of nonnegative costs holds one, so the labels
        # are given arcs 0 -> 1 -> 0 of cost -1 directly
        arcs = np.array([[[np.inf, -1.0], [-1.0, np.inf]]])
        with pytest.raises(LpError, match="negative cycle"):
            lpmod._labels(arcs, np.array([[True, False]]), np.zeros(1))


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        rng = np.random.default_rng(0)
        d = np.stack([lf.random_metric_space(7, seed=s).dist for s in range(20)])
        mu = balanced(np.round(rng.normal(size=(20, 6)), 1))
        a, b = transport(mu, d), transport(mu, d)
        for field in ("plan", "cost", "potential"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()


class TestAgainstScipy:
    @given(transport_stacks())
    @settings(max_examples=60, deadline=None)
    def test_optimal_values_agree(self, stack):
        mu, d = stack
        sol = transport(mu, d)
        for p in range(len(mu)):
            want = solve_with_scipy(mu[p], d[p])
            assert sol.cost[p] == pytest.approx(want, abs=1e-9 * max(1.0, d[p].max()))

    @given(transport_stacks())
    @settings(max_examples=40, deadline=None)
    def test_free_variables_agree(self, stack):
        # HiGHS on the dual, the Lipschitz LP over free f with the base
        # pinned, against the plan's cost and the potential's pairing
        mu, d = stack
        sol = transport(mu, d)
        for p in range(len(mu)):
            want = lipschitz_lp_with_scipy(mu[p], d[p], mu.shape[1] - 1)
            tol = 1e-9 * max(1.0, d[p].max()) * max(1.0, np.abs(mu[p]).sum())
            assert sol.cost[p] == pytest.approx(want, abs=tol)
            assert (mu[p] * sol.potential[p]).sum() == pytest.approx(want, abs=tol)


class TestObjectiveConsistency:
    @given(transport_stacks())
    @settings(max_examples=40, deadline=None)
    def test_value_matches_assignment(self, stack):
        # the cost is the plan's, and the plan moves the masses
        mu, d = stack
        sol = transport(mu, d)
        assert sol.cost == pytest.approx((sol.plan * d).sum(axis=(1, 2)), rel=1e-14, abs=0.0)
        mass = np.abs(mu).sum(axis=1, keepdims=True)
        assert np.all(np.abs(sol.plan.sum(axis=2) - np.maximum(mu, 0.0)) <= 9 * EPS * mass)
        assert np.all(np.abs(sol.plan.sum(axis=1) - np.maximum(-mu, 0.0)) <= 9 * EPS * mass)
        assert np.all(sol.plan >= 0.0)
        # only sources send, only targets receive
        assert not sol.plan[~((mu > 0.0)[:, :, None] & (mu < 0.0)[:, None, :])].any()


class TestClippedDrift:
    def test_norm_lp_rejects_clipped_drift(self, monkeypatch):
        # a plan entry that rounding, or a clip of it, left short by TOL / 2
        # of the mass passes the witness check, one short by 1e-6 fails it;
        # 0.5 delta_1 - 0.25 delta_2 on the line -1, 0, 2 (base 0) is 1.25
        cols, weights = np.array([[1, 2]]), np.array([[0.5, -0.25]])
        d = line_space([0.0, 2.0, -1.0]).dist
        assert fn._lp_norms(cols, weights, d, 0, {}).tolist() == [1.25]
        tamper_transport(monkeypatch, 0, "plan", -lpmod.TOL / 2)
        assert fn._lp_norms(cols, weights, d, 0, {}).tolist() == [1.25]
        tamper_transport(monkeypatch, 0, "plan", -1e-6)
        with pytest.raises(LpError, match="program 0: marginal"):
            fn._lp_norms(cols, weights, d, 0, {})


class TestExactOracle:
    """Plans, costs and potentials against the rational transport of
    `conftest.exact_transport`, which shares no code and no tolerance with
    the solver."""

    @given(transport_stacks())
    @settings(max_examples=150, deadline=None)
    def test_plan_cost_and_potential_match_the_exact_transport(self, stack):
        mu, d = stack
        sol = transport(mu, d)
        n = mu.shape[1]
        for p in range(len(mu)):
            want, _ = exact_transport(mu[p], d[p])
            q = [Fraction(x) for x in mu[p]]
            D = [[Fraction(x) for x in row] for row in d[p]]
            y = [[Fraction(x) for x in row] for row in sol.plan[p]]
            g = [Fraction(x) for x in sol.potential[p]]
            mass = sum(abs(x) for x in q)
            scale = Fraction(float(d[p].max())) * mass
            # marginals, exactly, against the masses
            for x in range(n):
                sent, got = sum(y[x]), sum(y[i][x] for i in range(n))
                assert abs(sent - max(q[x], 0)) <= 9 * Fraction(EPS) * mass
                assert abs(got - max(-q[x], 0)) <= 9 * Fraction(EPS) * mass
            # the plan's exact cost and the float cost against the optimum
            exact_cost = sum(y[i][j] * D[i][j] for i in range(n) for j in range(n))
            assert abs(exact_cost - want) <= 2 * n * Fraction(lpmod.TOL) * scale
            assert abs(Fraction(float(sol.cost[p])) - exact_cost) <= n * n * Fraction(EPS) * scale
            # the potential is 1-Lipschitz up to rounding, and its pairing
            # with mu reaches the optimum
            excess = max(g[x] - g[z] - D[x][z] for x in range(n) for z in range(n))
            assert excess <= 4 * n * Fraction(EPS) * Fraction(float(d[p].max()))
            pairing = sum(q[x] * g[x] for x in range(n))
            assert abs(pairing - want) <= 2 * n * Fraction(lpmod.TOL) * scale

    def test_oracle_on_a_known_plan(self):
        # 1 at 0 and 1 at 1 onto 2 and 3 on the line 0, 1, 2, 3: 1 -> 2 and
        # 0 -> 3 or 0 -> 2 and 1 -> 3 both cost 4
        d = line_space([0.0, 1.0, 2.0, 3.0]).dist
        value, plan = exact_transport([1.0, 1.0, -1.0, -1.0], d)
        assert value == 4
        assert sum(map(sum, plan)) == 2


class TestStackedTransport:
    """A program's plan, cost and potential are bitwise those it gets in a
    stack of one."""

    @given(transport_stacks())
    @settings(max_examples=100, deadline=None)
    def test_every_program_is_its_own_solve(self, stack):
        mu, d = stack
        sol = transport(mu, d)
        for p in range(len(mu)):
            alone = transport(mu[p:p + 1], d[p:p + 1])
            for field in ("plan", "cost", "potential"):
                assert getattr(alone, field).tobytes() == getattr(sol, field)[p:p + 1].tobytes()

    def test_members_tie_break_on_their_own(self):
        # on the discrete metric every plan ties: the first wanting target of
        # least label takes the first source's mass, and the second source
        # fills the next; the second member is the first mirrored
        d = np.tile(1.0 - np.eye(4), (3, 1, 1))
        mu = np.array([[1.0, 1.0, -1.0, -1.0], [-1.0, -1.0, 1.0, 1.0], [0.5, 1.5, -1.0, -1.0]])
        sol = transport(mu, d)
        assert sol.plan[0][[0, 1], [2, 3]].tolist() == [1.0, 1.0]
        assert sol.plan[1][[2, 3], [0, 1]].tolist() == [1.0, 1.0]
        assert sol.cost.tolist() == [2.0, 2.0, 2.0]
        for p in range(3):
            alone = transport(mu[p:p + 1], d[p:p + 1])
            assert alone.plan.tobytes() == sol.plan[p:p + 1].tobytes()

    def test_random_nine_point_programs_finish(self):
        # decimal masses on random closures: rounding makes zero-cost
        # residual cycles slightly negative, which labels that move on any
        # decrease chase forever; with TOL = 0 every batch of these fails
        rng = np.random.default_rng(1)
        for _ in range(5):
            d = np.stack([lf.random_metric_space(9, seed=int(s)).dist
                          for s in rng.integers(0, 2**30, 100)])
            mu = balanced(np.round(rng.normal(size=(100, 8)), 1))
            sol = transport(mu, d)
            fn._check_witnesses(mu, d, sol)
            for p in range(0, 100, 25):
                assert sol.cost[p] == pytest.approx(solve_with_scipy(mu[p], d[p]), rel=1e-9)


class TestStackedSimplex:
    def test_malformed_stacks(self):
        # one malformed member refuses the whole stack
        mu = np.array([[1.0, -1.0], [0.5, -0.5], [2.0, -2.0]])
        d = np.tile(1.0 - np.eye(2), (3, 1, 1))
        assert transport(mu, d).cost.tolist() == [1.0, 0.5, 2.0]
        with pytest.raises(ValueError, match="k x n"):
            transport(mu, d[:2])
        bad_mu, bad_d = mu.copy(), d.copy()
        bad_mu[1, 0], bad_d[2, 0, 1] = np.inf, -1.0
        with pytest.raises(ValueError, match="finite"):
            transport(bad_mu, d)
        with pytest.raises(ValueError, match="nonnegative"):
            transport(mu, bad_d)
