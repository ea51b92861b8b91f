import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import solve_with_scipy
from lipfree import freenorm as fn, lp as lpmod
from lipfree.lp import LinearProgram, LpError, solve


class TestBasics:
    def test_max_x_leq_one(self):
        sol = solve(LinearProgram(objective=[1.0], rows=[[1.0]], rhs=[1.0]))
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.max_violation <= 1e-9

    def test_unbounded(self):
        prog = LinearProgram(objective=[1.0], rows=[[-1.0]], rhs=[1.0])
        assert solve(prog).status == "unbounded"

    def test_malformed_dimensions(self):
        with pytest.raises(ValueError):
            LinearProgram(objective=[1.0], rows=[[1.0, 2.0]], rhs=[1.0])

    def test_rhs_must_be_finite_and_nonnegative(self):
        for bad in (-1e-12, np.inf, np.nan):
            with pytest.raises(ValueError):
                LinearProgram(objective=[1.0, 1.0], rows=np.eye(2), rhs=[1.0, bad])


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        rng = np.random.default_rng(0)
        prog = LinearProgram(
            objective=rng.normal(size=6),
            rows=np.vstack([rng.normal(size=(10, 6)), np.eye(6), -np.eye(6)]),
            rhs=np.concatenate([rng.uniform(1, 2, size=10), np.full(12, 5.0)]),
        )
        a = solve(prog)
        b = solve(prog)
        assert a.value == b.value
        assert np.array_equal(a.assignment, b.assignment)
        assert a.iterations == b.iterations


def random_bounded_lp(seed):
    """Random rows plus the box |x_j| <= 10, with b >= 0 so x = 0 is feasible."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    rows = rng.normal(size=(m, n))
    rhs = rng.uniform(0.0, 1.0, size=m)
    return LinearProgram(
        objective=rng.normal(size=n),
        rows=np.vstack([rows, np.eye(n), -np.eye(n)]),
        rhs=np.concatenate([rhs, np.full(2 * n, 10.0)]),
    )


class TestAgainstScipy:
    @given(st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_optimal_values_agree(self, seed):
        prog = random_bounded_lp(seed)
        ours = solve(prog)
        ref = solve_with_scipy(prog)
        assert ours.status == ref.status == "optimal"
        assert ours.value == pytest.approx(ref.value, abs=1e-6)
        assert ours.max_violation <= 1e-9

    def test_free_variables_agree(self):
        prog = LinearProgram(
            objective=[1.0, -2.0],
            rows=[[1.0, 0.0], [0.0, -1.0], [1.0, -1.0]],
            rhs=[3.0, 2.0, 6.0],
        )
        ours = solve(prog)
        ref = solve_with_scipy(prog)
        assert ours.status == ref.status == "optimal"
        assert ours.value == pytest.approx(7.0, abs=1e-9)
        assert ours.value == pytest.approx(ref.value, abs=1e-8)


class TestObjectiveConsistency:
    @given(st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_value_matches_assignment(self, seed):
        prog = random_bounded_lp(seed)
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(float(prog.objective @ sol.assignment), abs=1e-9)


class TestClippedDrift:
    # the norm LP of 0.5 delta_1 - 0.25 delta_2 over 0, 1, 3 with base 0
    WEIGHTS = np.array([0.5, -0.25])
    D_SUB = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 3.0], [1.0, 3.0, 0.0]])

    def drifting(self, monkeypatch, amount):
        """Make every pivot leave the pivot row's rhs at -amount, as rounding
        could; the clip then removes amount."""
        real = lpmod._pivot

        def pivot(tab, r, col):
            real(tab, r, col)
            tab[r, -1] = -amount

        monkeypatch.setattr(lpmod, "_pivot", pivot)

    def test_untouched_program_has_no_drift(self):
        prog = LinearProgram(objective=[1.0, 1.0], rows=np.eye(2), rhs=[1.0, 2.0])
        assert solve(prog).max_violation == 0.0
        assert fn._dual_norm(self.WEIGHTS, self.D_SUB) > 0.0

    def test_clipped_drift_counts_as_violation(self, monkeypatch):
        self.drifting(monkeypatch, 1e-6)
        prog = LinearProgram(objective=[1.0, 1.0], rows=np.eye(2), rhs=[1.0, 2.0])
        sol = solve(prog)
        assert sol.status == "optimal" and sol.max_violation >= 1e-6

    def test_norm_lp_rejects_clipped_drift(self, monkeypatch):
        self.drifting(monkeypatch, 1e-6)
        with pytest.raises(LpError, match="residual"):
            fn._dual_norm(self.WEIGHTS, self.D_SUB)
