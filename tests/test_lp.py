import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lipfree as lf
from lipfree.lp import LinearProgram, solve, solve_with_scipy


def simple_lp(**kw):
    defaults = dict(
        objective=[1.0],
        sense="max",
        rows=[[1.0]],
        relations=("<=",),
        rhs=[1.0],
    )
    defaults.update(kw)
    return LinearProgram(**defaults)


class TestBasics:
    def test_max_x_leq_one(self):
        sol = solve(simple_lp())
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-9)
        assert sol.max_violation <= 1e-9

    def test_infeasible(self):
        prog = simple_lp(rows=[[1.0], [1.0]], relations=("<=", ">="), rhs=[1.0, 2.0])
        assert solve(prog).status == "infeasible"

    def test_unbounded(self):
        prog = LinearProgram(objective=[1.0], sense="max")
        assert solve(prog).status == "unbounded"

    def test_min_sense(self):
        prog = LinearProgram(objective=[1.0], sense="min", bounds=((2.0, None),))
        sol = solve(prog)
        assert sol.value == pytest.approx(2.0)

    def test_equality_row(self):
        prog = LinearProgram(objective=[1.0, 1.0], sense="max",
                             rows=[[1.0, 1.0], [1.0, -1.0]],
                             relations=("=", "<="), rhs=[2.0, 0.5],
                             bounds=((0, None), (0, None)))
        sol = solve(prog)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(2.0)
        assert sol.max_violation <= 1e-9

    def test_two_sided_bounds(self):
        prog = LinearProgram(objective=[1.0], sense="max", bounds=(( -1.0, 3.5),))
        assert solve(prog).value == pytest.approx(3.5)

    def test_malformed_dimensions(self):
        with pytest.raises(ValueError):
            LinearProgram(objective=[1.0], rows=[[1.0, 2.0]], relations=("<=",), rhs=[1.0])

    def test_bad_relation(self):
        with pytest.raises(ValueError):
            LinearProgram(objective=[1.0], rows=[[1.0]], relations=("<",), rhs=[1.0])


class TestDeterminism:
    def test_identical_runs_bitwise_equal(self):
        rng = np.random.default_rng(0)
        prog = LinearProgram(
            objective=rng.normal(size=6), sense="max",
            rows=rng.normal(size=(10, 6)), relations=("<=",) * 10,
            rhs=rng.uniform(1, 2, size=10),
            bounds=tuple((-5.0, 5.0) for _ in range(6)),
        )
        a = solve(prog)
        b = solve(prog)
        assert a.value == b.value
        assert np.array_equal(a.assignment, b.assignment)
        assert a.iterations == b.iterations


def random_bounded_lp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    rows = rng.normal(size=(m, n))
    x0 = rng.uniform(0, 1, size=n)
    rhs = rows @ x0 + rng.uniform(0.1, 1.0, size=m)
    return LinearProgram(
        objective=rng.normal(size=n), sense="max",
        rows=rows, relations=("<=",) * m, rhs=rhs,
        bounds=tuple((-10.0, 10.0) for _ in range(n)),
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
            objective=[1.0, -2.0], sense="max",
            rows=[[1.0, 0.0], [0.0, -1.0], [1.0, -1.0]],
            relations=("<=", "<=", "<="), rhs=[3.0, 2.0, 6.0],
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
