from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dual_norm, solution_bytes, solve_serial, solve_with_scipy
from lipfree import lp as lpmod
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

        def pivot(tab, p, r, col):
            real(tab, p, r, col)
            tab[p, r, -1] = -amount

        monkeypatch.setattr(lpmod, "_pivot", pivot)

    def test_untouched_program_has_no_drift(self):
        prog = LinearProgram(objective=[1.0, 1.0], rows=np.eye(2), rhs=[1.0, 2.0])
        assert solve(prog).max_violation == 0.0
        assert dual_norm(self.WEIGHTS, self.D_SUB) > 0.0

    def test_clipped_drift_counts_as_violation(self, monkeypatch):
        self.drifting(monkeypatch, 1e-6)
        prog = LinearProgram(objective=[1.0, 1.0], rows=np.eye(2), rhs=[1.0, 2.0])
        sol = solve(prog)
        assert sol.status == "optimal" and sol.max_violation >= 1e-6

    def test_norm_lp_rejects_clipped_drift(self, monkeypatch):
        self.drifting(monkeypatch, 1e-6)
        with pytest.raises(LpError, match="residual"):
            dual_norm(self.WEIGHTS, self.D_SUB)


@st.composite
def program_stacks(draw):
    """Stacks of programs sharing their rows, as (objectives, rows, rhs).

    Integer stacks have small integer coefficients and rhs with many zeros,
    so ratio tests tie and pivots are degenerate, and members that differ
    only in their objective reach different bases before they tie.  Decimal
    stacks (multiples of 0.1) tie in exact arithmetic but not in floats, so
    their pivots drift below 0 and get clipped; normal stacks leave rounding
    residuals.  Without the box |x_j| <= 4 many members are unbounded, and a
    member with a zero objective is optimal after 0 pivots."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 10))
    k = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["integer", "decimal", "normal"]))
    if kind == "normal":
        rows = rng.normal(size=(m, n))
        c = rng.normal(size=(k, n))
        rhs = rng.uniform(0.0, 2.0, (k, m))
    else:
        unit = 1.0 if kind == "integer" else 0.1
        rows = rng.integers(-3, 4, (m, n)) * unit
        c = rng.integers(-2, 3, (k, n)) * unit
        rhs = rng.integers(0, 4, (k, m)) * unit
        rhs[rng.random((k, m)) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    if draw(st.booleans()):
        rows = np.vstack([rows, np.eye(n), -np.eye(n)])
        rhs = np.hstack([rhs, np.full((k, 2 * n), 4.0)])
    c[rng.random(k) < 0.2] = 0.0
    return c, rows, rhs


class TestStackedSimplex:
    """Every program of a stack, in any batch, is bitwise the one-program
    simplex of `conftest.solve_serial` on that program alone."""

    @given(program_stacks(), st.sampled_from([1, 40, 300, lpmod._BATCH_CELLS]))
    @settings(max_examples=300, deadline=None)
    def test_every_field_is_the_serial_ones(self, stack, cells):
        c, rows, rhs = stack
        with mock.patch.object(lpmod, "_BATCH_CELLS", cells):
            got = lpmod.solve_stack(lpmod.ProgramStack(c, rows, rhs))
        assert len(got) == len(c)
        for p, sol in enumerate(got):
            want = solve_serial(LinearProgram(c[p], rows, rhs[p]))
            assert solution_bytes(sol) == solution_bytes(want)
            assert solution_bytes(solve(LinearProgram(c[p], rows, rhs[p]))) == \
                solution_bytes(want)

    def test_members_tie_break_on_their_own(self):
        # the same rows; each rhs makes the ratio tests tie on different rows,
        # one member is optimal at once and one turns unbounded after a pivot
        rows = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [0.0, 1.0]])
        rhs = np.array([[1.0, 1.0, 2.0, 3.0], [2.0, 1.0, 1.0, 1.0], [1.0, 2.0, 1.0, 0.0],
                        [0.0, 0.0, 0.0, 0.0], [3.0, 3.0, 3.0, 3.0], [1.0, 1.0, 1.0, 1.0]])
        c = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, -1.0], [1.0, 1.0], [0.0, 0.0],
                      [0.0, -1.0]])
        seen = set()
        for stack in (lpmod.ProgramStack(c, rows, rhs),
                      lpmod.ProgramStack(c, np.vstack([rows, [[-1.0, -1.0]]]),
                                         np.hstack([rhs, np.ones((6, 1))]))):
            for p, sol in enumerate(lpmod.solve_stack(stack)):
                want = solve_serial(LinearProgram(stack.objective[p], stack.rows, stack.rhs[p]))
                assert solution_bytes(sol) == solution_bytes(want)
                seen.add((sol.status, sol.iterations == 0))
        assert seen == {("optimal", True), ("optimal", False), ("unbounded", False)}

    def test_members_keep_their_own_clipped_drift(self):
        # the first member's pivots drift its rhs below 0 by a few ulps, and
        # the clip's record of that is its max_violation; the others have none
        n = 3
        rows = np.vstack([np.array([[2, -1, 1], [3, 2, -2], [1, -1, 2]]) * 0.1,
                          np.eye(n), -np.eye(n)])
        rhs = np.concatenate([np.array([0, 2, 1]) * 0.1, np.full(2 * n, 4.0)])
        c = np.array([[2, -2, -1], [0, 0, 0], [-2, 2, 1], [1, 2, 1]]) * 0.1
        got = lpmod.solve_stack(lpmod.ProgramStack(c, rows, np.tile(rhs, (4, 1))))
        for p, sol in enumerate(got):
            want = solve_serial(LinearProgram(c[p], rows, rhs))
            assert solution_bytes(sol) == solution_bytes(want)
        assert got[0].max_violation > 0.0
        assert float((rows @ got[0].assignment - rhs).max()) < got[0].max_violation
        assert [sol.max_violation for sol in got[1:]] == [0.0, 0.0, 0.0]

    def test_batches_are_capped(self, monkeypatch):
        shapes = []
        real = lpmod._pivot

        def pivot(tab, p, r, col):
            shapes.append(tab.shape)
            real(tab, p, r, col)

        monkeypatch.setattr(lpmod, "_pivot", pivot)
        rng = np.random.default_rng(3)
        n, m = 3, 10
        rows = np.vstack([rng.normal(size=(m - 2 * n, n)), np.eye(n), -np.eye(n)])
        stack = lpmod.ProgramStack(rng.normal(size=(500, n)), rows, rng.uniform(1, 2, (500, m)))
        lpmod.solve_stack(stack)
        cells = (m + 1) * (2 * n + m + 1)
        assert max(s[0] for s in shapes) == lpmod._BATCH_CELLS // cells
        assert all(s[1:] == (m + 1, 2 * n + m + 1) for s in shapes)

    def test_malformed_stacks(self):
        with pytest.raises(ValueError, match="k x n"):
            lpmod.ProgramStack(np.ones((2, 3)), np.ones((4, 3)), np.ones((3, 4)))
        with pytest.raises(ValueError, match="finite"):
            lpmod.ProgramStack(np.ones((1, 1)), [[np.inf]], np.ones((1, 1)))
        with pytest.raises(ValueError, match="nonnegative"):
            lpmod.ProgramStack(np.ones((2, 1)), [[1.0]], [[1.0], [-1.0]])
