import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.linalg import solve_banded

from confsim.grid_field import (
    Grid,
    ScalarField,
    Trajectory,
    UnsupportedExponent,
    d1,
    d2,
    load_field,
    norm_l2,
    norm_lp_time_lq_space,
    save_field,
    trapezoid,
    tridiag_solve,
)


def field(grid, fn):
    return np.asarray(fn(grid.x), dtype=float)


class TestGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Grid(2.0, 1.0, 11)
        with pytest.raises(ValueError):
            Grid(-1.0, 1.0, 11)
        with pytest.raises(ValueError):
            Grid(1.0, 2.0, 2)
        with pytest.raises(ValueError, match="at least 4 nodes"):
            Grid(1.0, 2.0, 3)  # d2's boundary stencil reads four nodes

    def test_nodes(self):
        grid = Grid(1.0, 2.0, 5)
        assert grid.x[0] == 1.0
        assert grid.x[-1] == 2.0
        assert np.all(np.diff(grid.x) > 0)
        assert grid.h == pytest.approx(0.25)


class TestStencils:
    def test_d1_constant(self):
        grid = Grid(1.0, 2.0, 33)
        assert np.max(np.abs(d1(field(grid, lambda x: 0 * x + 4.0), grid.h))) == 0.0

    def test_d1_exact_on_linears(self):
        grid = Grid(1.0, 2.0, 17)
        out = d1(field(grid, lambda x: x), grid.h)
        assert np.max(np.abs(out - 1.0)) < 1e-12

    def test_d1_cubic_rate(self):
        errs = []
        hs = []
        for n in (101, 201, 401):
            grid = Grid(1.0, 2.0, n)
            out = d1(field(grid, lambda x: x**3), grid.h)
            errs.append(np.max(np.abs(out - 3 * grid.x**2)))
            hs.append(grid.h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate == pytest.approx(2.0, abs=0.1)

    def test_d2_linear_and_quadratic(self):
        grid = Grid(1.0, 2.0, 21)
        assert np.max(np.abs(d2(field(grid, lambda x: 3 * x - 1), grid.h))) < 1e-10
        out = d2(field(grid, lambda x: x**2), grid.h)
        assert np.max(np.abs(out - 2.0)) < 1e-10

    def test_d2_sine_rate(self):
        errs = []
        hs = []
        for n in (101, 201, 401):
            grid = Grid(1.0, 2.0, n)
            out = d2(field(grid, np.sin), grid.h)
            errs.append(np.max(np.abs(out[1:-1] + np.sin(grid.x[1:-1]))))
            hs.append(grid.h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate == pytest.approx(2.0, abs=0.1)

    @given(
        alpha=st.floats(-3.0, 3.0),
        beta=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, alpha, beta, seed):
        grid = Grid(1.0, 2.0, 33)
        rng = np.random.default_rng(seed)
        f = rng.uniform(-1, 1, grid.n)
        g = rng.uniform(-1, 1, grid.n)
        combo = alpha * f + beta * g
        for op in (d1, d2):
            lhs = op(combo, grid.h)
            rhs = alpha * op(f, grid.h) + beta * op(g, grid.h)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("n", [4, 5, 129])
    def test_stack_matches_rows_bit_for_bit(self, n):
        grid = Grid(1.0, 2.0, n)
        stack = np.random.default_rng(n).normal(size=(7, n))
        for op in (d1, d2):
            got = op(stack, grid.h)
            assert got.shape == stack.shape
            for row, values in zip(got, stack):
                assert np.array_equal(row, op(values, grid.h))

    def test_norms_of_a_stack_are_the_row_norms(self):
        grid = Grid(1.0, 2.0, 33)
        stack = np.random.default_rng(4).normal(size=(5, grid.n))
        norms = norm_l2(stack, grid.h)
        assert np.array_equal(norms, [norm_l2(row, grid.h) for row in stack])


class TestNorms:
    def test_zero_field(self):
        grid = Grid(1.0, 2.0, 11)
        assert norm_l2(np.zeros(grid.n), grid.h) == 0.0

    def test_unit_constant(self):
        grid = Grid(1.0, 2.0, 101)
        one = field(grid, lambda x: np.ones_like(x))
        assert norm_l2(one, grid.h) == pytest.approx(1.0, abs=1e-14)

    def test_linear_closed_form(self):
        grid = Grid(1.0, 2.0, 1001)
        f = field(grid, lambda x: x)
        assert norm_l2(f, grid.h) == pytest.approx(math.sqrt(7.0 / 3.0), abs=1e-4)

    def test_quadrature_rate(self):
        exact = math.sqrt(0.5 - math.sin(2.0) * math.cos(2.0) + math.sin(1.0) * math.cos(1.0) * 0 + 0)
        # closed form of int_1^2 sin^2(x) dx = 1/2 - (sin(4) - sin(2))/4
        exact = math.sqrt(0.5 - (math.sin(4.0) - math.sin(2.0)) / 4.0)
        errs, hs = [], []
        for n in (51, 101, 201):
            grid = Grid(1.0, 2.0, n)
            errs.append(abs(norm_l2(field(grid, np.sin), grid.h) - exact))
            hs.append(grid.h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate >= 1.9

    def test_unsupported_exponent(self):
        grid = Grid(1.0, 2.0, 11)
        with pytest.raises(UnsupportedExponent):
            norm_lp_time_lq_space([0.0, 1.0], np.zeros((2, grid.n)), grid.h, 3.0, 2.0)

    def test_mixed_norm_max(self):
        grid = Grid(1.0, 2.0, 11)
        a = field(grid, lambda x: 0 * x + 1.0)
        b = field(grid, lambda x: 0 * x - 5.0)
        assert norm_lp_time_lq_space([0.0, 1.0], np.stack([a, b]), grid.h, math.inf, math.inf) == 5.0

    def test_mixed_norm_reduces_to_space_norm(self):
        grid = Grid(1.0, 2.0, 201)
        f = field(grid, lambda x: x)
        t_end = 2.5
        got = norm_lp_time_lq_space([0.0, t_end], np.stack([f, f]), grid.h, 2.0, 2.0)
        assert got == pytest.approx(math.sqrt(t_end) * norm_l2(f, grid.h), rel=1e-12)


class TestTrapezoid:
    """The local rule against scipy's, which stays in the tests as the oracle."""

    rng = np.random.default_rng(3)
    ROW = rng.normal(size=129)
    STACK = rng.normal(size=(7, 129))
    TIMES = np.cumsum(rng.uniform(0.1, 1.0, size=7))

    @pytest.mark.parametrize(
        "y, kwargs",
        [
            (ROW, {}),
            (ROW, {"dx": 1.0 / 128}),
            (ROW, {"dx": 0.3, "axis": -1}),
            (STACK, {"dx": 1.0 / 128}),
            (STACK, {"dx": 1.0 / 128, "axis": -1}),
            (STACK, {"dx": 1.0 / 128, "axis": 1}),
            (STACK[:, 5], {"x": TIMES}),
            (STACK, {"x": TIMES, "axis": 0}),
            (STACK.T, {"x": TIMES}),
        ],
    )
    def test_bit_identical_to_scipy(self, y, kwargs):
        got = trapezoid(y, **kwargs)
        want = integrate.trapezoid(y, **kwargs)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    def test_exact_for_linear(self):
        x = np.array([0.0, 0.5, 2.0])
        assert trapezoid(3.0 * x + 1.0, x) == 8.0


def banded_reference(lower, diag, upper, rhs):
    """The (3, n) banded block fed to scipy's general banded solver."""
    ab = np.zeros((3, len(diag)))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return solve_banded((1, 1), ab, rhs)


def fd_operator(n, a=1.0, d=2.0):
    """Diagonals of the radial elasticity operator with pinned boundary rows.

    Built from the node formula rather than a Grid, so that n = 3 works too.
    """
    h = (d - a) / (n - 1)
    xi = np.linspace(a, d, n)[1:-1]
    diag = np.ones(n)
    diag[1:-1] = -2.0 / h**2 - 2.0 / xi**2
    lower = np.append(1.0 / h**2 - 1.0 / (xi * h), 0.0)
    upper = np.append(0.0, 1.0 / h**2 + 1.0 / (xi * h))
    return lower, diag, upper


class TestTridiagSolve:
    @pytest.mark.parametrize("n", [3, 4, 129, 2049])
    def test_matches_banded_solver_on_fd_operator(self, n):
        lower, diag, upper = fd_operator(n)
        rhs = np.random.default_rng(n).normal(size=n)
        got = tridiag_solve(lower, diag, upper, rhs)
        assert np.array_equal(got, banded_reference(lower, diag, upper, rhs))

    @pytest.mark.parametrize("n", [3, 4, 65, 129])
    def test_matches_banded_solver_on_step_matrices(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(25):
            beta = rng.uniform(0.0, 1e3, size=n - 2) * rng.uniform(size=n - 2)
            diag = np.ones(n)
            diag[1:-1] += 2.0 * beta
            lower = np.append(-beta, 0.0)
            upper = np.append(0.0, -beta)
            rhs = rng.normal(size=n)
            got = tridiag_solve(lower, diag, upper, rhs)
            assert np.array_equal(got, banded_reference(lower, diag, upper, rhs))

    def test_inputs_unchanged(self):
        lower, diag, upper = fd_operator(17)
        rhs = np.linspace(-1.0, 1.0, 17)
        before = [a.copy() for a in (lower, diag, upper, rhs)]
        tridiag_solve(lower, diag, upper, rhs)
        for a, b in zip((lower, diag, upper, rhs), before):
            assert np.array_equal(a, b)

    def test_singular_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            tridiag_solve(np.zeros(2), np.array([1.0, 0.0, 1.0]), np.zeros(2), np.ones(3))


class TestSerialization:
    def test_field_round_trip(self, tmp_path):
        grid = Grid(1.0, 2.0, 33)
        rng = np.random.default_rng(3)
        f = ScalarField(grid, rng.normal(size=grid.n))
        save_field(tmp_path / "f.csv", f, t=0.125)
        g, t = load_field(tmp_path / "f.csv", grid)
        assert t == 0.125
        assert np.array_equal(f.values, g.values)

    def test_trajectory_validation(self):
        grid = Grid(1.0, 2.0, 5)
        z = ScalarField(grid, np.zeros(grid.n))
        traj = Trajectory(np.array([0.0, 0.5, 1.0]), [z] * 3, [z] * 3, np.array([0, 1, 2]))
        traj.validate(t_end=1.0)
        bad = Trajectory(np.array([0.1, 0.5]), [z] * 2, [z] * 2, np.array([0, 1]))
        with pytest.raises(ValueError):
            bad.validate()


class TestScalarField:
    def test_validation(self):
        grid = Grid(1.0, 2.0, 5)
        assert ScalarField(grid, [0, 1, 2, 1, 0]).values.dtype == float
        with pytest.raises(ValueError, match="expected 5 values"):
            ScalarField(grid, np.zeros(4))
        with pytest.raises(ValueError, match="expected 5 values"):
            ScalarField(grid, np.zeros((2, 5)))
