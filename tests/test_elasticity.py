import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

from confsim.grid_field import Grid, ScalarField, d1, tridiag_solve
from confsim.material import MaterialParams
from confsim.elasticity import (
    GreenKernel,
    _green_weights,
    elastic_constants,
    elastic_rhs,
    fd_operator,
    fd_residual,
    solve_elasticity,
    solve_fd,
    solve_green,
)

from conftest import green, green_dx, green_operator_residual

A, D = 1.0, 2.0


def params(mu=2.0, lam=0.2):
    return MaterialParams(c=1.0, nu=0.1, mu=mu, lam=lam, e=0.06, well_weight=1.0)


def sine_case(grid):
    """Exact displacement vanishing at both ends plus its operator image."""
    k = math.pi / (grid.d - grid.a)
    u = np.sin(k * (grid.x - grid.a))
    up = k * np.cos(k * (grid.x - grid.a))
    upp = -(k**2) * np.sin(k * (grid.x - grid.a))
    g = upp + 2.0 * up / grid.x - 2.0 * u / grid.x**2
    return u, g


class TestHomogeneousSolutions:
    def test_boundary_values(self):
        kernel = GreenKernel(A, D)
        u1, u2 = kernel.u1, kernel.u2
        assert u1(A) == 0.0
        assert u2(D) == 0.0

    def test_operator_annihilates(self):
        # substitute into (x^2 u')' - 2u = x^2 u'' + 2x u' - 2u with derivatives
        # worked out by hand for u = x + c/x^2
        for c, sign in ((A**3, -1.0), (D**3, -1.0)):
            for x in (1.1, 1.5, 1.9):
                u = x + sign * c / x**2
                up = 1.0 - sign * 2.0 * c / x**3 * -1.0  # d/dx (c x^-2) = -2c x^-3
                up = 1.0 + sign * (-2.0) * c / x**3
                upp = sign * 6.0 * c / x**4
                residual = x**2 * upp + 2.0 * x * up - 2.0 * u
                assert abs(residual) < 1e-10

    def test_euler_exponents(self):
        # (x^2 (x^m)')' - 2 x^m = (m^2 + m - 2) x^m, roots are the exponents
        roots = sorted(np.roots([1.0, 1.0, -2.0]))
        assert roots[0] == pytest.approx(-2.0, abs=1e-12)
        assert roots[1] == pytest.approx(1.0, abs=1e-12)

    def test_wronskian_normalization_constant(self):
        kernel = GreenKernel(A, D)
        for x in np.linspace(1.05, 1.95, 10):
            w = kernel.u1(x) * kernel.u2_prime(x) - kernel.u1_prime(x) * kernel.u2(x)
            assert abs(x**2 * w - kernel.norm_const) < 1e-10


class TestGreenKernel:
    """G(x, y) = u1(min) u2(max) / norm_const, written out in the tests from the closed forms solve_green reads."""

    def test_symmetry(self):
        kernel = GreenKernel(A, D)
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(A, D, size=(20, 2)):
            assert abs(green(kernel, x, y) - green(kernel, y, x)) < 1e-12

    def test_boundary_vanishing(self):
        kernel = GreenKernel(A, D)
        rng = np.random.default_rng(2)
        for y in rng.uniform(A, D, size=20):
            assert abs(green(kernel, A, y)) < 1e-14
            assert abs(green(kernel, D, y)) < 1e-14

    def test_derivative_jump(self):
        kernel = GreenKernel(A, D)
        rng = np.random.default_rng(3)
        for y in rng.uniform(1.05, 1.95, size=20):
            target = 1.0 / y**2
            delta = 2.0e-4
            g1 = green_dx(kernel, y + delta, y) - green_dx(kernel, y - delta, y)
            g2 = green_dx(kernel, y + delta / 2, y) - green_dx(kernel, y - delta / 2, y)
            # first-order in delta, so halving roughly halves the error
            assert abs(g1 - target) < 0.05
            assert abs(2.0 * g2 - g1 - target) < 1e-6

    def test_jump_error_scales_linearly(self):
        kernel = GreenKernel(A, D)
        y = 1.5
        target = 1.0 / y**2
        e1 = abs(green_dx(kernel, y + 1e-3, y) - green_dx(kernel, y - 1e-3, y) - target)
        e2 = abs(green_dx(kernel, y + 5e-4, y) - green_dx(kernel, y - 5e-4, y) - target)
        assert e1 / e2 == pytest.approx(2.0, abs=0.3)

    def test_operator_residual_off_diagonal(self):
        kernel = GreenKernel(A, D)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x, y = rng.uniform(A, D, size=2)
            if abs(x - y) < 1e-3:
                continue
            assert abs(green_operator_residual(kernel, x, y)) < 1e-8

    def test_operator_residual_of_arrays(self):
        kernel = GreenKernel(A, D)
        x, y = np.random.default_rng(5).uniform(A, D, size=(2, 50))
        batch = green_operator_residual(kernel, x, y)
        assert batch.shape == (50,) and np.max(np.abs(batch)) < 1e-8
        for k in range(50):
            assert batch[k] == green_operator_residual(kernel, x[k], y[k])


class TestElasticRhs:
    def test_zero_fields(self):
        grid = Grid(A, D, 17)
        z = np.zeros(grid.n)
        assert np.all(elastic_rhs(z, z, elastic_constants(grid, params()).lam_mu) == 0.0)

    def test_lambda_zero_reduces_to_body_term(self):
        grid = Grid(A, D, 17)
        rng = np.random.default_rng(5)
        s_x, b = rng.normal(size=(2, grid.n))
        out = elastic_rhs(s_x, b / 2.0, elastic_constants(grid, params(mu=2.0, lam=0.0)).lam_mu)
        assert np.array_equal(out, b / 2.0)

    def test_matches_pointwise_formula(self):
        grid = Grid(A, D, 17)
        rng = np.random.default_rng(6)
        s_x, b = rng.normal(size=(2, grid.n))
        p = params()
        out = elastic_rhs(s_x, b / p.mu, elastic_constants(grid, p).lam_mu)
        expected = (p.lam / p.mu) * s_x + b / p.mu
        assert np.max(np.abs(out - expected)) < 1e-15


class TestDirectSolve:
    def test_zero_rhs_gives_zero(self):
        grid = Grid(A, D, 65)
        u = solve_fd(np.zeros(grid.n), fd_operator(grid))
        assert np.all(u == 0.0)

    def test_quadratic_is_reproduced_exactly(self):
        # second-order stencils are exact on quadratics, so the discrete
        # solution coincides with the continuum one up to solver roundoff
        grid = Grid(A, D, 129)
        u_star = (grid.x - A) * (D - grid.x)
        up = (A + D) - 2.0 * grid.x
        g = -2.0 + 2.0 * up / grid.x - 2.0 * u_star / grid.x**2
        u = solve_fd(g, fd_operator(grid))
        assert np.max(np.abs(u - u_star)) < 1e-11

    def test_sine_convergence_rate(self):
        errs, hs = [], []
        for n in (65, 129, 257):
            grid = Grid(A, D, n)
            u_star, g = sine_case(grid)
            u = solve_fd(g, fd_operator(grid))
            errs.append(np.max(np.abs(u - u_star)))
            hs.append(grid.h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate == pytest.approx(2.0, abs=0.2)

    def test_linearity(self):
        grid = Grid(A, D, 65)
        rng = np.random.default_rng(7)
        g1, g2 = rng.normal(size=(2, grid.n))
        alpha, beta = 1.7, -0.6
        lhs = solve_fd(alpha * g1 + beta * g2, fd_operator(grid))
        rhs = alpha * solve_fd(g1, fd_operator(grid)) + beta * solve_fd(g2, fd_operator(grid))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_discrete_residual(self):
        grid = Grid(A, D, 129)
        rng = np.random.default_rng(8)
        g = rng.normal(size=grid.n)
        u = solve_fd(g, fd_operator(grid))
        assert fd_residual(u, g, grid) < 1e-12

    def test_operator_built_once_per_grid(self):
        operator = fd_operator(Grid(A, D, 65))
        assert operator is fd_operator(Grid(A, D, 65))
        lower, diag, upper, factors = operator
        assert len(factors) == 5  # gttrf's dl, d, du, du2 and ipiv
        assert not any(array.flags.writeable for array in (lower, diag, upper, *factors))

    @pytest.mark.parametrize("n", [4, 129, 2049])
    def test_matches_operator_rebuilt_per_call(self, n):
        # the diagonals and the refinement step exactly as assembled per call before caching
        grid = Grid(A, D, n)
        h, xi = grid.h, grid.x[1:-1]
        diag = np.ones(n)
        diag[1:-1] = -2.0 / h**2 - 2.0 / xi**2
        lower = np.append(1.0 / h**2 - 1.0 / (xi * h), 0.0)
        upper = np.append(0.0, 1.0 / h**2 + 1.0 / (xi * h))
        g = np.random.default_rng(n).normal(size=n)
        vec = np.zeros(n)
        vec[1:-1] = g[1:-1]
        u = tridiag_solve(lower, diag, upper, vec)
        au = diag * u
        au[:-1] += upper * u[1:]
        au[1:] += lower * u[:-1]
        u -= tridiag_solve(lower, diag, upper, au - vec)
        u[0] = u[-1] = 0.0
        assert np.array_equal(solve_fd(g, fd_operator(grid)), u)

    @pytest.mark.parametrize("n", [4, 129, 2049])
    def test_stack_matches_rows_bit_for_bit(self, n):
        grid = Grid(A, D, n)
        g = np.random.default_rng(n + 1).normal(size=(5, n))
        u = solve_fd(g, fd_operator(grid))
        assert u.shape == (5, n)
        for k in range(5):
            assert np.array_equal(u[k], solve_fd(g[k], fd_operator(grid)))

    def test_discrete_energy_identity(self):
        # sum (x^2 u_x^2 + 2 u^2) h = -sum x^2 g u h up to O(h^2)
        def mismatch(n):
            grid = Grid(A, D, n)
            _, g = sine_case(grid)
            u = solve_fd(g, fd_operator(grid))
            u_x = d1(u, grid.h)
            lhs = trapezoid(grid.x**2 * u_x**2 + 2.0 * u**2, dx=grid.h)
            rhs = -trapezoid(grid.x**2 * g * u, dx=grid.h)
            return abs(lhs - rhs)

        m1, m2 = mismatch(65), mismatch(129)
        assert m1 / m2 > 2.0 ** 1.5


class TestGreenSolve:
    def test_zero_inputs(self):
        grid = Grid(A, D, 65)
        z = np.zeros(grid.n)
        u = solve_green(GreenKernel(A, D), ScalarField(grid, z), z, 0.1)
        assert np.all(u == 0.0)

    def test_cross_agreement_with_direct(self):
        grid = Grid(A, D, 129)
        kernel = GreenKernel(A, D)
        p = params()
        rng = np.random.default_rng(9)
        tol = max(1e-6, 5.0 * grid.h**2)
        xi = (grid.x - A) / (D - A)
        for _ in range(10):
            coeff_s = rng.uniform(-1, 1, 3)
            coeff_b = rng.uniform(-1, 1, 3)
            s = sum(c * np.sin((m + 1) * math.pi * xi) for m, c in enumerate(coeff_s))
            b = sum(c * xi**m for m, c in enumerate(coeff_b))
            u_direct = solve_fd(elastic_rhs(d1(s, grid.h), b / p.mu, p.lam / p.mu), fd_operator(grid))
            u_green = solve_green(kernel, ScalarField(grid, s), b / p.mu, p.lam / p.mu)
            assert np.max(np.abs(u_direct - u_green)) < tol

    def test_manufactured_recovery_rate(self):
        # with no gradient coupling, b/mu = g drives u to the closed form
        p = params(mu=2.0, lam=0.0)
        errs, hs = [], []
        for n in (65, 129, 257):
            grid = Grid(A, D, n)
            u_star, g = sine_case(grid)
            zero = ScalarField(grid, np.zeros(grid.n))
            u = solve_green(GreenKernel(A, D), zero, g, p.lam / p.mu)
            errs.append(np.max(np.abs(u - u_star)))
            hs.append(grid.h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate >= 1.9


def dense_green_matrices(a, d, n):
    """The dense (A, BC) quadrature matrices solve_green once applied, kept as the reference.

    u = (1/mu) A @ b - (lam/mu) BC @ s, where A integrates G(x,y) y^2 * b and
    BC integrates (2 G y + G_y y^2) * s with the derivative branch split at
    the node y = x.
    """
    kernel = GreenKernel(a, d)
    grid = Grid(a, d, n)
    x = grid.x
    h = grid.h
    c = kernel.norm_const

    u1 = kernel.u1(x)
    u2 = kernel.u2(x)
    u1p = kernel.u1_prime(x)
    u2p = kernel.u2_prime(x)

    lo = np.minimum.outer(x, x)
    hi = np.maximum.outer(x, x)
    g = kernel.u1(lo) * kernel.u2(hi) / c
    # the n x n temporaries are dropped as soon as they are used: at n=2049
    # each one is 34 MB
    del lo, hi

    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h

    a_mat = g * (x**2 * w)[None, :]
    bc = 2.0 * g * (x * w)[None, :]

    j = np.arange(n)
    gy_left = np.outer(u2, u1p)
    gy_right = np.outer(u1, u2p)
    left_mask = j[None, :] < j[:, None]
    right_mask = j[None, :] > j[:, None]
    dpart = np.zeros((n, n))
    dpart[left_mask] = gy_left[left_mask]
    dpart[right_mask] = gy_right[right_mask]
    del gy_left, gy_right, left_mask, right_mask
    wsplit = np.full((n, n), h)
    wsplit[:, 0] = 0.5 * h
    wsplit[:, -1] = 0.5 * h
    dpart = dpart * wsplit
    del wsplit
    diag_vals = np.zeros(n)
    diag_vals[1:] += 0.5 * h * u2[1:] * u1p[1:]
    diag_vals[:-1] += 0.5 * h * u1[:-1] * u2p[:-1]
    dpart[j, j] = diag_vals
    bc += dpart * (x**2)[None, :] / c
    return a_mat, bc


class TestGreenPrefixSums:
    @pytest.mark.parametrize("n", [4, 5, 129, 2049])
    def test_matches_dense_quadrature(self, n):
        grid = Grid(A, D, n)
        kernel = GreenKernel(A, D)
        p = params()
        a_mat, bc = dense_green_matrices(A, D, n)
        rng = np.random.default_rng(n)
        zero = np.zeros(n)
        cases = {
            "b only": (zero, rng.uniform(-1, 1, n)),
            "s only": (rng.uniform(-1, 1, n), zero),
            "mixed": (rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)),
        }
        for label, (s, b) in cases.items():
            expected = a_mat @ b / p.mu - (p.lam / p.mu) * (bc @ s)
            expected[0] = expected[-1] = 0.0
            u = solve_green(kernel, ScalarField(grid, s), b / p.mu, p.lam / p.mu)
            assert u[0] == 0.0 and u[-1] == 0.0, label
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(u - expected)) <= 1e-13 * scale, label

    def test_weights_built_once_per_grid(self):
        table = _green_weights(Grid(A, D, 65))
        assert table is _green_weights(Grid(A, D, 65))
        assert not any(vec.flags.writeable for vec in table)

    def test_mismatched_interval_or_grid_rejected(self):
        grid = Grid(A, D, 33)
        z = ScalarField(grid, np.zeros(grid.n))
        with pytest.raises(ValueError, match="kernel interval"):
            solve_green(GreenKernel(A, 3.0), z, z.values, 0.1)
        with pytest.raises(ValueError, match="expected 33 body-force values"):
            solve_green(GreenKernel(A, D), z, np.zeros(17), 0.1)


class TestSolveElasticity:
    def test_stack_matches_rows_bit_for_bit(self):
        grid = Grid(A, D, 65)
        rng = np.random.default_rng(21)
        s = rng.normal(size=(3, grid.n))
        b_mu = rng.normal(size=grid.n)
        constants = elastic_constants(grid, params())
        u, rhs = solve_elasticity(s, b_mu, constants)
        assert u.shape == rhs.shape == (3, grid.n)
        for k in range(3):
            u_k, rhs_k = solve_elasticity(s[k], b_mu, constants)
            assert np.array_equal(u[k], u_k)
            assert np.array_equal(rhs[k], rhs_k)
