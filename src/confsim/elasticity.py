"""Radial elasticity solve, by banded finite differences and by Green quadrature.

The displacement equation  u'' + (2/x) u' - (2/x^2) u = g  with u(a) = u(d) = 0
is, after multiplying by x^2, the self-adjoint form  (x^2 u')' - 2 u = x^2 g.
That operator is of Euler type with exponents 1 and -2, so the homogeneous
solutions vanishing at each end are available in closed form:

    u1(x) = x - a^3 / x^2        u1(a) = 0
    u2(x) = x - d^3 / x^2        u2(d) = 0

and x^2 * Wronskian(u1, u2) = 3 (d^3 - a^3), a constant.  The inverse kernel
built from them is continuous, symmetric, vanishes on the boundary and its
x-derivative jumps by 1/y^2 across x = y.

Two solution paths are provided: ``solve_fd`` (tridiagonal elimination, the
production path, O(n) per call) and ``solve_green`` (quadrature against the
closed-form kernel, the independent verification path).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid_field import Grid, ScalarField, d1, tridiag_solve
from .material import MaterialParams


class OutOfDomain(ValueError):
    pass


class SingularSystem(RuntimeError):
    pass


def homogeneous_solutions(a: float, d: float):
    """Closed-form solutions of (x^2 u')' - 2u = 0 vanishing at a and at d."""
    if not (0 < a < d):
        raise ValueError("require 0 < a < d")

    def u1(x):
        return x - a**3 / x**2

    def u2(x):
        return x - d**3 / x**2

    return u1, u2


@dataclass(frozen=True)
class GreenKernel:
    """Inverse kernel of the radial operator under homogeneous Dirichlet data."""

    a: float
    d: float

    def __post_init__(self):
        if not (0 < self.a < self.d):
            raise ValueError("require 0 < a < d")

    @property
    def norm_const(self) -> float:
        # p(x) * Wronskian(u1, u2), constant in x
        return 3.0 * (self.d**3 - self.a**3)

    def u1(self, x):
        return x - self.a**3 / x**2

    def u1_prime(self, x):
        return 1.0 + 2.0 * self.a**3 / x**3

    def u1_second(self, x):
        return -6.0 * self.a**3 / x**4

    def u2(self, x):
        return x - self.d**3 / x**2

    def u2_prime(self, x):
        return 1.0 + 2.0 * self.d**3 / x**3

    def u2_second(self, x):
        return -6.0 * self.d**3 / x**4

    def _check(self, *points):
        for v in points:
            if np.any(np.asarray(v) < self.a - 1e-12) or np.any(np.asarray(v) > self.d + 1e-12):
                raise OutOfDomain(f"point {v} outside [{self.a}, {self.d}]")

    def eval(self, x, y):
        """G(x, y) = u1(min) u2(max) / norm_const."""
        self._check(x, y)
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        return self.u1(lo) * self.u2(hi) / self.norm_const

    def eval_dx(self, x, y):
        """d/dx of the kernel, one-sided at x = y (lower branch there)."""
        self._check(x, y)
        x = np.asarray(x, dtype=float)
        below = x <= y
        out = np.where(
            below,
            self.u1_prime(x) * self.u2(np.maximum(x, y)),
            self.u1(np.minimum(x, y)) * self.u2_prime(x),
        )
        out = out / self.norm_const
        return float(out) if out.ndim == 0 else out

    def eval_dy_left(self, x, y):
        """d/dy for y < x."""
        self._check(x, y)
        return self.u1_prime(y) * self.u2(x) / self.norm_const

    def eval_dy_right(self, x, y):
        """d/dy for y > x."""
        self._check(x, y)
        return self.u1(x) * self.u2_prime(y) / self.norm_const

    def operator_residual(self, x, y):
        """(x^2 G_x)_x - 2 G evaluated off the diagonal with analytic derivatives."""
        self._check(x, y)
        if x == y:
            raise ValueError("operator residual is defined off the diagonal only")
        if x < y:
            f, fp, fpp = self.u1(x), self.u1_prime(x), self.u1_second(x)
            other = self.u2(y)
        else:
            f, fp, fpp = self.u2(x), self.u2_prime(x), self.u2_second(x)
            other = self.u1(y)
        return (x**2 * fpp + 2.0 * x * fp - 2.0 * f) * other / self.norm_const


def elastic_rhs(s_x: ScalarField, b: ScalarField, params: MaterialParams) -> ScalarField:
    """(lam/mu) * s_x + b/mu, the right-hand side of the displacement equation."""
    if s_x.grid != b.grid:
        raise ValueError("fields must share a grid")
    return ScalarField(s_x.grid, (params.lam / params.mu) * s_x.values + b.values / params.mu)


@lru_cache(maxsize=8)
def _fd_operator(grid: Grid):
    """Sub-, main and super-diagonals of the FD operator, built once per grid.

    Rows 0 and n-1 pin the boundary values; rows 1..n-2 carry the stencil.
    The arrays are shared between calls and therefore read-only.
    """
    n = grid.n
    h = grid.h
    xi = grid.x[1:-1]
    diag = np.ones(n)
    diag[1:-1] = -2.0 / h**2 - 2.0 / xi**2
    lower = np.append(1.0 / h**2 - 1.0 / (xi * h), 0.0)
    upper = np.append(0.0, 1.0 / h**2 + 1.0 / (xi * h))
    for band in (lower, diag, upper):
        band.flags.writeable = False
    return lower, diag, upper


def solve_fd(rhs: ScalarField) -> ScalarField:
    """Tridiagonal solve of u'' + (2/x) u' - (2/x^2) u = rhs, u = 0 at both ends."""
    grid = rhs.grid
    lower, diag, upper = _fd_operator(grid)
    vec = np.zeros(grid.n)
    vec[1:-1] = rhs.values[1:-1]

    def apply_matrix(v):
        out = diag * v
        out[:-1] += upper * v[1:]
        out[1:] += lower * v[:-1]
        return out

    try:
        u = tridiag_solve(lower, diag, upper, vec)
        # one step of iterative refinement keeps the discrete residual near
        # roundoff even on fine grids, where plain elimination leaves O(n*eps/h^2)
        u -= tridiag_solve(lower, diag, upper, apply_matrix(u) - vec)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - operator is invertible
        raise SingularSystem(str(exc)) from exc
    u[0] = 0.0
    u[-1] = 0.0
    return ScalarField(grid, u)


def fd_residual(u: ScalarField, rhs: ScalarField) -> float:
    """Max-norm residual of the discrete interior equations for a candidate u."""
    grid = u.grid
    h = grid.h
    x = grid.x[1:-1]
    v = u.values
    lhs = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    lhs += (v[2:] - v[:-2]) / (2.0 * h) * (2.0 / x)
    lhs -= 2.0 / x**2 * v[1:-1]
    r = lhs - rhs.values[1:-1]
    return float(np.max(np.abs(r))) if r.size else 0.0


@lru_cache(maxsize=8)
def _green_matrices(a: float, d: float, n: int):
    """Dense quadrature matrices (A, BC) on the shared grid.

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

    # G[i, j] = u1(min) u2(max) / c
    lo = np.minimum.outer(x, x)
    hi = np.maximum.outer(x, x)
    g = kernel.u1(lo) * kernel.u2(hi) / c

    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h

    a_mat = g * (x**2 * w)[None, :]

    # continuous part of the coupling kernel
    bc = 2.0 * g * (x * w)[None, :]

    # derivative part, branch dependent: rows are evaluation points x_i
    j = np.arange(n)
    gy_left = np.outer(u2, u1p)   # value for y_j < x_i (column j, row i)
    gy_right = np.outer(u1, u2p)  # value for y_j > x_i
    left_mask = j[None, :] < j[:, None]
    right_mask = j[None, :] > j[:, None]
    dpart = np.zeros((n, n))
    dpart[left_mask] = gy_left[left_mask]
    dpart[right_mask] = gy_right[right_mask]
    # trapezoid weights of the split [a, x_i] + [x_i, d] quadratures
    wsplit = np.full((n, n), h)
    wsplit[:, 0] = 0.5 * h
    wsplit[:, -1] = 0.5 * h
    dpart = dpart * wsplit
    # the shared node y = x_i carries both one-sided values, each with h/2
    diag_vals = np.zeros(n)
    diag_vals[1:] += 0.5 * h * u2[1:] * u1p[1:]      # end of the left segment
    diag_vals[:-1] += 0.5 * h * u1[:-1] * u2p[:-1]   # start of the right segment
    dpart[j, j] = diag_vals
    bc += dpart * (x**2)[None, :] / c

    return a_mat, bc


def solve_green(
    kernel: GreenKernel, s_moll: ScalarField, b: ScalarField, params: MaterialParams
) -> ScalarField:
    """Quadrature evaluation of the kernel representation of the displacement.

    Uses the integrated-by-parts form in which only the (mollified) order
    parameter enters, not its derivative; boundary values are pinned to zero.
    """
    grid = s_moll.grid
    if b.grid != grid:
        raise ValueError("fields must share a grid")
    if (kernel.a, kernel.d) != (grid.a, grid.d):
        raise ValueError("kernel interval does not match the grid")
    a_mat, bc = _green_matrices(grid.a, grid.d, grid.n)
    u = a_mat @ b.values / params.mu - (params.lam / params.mu) * (bc @ s_moll.values)
    u[0] = 0.0
    u[-1] = 0.0
    return ScalarField(grid, u)


def solve_elasticity(
    s_moll: ScalarField,
    b: ScalarField,
    params: MaterialParams,
    path: str = "direct",
    kernel: GreenKernel | None = None,
):
    """Dispatch between the two solution paths.

    Returns (u, discrepancy) where discrepancy is the max-norm difference of
    the paths when ``path`` is "both-verify", else None.
    """
    if path not in ("direct", "green", "both-verify"):
        raise ValueError(f"unknown elasticity path {path!r}")
    if path in ("green", "both-verify") and kernel is None:
        kernel = GreenKernel(s_moll.grid.a, s_moll.grid.d)
    if path == "green":
        return solve_green(kernel, s_moll, b, params), None
    u_fd = solve_fd(elastic_rhs(d1(s_moll), b, params))
    if path == "direct":
        return u_fd, None
    u_green = solve_green(kernel, s_moll, b, params)
    return u_fd, float(np.max(np.abs(u_fd.values - u_green.values)))
