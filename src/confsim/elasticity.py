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
path every run marches with) and ``solve_green`` (trapezoid quadrature against
the closed-form kernel, the independent oracle of the report's cross-check
and of a "both-verify" run's recorded frames).  Both are O(n) per frame.  The
kernel is separable, u1(min) u2(max) / c, so the quadrature is one prefix sum
weighted by u2(x) and one suffix sum weighted by u1(x); neither path holds an
n x n matrix, and both solve a (K, n) stack of frames in one call, each frame
bit for bit as alone.  ``solve_elasticity``, the simulator's per-step solve,
is the FD solve of the displacement equation.  ``fd_residual``, of one frame
or a stack, and the FD solve's refinement step apply the one cached operator
of ``fd_operator``, and both of the FD solve's solves use its LU factors,
cached with it.  ``solve_fd`` takes that operator, ``elastic_rhs`` takes
b/mu and lam/mu, and ``solve_elasticity`` takes b/mu and the grid's
constants built once (``elastic_constants``): each is the one way in.
``solve_green`` takes b/mu and lam/mu as ``elastic_rhs`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .grid_field import Grid, ScalarField, d1, scalar_array, tridiag_factor, tridiag_factor_solve
from .material import MaterialParams


class OutOfDomain(ValueError):
    pass


class SingularSystem(RuntimeError):
    pass


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

    def operator_residual(self, x, y):
        """(x^2 G_x)_x - 2 G off the diagonal with analytic derivatives; x and y may be arrays of pairs."""
        self._check(x, y)
        x = np.asarray(x, dtype=float)
        if np.any(x == y):
            raise ValueError("operator residual is defined off the diagonal only")
        # x < y takes u1 at x and u2 at y, x > y the other way round
        below = (self.u1(x), self.u1_prime(x), self.u1_second(x), self.u2(y))
        above = (self.u2(x), self.u2_prime(x), self.u2_second(x), self.u1(y))
        f, fp, fpp, other = (np.where(x < y, lo, hi) for lo, hi in zip(below, above))
        return (x**2 * fpp + 2.0 * x * fp - 2.0 * f) * other / self.norm_const


def elastic_rhs(s_x: np.ndarray, b_mu: np.ndarray, lam_mu) -> np.ndarray:
    """(lam/mu) * s_x + b/mu, the right-hand side of the displacement equation.

    ``b_mu`` is b/mu, one row of nodal values or in the shape of ``s_x``, and
    ``lam_mu`` is lam/mu, a float or a 0-d array.
    """
    rhs = np.multiply(s_x, lam_mu)
    rhs += b_mu
    return rhs


@lru_cache(maxsize=8)
def fd_operator(grid: Grid):
    """Sub-, main and super-diagonals of the FD operator and its LU factors, built once per grid.

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
    try:
        factors = tridiag_factor(lower, diag, upper)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - operator is invertible
        raise SingularSystem(str(exc)) from exc
    return lower, diag, upper, factors


def _fd_apply(u: np.ndarray, operator) -> np.ndarray:
    """The FD operator of ``fd_operator`` applied to u along its last axis."""
    lower, diag, upper, _ = operator
    out = diag * u
    term = upper * u[..., 1:]
    head = out[..., :-1]
    head += term
    np.multiply(lower, u[..., :-1], out=term)
    tail = out[..., 1:]
    tail += term
    return out


def solve_fd(rhs: np.ndarray, operator: tuple) -> np.ndarray:
    """Tridiagonal solve of u'' + (2/x) u' - (2/x^2) u = rhs, u = 0 at both ends.

    ``operator`` is the grid's ``fd_operator``.  ``rhs`` may be a (B, n)
    stack: its rows go to LAPACK as B right-hand sides of one solve, and each
    row's u equals its own solve bit for bit.  Both solves, the first and the
    refinement step, use the operator's cached factors.
    """
    factors = operator[3]
    # u starts as rhs with the boundary data 0 at the end nodes; the
    # transposes put the node axis first, and hand LAPACK a stack's rows as
    # the columns it solves for, in the array itself.  A lone row is its own
    # node axis, without the cost of a transposed view.
    lone = rhs.ndim == 1
    u = np.array(rhs, dtype=float, order="C")
    nodes = u if lone else u.T
    nodes[0] = nodes[-1] = 0.0
    nodes = tridiag_factor_solve(factors, nodes)
    u = nodes if lone else nodes.T
    # one step of iterative refinement keeps the discrete residual near
    # roundoff even on fine grids, where plain elimination leaves O(n*eps/h^2);
    # the right-hand side is 0 at the end nodes, and x - 0.0 is x bit for bit
    residual = _fd_apply(u, operator)
    residual_nodes = residual if lone else residual.T
    residual_nodes[1:-1] -= (rhs if lone else rhs.T)[1:-1]
    nodes -= tridiag_factor_solve(factors, residual_nodes)
    nodes[0] = nodes[-1] = 0.0
    return u


def fd_residual(u: np.ndarray, rhs: np.ndarray, grid: Grid) -> float | np.ndarray:
    """Max-norm residual of the discrete interior equations for a candidate u.

    ``u`` and ``rhs`` may be (K, n) stacks of frames: the result is then the
    (K,) array of the frames' residuals, each the bits of its frame alone.
    """
    r = _fd_apply(u, fd_operator(grid))[..., 1:-1]
    r -= rhs[..., 1:-1]
    residuals = np.abs(r, out=r).max(axis=-1)
    return float(residuals) if residuals.ndim == 0 else residuals


@lru_cache(maxsize=8)
def _green_weights(grid: Grid):
    """Per-node coefficient vectors of the Green quadrature, built once per grid.

    With trapezoid weights w_j, ``solve_green`` evaluates
        u_i = sum_j G(x_i, y_j) y_j^2 w_j b_j / mu
              - (lam/mu) sum_j (2 G(x_i, y_j) y_j + G_y(x_i, y_j) y_j^2) w_j s_j,
    where G_y takes its left branch for j < i and its right branch for j > i,
    and the node y_j = x_i carries both one-sided values with weight h/2 each.
    The kernel is separable, G = u1(y) u2(x) / c for y <= x and u1(x) u2(y) / c
    for y > x, so
        u_i = u2_i sum_{j <= i} L_j + u1_i sum_{j > i} R_j + diag_i (lam/mu) s_i
    with L_j = b_left_j b_j / mu - s_left_j (lam/mu) s_j (and R_j likewise).
    ``diag`` takes the strict j < i branch's node term back out of the prefix
    sum and puts the split node values in.  The arrays are shared between
    calls and therefore read-only.
    """
    kernel = GreenKernel(grid.a, grid.d)
    x = grid.x
    h = grid.h
    c = kernel.norm_const
    u1 = kernel.u1(x)
    u2 = kernel.u2(x)
    u1p = kernel.u1_prime(x)
    u2p = kernel.u2_prime(x)

    w = np.full(grid.n, h)
    w[0] = w[-1] = 0.5 * h
    x2w = x**2 * w / c
    b_left = u1 * x2w
    b_right = u2 * x2w
    s_left = 2.0 * u1 * x * w / c + u1p * x2w
    s_right = 2.0 * u2 * x * w / c + u2p * x2w

    # the shared node y = x_i: the end of [a, x_i] and the start of [x_i, d]
    split = np.zeros(grid.n)
    split[1:] += 0.5 * h * u2[1:] * u1p[1:]
    split[:-1] += 0.5 * h * u1[:-1] * u2p[:-1]
    diag = u2 * u1p * x2w - split * x**2 / c

    table = (u1, u2, b_left, s_left, b_right, s_right, diag)
    for vec in table:
        vec.flags.writeable = False
    return table


def solve_green(kernel: GreenKernel, s_moll: ScalarField, b_mu: np.ndarray, lam_mu) -> np.ndarray:
    """Quadrature evaluation of the kernel representation of the displacement.

    Uses the integrated-by-parts form in which only the (mollified) order
    parameter enters, not its derivative; boundary values are pinned to zero.
    The separable kernel turns the quadrature into one prefix and one suffix
    sum (see ``_green_weights``), O(n) per frame.  ``s_moll`` carries its grid
    as a ``ScalarField`` of one frame or a stack of frames, such as (K, n);
    ``b_mu`` is b/mu and ``lam_mu`` lam/mu, as ``elastic_rhs`` takes them:
    b/mu holds nodal values on that grid, one row or a row per frame, and is
    only read.  The sums run along the last axis, and a cumulative sum adds in
    order, so each frame of a stack equals its own solve bit for bit.
    """
    grid = s_moll.grid
    if b_mu.ndim == 0 or b_mu.shape[-1] != grid.n:
        raise ValueError(f"expected {grid.n} body-force values, got {b_mu.shape}")
    if (kernel.a, kernel.d) != (grid.a, grid.d):
        raise ValueError("kernel interval does not match the grid")
    u1, u2, b_left, s_left, b_right, s_right, diag = _green_weights(grid)
    s_lam = np.multiply(s_moll.values, lam_mu)
    # In place, with the operations and grouping of
    #   left = (b_left * b_mu - s_left * s_lam).cumsum(axis=-1)
    #   right[..., :-1] = (b_right * b_mu - s_right * s_lam)[..., :0:-1].cumsum(axis=-1)[..., ::-1]
    #   u = u2 * left + u1 * right + diag * s_lam
    # that is prefix sums over j <= i, and suffix sums over j > i by a
    # reversed cumulative sum shifted by one node.  b/mu is one row or a row
    # per frame, so s_lam has the shape of the sums.
    shape = s_lam.shape
    term = np.multiply(s_lam, s_left)
    left = np.multiply(b_mu, b_left, out=np.empty(shape))
    left -= term
    np.cumsum(left, axis=-1, out=left)
    np.multiply(s_lam, s_right, out=term)
    weighted = np.multiply(b_mu, b_right, out=np.empty(shape))
    weighted -= term
    right = term
    np.cumsum(weighted[..., :0:-1], axis=-1, out=right[..., -2::-1])
    right[..., -1] = 0.0
    u = left
    u *= u2
    right *= u1
    u += right
    s_lam *= diag
    u += s_lam
    u[..., 0] = 0.0
    u[..., -1] = 0.0
    return u


class ElasticConstants(NamedTuple):
    """What every FD solve of a run on one grid uses, built once by ``elastic_constants``.

    The FD operator and its LU factors (``fd_operator``), lam/mu and the
    grid's 2h as float64 0-d arrays (``scalar_array``), and its spacing h.
    """

    operator: tuple
    lam_mu: np.ndarray
    two_h: np.ndarray
    h: float


def elastic_constants(grid: Grid, params: MaterialParams) -> ElasticConstants:
    """The ``ElasticConstants`` of ``grid`` and ``params``."""
    return ElasticConstants(
        fd_operator(grid), scalar_array(params.lam / params.mu), scalar_array(2.0 * grid.h), grid.h
    )


def solve_elasticity(
    s_moll: np.ndarray, b_mu: np.ndarray, constants: ElasticConstants
) -> tuple[np.ndarray, np.ndarray]:
    """The displacement u by the FD solve, and the right-hand side it solved.

    ``b_mu`` is the body force over mu (see ``elastic_rhs``) and
    ``constants`` the ``elastic_constants`` of the grid and material.
    ``s_moll`` may be a (B, n) stack of members under one body force; u is
    then (B, n), solved in one call.  The result is ``(u, rhs)``: rhs is the
    ``elastic_rhs`` the FD solve was given, for a caller that checks u's FD
    residual.
    """
    rhs = elastic_rhs(d1(s_moll, constants.h, two_h=constants.two_h), b_mu, constants.lam_mu)
    return solve_fd(rhs, constants.operator), rhs
