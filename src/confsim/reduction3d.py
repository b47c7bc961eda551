"""Numerical check that lifted radial solutions annihilate the 3D operators.

A radial pair (u_hat, S_hat) lifts to the spherical shell via
u(x) = u_hat(r) x/r and S(x) = S_hat(r).  The residuals of the 3D balance
equations are evaluated at sample points with centered differences, never by
re-solving in 3D.  All differencing uses an orthonormal frame adapted to each
sample point (radial direction plus a tangential completion); for radial
fields the residual norms are then independent of the tangential choice and
of rigid rotations of the sample set, up to floating-point roundoff.
Nodal frames are interpolated by ``UniformSpline.not_a_knot``, a local
not-a-knot cubic spline solved with ``tridiag_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid_field import Grid, tridiag_solve
from .material import (
    ElasticityTensor,
    MaterialParams,
    MisfitStrain,
    double_well,
    scalar_coefficients,
)
from .elasticity import OutOfDomain


@dataclass(frozen=True)
class UniformSpline:
    """Piecewise polynomial on the grid nodes; ``coeffs`` is (degree + 1, n - 1), highest power first.

    Evaluation is in the local variable r - x_i on [x_i, x_{i+1}); points
    outside [a, d] use the end pieces.
    """

    x: np.ndarray
    coeffs: np.ndarray

    @classmethod
    def not_a_knot(cls, grid: Grid, y: np.ndarray) -> "UniformSpline":
        """Cubic spline through (x_i, y_i) with a continuous third derivative at x_1 and x_{n-2}.

        The second derivatives M satisfy M_{i-1} + 4 M_i + M_{i+1} = 6 y''_i
        (y'' the 3-point difference) at the interior nodes.  Not-a-knot gives
        M_0 = 2 M_1 - M_2 and M_{n-1} = 2 M_{n-2} - M_{n-3}; substituted, the
        interior system is tridiagonal with diagonal (6, 4, ..., 4, 6).
        """
        y = np.asarray(y, dtype=float)
        h = grid.h
        m = grid.n - 2
        rhs = 6.0 * (y[2:] - 2.0 * y[1:-1] + y[:-2]) / h**2
        diag = np.full(m, 4.0)
        diag[[0, -1]] = 6.0
        lower = np.ones(m - 1)
        upper = np.ones(m - 1)
        upper[0] = 0.0
        lower[-1] = 0.0
        interior = tridiag_solve(lower, diag, upper, rhs)
        second = np.concatenate(
            ([2.0 * interior[0] - interior[1]], interior, [2.0 * interior[-1] - interior[-2]])
        )
        slope = (y[1:] - y[:-1]) / h - h * (2.0 * second[:-1] + second[1:]) / 6.0
        coeffs = np.stack([(second[1:] - second[:-1]) / (6.0 * h), second[:-1] / 2.0, slope, y[:-1]])
        return cls(grid.x, coeffs)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, len(self.x) - 2)
        t = r - self.x[i]
        out = self.coeffs[0, i]
        for c in self.coeffs[1:]:
            out = out * t + c[i]
        return out

    def derivative(self) -> "UniformSpline":
        degree = len(self.coeffs) - 1
        return UniformSpline(self.x, self.coeffs[:-1] * np.arange(degree, 0, -1)[:, None])


@dataclass(frozen=True)
class RadialLift:
    """Radial profiles plus the material tensors, ready for 3D evaluation."""

    a: float
    d: float
    u_hat: Callable
    u_hat_r: Callable
    s_hat: Callable
    b_hat: Callable
    tensor: ElasticityTensor
    misfit: MisfitStrain
    mu: float
    lam: float
    e: float

    @classmethod
    def from_callables(cls, a, d, u_hat, u_hat_r, s_hat, b_hat, tensor, misfit) -> "RadialLift":
        mu, lam, e = scalar_coefficients(tensor, misfit)
        return cls(a, d, u_hat, u_hat_r, s_hat, b_hat, tensor, misfit, mu, lam, e)

    @classmethod
    def from_frames(
        cls,
        grid: Grid,
        u_frame: np.ndarray,
        s_frame: np.ndarray,
        b_frame: np.ndarray,
        tensor: ElasticityTensor,
        misfit: MisfitStrain,
    ) -> "RadialLift":
        """Not-a-knot cubic interpolation of nodal frames on ``grid``; reproduces nodal values exactly."""
        u_sp = UniformSpline.not_a_knot(grid, u_frame)
        s_sp = UniformSpline.not_a_knot(grid, s_frame)
        b_sp = UniformSpline.not_a_knot(grid, b_frame)
        return cls.from_callables(
            grid.a, grid.d, u_sp, u_sp.derivative(), s_sp, b_sp, tensor, misfit
        )


def lift_fields(lift: RadialLift, x: np.ndarray):
    """Evaluate (u, S, b) at a 3D point in the open shell."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if not (lift.a < r < lift.d):
        raise OutOfDomain(f"|x| = {r} outside ({lift.a}, {lift.d})")
    unit = x / r
    return float(lift.u_hat(r)) * unit, float(lift.s_hat(r)), float(lift.b_hat(r)) * unit


def sample_frame(x: np.ndarray) -> np.ndarray:
    """Orthonormal frame (radial, two tangentials) at a point, rows are directions."""
    x = np.asarray(x, dtype=float)
    radial = x / np.linalg.norm(x)
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(radial)))] = 1.0
    t1 = seed - np.dot(seed, radial) * radial
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(radial, t1)
    return np.stack([radial, t1, t2])


def random_shell_points(a: float, d: float, count: int, rng, margin: float = 0.0) -> np.ndarray:
    """Uniform random directions at radii kept ``margin`` away from the shell walls."""
    radii = rng.uniform(a + margin, d - margin, size=count)
    vecs = rng.normal(size=(count, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs * radii[:, None]


def _displacement(lift: RadialLift, y: np.ndarray) -> np.ndarray:
    r = np.linalg.norm(y)
    return float(lift.u_hat(r)) * (y / r)


def _order_parameter(lift: RadialLift, y: np.ndarray) -> float:
    return float(lift.s_hat(np.linalg.norm(y)))


def _grad_u(lift: RadialLift, y: np.ndarray, frame: np.ndarray, h3: float) -> np.ndarray:
    grad = np.zeros((3, 3))
    for k in range(3):
        dv = (_displacement(lift, y + h3 * frame[k]) - _displacement(lift, y - h3 * frame[k])) / (
            2.0 * h3
        )
        grad += np.outer(dv, frame[k])
    return grad


def _stress(lift: RadialLift, y: np.ndarray, frame: np.ndarray, h3: float) -> np.ndarray:
    grad = _grad_u(lift, y, frame, h3)
    eps = 0.5 * (grad + grad.T)
    return lift.tensor.apply(eps - lift.misfit.entries * _order_parameter(lift, y))


@dataclass
class ElasticityResidual3D:
    per_point: np.ndarray
    max: float


def residual_elasticity_3d(lift: RadialLift, points: np.ndarray, h3: float) -> ElasticityResidual3D:
    """Max norm of  div(stress) - body force  over the sample points.

    The balance is oriented so that lifting a solution of the reduced radial
    equation (where b = mu*(u'' + 2u'/r - 2u/r^2) - lam*S_r) gives a vanishing
    residual.  The divergence is a nested centered difference (overall second
    order in h3); every stencil point of a sample reuses that sample's frame.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    norms = np.zeros(len(points))
    for idx, x in enumerate(points):
        frame = sample_frame(x)
        div = np.zeros(3)
        for k in range(3):
            dt_mat = (
                _stress(lift, x + h3 * frame[k], frame, h3)
                - _stress(lift, x - h3 * frame[k], frame, h3)
            ) / (2.0 * h3)
            div += dt_mat @ frame[k]
        r = np.linalg.norm(x)
        b_vec = float(lift.b_hat(r)) * (x / r)
        norms[idx] = np.linalg.norm(div - b_vec)
    return ElasticityResidual3D(norms, float(np.max(norms)))


@dataclass
class OrderResidual3D:
    per_point: np.ndarray
    max: float
    identity_per_point: np.ndarray
    identity_max: float


def residual_order_3d(
    lift0: RadialLift,
    lift1: RadialLift,
    dt: float,
    points: np.ndarray,
    material: MaterialParams,
    h3: float,
) -> OrderResidual3D:
    """Residual of the 3D evolution law between two lifted frames.

    Time enters by a forward difference of the lifted order parameter; spatial
    derivatives are centered differences at the first frame.  Also reports, per
    sample, the gap in the algebraic identity that reduces the strain pairing
    (D eps(grad u)) . misfit to lam * (u_hat' + 2 u_hat / r).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    res = np.zeros(len(points))
    ident = np.zeros(len(points))
    for idx, x in enumerate(points):
        frame = sample_frame(x)
        r = np.linalg.norm(x)

        s0 = _order_parameter(lift0, x)
        s_t = (_order_parameter(lift1, x) - s0) / dt

        grad_s = np.zeros(3)
        lap_s = 0.0
        for k in range(3):
            sp = _order_parameter(lift0, x + h3 * frame[k])
            sm = _order_parameter(lift0, x - h3 * frame[k])
            grad_s += (sp - sm) / (2.0 * h3) * frame[k]
            lap_s += (sp - 2.0 * s0 + sm) / h3**2

        grad = _grad_u(lift0, x, frame, h3)
        eps = 0.5 * (grad + grad.T)
        pairing = float(np.sum(lift0.tensor.apply(eps) * lift0.misfit.entries))
        ident[idx] = abs(
            pairing - lift0.lam * (float(lift0.u_hat_r(r)) + 2.0 * float(lift0.u_hat(r)) / r)
        )

        _, well_prime = double_well(s0, material.well_weight)
        psi_s = -pairing + lift0.e * s0 + well_prime
        res[idx] = abs(
            s_t + material.c * (psi_s - material.nu * lap_s) * np.linalg.norm(grad_s)
        )
    return OrderResidual3D(res, float(np.max(res)), ident, float(np.max(ident)))
