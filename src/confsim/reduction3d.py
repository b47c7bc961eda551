"""Numerical check that lifted radial solutions annihilate the 3D operators.

A radial pair (u_hat, S_hat) lifts to the spherical shell via
u(x) = u_hat(r) x/r and S(x) = S_hat(r).  The residuals of the 3D balance
equations are evaluated at sample points with centered differences, never by
re-solving in 3D.  All differencing uses an orthonormal frame adapted to each
sample point (radial direction plus a tangential completion); for radial
fields the residual norms are then independent of the tangential choice and
of rigid rotations of the sample set, up to floating-point roundoff.
Points are (..., 3) arrays: ``lift_fields`` and ``sample_frame`` take a
batch, and each residual evaluates all P sample points, and their stencils,
in one pass, returning one value per point.
Nodal frames are interpolated by ``UniformSpline.not_a_knot``, a local
not-a-knot cubic spline solved with ``tridiag_solve``.  A ``RadialLift``
holds the profiles and the stiffness and misfit tensors only; the reduced
scalars lam and e are read from the ``MaterialParams`` given to
``residual_order_3d``, the same values the radial run marched with.
``RadialLift.from_frames`` derives a run's tensors from those scalars: the
stiffness ``ElasticityTensor.diagonal_family(mu)`` with the misfit
``MisfitStrain.spherical(lam / mu)``, the one pair the reduction's structural
conditions admit.  That pair reduces to (mu, lam, 3 lam^2 / mu), so a run
whose e is any other value has no 3D lift and is refused with ``NoLift``.
A point outside the open shell is refused with ``OutOfDomain``, defined here
because ``lift_fields`` is its one raiser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid_field import Grid, tridiag_solve
from .material import ElasticityTensor, MaterialParams, MisfitStrain, double_well


class OutOfDomain(ValueError):
    """A point handed to ``lift_fields`` outside the open shell a < |x| < d."""


class NoLift(ValueError):
    """A run whose material has no 3D lift: its e is not 3 lam^2 / mu."""


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
    """Radial profiles plus the material tensors, ready for 3D evaluation.

    The tensors give the 3D stress; the reduced scalars are not kept here but
    read from the ``MaterialParams`` of ``residual_order_3d``.
    """

    a: float
    d: float
    u_hat: Callable
    u_hat_r: Callable
    s_hat: Callable
    b_hat: Callable
    tensor: ElasticityTensor
    misfit: MisfitStrain

    @classmethod
    def from_frames(
        cls,
        grid: Grid,
        u_frame: np.ndarray,
        s_frame: np.ndarray,
        b_frame: np.ndarray,
        material: MaterialParams,
    ) -> "RadialLift":
        """Not-a-knot cubic interpolation of nodal frames on ``grid``; reproduces nodal values exactly.

        The tensors are ``diagonal_family(mu)`` and ``spherical(lam / mu)`` of
        ``material``.  They reduce to e = 3 lam^2 / mu; any other e, beyond a
        relative 1e-12, raises NoLift.
        """
        mu, lam, e = material.mu, material.lam, material.e
        reduced = 3.0 * lam**2 / mu
        if not math.isclose(e, reduced, rel_tol=1e-12):
            raise NoLift(
                f"lift: material.e = {e:.15g} is not 3 * material.lambda**2 / material.mu = {reduced:.15g}; "
                "the run is a 1D model with no 3D lift"
            )
        u_sp = UniformSpline.not_a_knot(grid, u_frame)
        s_sp = UniformSpline.not_a_knot(grid, s_frame)
        b_sp = UniformSpline.not_a_knot(grid, b_frame)
        tensor, misfit = ElasticityTensor.diagonal_family(mu), MisfitStrain.spherical(lam / mu)
        return cls(grid.a, grid.d, u_sp, u_sp.derivative(), s_sp, b_sp, tensor, misfit)


def lift_fields(lift: RadialLift, x: np.ndarray):
    """Evaluate (u, S, b) at points x of shape (..., 3) in the open shell: u and b are (..., 3), S is (...)."""
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1)
    inside = (lift.a < r) & (r < lift.d)
    if not np.all(inside):
        raise OutOfDomain(f"|x| = {r[~inside]} outside ({lift.a}, {lift.d})")
    unit = x / r[..., None]
    return lift.u_hat(r)[..., None] * unit, lift.s_hat(r), lift.b_hat(r)[..., None] * unit


def sample_frame(x: np.ndarray) -> np.ndarray:
    """Orthonormal frames (radial, two tangentials) at points (..., 3): (..., 3, 3), rows are directions."""
    x = np.asarray(x, dtype=float)
    radial = x / np.linalg.norm(x, axis=-1, keepdims=True)
    seed = np.eye(3)[np.argmin(np.abs(radial), axis=-1)]
    t1 = seed - np.sum(seed * radial, axis=-1, keepdims=True) * radial
    t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
    return np.stack([radial, t1, np.cross(radial, t1)], axis=-2)


def random_shell_points(a: float, d: float, count: int, rng, margin: float = 0.0) -> np.ndarray:
    """Uniform random directions at radii kept ``margin`` away from the shell walls."""
    radii = rng.uniform(a + margin, d - margin, size=count)
    vecs = rng.normal(size=(count, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs * radii[:, None]


def _along_frame(field: Callable, x: np.ndarray, frame: np.ndarray, h3: float):
    """``field`` at x - h3 e_k and x + h3 e_k for each row e_k of ``frame``, and their centered difference.

    x is (..., 3) and frame broadcasts against (..., 3, 3).  Returns
    (minus, plus, (plus - minus) / (2 h3)), each with the direction axis k
    after the batch axes of x and before the axes of the field's values.
    """
    y = x[..., None, :]
    minus, plus = field(y - h3 * frame), field(y + h3 * frame)
    return minus, plus, (plus - minus) / (2.0 * h3)


def _strain(lift: RadialLift, x: np.ndarray, frame: np.ndarray, h3: float) -> np.ndarray:
    """Symmetric part of the centered-difference displacement gradient at points x, (..., 3, 3)."""
    _, _, du = _along_frame(lambda y: lift_fields(lift, y)[0], x, frame, h3)
    grad = np.einsum("...ki,...kj->...ij", du, frame)
    return 0.5 * (grad + np.swapaxes(grad, -1, -2))


def residual_elasticity_3d(lift: RadialLift, points: np.ndarray, h3: float) -> np.ndarray:
    """Norm of  div(stress) - body force  at each sample point, a (P,) array.

    The balance is oriented so that lifting a solution of the reduced radial
    equation (where b = mu*(u'' + 2u'/r - 2u/r^2) - lam*S_r) gives a vanishing
    residual.  The divergence is a nested centered difference (overall second
    order in h3); every stencil point of a sample reuses that sample's frame.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    frame = sample_frame(points)
    inner = frame[:, None]  # the sample's frame at each of its stencil points

    def stress(y):
        s = lift_fields(lift, y)[1][..., None, None]
        return lift.tensor.apply(_strain(lift, y, inner, h3) - lift.misfit.entries * s)

    _, _, d_stress = _along_frame(stress, points, frame, h3)
    div = np.einsum("...kij,...kj->...i", d_stress, frame)
    return np.linalg.norm(div - lift_fields(lift, points)[2], axis=-1)


def residual_order_3d(
    lift0: RadialLift,
    lift1: RadialLift,
    dt: float,
    points: np.ndarray,
    material: MaterialParams,
    h3: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual of the 3D evolution law between two lifted frames, and the strain-pairing gap, per sample.

    Time enters by a forward difference of the lifted order parameter; spatial
    derivatives are centered differences at the first frame.  The second
    (P,) array is, per sample, the gap in the algebraic identity that reduces
    the strain pairing (D eps(grad u)) . misfit to lam * (u_hat' + 2 u_hat / r).
    The pairing uses the lift's tensors; lam, e and the kinetic constants come
    from ``material``, whose scalars ``RadialLift.from_frames`` derived those
    same tensors from.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    frame = sample_frame(points)
    r = np.linalg.norm(points, axis=-1)

    def order(y):
        return lift_fields(lift0, y)[1]

    s0 = order(points)
    s_t = (lift_fields(lift1, points)[1] - s0) / dt
    s_minus, s_plus, ds = _along_frame(order, points, frame, h3)
    lap_s = np.sum(s_plus - 2.0 * s0[:, None] + s_minus, axis=-1) / h3**2

    pairing = np.einsum("...kl,kl->...", lift0.tensor.apply(_strain(lift0, points, frame, h3)), lift0.misfit.entries)
    identity = np.abs(pairing - material.lam * (lift0.u_hat_r(r) + 2.0 * lift0.u_hat(r) / r))

    _, well_prime = double_well(s0, material.well_weight)
    psi_s = -pairing + material.e * s0 + well_prime
    # the frame is orthonormal, so |grad S| is the norm of the differences along its rows
    evolution = np.abs(s_t + material.c * (psi_s - material.nu * lap_s) * np.linalg.norm(ds, axis=-1))
    return evolution, identity
