"""Closed-form radial fields shared by the reduction and acceptance tests."""

import math

import numpy as np

from confsim.material import ElasticityTensor, MaterialParams, MisfitStrain, double_well
from confsim.reduction3d import RadialLift

A, D = 1.0, 2.0
MU0, BETA = 2.0, 0.1
TENSOR = ElasticityTensor.diagonal_family(MU0)
MISFIT = MisfitStrain.spherical(BETA)
MAT = MaterialParams(c=1.0, nu=0.1, mu=2.0, lam=0.2, e=0.06, well_weight=1.0)


def u_hat(r):
    return np.sin(math.pi * (r - A))


def u_hat_r(r):
    return math.pi * np.cos(math.pi * (r - A))


def u_hat_rr(r):
    return -math.pi**2 * np.sin(math.pi * (r - A))


def s_hat(r):
    return 0.4 + 0.3 * np.sin(2.0 * math.pi * (r - A))


def s_hat_r(r):
    return 0.6 * math.pi * np.cos(2.0 * math.pi * (r - A))


def s_hat_rr(r):
    return -1.2 * math.pi**2 * np.sin(2.0 * math.pi * (r - A))


def matched_body(r, mu=MU0, lam=MU0 * BETA):
    """Body force that makes the manufactured pair an exact radial solution."""
    return mu * (u_hat_rr(r) + 2.0 * u_hat_r(r) / r - 2.0 * u_hat(r) / r**2) - lam * s_hat_r(r)


def manufactured_lift():
    return RadialLift(A, D, u_hat, u_hat_r, s_hat, matched_body, TENSOR, MISFIT)


def make_order_lifts(dt):
    """Two lifts one forward step apart, moving at the exact evolution velocity."""

    def psi_s0(r):
        pairing = MU0 * BETA * (u_hat_r(r) + 2.0 * u_hat(r) / r)
        _, well_prime = double_well(s_hat(r), MAT.well_weight)
        return -pairing + MAT.e * s_hat(r) + well_prime

    def velocity(r):
        lap = s_hat_rr(r) + 2.0 * s_hat_r(r) / r
        return -MAT.c * (psi_s0(r) - MAT.nu * lap) * np.abs(s_hat_r(r))

    def s_hat_later(r):
        return s_hat(r) + dt * velocity(r)

    lift0 = manufactured_lift()
    lift1 = RadialLift(A, D, u_hat, u_hat_r, s_hat_later, matched_body, TENSOR, MISFIT)
    return lift0, lift1


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis /= np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
