"""Elastic material data and the double-well phase energy.

The radial model reads three scalars, kept in ``MaterialParams``: the
stiffness ``mu``, the misfit coupling ``lam`` and the misfit quadratic form
``e``.  ``MaterialParams`` is the one place every layer above reads them
from.  The 3D check lifts them to a rank-4 stiffness tensor, which maps
symmetric strain matrices to stress, and a symmetric misfit strain:
``ElasticityTensor.diagonal_family(mu)`` with ``MisfitStrain.spherical(lam /
mu)`` (``reduction3d.RadialLift.from_frames``).

Entries are stored positionally as ``entries[i, j, k, l]`` where (i, j) are
the contraction indices against a strain and (k, l) index the output stress.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ASSUMPTION_TOL = 1e-12  # absolute tolerance of the misfit strain's symmetry


@dataclass(frozen=True)
class ElasticityTensor:
    """Rank-4 stiffness, entries[i, j, k, l] with units of stress."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (3, 3, 3, 3):
            raise ValueError(f"stiffness tensor must be 3x3x3x3, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("stiffness tensor entries must be finite")
        object.__setattr__(self, "entries", arr)

    @classmethod
    def diagonal_family(cls, mu0: float) -> "ElasticityTensor":
        """entries[i, j, k, l] = mu0 when k == j and i == l, else 0."""
        d = np.zeros((3, 3, 3, 3))
        for i in range(3):
            for j in range(3):
                d[i, j, j, i] = mu0
        return cls(d)

    def apply(self, eps: np.ndarray) -> np.ndarray:
        """Map a symmetric 3x3 strain, or a (..., 3, 3) stack, to the stress sum_ij entries[i,j,k,l]*eps[..., i,j]."""
        return np.einsum("ijkl,...ij->...kl", self.entries, np.asarray(eps, dtype=float))


@dataclass(frozen=True)
class MisfitStrain:
    """Symmetric 3x3 transformation strain (dimensionless)."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (3, 3):
            raise ValueError(f"misfit strain must be 3x3, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("misfit strain entries must be finite")
        if np.max(np.abs(arr - arr.T)) > ASSUMPTION_TOL:
            raise ValueError("misfit strain must be symmetric")
        object.__setattr__(self, "entries", 0.5 * (arr + arr.T))

    @classmethod
    def spherical(cls, beta: float) -> "MisfitStrain":
        return cls(beta * np.eye(3))


def double_well(s, well_weight: float):
    """Quartic double well W*s^2*(1-s)^2 with minima at 0 and 1.

    Returns (value, derivative); accepts scalars or arrays.
    """
    s = np.asarray(s, dtype=float)
    value = well_weight * s**2 * (1.0 - s) ** 2
    deriv = 2.0 * well_weight * s * (1.0 - s) * (1.0 - 2.0 * s)
    if value.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


@dataclass(frozen=True)
class MaterialParams:
    """Scalar coefficients of the radial model.

    c is the kinetic constant, nu the interface coefficient, mu and lam the
    stiffness and coupling scalars, e the misfit quadratic form, well_weight
    the double-well amplitude.
    """

    c: float = 1.0
    nu: float = 0.1
    mu: float = 2.0
    lam: float = 0.2
    e: float = 0.06
    well_weight: float = 1.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.well_weight > 0:
            raise ValueError(f"well_weight must be positive, got {self.well_weight}")
        if self.e < 0:
            raise ValueError(f"e must be nonnegative, got {self.e}")
