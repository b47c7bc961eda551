"""Elastic material data and the double-well phase energy.

A rank-4 stiffness tensor maps symmetric strain matrices to stress.  For the
radial reduction to be exact the tensor and the misfit strain have to satisfy
six structural conditions; ``check_tensor_assumptions`` tests all of them
entrywise, as one table of violation masks, and reports per-condition
pass/fail with the first offending index instead of raising.  When the
conditions hold, three scalars fully describe the coupling:

* ``mu``      -- the common diagonal value of C_il = D_ij^jl,
* ``lam``     -- the common diagonal value of E_kl = sum_ij D_ij^kl eps_ij,
* ``e``       -- the quadratic form of the tensor on the misfit strain.

``scalar_coefficients`` extracts them and ``MaterialParams.from_tensors``
stores them; ``MaterialParams`` is the one place every layer above reads
them from.

Entries are stored positionally as ``entries[i, j, k, l]`` where (i, j) are
the contraction indices against a strain and (k, l) index the output stress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

ASSUMPTION_TOL = 1e-12

CONDITION_NAMES = (
    "full_symmetry",
    "zero_unless_k_equals_j",
    "reduced_block_diagonal",
    "shear_scalar_constant",
    "misfit_coupling_offdiagonal_zero",
    "misfit_coupling_isotropic",
)

# Conditions that make the scalar extraction well defined.  full_symmetry is
# reported but does not gate extraction: the canonical diagonal family fails
# it while still having unambiguous (mu, lam, e).
SCALAR_GATE = CONDITION_NAMES[1:]


class AssumptionViolated(ValueError):
    """Raised when scalar extraction is requested for an unsuitable tensor."""

    def __init__(self, report: "AssumptionReport"):
        self.report = report
        # the gate conditions that fail, each with its first offending index
        self.failed = ", ".join(
            f"{c.name} at {c.first_violation}" for c in report.conditions if not c.passed and c.name in SCALAR_GATE
        )
        super().__init__(f"tensor assumptions violated: {self.failed}")


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    # index tuple of the first offending entry; 4 indices into the stiffness
    # tensor, or 2 indices into the misfit-coupling matrix E (all 0-based)
    first_violation: Optional[tuple] = None


@dataclass(frozen=True)
class AssumptionReport:
    conditions: tuple[ConditionResult, ...]

    def __getitem__(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    @property
    def scalars_defined(self) -> bool:
        return all(self[name].passed for name in SCALAR_GATE)


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
    def zeros(cls) -> "ElasticityTensor":
        return cls(np.zeros((3, 3, 3, 3)))

    @classmethod
    def diagonal_family(cls, mu0: float) -> "ElasticityTensor":
        """entries[i, j, k, l] = mu0 when k == j and i == l, else 0."""
        d = np.zeros((3, 3, 3, 3))
        for i in range(3):
            for j in range(3):
                d[i, j, j, i] = mu0
        return cls(d)

    @classmethod
    def isotropic(cls, lam_l: float, mu_l: float) -> "ElasticityTensor":
        """Standard Lame form: lam*delta_ij*delta_kl + mu*(delta_ik*delta_jl + delta_il*delta_jk)."""
        eye = np.eye(3)
        d = (
            lam_l * np.einsum("ij,kl->ijkl", eye, eye)
            + mu_l * np.einsum("ik,jl->ijkl", eye, eye)
            + mu_l * np.einsum("il,jk->ijkl", eye, eye)
        )
        return cls(d)

    def apply(self, eps: np.ndarray) -> np.ndarray:
        """Map a symmetric 3x3 strain, or a (..., 3, 3) stack, to the stress sum_ij entries[i,j,k,l]*eps[..., i,j]."""
        return np.einsum("ijkl,...ij->...kl", self.entries, np.asarray(eps, dtype=float))

    def quadratic_form(self, eps: np.ndarray) -> float:
        eps = np.asarray(eps, dtype=float)
        return float(np.einsum("ijkl,ij,kl->", self.entries, eps, eps))

    def is_positive_definite(self, tol: float = 0.0) -> bool:
        """Positive definiteness as a map on symmetric matrices (Mandel basis)."""
        basis = []
        s = 1.0 / np.sqrt(2.0)
        for k in range(3):
            m = np.zeros((3, 3))
            m[k, k] = 1.0
            basis.append(m)
        for (p, q) in ((0, 1), (0, 2), (1, 2)):
            m = np.zeros((3, 3))
            m[p, q] = m[q, p] = s
            basis.append(m)
        gram = np.empty((6, 6))
        for p in range(6):
            dp = self.apply(basis[p])
            for q in range(6):
                gram[p, q] = np.sum(dp * basis[q])
        gram = 0.5 * (gram + gram.T)
        return bool(np.linalg.eigvalsh(gram).min() > tol)


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
    def zeros(cls) -> "MisfitStrain":
        return cls(np.zeros((3, 3)))

    @classmethod
    def spherical(cls, beta: float) -> "MisfitStrain":
        return cls(beta * np.eye(3))


def check_tensor_assumptions(tensor: ElasticityTensor, misfit: MisfitStrain) -> AssumptionReport:
    """Test the six structural conditions to absolute tolerance 1e-12.

    A failing condition is a report entry, never an exception.  Each
    condition is a boolean violation mask plus the map from the mask's first
    offending index, in lexicographic order, to the reported index.
    """
    d = tensor.entries
    tol = ASSUMPTION_TOL
    off = ~np.eye(3, dtype=bool)
    same = lambda *idx: idx
    # pair exchange plus both minor symmetries, entrywise
    symmetry = (
        (np.abs(d - d.transpose(2, 3, 0, 1)) > tol)
        | (np.abs(d - d.transpose(1, 0, 2, 3)) > tol)
        | (np.abs(d - d.transpose(0, 1, 3, 2)) > tol)
    )
    # entries with first output index different from second input index vanish
    k_ne_j = off[None, :, :, None] & (np.abs(d) > tol)
    # the contracted block d[i, j, j, l], as (j, i, l): off-diagonal in (i, l)
    # vanishes and, when it does, the block is the same for every j
    block = np.einsum("ijjl->jil", d)
    block_bad = off & (np.abs(block) > tol)
    if not block_bad.any():
        block_bad = np.abs(block - block[0]) > tol
    # C_il taken from the j = 0 representative; its diagonal must be constant
    shear = np.diag(block[0])
    e_mat = tensor.apply(misfit.entries)
    e_diag = np.diag(e_mat)
    table = {
        "full_symmetry": (symmetry, same),
        "zero_unless_k_equals_j": (k_ne_j, same),
        "reduced_block_diagonal": (block_bad, lambda j, i, l: (i, j, j, l)),
        "shear_scalar_constant": (np.abs(shear - shear[0]) > tol, lambda i: (i, 0, 0, i)),
        "misfit_coupling_offdiagonal_zero": (off & (np.abs(e_mat) > tol), same),
        "misfit_coupling_isotropic": (np.abs(e_diag - e_diag[0]) > tol, lambda k: (k, k)),
    }
    results = []
    for name in CONDITION_NAMES:
        mask, place = table[name]
        bad = np.argwhere(mask)
        first = place(*(int(v) for v in bad[0])) if len(bad) else None
        results.append(ConditionResult(name, first is None, first))
    return AssumptionReport(tuple(results))


def scalar_coefficients(tensor: ElasticityTensor, misfit: MisfitStrain) -> tuple[float, float, float]:
    """Extract (mu, lam, e) from a tensor pair satisfying the structural conditions.

    Raises:
        AssumptionViolated: any condition needed for a well-defined extraction
            fails; the exception carries the full report.
    """
    report = check_tensor_assumptions(tensor, misfit)
    if not report.scalars_defined:
        raise AssumptionViolated(report)
    mu = float(tensor.entries[0, 0, 0, 0])  # C_00 via the j = 0 representative
    lam = float(tensor.apply(misfit.entries)[0, 0])
    return mu, lam, tensor.quadratic_form(misfit.entries)


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


def free_energy(
    eps: np.ndarray,
    s: float,
    tensor: ElasticityTensor,
    misfit: MisfitStrain,
    well_weight: float,
) -> float:
    """0.5 * D(eps - misfit*s) . (eps - misfit*s) + well(s)."""
    eps = np.asarray(eps, dtype=float)
    if np.max(np.abs(eps - eps.T)) > ASSUMPTION_TOL:
        raise ValueError("strain must be symmetric")
    elastic = eps - misfit.entries * s
    value, _ = double_well(s, well_weight)
    return 0.5 * tensor.quadratic_form(elastic) + value


# The ``TensorSpec`` fields each tensor family reads, the one statement of them.
FAMILY_FIELDS = {
    "diagonal": ("mu0",),
    "isotropic": ("lambda_l", "mu_l"),
    "entries": ("entries",),
}


@dataclass(frozen=True)
class TensorSpec:
    """Declarative stiffness/misfit selection, as read from a config file.

    ``family`` is a key of ``FAMILY_FIELDS``.  A family's fields have no
    default: the spec sets each one its family reads, and exactly one misfit
    form, ``misfit`` (9 entries, row major) or the spherical ``misfit_iso``.
    """

    family: str
    mu0: Optional[float] = None
    lambda_l: Optional[float] = None
    mu_l: Optional[float] = None
    entries: Optional[tuple] = None
    misfit: Optional[tuple] = None
    misfit_iso: Optional[float] = None

    def __post_init__(self):
        if self.family not in FAMILY_FIELDS:
            raise ValueError(f"unknown tensor family {self.family!r}")
        missing = [name for name in FAMILY_FIELDS[self.family] if getattr(self, name) is None]
        if missing:
            raise ValueError(f"tensor family {self.family!r} needs {' and '.join(missing)}")
        if (self.misfit is None) == (self.misfit_iso is None):
            raise ValueError("tensor spec needs exactly one of misfit / misfit_iso")

    def build(self) -> tuple[ElasticityTensor, MisfitStrain]:
        if self.family == "diagonal":
            tensor = ElasticityTensor.diagonal_family(self.mu0)
        elif self.family == "isotropic":
            tensor = ElasticityTensor.isotropic(self.lambda_l, self.mu_l)
        else:
            if len(self.entries) != 81:
                raise ValueError("entries family requires exactly 81 values")
            tensor = ElasticityTensor(np.asarray(self.entries, dtype=float).reshape(3, 3, 3, 3))
        if self.misfit is None:
            return tensor, MisfitStrain.spherical(self.misfit_iso)
        return tensor, MisfitStrain(np.asarray(self.misfit, dtype=float).reshape(3, 3))


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

    @classmethod
    def from_tensors(cls, tensor: ElasticityTensor, misfit: MisfitStrain, **scalars) -> "MaterialParams":
        """mu, lam and e from the tensors; ``scalars`` sets any of c, nu and well_weight, the rest default."""
        mu, lam, e = scalar_coefficients(tensor, misfit)
        return cls(mu=mu, lam=lam, e=e, **scalars)
