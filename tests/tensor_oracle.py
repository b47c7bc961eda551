"""The six structural conditions on a stiffness tensor and misfit strain, as explicit loops.

The radial reduction is exact when the pair passes the five conditions of
``GATE``; ``full_symmetry`` is reported but does not gate, since the
diagonal family fails it.  Each condition maps to the index tuple of its
first offending entry in lexicographic order (4 indices into the tensor, or
2 into the misfit coupling E_kl = sum_ij d_ijkl eps_ij), or to None where it
holds, to absolute tolerance ``ASSUMPTION_TOL``.
"""

import numpy as np

from confsim.material import ASSUMPTION_TOL

GATE = (
    "zero_unless_k_equals_j",
    "reduced_block_diagonal",
    "shear_scalar_constant",
    "misfit_coupling_offdiagonal_zero",
    "misfit_coupling_isotropic",
)


def passes_gate(report):
    return all(report[name] is None for name in GATE)


def brute_force_report(d, eps):
    """Each of the six conditions to its first offending index, or None, by explicit loops over all index tuples."""
    tol = ASSUMPTION_TOL
    out = {}

    viol = None
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    bad = (
                        abs(d[i, j, k, l] - d[k, l, i, j]) > tol
                        or abs(d[i, j, k, l] - d[j, i, k, l]) > tol
                        or abs(d[i, j, k, l] - d[i, j, l, k]) > tol
                    )
                    if bad and viol is None:
                        viol = (i, j, k, l)
    out["full_symmetry"] = viol

    viol = None
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    if k != j and abs(d[i, j, k, l]) > tol and viol is None:
                        viol = (i, j, k, l)
    out["zero_unless_k_equals_j"] = viol

    viol = None
    for j in range(3):
        for i in range(3):
            for l in range(3):
                if i != l and abs(d[i, j, j, l]) > tol and viol is None:
                    viol = (i, j, j, l)
    if viol is None:
        for j in range(1, 3):
            for i in range(3):
                for l in range(3):
                    if abs(d[i, j, j, l] - d[i, 0, 0, l]) > tol and viol is None:
                        viol = (i, j, j, l)
    out["reduced_block_diagonal"] = viol

    viol = None
    for l in range(1, 3):
        if abs(d[l, 0, 0, l] - d[0, 0, 0, 0]) > tol and viol is None:
            viol = (l, 0, 0, l)
    out["shear_scalar_constant"] = viol

    e_mat = np.zeros((3, 3))
    for k in range(3):
        for l in range(3):
            for i in range(3):
                for j in range(3):
                    e_mat[k, l] += d[i, j, k, l] * eps[i, j]
    viol = None
    for k in range(3):
        for l in range(3):
            if k != l and abs(e_mat[k, l]) > tol and viol is None:
                viol = (k, l)
    out["misfit_coupling_offdiagonal_zero"] = viol
    viol = None
    for k in range(1, 3):
        if abs(e_mat[k, k] - e_mat[0, 0]) > tol and viol is None:
            viol = (k, k)
    out["misfit_coupling_isotropic"] = viol
    return out


def brute_force_scalars(d, eps):
    """(mu, lam, e) of a pair that passes the gate: C_00, E_00 and the quadratic form of d on eps."""
    mu = d[0, 0, 0, 0]
    lam = sum(d[i, j, 0, 0] * eps[i, j] for i in range(3) for j in range(3))
    e = sum(
        d[i, j, k, l] * eps[i, j] * eps[k, l]
        for i in range(3)
        for j in range(3)
        for k in range(3)
        for l in range(3)
    )
    return mu, lam, e
