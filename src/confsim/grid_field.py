"""Uniform radial grid, stencils and discrete norms on nodal arrays.

A nodal field is a plain float ndarray whose last axis runs over the grid
nodes; the ``Grid`` (or its spacing ``h``) is passed beside it.  The same
stencils and norms therefore serve one frame of shape (n,) and a stack of
frames of shape (K, n), row by row.  ``ScalarField`` pairs values with their
grid only at the edge: in the frames of a ``Trajectory``, and as the
argument of the Green quadrature, which takes a frame or a stack.
``csv_text`` writes every CSV table confsim writes; the run directory's
layout is ``simulator``'s.

Quadrature along the nodes is the local ``trapezoid``, one in-place rule
along the last axis that does scipy's arithmetic bit for bit; the mixed
norm's time integral over uneven times writes out scipy's operations.  From
scipy the package uses only LAPACK ``dgtsv`` behind ``tridiag_solve``, and
``dgttrf``/``dgttrs`` behind ``tridiag_factor`` and ``tridiag_factor_solve``
for a matrix solved against many times, taken from scipy's compiled
``scipy.linalg._flapack`` extension loaded by file, so that a cold start does
not run ``scipy.linalg``'s package init (about 0.3 s, almost all of it
modules the package never uses).

``d1``, ``d2`` and the norms do their arithmetic in place on the arrays they
allocate, and ``trapezoid`` in the array it is given, with the operations
and grouping of the plain expressions, so their bits are the expressions';
the step functions and the report's monitors built on them follow the same
rule.  A (K, n) stack of a long run is larger than the C allocator's mmap
threshold, so each temporary spared is a mapping, its page faults and its
unmapping spared.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional
import numpy as np
import scipy

class FieldFileError(ValueError):
    """A run directory's file is damaged, of an earlier layout, or was written on a different grid."""


def _load_flapack():
    """scipy's compiled LAPACK wrappers, without importing the ``scipy.linalg`` package.

    The extension is the one ``scipy.linalg.lapack`` wraps.  It is registered
    in ``sys.modules`` under its own name, so a later ``import scipy.linalg``
    reuses it rather than loading it again, and ``dgtsv`` here is
    ``scipy.linalg.lapack.dgtsv`` whichever is imported first, as are
    ``dgttrf`` and ``dgttrs`` (``tests/test_layering.py`` checks both orders).
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    directory = os.path.join(scipy.__path__[0], "linalg")
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"scipy's compiled LAPACK extension _flapack not found in {directory}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_flapack = _load_flapack()
dgtsv, dgttrf, dgttrs = _flapack.dgtsv, _flapack.dgttrf, _flapack.dgttrs


@dataclass(frozen=True)
class Grid:
    """Nodes x_i = a + i*h on [a, d], h = (d - a)/(n - 1)."""

    a: float = 1.0
    d: float = 2.0
    n: int = 129

    def __post_init__(self):
        if not (0 < self.a < self.d):
            raise ValueError(f"require 0 < a < d, got a={self.a}, d={self.d}")
        if self.n < 4:
            # d2's one-sided boundary stencil reads four nodes
            raise ValueError(f"need at least 4 nodes, got {self.n}")

    @property
    def h(self) -> float:
        return (self.d - self.a) / (self.n - 1)

    @cached_property
    def x(self) -> np.ndarray:
        nodes = np.linspace(self.a, self.d, self.n)
        nodes.flags.writeable = False
        return nodes


@dataclass
class ScalarField:
    """Nodal values with their grid, for the trajectory edge and the Green quadrature.

    ``values`` is one frame of shape (n,) or a stack of frames whose last
    axis runs over the grid nodes, such as (K, n).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 0 or self.values.shape[-1] != self.grid.n:
            raise ValueError(f"expected {self.grid.n} values along the last axis, got {self.values.shape}")


@dataclass
class Trajectory:
    """Saved frames of the two unknowns over increasing times, the last at most t_end.

    The first time need not be 0: a run resumed from a snapshot starts at
    the snapshot's time.
    """

    times: np.ndarray
    s_frames: list[ScalarField]
    u_frames: list[ScalarField]
    steps: np.ndarray  # global step index of each frame

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.steps = np.asarray(self.steps, dtype=int)

    def validate(self, t_end: float | None = None):
        if len(self.times) != len(self.s_frames) or len(self.times) != len(self.u_frames):
            raise ValueError("frame count mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("save times must be strictly increasing")
        if t_end is not None and self.times[-1] != t_end:
            raise ValueError("last frame must be at t_end")

    @property
    def grid(self) -> Grid:
        return self.s_frames[0].grid

    def s_matrix(self) -> np.ndarray:
        """S of every frame as one (frames, nodes) array."""
        return np.stack([f.values for f in self.s_frames])

    def u_matrix(self) -> np.ndarray:
        """u of every frame as one (frames, nodes) array."""
        return np.stack([f.values for f in self.u_frames])


def scalar_array(value: float) -> np.ndarray:
    """``value`` as a read-only float64 0-d array, an operand for the kernels' constants.

    numpy resolves the type of a Python float operand on every ufunc call, so
    a 0-d array operand costs less, 391 against 573 ns per call on 129 nodes
    (numpy 2.4), and float64 arithmetic with it gives the same bits.
    """
    array = np.array(value, dtype=np.float64)
    array.flags.writeable = False
    return array


def _interior(v: np.ndarray, out: np.ndarray):
    """The values a 3-point stencil reads and the interior nodes it writes, node axis first.

    A stack is taken as one flattened row, so that the interior of every
    row is one pass (``reshape(-1)`` copies a stack that is not C-contiguous,
    with the same values); the values that pass leaves at each row junction
    are end nodes, which the end stencils then overwrite.  A lone row is its
    own node axis.
    """
    if v.ndim == 1:
        return v, out[1:-1]
    return v.reshape(-1), out.reshape(-1)[1:-1]


def d1(v: np.ndarray, h: float, *, two_h: Optional[np.ndarray] = None) -> np.ndarray:
    """First derivative along the last axis: central interior, one-sided second order at the ends.

    Interior (v[i+1] - v[i-1]) / (2h); ends (-3 v[0] + 4 v[1] - v[2]) / (2h)
    and (3 v[-1] - 4 v[-2] + v[-3]) / (2h).  A caller that differentiates
    many times on one grid may pass ``two_h``, 2h as a float64 0-d array,
    which the interior divides by at less cost per call, to the same bits.
    """
    out = np.empty(v.shape)
    h2 = 2.0 * h
    src, inner = _interior(v, out)
    np.subtract(src[2:], src[:-2], out=inner)
    inner /= h2 if two_h is None else two_h
    if v.ndim == 1:
        # Python floats do the float64 arithmetic of numpy scalars, at less cost per operation
        item = v.item
        out[0] = (-3.0 * item(0) + 4.0 * item(1) - item(2)) / h2
        out[-1] = (3.0 * item(-1) - 4.0 * item(-2) + item(-3)) / h2
    else:
        # the transposes put the node axis first
        vt, ot = v.T, out.T
        ot[0] = (-3.0 * vt[0] + 4.0 * vt[1] - vt[2]) / h2
        ot[-1] = (3.0 * vt[-1] - 4.0 * vt[-2] + vt[-3]) / h2
    return out


def d2(v: np.ndarray, h: float) -> np.ndarray:
    """Second derivative along the last axis, 3-point interior stencil.

    Boundary nodes get the one-sided 4-point value; callers that assemble
    interior equations never read them.
    """
    h2 = h**2
    out = np.empty(v.shape)
    src, inner = _interior(v, out)
    # In place, with the operations and grouping of (v[i+1] - 2.0 * v[i] + v[i-1]) / h2
    np.multiply(src[1:-1], 2.0, out=inner)
    np.subtract(src[2:], inner, out=inner)
    inner += src[:-2]
    inner /= h2
    vt, ot = v.T, out.T
    ot[0] = (2.0 * vt[0] - 5.0 * vt[1] + 4.0 * vt[2] - vt[3]) / h2
    ot[-1] = (2.0 * vt[-1] - 5.0 * vt[-2] + 4.0 * vt[-3] - vt[-4]) / h2
    return out


def tridiag_solve(lower, diag, upper, rhs, overwrite: bool = False) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonals of lengths n-1, n, n-1.

    ``rhs`` is one vector of length n or an (n, k) array of k columns.  LAPACK
    gtsv, elimination with partial pivoting.  The inputs are left unchanged
    unless ``overwrite`` is set: LAPACK then works in the four arrays
    themselves when they are contiguous float64, so they must be the
    caller's own and share no memory, and the solution is returned in
    ``rhs``.  Raises np.linalg.LinAlgError when the matrix is singular.
    """
    *_, x, info = dgtsv(lower, diag, upper, rhs, overwrite, overwrite, overwrite, overwrite)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix (LAPACK gtsv info {info})")
    return x


def tridiag_factor(lower, diag, upper) -> tuple:
    """LU factors of the tridiagonal matrix of ``tridiag_solve``, for ``tridiag_factor_solve``.

    LAPACK gttrf, the elimination with partial pivoting that gtsv performs.
    The factors are read-only arrays, so that they may be shared.
    Raises np.linalg.LinAlgError when the matrix is singular.
    """
    *factors, info = dgttrf(lower, diag, upper)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix (LAPACK gttrf info {info})")
    for part in factors:
        part.flags.writeable = False
    return tuple(factors)


def tridiag_factor_solve(factors: tuple, rhs) -> np.ndarray:
    """Solve with the factors of ``tridiag_factor``; ``rhs`` as for ``tridiag_solve``, worked in where it can be.

    LAPACK gttrs applies the multipliers and back substitution that gtsv
    applies while it eliminates, so the solution equals ``tridiag_solve``'s
    bit for bit.  LAPACK works in ``rhs`` itself when it is Fortran-contiguous
    float64, such as the transpose of a C-contiguous (K, n) stack, and returns
    the solution in it, so the caller no longer reads ``rhs``.
    """
    # positional: trans "N" (the matrix itself), then overwrite_b
    x, info = dgttrs(*factors, rhs, "N", True)
    if info != 0:  # pragma: no cover - gttrs fails only on malformed arguments
        raise ValueError(f"LAPACK gttrs info {info}")
    return x


def trapezoid(y, dx: float):
    """Composite trapezoid rule along the last axis with spacing ``dx``, worked in ``y``.

    The operations in the order of ``scipy.integrate.trapezoid(y, dx=dx)``,
    so for a C-contiguous float64 ``y`` the result is bit-identical to it.
    The rule works in ``np.ascontiguousarray(y, dtype=float)``: a
    C-contiguous float64 ``y`` is overwritten, and the caller no longer reads
    it; any other ``y`` is copied to that layout first.
    """
    y = np.ascontiguousarray(y, dtype=float)
    # the terms over the flattened rows, each written over the first node of
    # its pair: numpy runs this forward overlap without a copy (it would copy
    # rather than misread), and the term left on each row's last node joins
    # two rows and is not summed
    flat = y.reshape(-1)
    total = flat[:-1]
    np.add(flat[1:], total, out=total)
    total *= dx
    total /= 2.0
    return np.sum(y[..., :-1], axis=-1)


def norm_l2(v: np.ndarray, h: float):
    """Trapezoid L^2 norm along the last axis: a float for one frame, an array for a stack."""
    return np.sqrt(trapezoid(v**2, h))


def space_norms(values: np.ndarray, h: float, q: float):
    """Trapezoid L^q norm (max norm for q = inf) along the last axis: one per frame of a stack."""
    magnitude = np.abs(values)
    if q == math.inf:
        return np.max(magnitude, axis=-1)
    # the in-place power takes the ufunc of ``** q``: numpy's square for q = 2
    magnitude **= q
    return trapezoid(magnitude, h) ** (1.0 / q)


def norm_lp_time_lq_space(times: np.ndarray, values: np.ndarray, h: float, p: float, q: float) -> float:
    """Mixed norm (int ||f(t)||_q^p dt)^(1/p) of a (frames, nodes) array, trapezoid in both variables.

    p = inf is the largest space norm.  The time integral over the (possibly
    uneven) ``times`` is scipy's ``trapezoid(..., x=times)`` arithmetic.
    """
    per_frame = space_norms(values, h, q)
    if p == math.inf:
        return float(np.max(per_frame))
    y = per_frame**p
    d = np.diff(np.asarray(times, dtype=float))
    return float(np.sum(d * (y[1:] + y[:-1]) / 2.0)) ** (1.0 / p)


# Every float confsim writes, for the % operator: 17 significant digits read
# back bit for bit, and nan, inf and -0.0 keep their text.
FLOAT_SLOT = "%.17g"


def csv_text(header, columns) -> str:
    """A CSV table: the header line, then one ``FLOAT_SLOT`` row per entry of the equal-length ``columns``."""
    row = ",".join([FLOAT_SLOT] * len(columns)) + "\n"
    # an array's values as Python numbers, which % formats faster than numpy scalars
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns), strict=True)
    return ",".join(header) + "\n" + "".join(row % values for values in rows)
