"""Uniform radial grid, stencils and discrete norms on nodal arrays.

A nodal field is a plain float ndarray whose last axis runs over the grid
nodes; the ``Grid`` (or its spacing ``h``) is passed beside it.  The same
stencils and norms therefore serve one frame of shape (n,) and a stack of
frames of shape (K, n), row by row.  ``ScalarField`` pairs values with their
grid only at the edge: the frames of a ``Trajectory`` and the field files of
``save_field``/``load_field``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
import numpy as np
from scipy.integrate import trapezoid
from scipy.linalg.lapack import dgtsv

SUPPORTED_EXPONENTS = (4.0 / 3.0, 2.0, 8.0 / 3.0, math.inf)


class UnsupportedExponent(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Nodes x_i = a + i*h on [a, d], h = (d - a)/(n - 1)."""

    a: float
    d: float
    n: int

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
    """Nodal values with their grid, for the trajectory and file edge."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} values, got {self.values.shape}")


@dataclass
class Trajectory:
    """Saved frames of the two unknowns over increasing times in [0, t_end]."""

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
        if self.times[0] != 0.0:
            raise ValueError("first frame must be at t = 0")
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


def d1(v: np.ndarray, h: float) -> np.ndarray:
    """First derivative along the last axis: central interior, one-sided second order at the ends."""
    # the transposes put the node axis first, so one frame indexes to scalars
    out = np.empty_like(v)
    vt, ot = v.T, out.T
    ot[1:-1] = (vt[2:] - vt[:-2]) / (2.0 * h)
    ot[0] = (-3.0 * vt[0] + 4.0 * vt[1] - vt[2]) / (2.0 * h)
    ot[-1] = (3.0 * vt[-1] - 4.0 * vt[-2] + vt[-3]) / (2.0 * h)
    return out


def d2(v: np.ndarray, h: float) -> np.ndarray:
    """Second derivative along the last axis, 3-point interior stencil.

    Boundary nodes get the one-sided 4-point value; callers that assemble
    interior equations never read them.
    """
    h2 = h**2
    out = np.empty_like(v)
    vt, ot = v.T, out.T
    ot[1:-1] = (vt[2:] - 2.0 * vt[1:-1] + vt[:-2]) / h2
    ot[0] = (2.0 * vt[0] - 5.0 * vt[1] + 4.0 * vt[2] - vt[3]) / h2
    ot[-1] = (2.0 * vt[-1] - 5.0 * vt[-2] + 4.0 * vt[-3] - vt[-4]) / h2
    return out


def tridiag_solve(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonals of lengths n-1, n, n-1.

    LAPACK gtsv, elimination with partial pivoting; the inputs are left unchanged.
    Raises np.linalg.LinAlgError when the matrix is singular.
    """
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix (LAPACK gtsv info {info})")
    return x


def norm_l2(v: np.ndarray, h: float):
    """Trapezoid L^2 norm along the last axis: a float for one frame, an array for a stack."""
    return np.sqrt(trapezoid(v**2, dx=h, axis=-1))


def norm_lp_time_lq_space(times: np.ndarray, values: np.ndarray, h: float, p: float, q: float) -> float:
    """Mixed norm (int ||f(t)||_q^p dt)^(1/p) of a (frames, nodes) array, trapezoid in both variables."""
    for exponent in (p, q):
        if not any(abs(exponent - s) < 1e-14 or (exponent == math.inf and s == math.inf) for s in SUPPORTED_EXPONENTS):
            raise UnsupportedExponent(f"exponent {exponent} not supported")
    times = np.asarray(times, dtype=float)
    if len(times) != len(values):
        raise ValueError("times and fields must have equal length")
    if q == math.inf:
        per_frame = np.max(np.abs(values), axis=-1)
    else:
        per_frame = trapezoid(np.abs(values) ** q, dx=h, axis=-1) ** (1.0 / q)
    if p == math.inf:
        return float(np.max(per_frame))
    return float(trapezoid(per_frame**p, times)) ** (1.0 / p)


FLOAT_FMT = "{:.17g}"


def save_field(path, f: ScalarField, t: float):
    """Two-column text (x, value) with the frame time in the header."""
    lines = [f"# t = {FLOAT_FMT.format(t)}", "x,value"]
    for x, v in zip(f.grid.x, f.values):
        lines.append(f"{FLOAT_FMT.format(x)},{FLOAT_FMT.format(v)}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_field(path, grid: Grid | None = None) -> tuple[ScalarField, float]:
    text = Path(path).read_text().strip().splitlines()
    t = float(text[0].split("=", 1)[1])
    xs, vs = [], []
    for line in text[2:]:
        sx, sv = line.split(",")
        xs.append(float(sx))
        vs.append(float(sv))
    if grid is None:
        grid = Grid(xs[0], xs[-1], len(xs))
    return ScalarField(grid, np.array(vs)), t
