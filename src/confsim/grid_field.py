"""Uniform radial grid, nodal scalar fields, stencils and discrete norms."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

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
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} values, got {self.values.shape}")

    def validate(self, dirichlet_zero: bool = False):
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")
        if dirichlet_zero and (self.values[0] != 0.0 or self.values[-1] != 0.0):
            raise ValueError("Dirichlet-zero field has nonzero boundary values")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.n))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        return cls(grid, np.asarray(fn(grid.x), dtype=float))


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
        return np.stack([f.values for f in self.s_frames])

    def u_matrix(self) -> np.ndarray:
        return np.stack([f.values for f in self.u_frames])


def d1(f: ScalarField) -> ScalarField:
    """First derivative: central interior, one-sided second order at the ends."""
    v = f.values
    h = f.grid.h
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return ScalarField(f.grid, out)


def d2(f: ScalarField) -> ScalarField:
    """Second derivative, 3-point interior stencil.

    Boundary nodes get the one-sided 4-point value; callers that assemble
    interior equations never read them.
    """
    v = f.values
    h2 = f.grid.h ** 2
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return ScalarField(f.grid, out)


def tridiag_solve(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the tridiagonal system with sub-, main and super-diagonals of lengths n-1, n, n-1.

    LAPACK gtsv, elimination with partial pivoting; the inputs are left unchanged.
    Raises np.linalg.LinAlgError when the matrix is singular.
    """
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular tridiagonal matrix (LAPACK gtsv info {info})")
    return x


def norm_l2(f: ScalarField) -> float:
    return float(np.sqrt(trapezoid(f.values**2, dx=f.grid.h)))


def norm_linf(f: ScalarField) -> float:
    return float(np.max(np.abs(f.values)))


def _space_norm(values: np.ndarray, h: float, q: float) -> float:
    if q == math.inf:
        return float(np.max(np.abs(values)))
    return float(trapezoid(np.abs(values) ** q, dx=h)) ** (1.0 / q)


def norm_lp_time_lq_space(times: np.ndarray, fields: Sequence[ScalarField], p: float, q: float) -> float:
    """Mixed norm (int ||f(t)||_q^p dt)^(1/p), trapezoid in both variables."""
    for exponent in (p, q):
        if not any(abs(exponent - s) < 1e-14 or (exponent == math.inf and s == math.inf) for s in SUPPORTED_EXPONENTS):
            raise UnsupportedExponent(f"exponent {exponent} not supported")
    times = np.asarray(times, dtype=float)
    if len(times) != len(fields):
        raise ValueError("times and fields must have equal length")
    h = fields[0].grid.h
    per_frame = np.array([_space_norm(f.values, h, q) for f in fields])
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
