"""Order-parameter evolution: smoothed gradient modulus, mollifier, driving force, time step.

The evolution law is degenerate where the spatial gradient vanishes, so the
modulus |p| is replaced by the smooth surrogate sqrt(kappa^2 + p^2) >= kappa,
making the equation uniformly parabolic for kappa > 0.  The time step freezes
that coefficient at the current state, advances the diffusion by backward
Euler and the reaction explicitly, guarded by a maximum-increment check.
The mollifier averages S over a causal window of m steps held in a ring
buffer; once the window is full it works in blocks of min(``BLOCK``, m)
steps, one matrix-matrix product per block in place of one window-long
matrix-vector product per step (``MollifierState``, ``mollify``).  What
the driving force and the step compute alike at every step of a run, the
nodes, the curvature row and their scalars, is built once per run
(``step_constants``) and is the one way those kernels take it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid_field import scalar_array, tridiag_solve
from .material import MaterialParams


# Ceilings on the mollifier window length and on the step count of one run,
# and on the floats its mollifier holds (``mollifier_floats``): 2 GiB.
MAX_STEPS = 2**31
MAX_MOLLIFIER_FLOATS = 2**28

# Steps per block of the full-window mollifier (a window of m < BLOCK
# steps works in blocks of m).  One ``mollify`` call on a full 1250-frame
# window, one BLAS thread, 2-vCPU x86-64 host (AVX2 OpenBLAS), fastest of
# five runs of 1152 calls, at B = 32 / 48 / 64 / 96 / 128: 14.5 / 13.2 /
# 14.4 / 14.1 / 14.6 us on 129 nodes (37 us without blocks), and 84 / 65 /
# 65 / 64 / 66 us on 1025 nodes (456 us without blocks).
BLOCK = 64

_FLOAT_MAX = sys.float_info.max

# the literals of driving_force and semi_implicit_step
_ONE, _TWO = scalar_array(1.0), scalar_array(2.0)


def window_length(kappa_m: float, dt: float) -> int:
    """Number of lags j*dt < kappa_m the mollifier window holds, at least one."""
    ratio = kappa_m / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(
            f"mollifier window reg.kappa_m / reg.dt = {ratio:.3g} steps exceeds the ceiling "
            f"of {MAX_STEPS}; raise reg.dt or lower reg.kappa_m"
        )
    return max(1, int(round(ratio)))


class StepRejected(RuntimeError):
    """The increment guard tripped; the time step is too large for the state.

    For a batch of members, ``rejected`` is the boolean mask of the rejected
    rows, ``increment`` is the first rejected row's, and ``new`` holds every
    row's solution, valid in the rows that were not rejected.
    """

    def __init__(self, increment: float, guard: float, rejected=None, new=None):
        self.increment = increment
        self.guard = guard
        self.rejected = rejected
        self.new = new
        super().__init__(f"step increment {increment:.3e} exceeds guard {guard:.3e}")


class InsufficientHistory(RuntimeError):
    pass


@dataclass(frozen=True)
class RegularizationParams:
    """kappa in (0, 1], time step, mollifier width and increment guard."""

    kappa: float = 0.25
    dt: float = 2.0e-4
    kappa_m: Optional[float] = None  # mollifier window width; defaults to kappa
    increment_guard: float = 1.0

    def __post_init__(self):
        if not (0 < self.kappa <= 1):
            raise ValueError(f"kappa must lie in (0, 1], got {self.kappa}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.kappa_m is None:
            object.__setattr__(self, "kappa_m", self.kappa)
        if not self.kappa_m > 0:
            raise ValueError(f"kappa_m must be positive, got {self.kappa_m}")
        window_length(self.kappa_m, self.dt)
        if not self.increment_guard > 0:
            raise ValueError("increment_guard must be positive")


def smoothed_abs(p, kappa: float):
    """sqrt(kappa^2 + p^2); equals |p| at kappa = 0 and is >= max(|p|, kappa)."""
    return np.hypot(p, kappa)


def smoothed_abs_primitive(p, kappa: float, *, modulus: Optional[np.ndarray] = None):
    """Integral of the smoothed modulus from 0 to p, in closed form.

    Equals (p*sqrt(p^2+kappa^2) + kappa^2*asinh(p/kappa))/2, an odd function
    of p that reduces to p|p|/2 at kappa = 0.  A caller that holds
    ``modulus`` = smoothed_abs(p, kappa) of an array p may pass it; for
    kappa != 0 the result, the same bits, is then written over it.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 0:
        if kappa == 0.0:
            return float(0.5 * p * np.abs(p))
        return float(0.5 * (p * np.hypot(p, kappa) + kappa**2 * np.arcsinh(p / kappa)))
    # In place, with the operations and grouping of the expressions above
    if kappa == 0.0:
        out = np.multiply(p, 0.5)
        out *= np.abs(p)
        return out
    out = np.hypot(p, kappa) if modulus is None else modulus
    out *= p
    term = np.divide(p, kappa)
    np.arcsinh(term, out=term)
    term *= kappa**2
    out += term
    out *= 0.5
    return out


def mollifier_floats(m: int, frames: int, n: int) -> int:
    """Upper bound on the floats a ``MollifierState`` of window m holds over ``frames`` pushes of n nodes.

    The weights and their tabulation's temporaries, 3m; the ring, frames n while it cannot wrap
    (frames < m), 2mn mirrored once it can; once the window fills, the block weights, Lm with
    L = min(BLOCK, m), a block's zero-padded window, mn, and its products, Ln.
    """
    if frames < m:
        return 3 * m + frames * n
    rows = min(BLOCK, m)
    return 3 * m + 2 * m * n + rows * m + (m + rows) * n


class MollifierState:
    """Causal moving average of the order-parameter history.

    Holds kernel weights sampled on the lags j*dt < kappa_m and the last
    frames, most recent first.  Weights are nonnegative and sum to one
    exactly, so a constant-in-time history is reproduced without error.  When
    fewer frames than the window needs are available (early time), the missing
    mass is assigned to the oldest frame, which equals the initial state.

    The frames live in one ring buffer, allocated on the first push, of r
    rows, the window length m capped at ``max_frames``.  Each push moves
    ``head`` down by one (mod r) and writes the frame at row ``head``, so
    ``frames`` is the contiguous view ``buf[head:head + k]``, which
    ``mollify`` reads without copying.  A ring of r = m rows wraps once full,
    so it is mirrored: (2r, n), each frame written at rows ``head`` and
    ``head + r`` too.  A ring of r < m rows cannot wrap, since the push after
    its r-th raises, so it is (r, n), each frame written once, and
    ``head + k`` is always r.  A run pushes at most n_steps + 1 frames, which
    is the ``max_frames`` it passes.

    A full window is averaged in blocks of L = min(BLOCK, m) steps that
    start where the index of the newest frame (its step in a run, which
    pushes its initial state as frame 0) is a multiple of L.  At a block's
    first full-window call the state forms the (L, n) product P = W @ F of
    the (L, m) weights W[j, a] = w[a + j] (zero once a + j >= m) and the
    (m, n) window F then held.  W is built on the first full-window call,
    so a run whose window never fills never builds it.  A block entered at
    its step j > 0 (the window filled there, or the state was restored
    there) forms P from the window with its newest j frames dropped and j
    zero rows in place of the frames that left since the block began: W is
    zero wherever it meets those rows in rows j and on, and a product of the
    same shapes sums in the same order, so those rows of P are the bits of
    the P formed at the block's start.  A restored state is therefore told
    how many frames were pushed before it (``restore``), and a snapshot need
    keep only the window.
    """

    def __init__(self, kappa_m: float, dt: float, max_frames: Optional[int] = None):
        if kappa_m <= 0 or dt <= 0:
            raise ValueError("kappa_m and dt must be positive")
        self.kappa_m = kappa_m
        self.dt = dt
        m = window_length(kappa_m, dt)
        # the causal bump exp(-1/(1 - tau^2)) at the lags tau = j/m, all in [0, 1)
        tau = np.arange(m) / m
        w = np.exp(-1.0 / (1.0 - tau**2))
        self.weights = w / w.sum()
        self._rows = m if max_frames is None else max(1, min(m, max_frames))
        self._mirrored = self._rows == m  # only a ring of the whole window can wrap
        self._buf: Optional[np.ndarray] = None
        self._read_only: Optional[np.ndarray] = None  # a read-only view of _buf
        self._head = 0
        self._count = 0
        self._pushed = 0  # frames pushed over the run, those before a restore included
        self._block_weights: Optional[np.ndarray] = None  # W, once the window is full
        self._block_start = -1  # index of the first frame of the block P belongs to
        self._products: Optional[np.ndarray] = None  # P
        self.time = None

    @property
    def window_size(self) -> int:
        return len(self.weights)

    @property
    def first_moment(self) -> float:
        """Mean lag of the kernel, in time units."""
        lags = np.arange(self.window_size) * self.dt
        return float(np.dot(self.weights, lags))

    @property
    def frames(self) -> np.ndarray:
        """Buffered frames, most recent first: a read-only (k, n) view, k <= window_size."""
        if self._buf is None:
            return np.empty((0, 0))
        return self._read_only[self._head:self._head + self._count]

    def push(self, values: np.ndarray, t: float):
        rows = self._rows
        if self._buf is None:
            self._buf = np.empty((2 * rows if self._mirrored else rows, len(values)))
            # its slices are read-only without a flag set on each (0.7 us a call)
            self._read_only = self._buf.view()
            self._read_only.flags.writeable = False
        elif self._count == rows < self.window_size:
            raise ValueError(f"mollifier buffer holds at most {rows} frames (max_frames)")
        self._head = (self._head - 1) % rows
        self._buf[self._head] = values
        if self._mirrored:
            self._buf[self._head + rows] = values
        self._count = min(self._count + 1, rows)
        self._pushed += 1
        self.time = t

    def block_products(self, frames: np.ndarray):
        """(j, P) for the full window ``frames``: the newest frame's step j in
        its block, and the block's P = W @ F, whose rows j and on are valid."""
        m = self.window_size
        rows = min(BLOCK, m)
        j = (self._pushed - 1) % rows
        start = self._pushed - 1 - j
        if self._block_start != start:
            if self._block_weights is None:
                padded = np.concatenate([self.weights, np.zeros(rows)])
                # row j is padded[j:j + m], a strided view copied
                self._block_weights = sliding_window_view(padded, m)[:rows].copy()
            if j:
                block_frames = np.zeros_like(frames)
                block_frames[:m - j] = frames[j:]
                frames = block_frames
            self._products = self._block_weights @ frames
            self._block_start = start
        return j, self._products

    def restore(self, arrays, t: float, pushed: int):
        """Refill the window from ``arrays``, most recent first, whose newest
        was frame ``pushed - 1`` of the run (``pushed`` frames in all)."""
        self._buf = None
        self._head = 0
        self._count = 0
        for a in reversed(arrays):
            self.push(a, t)
        self._pushed = pushed
        self._block_start = -1


def mollify(state: MollifierState, t: float) -> np.ndarray:
    """Kernel-weighted average over the window (t - kappa_m, t].

    While the window fills this is ``w[:k] @ frames`` plus the missing mass
    on the oldest frame.  A full window at step j of its block is row j of
    the block's products (``MollifierState.block_products``) plus
    ``w[:j] @ frames[:j]``, the frames pushed since the block began.
    """
    frames = state.frames
    k = len(frames)
    if k == 0:
        raise InsufficientHistory("no frames buffered")
    if state.time is not None and abs(t - state.time) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"mollifier buffer is at t = {state.time}, asked for t = {t}")
    w = state.weights
    if k < state.window_size:
        values = w[:k] @ frames
        values += (1.0 - w[:k].sum()) * frames[-1]
        return values
    j, products = state.block_products(frames)
    if j == 0:
        return products[0].copy()
    values = w[:j] @ frames[:j]
    values += products[j]
    return values


class StepConstants(NamedTuple):
    """What every step of a run computes to the same value, built once by ``step_constants``.

    The nodes x, the curvature row 2*c*nu/x of ``driving_force``, and the
    scalars of ``d1``, ``driving_force`` and ``semi_implicit_step`` as
    float64 0-d arrays (``scalar_array``).
    """

    x: np.ndarray
    curvature: np.ndarray
    two_h: np.ndarray
    h_sq: np.ndarray
    c: np.ndarray
    c_nu: np.ndarray
    e: np.ndarray
    minus_lam: np.ndarray
    two_well_weight: np.ndarray


def step_constants(x: np.ndarray, h: float, params: MaterialParams) -> StepConstants:
    """The ``StepConstants`` of a run on the nodes ``x`` of spacing ``h``."""
    curvature = np.divide(2.0 * params.c * params.nu, x)
    curvature.flags.writeable = False
    scalars = (2.0 * h, h**2, params.c, params.c * params.nu, params.e, -params.lam, 2.0 * params.well_weight)
    return StepConstants(x, curvature, *map(scalar_array, scalars))


def driving_force(
    u: np.ndarray, u_x: np.ndarray, s: np.ndarray, s_x: np.ndarray, constants: StepConstants
) -> np.ndarray:
    """Configurational driving force acting on the order parameter.

    Pointwise c*(-lam*(u_x + 2u/x) + e*s + well'(s)) minus the curvature-like
    correction 2*c*nu/x * s_x; bounded because the grid keeps x >= a > 0.
    The fields may be single frames or (frames, nodes) stacks over the nodes
    x of the ``step_constants``.
    """
    # In place, with the operations and grouping of
    #   well_prime = 2.0 * W * s * (1.0 - s) * (1.0 - 2.0 * s)   (material.double_well's derivative)
    #   f1 = c * (-lam * (u_x + 2.0 * u / x) + e * s + well_prime)
    #   f1 - (2.0 * c * nu / x) * s_x
    well_prime = np.multiply(s, constants.two_well_weight)
    term = np.subtract(_ONE, s)
    well_prime *= term
    np.multiply(s, _TWO, out=term)
    np.subtract(_ONE, term, out=term)
    well_prime *= term
    elastic = np.multiply(u, _TWO)
    elastic /= constants.x
    elastic += u_x
    elastic *= constants.minus_lam
    np.multiply(s, constants.e, out=term)
    # u and s may differ in a leading axis of length one, so this sum takes their broadcast shape
    f1 = elastic + term
    f1 += well_prime
    f1 *= constants.c
    np.multiply(constants.curvature, s_x, out=term)
    f1 -= term
    return f1


def _pin_ends(solution: np.ndarray, s: np.ndarray):
    """A step's solution in the shape of ``s`` with its boundary values pinned
    to zero, and its increment over ``s`` per row."""
    new = solution.reshape(s.shape)
    new[..., 0] = 0.0
    new[..., -1] = 0.0
    return new, np.abs(new - s).max(axis=-1)


def semi_implicit_step(
    s: np.ndarray, force: np.ndarray, dt: float, kappa, guard: float, s_x: np.ndarray, constants: StepConstants
) -> np.ndarray:
    """One frozen-coefficient step of the regularized evolution equation.

    The diffusion coefficient c*nu*|s_x|_kappa is taken from the current state
    (bounded below by c*nu*kappa, so the system is never singular), diffusion
    is advanced by backward Euler, the reaction -force*(|s_x|_kappa - kappa)
    explicitly.  Boundary values are pinned to exactly zero.  ``s_x`` is
    d1(s, h), ``constants`` the ``step_constants`` of the run, and ``kappa``
    a float or a 0-d array.  A step whose largest increment exceeds ``guard``
    raises ``StepRejected``.

    ``s`` may also be a (B, n) batch of members that share everything but
    ``kappa``, then a (B, 1) column.  Their B systems are solved as one of
    size B*n: each member's identity boundary rows couple it to no other, so
    elimination keeps the members apart and every row equals its own solve
    bit for bit.  Across those rows 0 * inf is nan, so when a row's solution
    is not finite each row is solved again on its own.
    """
    # the end nodes of a lone row by plain index, which costs less than an ellipsis
    first, last = (0, -1) if s.ndim == 1 else ((..., 0), (..., -1))
    # In place, with the operations and grouping of
    #   mod = hypot(s_x, kappa);  coef = c * nu * mod
    #   rhs = s + dt * (-force * (mod - kappa))
    #   beta = dt * coef / h**2
    # except that the reaction's sign moves onto the sum: IEEE rounding is
    # symmetric in sign, so s - dt * (force * y) is s + dt * (-force * y) bit
    # for bit.  Every node is computed and the end nodes are then overwritten.
    mod = np.hypot(s_x, kappa)
    coef = np.multiply(mod, constants.c_nu)
    reaction = mod  # dt * force * (mod - kappa), in mod's array
    reaction -= kappa
    reaction *= force
    reaction *= dt
    rhs = np.subtract(s, reaction, out=reaction)
    rhs[first] = 0.0
    rhs[last] = 0.0

    beta = coef
    beta *= dt
    beta /= constants.h_sq
    # rows 0 and n-1 of each member are identity rows that pin the boundary
    # values, so the diagonal is (1, 1 + 2 beta, 1), the sub-diagonal
    # (-beta, 0) and the super-diagonal (0, -beta): two overlapping views of
    # one array; a batch is the same two views of the flattened rows
    diag = np.multiply(beta, _TWO)
    diag += _ONE
    diag[first] = 1.0
    diag[last] = 1.0
    off = np.negative(beta, out=beta)
    off[first] = 0.0
    off[last] = 0.0
    # the cap also rejects an infinite increment when the guard is infinite
    limit = min(guard, _FLOAT_MAX)
    if s.ndim == 1:
        # a lone row: LAPACK works in the arrays made here, so the
        # super-diagonal gets its own copy, and rhs becomes the solution
        new = tridiag_solve(off[1:], diag, off[:-1].copy(), rhs, overwrite=True)
        new[0] = 0.0
        new[-1] = 0.0
        change = new - s
        # the maximum's ufunc itself, without ndarray.max's Python-level wrapper
        increment = np.maximum.reduce(np.abs(change, out=change))
        if not increment <= limit:
            raise StepRejected(float(increment), guard)
        return new
    # gtsv leaves these inputs unchanged, for the per-row solves below
    flat = off.ravel()
    new, increment = _pin_ends(tridiag_solve(flat[1:], diag.ravel(), flat[:-1], rhs.ravel()), s)
    if not np.isfinite(increment).all():
        rows = [tridiag_solve(o[1:], d, o[:-1], r) for o, d, r in zip(off, diag, rhs)]
        new, increment = _pin_ends(np.array(rows), s)
    ok = increment <= limit
    if not ok.all():
        rejected = ~ok
        raise StepRejected(float(increment[rejected][0]), guard, rejected, new)
    return new
