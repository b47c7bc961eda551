"""Runtime monitors: bound quantities, weak-form residuals, report assembly.

Every monitor is a pure function of the stacked frames and parameters:
recomputing a report from persisted frames reproduces diagnostics.csv
bit-exactly.  The monitors track the quantities that stay bounded uniformly
in the gradient regularization: the gradient energy, the accumulated
degenerate dissipation, the time-derivative and flux-gradient norms, and
the integral identity residual against five separable space-time sine modes
a(t) b_m(x).  Each one applies the grid-on-last-axis stencils and norms to
all frames together, on the (frames, nodes) arrays it takes as arguments.
Only ``build_report`` takes a trajectory: it stacks S and u once, takes
S_x = d1(S) and the smoothed modulus of S_x once and hands them to every
monitor.  ``weak_residual``, the final row a study reads, takes the stacks
its caller already holds.  The weak residual pairs all frames
with all modes in three (frames, nodes) @ (nodes, modes) products, and the
elasticity cross-check solves every frame in one FD call and one Green
call.  Running (cumulative) series are one pass over per-frame values, so
every monitor costs O(frames x nodes).
The monitors do their arithmetic in place, with the operations and grouping
of the plain expressions written beside them, so that a report of many
frames allocates few (frames, nodes) arrays and its bits are the
expressions'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid_field import (
    Grid, ScalarField, Trajectory, csv_text, d1, d2, norm_l2, norm_lp_time_lq_space, space_norms, trapezoid,
)
from .material import MaterialParams
from .order_parameter import driving_force, smoothed_abs, smoothed_abs_primitive, step_constants
from .elasticity import GreenKernel, elastic_constants, elastic_rhs, solve_fd, solve_green
from .config import SimulationConfig


class NonFiniteReport(ValueError):
    """A monitor series holds inf or nan: the run overflowed."""


# The weak residual's test functions: the sine modes m = 1 .. MODES (``weak_residual_series``).
MODES = 5


# The columns of diagnostics.csv in file order, (csv name, report attribute); the
# (frames, m) weak-residual table fills the m columns weak_res_1 .. weak_res_m.
_COLUMNS = (
    ("time", "times"),
    ("max_abs_S", "max_abs_s"),
    ("grad_norm_sq", "grad_norm_sq"),
    ("dissipation", "dissipation"),
    ("St_L43", "st_l43"),
    ("Sx_L83_Linf", "sx_l83_linf"),
    ("flux_grad_L43", "flux_grad_l43"),
    ("primitive_W14_L43", "primitive_w14_l43"),
    ("weak_res_", "weak_residuals"),
    ("elasticity_cross_check", "cross_check"),
)


@dataclass
class DiagnosticsReport:
    times: np.ndarray
    max_abs_s: np.ndarray
    grad_norm_sq: np.ndarray
    dissipation: np.ndarray
    st_l43: np.ndarray
    sx_l83_linf: np.ndarray
    flux_grad_l43: np.ndarray
    primitive_w14_l43: np.ndarray
    weak_residuals: np.ndarray  # (n_frames, MODES)
    cross_check: np.ndarray

    def validate(self):
        nt = len(self.times)
        for _, name in _COLUMNS[1:]:
            if name == "weak_residuals":
                continue
            series = getattr(self, name)
            if len(series) != nt:
                raise ValueError(f"series {name} has wrong length")
            if not np.all(np.isfinite(series)):
                raise NonFiniteReport(f"series {name} contains non-finite entries")
        if self.weak_residuals.shape[0] != nt:
            raise ValueError("weak residual table malformed")
        if not np.all(np.isfinite(self.weak_residuals)):
            raise NonFiniteReport("weak residual table contains non-finite entries")

    @property
    def max_principle_margin(self) -> float:
        return float(np.max(self.max_abs_s) - self.max_abs_s[0])

    @property
    def sup_energy(self) -> float:
        return float(np.max(self.grad_norm_sq))

    @property
    def weak_residual_max(self) -> float:
        return float(np.max(np.abs(self.weak_residuals[-1])))

    def to_csv_text(self) -> str:
        header, columns = [], []
        for name, attr in _COLUMNS:
            if attr == "weak_residuals":
                header += [f"{name}{m + 1}" for m in range(self.weak_residuals.shape[1])]
                columns += list(self.weak_residuals.T)
            else:
                header.append(name)
                columns.append(getattr(self, attr))
        return csv_text(header, columns)


def _flux_gradients(s_x: np.ndarray, h: float) -> np.ndarray:
    """(|S_x|S_x)_x of every frame from its S_x; doubling the flux is exact."""
    flux = smoothed_abs_primitive(s_x, 0.0)
    flux *= 2.0
    return d1(flux, h)


def _cumulative_time_trapz(times: np.ndarray, series: np.ndarray) -> np.ndarray:
    """Running trapezoid integral in time of a (K,) series, or of each column of a (K, M) table.

    A column's integral is the bits of that column integrated alone.
    """
    out = np.zeros(series.shape)
    if len(times) > 1:
        dt = np.diff(times).reshape((-1,) + (1,) * (series.ndim - 1))
        increments = 0.5 * dt * (series[1:] + series[:-1])
        out[1:] = np.cumsum(increments, axis=0)
    return out


def energy_monitor(
    times: np.ndarray, s: np.ndarray, s_x: np.ndarray, modulus: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient energy and accumulated degenerate dissipation, (grad_norm_sq, dissipation).

    ``s`` is the stacked S frames, ``s_x`` = d1(s, h) and ``modulus`` =
    smoothed_abs(s_x, kappa); the call leaves each as it is.
    """
    grad_sq = norm_l2(s_x, h) ** 2
    # smoothed_abs(s_x, kappa) * d2(s, h) ** 2, in place (a product is the
    # same bits in either order)
    integrand = d2(s, h)
    integrand **= 2
    integrand *= modulus
    integrand = trapezoid(integrand, h)
    return grad_sq, _cumulative_time_trapz(times, integrand)


def _st_l43_series(times: np.ndarray, s: np.ndarray, h: float) -> np.ndarray:
    """Cumulative L^{4/3} space-time norm of the discrete time derivative."""
    p = 4.0 / 3.0
    dt = np.diff(times)
    # np.abs(np.diff(s, axis=0) / dt[:, None]) ** p, in place
    rate = np.diff(s, axis=0)
    rate /= dt[:, None]
    np.abs(rate, out=rate)
    rate **= p
    out = np.zeros(len(times))
    out[1:] = np.cumsum(dt * trapezoid(rate, h)) ** (1.0 / p)
    return out


def _mixed_norm_series(times: np.ndarray, values: np.ndarray, h: float, p: float, q: float) -> np.ndarray:
    """Cumulative mixed norms over the truncated trajectories [0, t_k], for finite p.

    One space norm per frame, then a running time integral; the last row is
    the whole-run ``norm_lp_time_lq_space``.
    """
    out = np.zeros(len(times))
    if len(times) < 2:
        return out
    out[1:-1] = _cumulative_time_trapz(times, space_norms(values, h, q) ** p)[1:-1] ** (1.0 / p)
    out[-1] = norm_lp_time_lq_space(times, values, h, p, q)
    return out


def _primitive_w14_series(
    times: np.ndarray, s_x: np.ndarray, h: float, kappa: float, modulus: np.ndarray
) -> np.ndarray:
    """Cumulative L^{4/3}(0, t_k; W^{1,4/3}) norm of the gradient primitive, from S_x of every frame.

    The call works in ``modulus`` = smoothed_abs(s_x, kappa), which it
    leaves overwritten.
    """
    p = 4.0 / 3.0
    prim = smoothed_abs_primitive(s_x, kappa, modulus=modulus)
    grad = d1(prim, h)
    # trapezoid(np.abs(f) ** p) of prim and of its gradient, each in its own array
    for f in (prim, grad):
        np.abs(f, out=f)
        f **= p
    integrand = trapezoid(prim, h)
    integrand += trapezoid(grad, h)
    return _cumulative_time_trapz(times, integrand) ** (1.0 / p)


def weak_residual_series(
    times: np.ndarray,
    s: np.ndarray,
    u: np.ndarray,
    s_x: np.ndarray,
    grid: Grid,
    material: MaterialParams,
    t_end: float,
) -> np.ndarray:
    """Integral-identity residual accumulated over [0, t_k], one column per sine mode.

    The identity pairs the solution against phi_t, the flux |S_x|S_x/2 against
    phi_x and the kinetic term against phi; a boundary correction -(S(t),phi(t))
    makes every row meaningful, and the final row (where phi vanishes) is the
    residual of the weak formulation itself.  ``s`` and ``u`` are the stacked
    frames at ``times`` and ``s_x`` = d1(s).

    The test functions are phi_m = a(t) b_m(x) for m = 1 .. MODES, with
    a = 1 - t/t_end, a_t = -1/t_end, b_m = sin(k_m (x - a)) and
    b_m,x = k_m cos(k_m (x - a)), k_m = m pi/(d - a).  So the space pairings
    of all frames and modes are three (K, n) @ (n, M) products with the
    tables of b and b_x, the trapezoid weights folded in: (S, phi_t) =
    a_t (S, b), (S, phi) = a (S, b), (flux, phi_x) = a (flux, b_x) and
    (kinetic, phi) = a (kinetic, b).
    """
    h, x = grid.h, grid.x
    cnu = material.c * material.nu
    weights = np.full((len(x), 1), h)
    weights[0] = weights[-1] = 0.5 * h
    k = np.arange(1, MODES + 1) * math.pi / (grid.d - grid.a)
    phase = (x - grid.a)[:, None] * k
    space = np.sin(phase)
    space *= weights
    space_x = np.cos(phase)
    space_x *= k
    space_x *= weights
    time = (1.0 - times / t_end)[:, None]
    time_t = -1.0 / t_end

    # driving_force(...) * np.abs(s_x), in place; each (K, n) integrand is
    # released once paired
    kinetic = driving_force(u, d1(u, h), s, s_x, step_constants(x, h, material))
    kinetic *= np.abs(s_x)
    pair_force = time * (kinetic @ space)
    del kinetic
    pair_flux = time * (smoothed_abs_primitive(s_x, 0.0) @ space_x)
    s_space = s @ space
    pair_t = time_t * s_space
    boundary = time * s_space
    a_cum = _cumulative_time_trapz(times, pair_t)
    b_cum = _cumulative_time_trapz(times, pair_flux)
    c_cum = _cumulative_time_trapz(times, pair_force)
    return a_cum - cnu * b_cum - c_cum + boundary[0] - boundary


def weak_residual(
    times: np.ndarray, s: np.ndarray, u: np.ndarray, s_x: np.ndarray, grid: Grid, material: MaterialParams
) -> np.ndarray:
    """Final residual of the integral identity, one value per sine mode.

    ``s`` and ``u`` are the stacked frames at ``times`` and ``s_x`` = d1(s).
    The modes vanish at the last saved time, so they need frames that span a
    positive time: at least two.
    """
    if len(times) < 2:
        raise ValueError("the weak residual's sine modes need at least two frames")
    return weak_residual_series(times, s, u, s_x, grid, material, float(times[-1]))[-1]


def _cross_check_series(times: np.ndarray, s: np.ndarray, s_x: np.ndarray, config: SimulationConfig) -> np.ndarray:
    """Max-norm gap between the two elasticity paths applied to each saved frame.

    One body-force evaluation, one FD solve and one Green quadrature take
    every frame at once, each row equal to its frame's own; ``s`` is the
    stacked S frames at ``times`` and ``s_x`` d1 of them.
    """
    grid = config.grid
    elastic = elastic_constants(grid, config.material)
    b_mu = config.body_over_mu(times[:, None])
    u_fd = solve_fd(elastic_rhs(s_x, b_mu, elastic.lam_mu), elastic.operator)
    u_green = solve_green(GreenKernel(grid.a, grid.d), ScalarField(grid, s), b_mu, elastic.lam_mu)
    # np.abs(u_fd - u_green), in place
    gap = np.subtract(u_fd, u_green, out=u_fd)
    return np.max(np.abs(gap, out=gap), axis=-1)


def build_report(traj: Trajectory, config: SimulationConfig) -> DiagnosticsReport:
    """Assemble the full per-save-time report from a trajectory and its config."""
    kappa = config.reg.kappa
    grid = traj.grid
    h = grid.h
    times = traj.times
    # one stack of each field and one S_x, shared by every monitor
    s = traj.s_matrix()
    u = traj.u_matrix()
    s_x = d1(s, h)
    # one smoothed modulus for the energy and the primitive, which works in
    # it; it is released before the other monitors run
    modulus = smoothed_abs(s_x, kappa)
    grad_norm_sq, dissipation = energy_monitor(times, s, s_x, modulus, h)
    primitive_w14_l43 = _primitive_w14_series(times, s_x, h, kappa, modulus)
    del modulus
    report = DiagnosticsReport(
        times=times.copy(),
        max_abs_s=np.max(np.abs(s), axis=-1),
        grad_norm_sq=grad_norm_sq,
        dissipation=dissipation,
        st_l43=_st_l43_series(times, s, h),
        sx_l83_linf=_mixed_norm_series(times, s_x, h, 8.0 / 3.0, math.inf),
        flux_grad_l43=_mixed_norm_series(times, _flux_gradients(s_x, h), h, 4.0 / 3.0, 4.0 / 3.0),
        primitive_w14_l43=primitive_w14_l43,
        # the modes vanish at the configured final time, so partial runs stay defined
        weak_residuals=weak_residual_series(times, s, u, s_x, grid, config.material, config.t_end),
        cross_check=_cross_check_series(times, s, s_x, config),
    )
    report.validate()
    return report
