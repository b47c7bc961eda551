"""Runtime monitors: bound quantities, weak-form residuals, report assembly.

Every monitor is a pure function of (trajectory, parameters): recomputing a
report from persisted frames reproduces diagnostics.csv bit-exactly.  The
monitors track the quantities that stay bounded uniformly in the gradient
regularization: the gradient energy, the accumulated degenerate dissipation,
the time-derivative and flux-gradient norms, and the integral identity
residual against a fixed basket of space-time test functions.  Each one
stacks the saved frames once into a (frames, nodes) array and applies the
grid-on-last-axis stencils and norms to all frames together.  Running
(cumulative) series are one pass over per-frame values, so every monitor
costs O(frames x nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grid_field import (
    FLOAT_SLOT, Grid, Trajectory, d1, d2, norm_l2, norm_lp_time_lq_space, space_norms, trapezoid,
)
from .material import MaterialParams
from .order_parameter import driving_force, smoothed_abs, smoothed_abs_primitive
from .elasticity import GreenKernel, elastic_rhs, solve_fd, solve_green
from .config import SimulationConfig


@dataclass(frozen=True)
class TestFunction:
    """Separable space-time test function vanishing at x = a, d and at t = t_end.

    Each callable takes (t, x) and must broadcast over a (K, 1) column of
    times against the (n,) grid nodes, giving values for all frames at once.
    """

    phi: Callable
    phi_t: Callable
    phi_x: Callable
    label: str


def default_test_functions(grid: Grid, t_end: float, count: int = 5) -> list[TestFunction]:
    fns = []
    length = grid.d - grid.a
    for m in range(1, count + 1):
        km = m * math.pi / length

        def phi(t, x, km=km, a=grid.a):
            return (1.0 - t / t_end) * np.sin(km * (x - a))

        def phi_t(t, x, km=km, a=grid.a):
            return -np.sin(km * (x - a)) / t_end

        def phi_x(t, x, km=km, a=grid.a):
            return (1.0 - t / t_end) * km * np.cos(km * (x - a))

        fns.append(TestFunction(phi, phi_t, phi_x, f"mode{m}"))
    return fns


class NonFiniteReport(ValueError):
    """A monitor series holds inf or nan: the run overflowed."""


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
    weak_residuals: np.ndarray  # (n_frames, n_test_functions)
    cross_check: np.ndarray

    def validate(self):
        nt = len(self.times)
        for name in (
            "max_abs_s",
            "grad_norm_sq",
            "dissipation",
            "st_l43",
            "sx_l83_linf",
            "flux_grad_l43",
            "primitive_w14_l43",
            "cross_check",
        ):
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
        n_phi = self.weak_residuals.shape[1]
        header = [
            "time",
            "max_abs_S",
            "grad_norm_sq",
            "dissipation",
            "St_L43",
            "Sx_L83_Linf",
            "flux_grad_L43",
            "primitive_W14_L43",
        ]
        header += [f"weak_res_{m + 1}" for m in range(n_phi)]
        header.append("elasticity_cross_check")
        columns = [
            self.times,
            self.max_abs_s,
            self.grad_norm_sq,
            self.dissipation,
            self.st_l43,
            self.sx_l83_linf,
            self.flux_grad_l43,
            self.primitive_w14_l43,
            *self.weak_residuals.T,
            self.cross_check,
        ]
        row = ",".join([FLOAT_SLOT] * len(columns)) + "\n"
        rows = zip(*(c.tolist() for c in columns))
        return ",".join(header) + "\n" + "".join(row % values for values in rows)


def primitive_field(s: np.ndarray, h: float, kappa: float) -> np.ndarray:
    """Closed-form primitive of the smoothed modulus, evaluated at S_x."""
    return smoothed_abs_primitive(d1(s, h), kappa)


def flux_field(s: np.ndarray, h: float) -> np.ndarray:
    """Signed flux |S_x|S_x/2, the kappa = 0 primitive."""
    return primitive_field(s, h, 0.0)


def _flux_gradients(s: np.ndarray, h: float) -> np.ndarray:
    """(|S_x|S_x)_x of every frame; doubling the flux is exact in floating point."""
    return d1(2.0 * flux_field(s, h), h)


def _cumulative_time_trapz(times: np.ndarray, series: np.ndarray) -> np.ndarray:
    out = np.zeros(len(times))
    if len(times) > 1:
        increments = 0.5 * np.diff(times) * (series[1:] + series[:-1])
        out[1:] = np.cumsum(increments)
    return out


@dataclass
class EnergySeries:
    times: np.ndarray
    grad_norm_sq: np.ndarray
    dissipation: np.ndarray
    fitted_c1: float
    fitted_c2: float
    holds: bool

    @property
    def sup_grad(self) -> float:
        return float(np.max(self.grad_norm_sq))

    @property
    def total_dissipation(self) -> float:
        return float(self.dissipation[-1])


def energy_monitor(traj: Trajectory, kappa: float) -> EnergySeries:
    """Gradient energy and accumulated degenerate dissipation.

    Also fits constants for the differential inequality
    d/dt ||S_x||^2 <= C1 ||S_x||^2 + C2 satisfied between save times; the pair
    is adjusted so the bound holds exactly over the recorded slopes.
    """
    h = traj.grid.h
    s = traj.s_matrix()
    s_x = d1(s, h)
    grad_sq = norm_l2(s_x, h) ** 2
    integrand = trapezoid(smoothed_abs(s_x, kappa) * d2(s, h) ** 2, dx=h, axis=-1)
    dissipation = _cumulative_time_trapz(traj.times, integrand)
    holds = bool(np.all(np.isfinite(grad_sq)) and np.all(np.isfinite(dissipation)))
    c1, c2 = 0.0, 0.0
    if len(traj.times) > 1 and holds:
        slopes = np.diff(grad_sq) / np.diff(traj.times)
        means = 0.5 * (grad_sq[1:] + grad_sq[:-1])
        denom = float(np.dot(means - means.mean(), means - means.mean()))
        if denom > 0:
            c1 = float(np.dot(means - means.mean(), slopes - slopes.mean()) / denom)
        c1 = max(c1, 0.0)
        c2 = float(np.max(slopes - c1 * means, initial=0.0))
    return EnergySeries(traj.times, grad_sq, dissipation, c1, c2, holds)


def _st_l43_series(times: np.ndarray, s: np.ndarray, h: float) -> np.ndarray:
    """Cumulative L^{4/3} space-time norm of the discrete time derivative."""
    p = 4.0 / 3.0
    dt = np.diff(times)
    rate = np.diff(s, axis=0) / dt[:, None]
    out = np.zeros(len(times))
    out[1:] = np.cumsum(dt * trapezoid(np.abs(rate) ** p, dx=h, axis=-1)) ** (1.0 / p)
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


def _primitive_w14_series(times: np.ndarray, s: np.ndarray, h: float, kappa: float) -> np.ndarray:
    """Cumulative L^{4/3}(0, t_k; W^{1,4/3}) norm of the gradient primitive."""
    p = 4.0 / 3.0
    prim = primitive_field(s, h, kappa)
    integrand = trapezoid(np.abs(prim) ** p, dx=h, axis=-1)
    integrand += trapezoid(np.abs(d1(prim, h)) ** p, dx=h, axis=-1)
    return _cumulative_time_trapz(times, integrand) ** (1.0 / p)


def weak_residual_series(
    traj: Trajectory,
    material: MaterialParams,
    test_functions: Sequence[TestFunction],
) -> np.ndarray:
    """Integral-identity residual accumulated over [0, t_k], one column per test function.

    The identity pairs the solution against phi_t, the flux |S_x|S_x/2 against
    phi_x and the kinetic term against phi; a boundary correction -(S(t),phi(t))
    makes every row meaningful, and the final row (where phi vanishes) is the
    residual of the weak formulation itself.
    """
    h = traj.grid.h
    x = traj.grid.x
    t = traj.times[:, None]
    cnu = material.c * material.nu

    s = traj.s_matrix()
    u = traj.u_matrix()
    s_x = d1(s, h)
    flux = flux_field(s, h)
    kinetic = driving_force(u, d1(u, h), s, s_x, x, material) * np.abs(s_x)

    residuals = np.zeros((len(traj.times), len(test_functions)))
    for m, tf in enumerate(test_functions):
        phi = tf.phi(t, x)
        pair_t = trapezoid(s * tf.phi_t(t, x), dx=h, axis=1)
        pair_flux = trapezoid(flux * tf.phi_x(t, x), dx=h, axis=1)
        pair_force = trapezoid(kinetic * phi, dx=h, axis=1)
        boundary = trapezoid(s * phi, dx=h, axis=1)
        a_cum = _cumulative_time_trapz(traj.times, pair_t)
        b_cum = _cumulative_time_trapz(traj.times, pair_flux)
        c_cum = _cumulative_time_trapz(traj.times, pair_force)
        residuals[:, m] = a_cum - cnu * b_cum - c_cum + boundary[0] - boundary
    return residuals


def weak_residual(
    traj: Trajectory,
    material: MaterialParams,
    test_functions: Optional[Sequence[TestFunction]] = None,
) -> np.ndarray:
    """Final residual of the integral identity, one value per test function.

    The default test functions vanish at the last saved time, so they need a
    trajectory that spans a positive time: at least two frames.
    """
    if test_functions is None:
        if len(traj.times) < 2:
            raise ValueError("the default test functions need at least two frames")
        test_functions = default_test_functions(traj.grid, float(traj.times[-1]))
    return weak_residual_series(traj, material, test_functions)[-1]


def _cross_check_series(traj: Trajectory, config: SimulationConfig) -> np.ndarray:
    """Max-norm gap between the two elasticity paths applied to each saved frame."""
    grid = traj.grid
    kernel = GreenKernel(grid.a, grid.d)
    s_x = d1(traj.s_matrix(), grid.h)
    out = np.zeros(len(traj.times))
    for k, (t, s) in enumerate(zip(traj.times, traj.s_frames)):
        b = config.body.evaluate(float(t), grid)
        u_fd = solve_fd(elastic_rhs(s_x[k], b, config.material), grid)
        u_green = solve_green(kernel, s, b, config.material)
        out[k] = float(np.max(np.abs(u_fd - u_green)))
    return out


def build_report(traj: Trajectory, config: SimulationConfig) -> DiagnosticsReport:
    """Assemble the full per-save-time report from a trajectory and its config."""
    kappa = config.reg.kappa
    h = traj.grid.h
    s = traj.s_matrix()
    energy = energy_monitor(traj, kappa)
    # test functions vanish at the configured final time, so partial runs stay defined
    test_fns = default_test_functions(traj.grid, config.t_end)
    report = DiagnosticsReport(
        times=traj.times.copy(),
        max_abs_s=np.max(np.abs(s), axis=-1),
        grad_norm_sq=energy.grad_norm_sq,
        dissipation=energy.dissipation,
        st_l43=_st_l43_series(traj.times, s, h),
        sx_l83_linf=_mixed_norm_series(traj.times, d1(s, h), h, 8.0 / 3.0, math.inf),
        flux_grad_l43=_mixed_norm_series(traj.times, _flux_gradients(s, h), h, 4.0 / 3.0, 4.0 / 3.0),
        primitive_w14_l43=_primitive_w14_series(traj.times, s, h, kappa),
        weak_residuals=weak_residual_series(traj, config.material, test_fns),
        cross_check=_cross_check_series(traj, config),
    )
    report.validate()
    return report
