"""Runtime monitors: bound quantities, weak-form residuals, report assembly.

Every monitor is a pure function of (trajectory, parameters): recomputing a
report from persisted frames reproduces diagnostics.csv bit-exactly.  The
monitors track the quantities that stay bounded uniformly in the gradient
regularization: the gradient energy, the accumulated degenerate dissipation,
the time-derivative and flux-gradient norms, and the integral identity
residual against a fixed basket of space-time test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import trapezoid

from .grid_field import (
    FLOAT_FMT,
    Grid,
    ScalarField,
    Trajectory,
    d1,
    d2,
    norm_l2,
    norm_lp_time_lq_space,
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


def default_dual_basis(grid: Grid, count: int = 4) -> list[ScalarField]:
    """sin^3 modes: value and two derivatives vanish at the boundary.

    Each member is normalized to unit size in the discrete H^2 norm, so the
    pairing supremum over the basis is a lower-bound proxy for the negative
    norm of order two.
    """
    basis = []
    length = grid.d - grid.a
    for m in range(1, count + 1):
        raw = ScalarField(grid, np.sin(m * math.pi * (grid.x - grid.a) / length) ** 3)
        h2 = math.sqrt(norm_l2(raw) ** 2 + norm_l2(d1(raw)) ** 2 + norm_l2(d2(raw)) ** 2)
        basis.append(ScalarField(grid, raw.values / h2))
    return basis


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
                raise ValueError(f"series {name} contains non-finite entries")
        if self.weak_residuals.shape[0] != nt or not np.all(np.isfinite(self.weak_residuals)):
            raise ValueError("weak residual table malformed")

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
        lines = [",".join(header)]
        for k in range(len(self.times)):
            row = [
                self.times[k],
                self.max_abs_s[k],
                self.grad_norm_sq[k],
                self.dissipation[k],
                self.st_l43[k],
                self.sx_l83_linf[k],
                self.flux_grad_l43[k],
                self.primitive_w14_l43[k],
                *self.weak_residuals[k],
                self.cross_check[k],
            ]
            lines.append(",".join(FLOAT_FMT.format(v) for v in row))
        return "\n".join(lines) + "\n"


def max_principle_check(traj: Trajectory, tol: float = 1e-8) -> tuple[float, bool]:
    """Margin by which the running sup of |S| exceeds the initial sup."""
    s = traj.s_matrix()
    margin = float(np.max(np.abs(s)) - np.max(np.abs(s[0])))
    return margin, margin <= tol


def _space_integral(values: np.ndarray, h: float) -> float:
    return float(trapezoid(values, dx=h))


def primitive_field(s: ScalarField, kappa: float) -> ScalarField:
    """Closed-form primitive of the smoothed modulus, evaluated at S_x."""
    return ScalarField(s.grid, smoothed_abs_primitive(d1(s).values, kappa))


def flux_field(s: ScalarField) -> ScalarField:
    """Signed flux |S_x|S_x/2, the kappa = 0 primitive."""
    return primitive_field(s, 0.0)


def _flux_gradients(traj: Trajectory) -> list[ScalarField]:
    """(|S_x|S_x)_x per frame; doubling the flux is exact in floating point."""
    return [d1(ScalarField(traj.grid, 2.0 * flux_field(f).values)) for f in traj.s_frames]


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
    grad_sq = np.array([norm_l2(d1(f)) ** 2 for f in traj.s_frames])
    integrand = np.array(
        [
            _space_integral(smoothed_abs(d1(f).values, kappa) * d2(f).values ** 2, h)
            for f in traj.s_frames
        ]
    )
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


@dataclass
class AprioriNorms:
    st_l43: float
    sx_l83_linf: float
    flux_grad_l43: float
    primitive_w14_l43: float

    def as_tuple(self):
        return (self.st_l43, self.sx_l83_linf, self.flux_grad_l43, self.primitive_w14_l43)


def _st_l43_series(traj: Trajectory) -> np.ndarray:
    """Cumulative L^{4/3} space-time norm of the discrete time derivative."""
    h = traj.grid.h
    p = 4.0 / 3.0
    out = np.zeros(len(traj.times))
    acc = 0.0
    for k in range(len(traj.times) - 1):
        dt = traj.times[k + 1] - traj.times[k]
        v = (traj.s_frames[k + 1].values - traj.s_frames[k].values) / dt
        acc += dt * _space_integral(np.abs(v) ** p, h)
        out[k + 1] = acc ** (1.0 / p)
    return out


def _mixed_norm_series(times, fields, p, q) -> np.ndarray:
    """Cumulative mixed norms over the truncated trajectories [0, t_k]."""
    out = np.zeros(len(times))
    for k in range(1, len(times)):
        out[k] = norm_lp_time_lq_space(times[: k + 1], fields[: k + 1], p, q)
    return out


def _primitive_w14_series(traj: Trajectory, kappa: float) -> np.ndarray:
    """Cumulative L^{4/3}(0, t_k; W^{1,4/3}) norm of the gradient primitive."""
    h = traj.grid.h
    p = 4.0 / 3.0
    integrand = []
    for f in traj.s_frames:
        prim = primitive_field(f, kappa)
        norm_p = _space_integral(np.abs(prim.values) ** p, h)
        norm_dp = _space_integral(np.abs(d1(prim).values) ** p, h)
        integrand.append(norm_p + norm_dp)
    return _cumulative_time_trapz(traj.times, np.asarray(integrand)) ** (1.0 / p)


def apriori_norms(traj: Trajectory, kappa: float) -> AprioriNorms:
    """Final values of the uniformly bounded norms of the solution."""
    grads = [d1(f) for f in traj.s_frames]
    return AprioriNorms(
        st_l43=float(_st_l43_series(traj)[-1]),
        sx_l83_linf=norm_lp_time_lq_space(traj.times, grads, 8.0 / 3.0, math.inf),
        flux_grad_l43=norm_lp_time_lq_space(traj.times, _flux_gradients(traj), 4.0 / 3.0, 4.0 / 3.0),
        primitive_w14_l43=float(_primitive_w14_series(traj, kappa)[-1]),
    )


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
    flux = np.empty_like(s)
    kinetic = np.empty_like(s)
    for k, (s_k, u_k) in enumerate(zip(traj.s_frames, traj.u_frames)):
        s_x = d1(s_k)
        flux[k] = flux_field(s_k).values
        kinetic[k] = driving_force(u_k, d1(u_k), s_k, s_x, material).values * np.abs(s_x.values)

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


def dual_norm_estimate(traj: Trajectory, basis: Optional[Sequence[ScalarField]] = None) -> float:
    """Lower-bound proxy for the negative-order norm of the flux time derivative.

    Accumulates |(w(t_{k+1}) - w(t_k), psi)| over time for w = |S_x|S_x/2 and
    takes the sup over an H^2-normalized basis.  Reported as a monitor; it
    bounds the true dual norm from below only.
    """
    if basis is None:
        basis = default_dual_basis(traj.grid)
    if not basis:
        return 0.0
    h = traj.grid.h
    flux = [flux_field(f).values for f in traj.s_frames]
    best = 0.0
    for psi in basis:
        acc = 0.0
        for k in range(len(flux) - 1):
            acc += abs(_space_integral((flux[k + 1] - flux[k]) * psi.values, h))
        best = max(best, acc)
    return best


def _cross_check_series(traj: Trajectory, config: SimulationConfig) -> np.ndarray:
    """Max-norm gap between the two elasticity paths applied to each saved frame."""
    kernel = GreenKernel(traj.grid.a, traj.grid.d)
    out = np.zeros(len(traj.times))
    for k, (t, s) in enumerate(zip(traj.times, traj.s_frames)):
        b = config.body.evaluate(float(t), traj.grid)
        u_fd = solve_fd(elastic_rhs(d1(s), b, config.material))
        u_green = solve_green(kernel, s, b, config.material)
        out[k] = float(np.max(np.abs(u_fd.values - u_green.values)))
    return out


def build_report(traj: Trajectory, config: SimulationConfig) -> DiagnosticsReport:
    """Assemble the full per-save-time report from a trajectory and its config."""
    energy = energy_monitor(traj, config.reg.kappa)
    grads = [d1(f) for f in traj.s_frames]
    # test functions vanish at the configured final time, so partial runs stay defined
    test_fns = default_test_functions(traj.grid, config.t_end)
    report = DiagnosticsReport(
        times=traj.times.copy(),
        max_abs_s=np.array([float(np.max(np.abs(f.values))) for f in traj.s_frames]),
        grad_norm_sq=energy.grad_norm_sq,
        dissipation=energy.dissipation,
        st_l43=_st_l43_series(traj),
        sx_l83_linf=_mixed_norm_series(traj.times, grads, 8.0 / 3.0, math.inf),
        flux_grad_l43=_mixed_norm_series(traj.times, _flux_gradients(traj), 4.0 / 3.0, 4.0 / 3.0),
        primitive_w14_l43=_primitive_w14_series(traj, config.reg.kappa),
        weak_residuals=weak_residual_series(traj, config.material, test_fns),
        cross_check=_cross_check_series(traj, config),
    )
    report.validate()
    return report
