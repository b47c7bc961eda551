"""Study harnesses: regularization refinement, mesh/time refinement, manufactured solutions.

``run_study`` is the one path for both study kinds, and both study tables
(``study.csv`` and ``refinement.csv``) are its rows.  The members of a study
on one grid march in lockstep (``simulator.march``); the members of a
refinement study, whose grids differ, march one at a time.  Each member's S
and u are stacked once and S_x = d1(S) is taken once; the energy, the weak
residual and the signed flux all read those stacks, and the reference's flux
is computed once per study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .grid_field import Grid, csv_text, d1, norm_lp_time_lq_space
from .material import MaterialParams
from .order_parameter import semi_implicit_step, smoothed_abs, smoothed_abs_primitive, step_constants
from .elasticity import fd_operator, solve_fd
from .config import SimulationConfig, StudyConfig
from .diagnostics import NonFiniteReport, energy_monitor, weak_residual
from .simulator import RunResult, Simulation, Termination, march

# A member whose report overflowed to inf or nan; it has no fail time.
OVERFLOWED = Termination("overflowed")


@dataclass
class StudyRow:
    kappa: float
    h: float
    dt: float
    d_kappa: float
    max_principle_margin: float
    sup_energy: float
    weak_residual_max: float
    is_reference: bool
    termination: Termination


@dataclass
class StudyResult:
    rows: list[StudyRow]
    strictly_decreasing: bool


def flux_distance(times: np.ndarray, flux_a: np.ndarray, flux_b: np.ndarray, h: float) -> float:
    """L^{4/3}-in-time, L^2-in-space distance between two stacks of the signed flux |S_x|S_x/2."""
    return norm_lp_time_lq_space(times, flux_a - flux_b, h, 4.0 / 3.0, 2.0)


def run_members(study: StudyConfig) -> list[Optional[RunResult]]:
    """Run every member of the study to its final time.

    Members on a shared grid march in lockstep, then each finishes through
    its own ``Simulation.run``, which builds its report.  Refinement members
    march one at a time.  A member whose report overflows is None, and the
    other members are unaffected.
    """
    if study.is_refinement:
        # built one at a time, so one member's mollifier history is held at once
        sims = (Simulation(study.member_config(i)) for i in range(len(study.kappas)))
    else:
        sims = [Simulation(study.member_config(i)) for i in range(len(study.kappas))]
        march(sims)
    results = []
    for sim in sims:
        try:
            results.append(sim.run())
        except NonFiniteReport:
            results.append(None)
    return results


def run_study(study: StudyConfig) -> StudyResult:
    """Run every member (``run_members``), then measure each one's row.

    A member's S and u are stacked once and S_x = d1(S) taken once; its
    energy, its weak residual and its signed flux read them.  A rejected
    member stops early and an overflowed member has no report: their weak
    residuals are nan, an overflowed member's other columns are nan too, and
    the sequence does not count as decreasing.  On one grid, each completed
    member's D_kappa is its flux distance to the reference's (every member's
    is nan when the reference did not complete).  A refinement study's
    members do not share a grid: it has no reference row, its distances are
    nan and it never counts as decreasing.
    """
    results = run_members(study)
    rows, fluxes = [], []
    for i, (kappa, res) in enumerate(zip(study.kappas, results)):
        cfg = study.member_config(i)
        termination = OVERFLOWED if res is None else res.termination
        margin = sup_energy = weak_residual_max = math.nan
        flux = None
        if res is not None:
            traj = res.trajectory
            margin = res.report.max_principle_margin
            h = traj.grid.h
            s = traj.s_matrix()
            s_x = d1(s, h)
            grad_norm_sq, _ = energy_monitor(traj.times, s, s_x, smoothed_abs(s_x, kappa), h)
            sup_energy = float(np.max(grad_norm_sq))
            if termination.status == "completed":
                residual = weak_residual(traj.times, s, traj.u_matrix(), s_x, traj.grid, res.config.material)
                weak_residual_max = float(np.max(np.abs(residual)))
                flux = smoothed_abs_primitive(s_x, 0.0)
        rows.append(
            StudyRow(
                kappa=kappa, h=cfg.grid.h, dt=cfg.reg.dt, d_kappa=math.nan, max_principle_margin=margin,
                sup_energy=sup_energy, weak_residual_max=weak_residual_max, is_reference=False,
                termination=termination,
            )
        )
        fluxes.append(flux)
    if study.is_refinement:
        return StudyResult(rows, False)

    ref_idx = study.reference % len(rows)
    rows[ref_idx].is_reference = True
    ref_flux = fluxes[ref_idx]
    if ref_flux is not None:
        times = results[ref_idx].trajectory.times
        for row, flux in zip(rows, fluxes):
            if flux is not None:
                row.d_kappa = flux_distance(times, flux, ref_flux, row.h)
    all_completed = all(r.termination.status == "completed" for r in rows)
    distances = [r.d_kappa for r in rows if not r.is_reference]
    decreasing = all_completed and all(b < a for a, b in zip(distances, distances[1:]))
    return StudyResult(rows, decreasing)


# The columns of study.csv and of refinement.csv in file order, each the
# StudyRow field of its name in lower case.
_STUDY_COLUMNS = ("kappa", "h", "dt", "D_kappa", "max_principle_margin", "sup_energy", "weak_residual_max")
_REFINEMENT_COLUMNS = ("kappa", "h", "dt", "weak_residual_max")


def _write_rows(path, rows: list[StudyRow], header: Sequence[str]):
    columns = [[getattr(r, field) for r in rows] for field in map(str.lower, header)]
    Path(path).write_text(csv_text(header, columns))


def write_study_csv(path, result: StudyResult):
    _write_rows(path, result.rows, _STUDY_COLUMNS)


def write_refinement_csv(path, result: StudyResult):
    _write_rows(path, result.rows, _REFINEMENT_COLUMNS)


def halving_study(base: SimulationConfig, levels: int) -> StudyConfig:
    """Simultaneous (h, dt, kappa)-halving path starting from ``base``."""
    kappas = tuple(base.reg.kappa / 2**j for j in range(levels))
    return StudyConfig(base=base, kappas=kappas, h_factor=2, dt_factor=2)


# --- manufactured solutions --------------------------------------------------


def manufactured_elasticity_case(a: float, d: float, quadratic: bool = False):
    """Exact displacement and matching right-hand side for the radial solve.

    The sine profile exercises the truncation error; the quadratic profile is
    reproduced exactly by the second-order stencils and serves as the
    degenerate exactness case.
    """
    if quadratic:
        def u_star(x):
            return (x - a) * (d - x)

        def g_star(x):
            up = (a + d) - 2.0 * x
            return -2.0 + 2.0 * up / x - 2.0 * u_star(x) / x**2

    else:
        k = math.pi / (d - a)

        def u_star(x):
            return np.sin(k * (x - a))

        def g_star(x):
            return -(k**2) * np.sin(k * (x - a)) + 2.0 * k * np.cos(k * (x - a)) / x - 2.0 * np.sin(
                k * (x - a)
            ) / x**2

    return u_star, g_star


def elasticity_errors(a: float, d: float, grid_sizes: Sequence[int], quadratic: bool = False):
    u_star, g_star = manufactured_elasticity_case(a, d, quadratic)
    errors = []
    for n in grid_sizes:
        grid = Grid(a, d, n)
        u = solve_fd(g_star(grid.x), fd_operator(grid))
        errors.append(float(np.max(np.abs(u - u_star(grid.x)))))
    return errors


def fit_slope(hs: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    lh = np.log(np.asarray(hs, dtype=float))
    le = np.log(np.asarray(errors, dtype=float))
    return float(np.polyfit(lh, le, 1)[0])


def _explicit_reference(
    s0: np.ndarray, h: float, material: MaterialParams, kappa: float, t_end: float, dt: float
) -> np.ndarray:
    """Forward-Euler integration of the force-free evolution, used as an oracle."""
    v = s0.copy()
    n_steps = int(round(t_end / dt))
    for _ in range(n_steps):
        s_x = np.empty_like(v)
        s_x[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
        s_x[0] = s_x[-1] = 0.0
        coef = material.c * material.nu * np.hypot(s_x, kappa)
        lap = np.zeros_like(v)
        lap[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
        v = v + dt * coef * lap
        v[0] = v[-1] = 0.0
    return v


def _implicit_forcefree(
    s0: np.ndarray, grid: Grid, material: MaterialParams, kappa: float, t_end: float, dt: float
) -> np.ndarray:
    constants = step_constants(grid.x, grid.h, material)
    zero = np.zeros_like(s0)
    s = s0
    for _ in range(int(round(t_end / dt))):
        s = semi_implicit_step(s, zero, dt, kappa, 1e9, d1(s, grid.h, two_h=constants.two_h), constants)
    return s


@dataclass
class MMSResult:
    elasticity_slope: float
    elasticity_errors: list[float]
    quadratic_exact: bool
    quadratic_error: float
    dt_slope: float
    dt_errors: list[float]
    h_slope: float
    h_errors: list[float]


def mms_convergence() -> MMSResult:
    """Observed convergence orders from three-level refinements, on the default run's shell, material and kappa.

    Covers the elasticity solve against closed-form displacements (order 2,
    plus the machine-exact quadratic case) and the force-free parabolic step:
    rate in dt against a tiny-step forward-Euler reference at fixed h, and
    rate in h on nested grids with dt tied to h^2.
    """
    default = SimulationConfig()
    a, d, material, kappa = default.grid.a, default.grid.d, default.material, default.reg.kappa

    sizes = [65, 129, 257]
    errs = elasticity_errors(a, d, sizes, quadratic=False)
    hs = [(d - a) / (n - 1) for n in sizes]
    slope = fit_slope(hs, errs)
    quad_err = elasticity_errors(a, d, [129], quadratic=True)[0]

    # rate in dt at fixed grid; the forward-Euler reference is Richardson
    # extrapolated so its own O(dt_ref) bias stays below the measured errors
    grid = Grid(a, d, 65)
    s0 = 0.5 * np.sin(math.pi * (grid.x - a) / (d - a))
    s0[0] = s0[-1] = 0.0
    t_end = 2.0e-3
    dts = [4.0e-4, 2.0e-4, 1.0e-4]
    dt_ref = dts[-1] / 256.0
    ref_coarse = _explicit_reference(s0, grid.h, material, kappa, t_end, dt_ref)
    ref_fine = _explicit_reference(s0, grid.h, material, kappa, t_end, dt_ref / 2.0)
    ref = 2.0 * ref_fine - ref_coarse
    dt_errors = [
        float(np.max(np.abs(_implicit_forcefree(s0, grid, material, kappa, t_end, dt) - ref)))
        for dt in dts
    ]
    dt_slope = fit_slope(dts, dt_errors)

    # rate in h on nested grids, dt tied to h^2, compared on shared nodes
    base_n = 17
    levels = [0, 1, 2]
    ref_level = 4
    t_end_h = 4.0e-3

    def run_level(level: int):
        n = (base_n - 1) * 2**level + 1
        g = Grid(a, d, n)
        s = 0.5 * np.sin(math.pi * (g.x - a) / (d - a))
        s[0] = s[-1] = 0.0
        dt = 1.0e-3 / 4.0**level
        return _implicit_forcefree(s, g, material, kappa, t_end_h, dt), g.h

    fine, _ = run_level(ref_level)
    h_errors = []
    h_list = []
    for level in levels:
        coarse, h = run_level(level)
        stride = 2 ** (ref_level - level)
        h_errors.append(float(np.max(np.abs(coarse - fine[::stride]))))
        h_list.append(h)
    h_slope = fit_slope(h_list, h_errors)

    return MMSResult(
        elasticity_slope=slope,
        elasticity_errors=errs,
        quadratic_exact=quad_err < 1e-11,
        quadratic_error=quad_err,
        dt_slope=dt_slope,
        dt_errors=dt_errors,
        h_slope=h_slope,
        h_errors=h_errors,
    )
