"""Study harnesses: regularization refinement, mesh/time refinement, manufactured solutions."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .grid_field import FLOAT_FMT, Grid, Trajectory, norm_lp_time_lq_space
from .material import MaterialParams
from .order_parameter import RegularizationParams, semi_implicit_step
from .elasticity import solve_fd
from .config import SimulationConfig, StudyConfig
from .diagnostics import NonFiniteReport, energy_monitor, flux_field, primitive_field, weak_residual
from .simulator import RunResult, Simulation, Termination

# A member whose report overflowed to inf or nan; it has no fail time.
OVERFLOWED = Termination("overflowed")


class MismatchedGrids(ValueError):
    pass


@dataclass
class StudyRow:
    kappa: float
    h: float
    dt: float
    d_kappa: float
    d_primitive: float
    max_principle_margin: float
    sup_energy: float
    weak_residual_max: float
    is_reference: bool
    termination: Termination


@dataclass
class StudyResult:
    rows: list[StudyRow]
    strictly_decreasing: bool


def flux_distance(traj_a: Trajectory, traj_b: Trajectory) -> float:
    """L^{4/3}-in-time, L^2-in-space distance of the signed flux |S_x|S_x/2."""
    if traj_a.grid != traj_b.grid or len(traj_a.times) != len(traj_b.times):
        raise MismatchedGrids("study members must share grid and save schedule")
    h = traj_a.grid.h
    diff = flux_field(traj_a.s_matrix(), h) - flux_field(traj_b.s_matrix(), h)
    return norm_lp_time_lq_space(traj_a.times, diff, h, 4.0 / 3.0, 2.0)


def run_members(study: StudyConfig) -> list[Optional[RunResult]]:
    """Run every member of the study to its final time, one after another.

    A member whose report overflows is None, and the members after it still run.
    """
    results = []
    for i in range(len(study.kappas)):
        try:
            results.append(Simulation(study.member_config(i)).run())
        except NonFiniteReport:
            results.append(None)
    return results


def member_termination(res: Optional[RunResult]) -> Termination:
    return OVERFLOWED if res is None else res.termination


def member_weak_residual(res: Optional[RunResult]) -> float:
    """Largest final weak-form residual of a member; nan if it was rejected or overflowed."""
    if member_termination(res).status != "completed":
        return math.nan
    return float(np.max(np.abs(weak_residual(res.trajectory, res.config.material))))


def run_study(study: StudyConfig) -> StudyResult:
    """Run every member, then measure each member's flux distance to the reference.

    Members run one after another; aggregation is a deterministic reduction
    over their results.  Reference distances need a shared grid and save
    schedule, so refinement factors are rejected.  A rejected member stops
    early and an overflowed member has no report: their distances are nan
    (every member's are when the reference is one), an overflowed member's
    other columns are nan too, and the sequence does not count as decreasing.
    """
    if study.is_refinement:
        raise MismatchedGrids("reference distances need unit refinement factors")
    results = run_members(study)

    ref_idx = study.reference % len(study.kappas)
    ref = results[ref_idx]
    ref_completed = member_termination(ref).status == "completed"
    rows = []
    for i, (kappa, res) in enumerate(zip(study.kappas, results)):
        cfg = study.member_config(i)
        termination = member_termination(res)
        d_kappa = d_prim = margin = sup_energy = math.nan
        if res is not None:
            traj = res.trajectory
            margin = res.report.max_principle_margin
            sup_energy = energy_monitor(traj, kappa).sup_grad
            if termination.status == "completed" and ref_completed:
                d_kappa = flux_distance(traj, ref.trajectory)
                h = traj.grid.h
                diff = primitive_field(traj.s_matrix(), h, kappa) - flux_field(ref.trajectory.s_matrix(), h)
                d_prim = norm_lp_time_lq_space(traj.times, diff, h, 4.0 / 3.0, 2.0)
        rows.append(
            StudyRow(
                kappa=kappa,
                h=cfg.grid.h,
                dt=cfg.reg.dt,
                d_kappa=d_kappa,
                d_primitive=d_prim,
                max_principle_margin=margin,
                sup_energy=sup_energy,
                weak_residual_max=member_weak_residual(res),
                is_reference=(i == ref_idx),
                termination=termination,
            )
        )

    all_completed = all(r.termination.status == "completed" for r in rows)
    distances = [r.d_kappa for r in rows if not r.is_reference]
    decreasing = all_completed and all(b < a for a, b in zip(distances, distances[1:]))
    return StudyResult(rows, decreasing)


def write_study_csv(path, result: StudyResult):
    lines = ["kappa,h,dt,D_kappa,max_principle_margin,sup_energy,weak_residual_max"]
    for r in result.rows:
        lines.append(
            ",".join(
                FLOAT_FMT.format(v)
                for v in (
                    r.kappa,
                    r.h,
                    r.dt,
                    r.d_kappa,
                    r.max_principle_margin,
                    r.sup_energy,
                    r.weak_residual_max,
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def halving_study(base: SimulationConfig, levels: int) -> StudyConfig:
    """Simultaneous (h, dt, kappa)-halving path starting from ``base``."""
    kappas = tuple(base.reg.kappa / 2**j for j in range(levels))
    return StudyConfig(base=base, kappas=kappas, h_factor=2, dt_factor=2)


def weak_residual_refinement(base: SimulationConfig, levels: int = 3) -> list[float]:
    return [member_weak_residual(r) for r in run_members(halving_study(base, levels))]


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
        u = solve_fd(g_star(grid.x), grid)
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
    s0: np.ndarray, h: float, material: MaterialParams, kappa: float, t_end: float, dt: float
) -> np.ndarray:
    reg = RegularizationParams(kappa=kappa, dt=dt, theta=1.0, increment_guard=1e9)
    zero = np.zeros_like(s0)
    s = s0
    for _ in range(int(round(t_end / dt))):
        s = semi_implicit_step(s, zero, h, material, reg)
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


def mms_convergence(
    a: float = 1.0,
    d: float = 2.0,
    material: Optional[MaterialParams] = None,
    kappa: float = 0.25,
) -> MMSResult:
    """Observed convergence orders from three-level refinements.

    Covers the elasticity solve against closed-form displacements (order 2,
    plus the machine-exact quadratic case) and the force-free parabolic step:
    rate in dt against a tiny-step forward-Euler reference at fixed h, and
    rate in h on nested grids with dt tied to h^2.
    """
    if material is None:
        material = MaterialParams(c=1.0, nu=0.1, mu=2.0, lam=0.2, e=0.06, well_weight=1.0)

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
        float(np.max(np.abs(_implicit_forcefree(s0, grid.h, material, kappa, t_end, dt) - ref)))
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
        return _implicit_forcefree(s, g.h, material, kappa, t_end_h, dt), g.h

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
