"""Acceptance suite: one test per criterion, each printing its own pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Everything runs at desk scale (n <= 513, final times <= 0.05).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from confsim.grid_field import Grid, ScalarField, d1
from confsim.material import MaterialParams
from confsim.order_parameter import smoothed_abs, smoothed_abs_primitive
from confsim.elasticity import GreenKernel, elastic_rhs, fd_operator, solve_fd, solve_green
from confsim.diagnostics import build_report, energy_monitor
from confsim.config import BodyForce, StudyConfig
from confsim.simulator import Simulation, load_run, load_snapshot, save_snapshot, write_run
from confsim.studies import elasticity_errors, fit_slope, halving_study, run_study
from confsim.reduction3d import random_shell_points, residual_elasticity_3d, residual_order_3d

from conftest import green, green_dx, green_operator_residual, make_config
from manufactured import MAT as LIFT_MAT
from manufactured import make_order_lifts, manufactured_lift, rotation_matrix

A, D = 1.0, 2.0
KAPPA_SWEEP = (0.5, 0.25, 0.125, 0.0625)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{status}] {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def kappa_sweep_runs():
    """Shared sweep at fixed (h, dt): the uniformity evidence for criteria 4 and 5."""
    out = {}
    for kappa in KAPPA_SWEEP:
        cfg = make_config(n=129, kappa=kappa, dt=2e-4, t_end=0.02, save_every=10)
        out[kappa] = Simulation(cfg).run()
    return out


def test_criterion_01_green_function_properties():
    kernel = GreenKernel(A, D)
    rng = np.random.default_rng(101)

    sym = max(
        abs(green(kernel, x, y) - green(kernel, y, x)) for x, y in rng.uniform(A, D, size=(20, 2))
    )
    bnd = max(
        max(abs(green(kernel, A, y)), abs(green(kernel, D, y))) for y in rng.uniform(A, D, size=20)
    )
    jump = 0.0
    delta = 2.0e-4
    for y in rng.uniform(1.05, 1.95, size=20):
        g1 = green_dx(kernel, y + delta, y) - green_dx(kernel, y - delta, y)
        g2 = green_dx(kernel, y + delta / 2, y) - green_dx(kernel, y - delta / 2, y)
        jump = max(jump, abs(2.0 * g2 - g1 - 1.0 / y**2))
    op_res = 0.0
    for _ in range(40):
        x, y = rng.uniform(A, D, size=2)
        if abs(x - y) > 1e-3:
            op_res = max(op_res, abs(green_operator_residual(kernel, x, y)))

    ok = sym < 1e-12 and bnd < 1e-14 and jump < 1e-6 and op_res < 1e-8
    report(
        1,
        ok,
        f"kernel: symmetry {sym:.1e}, boundary {bnd:.1e}, jump(extrap) {jump:.1e}, operator {op_res:.1e}",
    )


def test_criterion_02_elasticity_cross_oracle():
    grid = Grid(A, D, 129)
    kernel = GreenKernel(A, D)
    mat = MaterialParams(c=1.0, nu=0.1, mu=2.0, lam=0.2, e=0.06, well_weight=1.0)
    rng = np.random.default_rng(102)
    tol = max(1e-6, 5.0 * grid.h**2)
    xi = (grid.x - A) / (D - A)
    worst = 0.0
    for _ in range(10):
        cs = rng.uniform(-1, 1, 3)
        cb = rng.uniform(-1, 1, 3)
        s = sum(c * np.sin((m + 1) * math.pi * xi) for m, c in enumerate(cs))
        b = sum(c * xi**m for m, c in enumerate(cb))
        u_fd = solve_fd(elastic_rhs(d1(s, grid.h), b / mat.mu, mat.lam / mat.mu), fd_operator(grid))
        u_gr = solve_green(kernel, ScalarField(grid, s), b / mat.mu, mat.lam / mat.mu)
        worst = max(worst, float(np.max(np.abs(u_fd - u_gr))))

    sizes = [65, 129, 257]
    errs = elasticity_errors(A, D, sizes)
    slope = fit_slope([(D - A) / (n - 1) for n in sizes], errs)

    ok = worst < tol and abs(slope - 2.0) <= 0.2
    report(2, ok, f"cross-oracle gap {worst:.2e} (tol {tol:.2e}), manufactured order {slope:.3f}")


def test_criterion_03_maximum_principle_matrix():
    worst = -np.inf
    for kappa in (0.5, 0.25, 0.125):
        for family in ("plateau", "bump"):
            for body in (BodyForce(), BodyForce(family="constant", amplitude=0.2)):
                cfg = make_config(
                    n=129, kappa=kappa, dt=2e-4, t_end=0.02, save_every=10,
                    family=family, body=body,
                )
                worst = max(worst, Simulation(cfg).run().report.max_principle_margin)
    ok = worst <= 1e-8
    report(3, ok, f"max-principle margin over 12-run matrix: {worst:.2e}")


def test_criterion_04_energy_uniformity(kappa_sweep_runs):
    sups, diss = [], []
    for kappa in KAPPA_SWEEP:
        traj = kappa_sweep_runs[kappa].trajectory
        s = traj.s_matrix()
        s_x = d1(s, traj.grid.h)
        grad_norm_sq, dissipation = energy_monitor(traj.times, s, s_x, smoothed_abs(s_x, kappa), traj.grid.h)
        sups.append(float(np.max(grad_norm_sq)))
        diss.append(float(dissipation[-1]))
    finite = all(np.isfinite(v) for v in sups + diss)
    ratio_s = max(sups) / min(sups)
    ratio_d = max(diss) / min(diss)
    ok = finite and ratio_s < 2.0 and ratio_d < 2.0
    report(4, ok, f"energy uniformity: sup ratio {ratio_s:.3f}, dissipation ratio {ratio_d:.3f}")


def test_criterion_05_apriori_norm_uniformity(kappa_sweep_runs):
    # St_L43, Sx_L83_Linf and flux_grad_L43 at the final time
    table = np.array(
        [
            [series[-1] for series in (rep.st_l43, rep.sx_l83_linf, rep.flux_grad_l43)]
            for rep in (kappa_sweep_runs[k].report for k in KAPPA_SWEEP)
        ]
    )
    finite = bool(np.all(np.isfinite(table)))
    ratios = table.max(axis=0) / table.min(axis=0)
    ok = finite and bool(np.all(ratios < 2.0))
    report(5, ok, f"a-priori norm ratios across kappa sweep: {np.round(ratios, 3)}")


def test_criterion_06_kappa_convergence():
    base = make_config(n=129, kappa=0.5, dt=2e-4, t_end=0.02, save_every=10)
    study = StudyConfig(base=base, kappas=(0.5, 0.25, 0.125, 0.0625, 0.03125), reference=-1)
    result = run_study(study)
    distances = [r.d_kappa for r in result.rows if not r.is_reference]
    ok = result.strictly_decreasing and len(distances) == 4
    report(6, ok, f"flux distances over 4 halvings: {['%.3e' % v for v in distances]}")


def test_criterion_07_weak_residual_refinement():
    base = make_config(n=33, kappa=1.0, dt=4e-4, t_end=0.02, save_every=2, amplitude=0.5)
    values = [row.weak_residual_max for row in run_study(halving_study(base, levels=3)).rows]
    monotone = all(b < a for a, b in zip(values, values[1:]))
    ok = monotone and values[-1] < 1e-3
    report(7, ok, f"weak residual per level: {['%.3e' % v for v in values]}")


def test_criterion_08_reduction_verification():
    lift = manufactured_lift()
    dt = 1e-3
    lift0, lift1 = make_order_lifts(dt)
    rng = np.random.default_rng(108)
    pts = random_shell_points(A, D, 50, rng, margin=0.15)
    h3s = [0.02, 0.01, 0.005]

    errs_e = [np.max(residual_elasticity_3d(lift, pts, h3)) for h3 in h3s]
    errs_s = [np.max(residual_order_3d(lift0, lift1, dt, pts, LIFT_MAT, h3)[0]) for h3 in h3s]
    rate_e = -fit_slope([1.0 / h for h in h3s], errs_e)
    rate_s = -fit_slope([1.0 / h for h in h3s], errs_s)

    rot = rotation_matrix([0.2, 1.0, -0.7], 1.3)
    gap_e = np.max(
        np.abs(
            residual_elasticity_3d(lift, pts, 0.01)
            - residual_elasticity_3d(lift, pts @ rot.T, 0.01)
        )
    )
    gap_s = np.max(
        np.abs(
            residual_order_3d(lift0, lift1, dt, pts, LIFT_MAT, 0.01)[0]
            - residual_order_3d(lift0, lift1, dt, pts @ rot.T, LIFT_MAT, 0.01)[0]
        )
    )
    ok = rate_e >= 1.5 and rate_s >= 1.5 and gap_e < 1e-10 and gap_s < 1e-10
    report(
        8,
        ok,
        f"reduction rates (elasticity {rate_e:.2f}, evolution {rate_s:.2f}), "
        f"rotation gaps ({gap_e:.1e}, {gap_s:.1e})",
    )


def test_criterion_09_closed_form_primitive():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        p = rng.uniform(-5.0, 5.0)
        kappa = rng.uniform(1e-3, 1.0)
        target, _ = quad(lambda y: math.hypot(y, kappa), 0.0, p, epsabs=1e-13, epsrel=1e-13)
        worst = max(worst, abs(smoothed_abs_primitive(p, kappa) - target))
    ok = worst < 1e-10
    report(9, ok, f"primitive vs adaptive quadrature, max gap {worst:.2e}")


def test_criterion_10_determinism_and_persistence(tmp_path):
    cfg = make_config(n=129, kappa=0.25, dt=2e-4, t_end=0.01, save_every=10)
    whole = Simulation(cfg).run()

    first = Simulation(cfg)
    part1 = first.run(until_step=30)
    save_snapshot(tmp_path / "snap.json", first)
    part2 = load_snapshot(tmp_path / "snap.json", cfg).run()
    s_all = np.vstack([part1.trajectory.s_matrix(), part2.trajectory.s_matrix()[1:]])
    u_all = np.vstack([part1.trajectory.u_matrix(), part2.trajectory.u_matrix()[1:]])
    split_ok = np.array_equal(s_all, whole.trajectory.s_matrix()) and np.array_equal(
        u_all, whole.trajectory.u_matrix()
    )

    write_run(tmp_path / "out", whole)
    traj, loaded_cfg, diag_text = load_run(tmp_path / "out")
    recompute_ok = build_report(traj, loaded_cfg).to_csv_text() == diag_text

    ok = split_ok and recompute_ok
    report(10, ok, f"split-run bit-exact: {split_ok}, diagnostics recompute bit-exact: {recompute_ok}")
