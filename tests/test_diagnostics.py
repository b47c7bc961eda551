import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.integrate import trapezoid

from confsim.grid_field import Grid, ScalarField, Trajectory, d1
from confsim.material import MaterialParams
from confsim.order_parameter import RegularizationParams, driving_force, semi_implicit_step
from confsim.config import BodyForce, StudyConfig, parse_config_text
from confsim.diagnostics import (
    _cumulative_time_trapz,
    _primitive_w14_series,
    apriori_norms,
    build_report,
    default_dual_basis,
    default_test_functions,
    dual_norm_estimate,
    energy_monitor,
    flux_field,
    max_principle_check,
    primitive_field,
    weak_residual,
    weak_residual_series,
)
from confsim.simulator import run, write_run, load_run
from confsim.studies import (
    MismatchedGrids,
    flux_distance,
    mms_convergence,
    run_study,
    weak_residual_refinement,
)

from conftest import make_config

GRID = Grid(1.0, 2.0, 65)
MAT = MaterialParams(c=1.0, nu=0.1, mu=2.0, lam=0.2, e=0.06, well_weight=1.0)


def zero_trajectory(n_frames=5, t_end=1e-2):
    z = ScalarField.zeros(GRID)
    times = np.linspace(0.0, t_end, n_frames)
    return Trajectory(times, [z] * n_frames, [z] * n_frames, np.arange(n_frames))


def diffusion_trajectory(amp=0.7, steps=20, dt=2e-4, kappa=0.25):
    """Force-free evolution collected by explicit calls to the stepper."""
    xi = (GRID.x - GRID.a) / (GRID.d - GRID.a)
    v = amp * np.sin(math.pi * xi)
    v[0] = v[-1] = 0.0
    s = ScalarField(GRID, v)
    reg = RegularizationParams(kappa=kappa, dt=dt)
    zero = ScalarField.zeros(GRID)
    frames = [s]
    for _ in range(steps):
        s = semi_implicit_step(s, zero, MAT, reg)
        frames.append(s)
    times = np.arange(steps + 1) * dt
    return Trajectory(times, frames, [zero] * (steps + 1), np.arange(steps + 1))


class TestMaxPrinciple:
    def test_zero_run(self):
        margin, ok = max_principle_check(zero_trajectory())
        assert margin == 0.0
        assert ok

    def test_diffusion_only_run_passes(self):
        margin, ok = max_principle_check(diffusion_trajectory())
        assert ok

    def test_violation_reported_not_thrown(self):
        grow = [ScalarField(GRID, k * 0.1 * np.ones(GRID.n)) for k in range(3)]
        z = ScalarField.zeros(GRID)
        traj = Trajectory(np.array([0.0, 1.0, 2.0]), grow, [z] * 3, np.arange(3))
        margin, ok = max_principle_check(traj)
        assert not ok
        assert margin == pytest.approx(0.2)


class TestEnergyMonitor:
    def test_zero_run(self):
        series = energy_monitor(zero_trajectory(), kappa=0.25)
        assert np.all(series.grad_norm_sq == 0.0)
        assert np.all(series.dissipation == 0.0)
        assert series.holds

    def test_dissipation_nondecreasing(self):
        series = energy_monitor(diffusion_trajectory(), kappa=0.25)
        assert np.all(np.diff(series.dissipation) >= 0.0)
        assert series.holds

    def test_differential_inequality_constants(self):
        series = energy_monitor(diffusion_trajectory(), kappa=0.25)
        slopes = np.diff(series.grad_norm_sq) / np.diff(series.times)
        means = 0.5 * (series.grad_norm_sq[1:] + series.grad_norm_sq[:-1])
        assert np.all(slopes <= series.fitted_c1 * means + series.fitted_c2 + 1e-12)


class TestAprioriNorms:
    def test_zero_run(self):
        norms = apriori_norms(zero_trajectory(), kappa=0.25)
        assert norms.as_tuple() == (0.0, 0.0, 0.0, 0.0)

    def test_monotone_under_time_truncation(self):
        traj = diffusion_trajectory(steps=20)
        full = apriori_norms(traj, kappa=0.25)
        half = Trajectory(
            traj.times[:11], traj.s_frames[:11], traj.u_frames[:11], traj.steps[:11]
        )
        truncated = apriori_norms(half, kappa=0.25)
        for a, b in zip(truncated.as_tuple(), full.as_tuple()):
            assert a <= b + 1e-15

    def test_all_finite_on_default_run(self, desk_config):
        result = run(desk_config)
        norms = apriori_norms(result.trajectory, desk_config.reg.kappa)
        assert all(np.isfinite(v) for v in norms.as_tuple())


def primitive_w14_prefix_loop(traj, kappa):
    """Reference: a trapezoid over every prefix of the per-frame norms."""
    h = traj.grid.h
    p = 4.0 / 3.0
    per_frame = []
    for f in traj.s_frames:
        prim = primitive_field(f, kappa)
        norm_p = trapezoid(np.abs(prim.values) ** p, dx=h)
        norm_dp = trapezoid(np.abs(d1(prim).values) ** p, dx=h)
        per_frame.append((norm_p + norm_dp) ** (1.0 / p))
    per_frame = np.asarray(per_frame)
    out = np.zeros(len(traj.times))
    for k in range(1, len(traj.times)):
        out[k] = float(trapezoid(per_frame[: k + 1] ** p, traj.times[: k + 1])) ** (1.0 / p)
    return out


class TestFluxAndPrimitive:
    def test_flux_is_half_signed_square_of_gradient(self):
        for s in diffusion_trajectory(steps=3).s_frames:
            g = d1(s).values
            assert np.array_equal(flux_field(s).values, 0.5 * np.abs(g) * g)
            assert np.array_equal(2.0 * flux_field(s).values, np.abs(g) * g)

    @pytest.mark.parametrize("kappa", [0.25, 0.03125])
    def test_primitive_series_matches_prefix_loop(self, kappa):
        result = run(make_config(kappa=kappa, t_end=8e-3, save_every=1))
        traj = result.trajectory
        assert len(traj.times) == 41
        got = _primitive_w14_series(traj, kappa)
        want = primitive_w14_prefix_loop(traj, kappa)
        assert got[0] == want[0] == 0.0
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def frame_loop_weak_residual_series(traj, material, test_functions):
    """The per-frame, per-test-function loop that weak_residual_series replaced."""
    h, x = traj.grid.h, traj.grid.x
    nt, nphi = len(traj.times), len(test_functions)
    pairs = np.zeros((4, nt, nphi))
    for k in range(nt):
        t, s, u = traj.times[k], traj.s_frames[k], traj.u_frames[k]
        s_x = d1(s)
        flux = flux_field(s).values
        kinetic = driving_force(u, d1(u), s, s_x, material).values * np.abs(s_x.values)
        for m, tf in enumerate(test_functions):
            pairs[0, k, m] = trapezoid(s.values * tf.phi_t(t, x), dx=h)
            pairs[1, k, m] = trapezoid(flux * tf.phi_x(t, x), dx=h)
            pairs[2, k, m] = trapezoid(kinetic * tf.phi(t, x), dx=h)
            pairs[3, k, m] = trapezoid(s.values * tf.phi(t, x), dx=h)
    cnu = material.c * material.nu
    residuals = np.zeros((nt, nphi))
    for m in range(nphi):
        a_cum, b_cum, c_cum = (_cumulative_time_trapz(traj.times, pairs[i, :, m]) for i in range(3))
        residuals[:, m] = a_cum - cnu * b_cum - c_cum + pairs[3, 0, m] - pairs[3, :, m]
    return residuals


class TestWeakResidual:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=65, save_every=1),
            dict(n=129, save_every=5, t_end=6e-3, body=BodyForce(family="ramp", amplitude=0.1, rate=5.0)),
            dict(n=513, save_every=4, lam=-0.3, family="bump"),
        ],
    )
    def test_series_matches_frame_loop_bit_for_bit(self, kw):
        cfg = make_config(**kw)
        traj = run(cfg).trajectory
        fns = default_test_functions(cfg.grid, cfg.t_end)
        got = weak_residual_series(traj, cfg.material, fns)
        want = frame_loop_weak_residual_series(traj, cfg.material, fns)
        assert got.shape == (len(traj.times), len(fns))
        assert np.array_equal(got, want)

    def test_zero_run_residual_zero(self):
        traj = zero_trajectory()
        res = weak_residual(traj, MAT)
        assert np.max(np.abs(res)) < 1e-12

    def test_zero_test_function(self):
        traj = diffusion_trajectory(steps=5)
        from confsim.diagnostics import TestFunction

        zero_fn = TestFunction(
            phi=lambda t, x: np.zeros_like(x),
            phi_t=lambda t, x: np.zeros_like(x),
            phi_x=lambda t, x: np.zeros_like(x),
            label="zero",
        )
        res = weak_residual(traj, MAT, [zero_fn])
        assert res[0] == 0.0

    def test_one_frame_with_default_test_functions_raises(self):
        traj = diffusion_trajectory(steps=0)
        assert len(traj.times) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would fail here
            with pytest.raises(ValueError, match="at least two frames"):
                weak_residual(traj, MAT)

    def test_series_starts_at_zero(self, desk_config):
        result = run(desk_config)
        fns = default_test_functions(desk_config.grid, desk_config.t_end)
        series = weak_residual_series(result.trajectory, desk_config.material, fns)
        assert np.max(np.abs(series[0])) == 0.0

    def test_refinement_decreases_residual(self):
        base = make_config(n=33, kappa=1.0, dt=4e-4, t_end=0.02, save_every=2, amplitude=0.5)
        values = weak_residual_refinement(base, levels=2)
        assert values[1] < values[0]


class TestDualNorm:
    def test_zero_run(self):
        assert dual_norm_estimate(zero_trajectory()) == 0.0

    def test_empty_basis(self):
        assert dual_norm_estimate(diffusion_trajectory(steps=3), basis=[]) == 0.0

    def test_zero_basis_function(self):
        traj = diffusion_trajectory(steps=3)
        z = ScalarField.zeros(GRID)
        assert dual_norm_estimate(traj, basis=[z]) == 0.0

    def test_basis_is_h2_normalized(self):
        from confsim.grid_field import d1, d2, norm_l2

        for psi in default_dual_basis(GRID):
            h2 = math.sqrt(
                norm_l2(psi) ** 2 + norm_l2(d1(psi)) ** 2 + norm_l2(d2(psi)) ** 2
            )
            assert h2 == pytest.approx(1.0, abs=1e-12)

    def test_stable_across_kappa_halvings(self):
        values = []
        for kappa in (0.5, 0.25, 0.125):
            cfg = make_config(n=65, kappa=kappa, dt=2e-4, t_end=4e-3, save_every=2)
            res = run(cfg)
            values.append(dual_norm_estimate(res.trajectory))
        assert min(values) > 0.0
        assert max(values) / min(values) < 2.0


class TestReportRecompute:
    def test_report_recomputed_from_persisted_frames_is_bit_exact(self, tmp_path, desk_config):
        result = run(desk_config)
        write_run(tmp_path / "out", result)
        traj, cfg, diag_text = load_run(tmp_path / "out")
        rebuilt = build_report(traj, cfg)
        assert rebuilt.to_csv_text() == diag_text

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(4, 40),
        save_every=st.integers(1, 5),
        steps=st.integers(1, 12),
        path=st.sampled_from(["direct", "green", "both-verify"]),
    )
    def test_recompute_from_disk_is_bit_exact_for_random_configs(self, n, save_every, steps, path):
        cfg = make_config(n=n, t_end=steps * 2e-4, save_every=save_every, path=path)
        with tempfile.TemporaryDirectory() as tmp:
            write_run(Path(tmp) / "out", run(cfg))
            traj, loaded, diag_text = load_run(Path(tmp) / "out")
        assert build_report(traj, loaded).to_csv_text() == diag_text


class TestKappaStudy:
    def test_reference_distance_is_zero_and_gap_positive(self):
        base = make_config(n=33, t_end=2e-3, dt=2e-4, save_every=2)
        study = StudyConfig(base=base, kappas=(0.5, 0.25), reference=-1)
        result = run_study(study)
        assert result.rows[1].is_reference
        assert result.rows[1].d_kappa == 0.0
        assert result.rows[0].d_kappa > 0.0

    def test_rejected_member_breaks_the_decrease(self):
        # the reference completes; the small-kappa member trips the guard part way
        study = parse_config_text(
            "study.kappas = 0.5 0.03125\nstudy.reference = 0\nreg.increment_guard = 0.05\n"
            "body.family = ramp\nbody.rate = 1e5\n"
        )
        result = run_study(study)
        ref, member = result.rows
        assert ref.termination.status == "completed"
        assert ref.d_kappa == 0.0
        assert member.termination.status == "step-rejected"
        assert member.termination.fail_time > 0.0
        assert np.isnan(member.d_kappa) and np.isnan(member.weak_residual_max)
        assert not result.strictly_decreasing

    def test_mismatched_grids_raise(self):
        t1 = diffusion_trajectory(steps=3)
        other_grid = Grid(1.0, 2.0, 33)
        z = ScalarField.zeros(other_grid)
        t2 = Trajectory(t1.times[:4], [z] * 4, [z] * 4, np.arange(4))
        with pytest.raises(MismatchedGrids):
            flux_distance(t1, t2)

    def test_study_config_invariants(self):
        base = make_config()
        with pytest.raises(ValueError):
            StudyConfig(base=base, kappas=(0.25, 0.5))  # not decreasing
        with pytest.raises(ValueError):
            StudyConfig(base=base, kappas=(1.5, 0.5))  # out of range
        with pytest.raises(ValueError):
            StudyConfig(base=base, kappas=(0.5,))  # too short
        with pytest.raises(ValueError):
            StudyConfig(base=base, kappas=(0.5, 0.25), h_factor=0)

    def test_refinement_members_halve_everything(self):
        base = make_config(n=33, kappa=0.5, dt=4e-4)
        study = StudyConfig(base=base, kappas=(0.5, 0.25), h_factor=2, dt_factor=2)
        member = study.member_config(1)
        assert member.grid.n == 65
        assert member.reg.dt == pytest.approx(2e-4)
        assert member.reg.kappa == 0.25
        assert member.reg.kappa_m == 0.25  # coupled width follows kappa
        with pytest.raises(MismatchedGrids):
            run_study(study)


class TestManufacturedConvergence:
    def test_orders(self):
        result = mms_convergence()
        assert result.elasticity_slope == pytest.approx(2.0, abs=0.2)
        assert result.quadratic_exact
        # first order in dt: the fitted slope approaches 1 from below, so allow
        # fit tolerance; the per-halving ratios confirm the rate directly
        assert result.dt_slope == pytest.approx(1.0, abs=0.05)
        ratios = [a / b for a, b in zip(result.dt_errors, result.dt_errors[1:])]
        assert all(r == pytest.approx(2.0, abs=0.1) for r in ratios)
        assert result.h_slope == pytest.approx(2.0, abs=0.4)
