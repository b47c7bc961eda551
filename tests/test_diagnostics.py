import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.integrate import trapezoid

from confsim import diagnostics
from confsim.grid_field import FLOAT_FMT, Grid, ScalarField, Trajectory, d1, d2, norm_lp_time_lq_space
from confsim.material import MaterialParams
from confsim.order_parameter import (
    RegularizationParams,
    driving_force,
    semi_implicit_step,
    smoothed_abs,
)
from confsim.config import BodyForce, StudyConfig, parse_config_text
from confsim.diagnostics import (
    DiagnosticsReport,
    _cumulative_time_trapz,
    _flux_gradients,
    _primitive_w14_series,
    _st_l43_series,
    build_report,
    default_test_functions,
    energy_monitor,
    flux_field,
    primitive_field,
    weak_residual,
    weak_residual_series,
)
from confsim.simulator import run, write_run, load_run
from confsim.studies import (
    MismatchedGrids,
    flux_distance,
    OVERFLOWED,
    mms_convergence,
    run_study,
    weak_residual_refinement,
)
from confsim import studies
from confsim.diagnostics import NonFiniteReport

from conftest import make_config

GRID = Grid(1.0, 2.0, 65)
MAT = MaterialParams(c=1.0, nu=0.1, mu=2.0, lam=0.2, e=0.06, well_weight=1.0)


def zero_trajectory(n_frames=5, t_end=1e-2):
    z = ScalarField(GRID, np.zeros(GRID.n))
    times = np.linspace(0.0, t_end, n_frames)
    return Trajectory(times, [z] * n_frames, [z] * n_frames, np.arange(n_frames))


def diffusion_trajectory(amp=0.7, steps=20, dt=2e-4, kappa=0.25):
    """Force-free evolution collected by explicit calls to the stepper."""
    xi = (GRID.x - GRID.a) / (GRID.d - GRID.a)
    v = amp * np.sin(math.pi * xi)
    v[0] = v[-1] = 0.0
    reg = RegularizationParams(kappa=kappa, dt=dt)
    zero = np.zeros(GRID.n)
    frames = [v]
    for _ in range(steps):
        frames.append(semi_implicit_step(frames[-1], zero, GRID.h, MAT, reg))
    times = np.arange(steps + 1) * dt
    z = ScalarField(GRID, zero)
    return Trajectory(
        times, [ScalarField(GRID, f) for f in frames], [z] * (steps + 1), np.arange(steps + 1)
    )


def report_of(traj, t_end=None):
    """The diagnostics report of a trajectory on GRID under the desk material."""
    cfg = make_config(n=GRID.n, t_end=t_end or float(traj.times[-1]))
    return build_report(traj, cfg)


def apriori_row(report):
    """The report's uniformly bounded norms at its last save time."""
    return (
        report.st_l43[-1],
        report.sx_l83_linf[-1],
        report.flux_grad_l43[-1],
        report.primitive_w14_l43[-1],
    )


class TestMaxPrinciple:
    def test_zero_run(self):
        assert report_of(zero_trajectory()).max_principle_margin == 0.0

    def test_diffusion_only_run_passes(self):
        assert report_of(diffusion_trajectory()).max_principle_margin <= 1e-8

    def test_violation_reported_not_thrown(self):
        grow = [ScalarField(GRID, k * 0.1 * np.ones(GRID.n)) for k in range(3)]
        z = ScalarField(GRID, np.zeros(GRID.n))
        traj = Trajectory(np.array([0.0, 1.0, 2.0]), grow, [z] * 3, np.arange(3))
        margin = report_of(traj).max_principle_margin
        assert margin > 1e-8
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
    """The a priori bounded norms, read from the report's last row."""

    def test_zero_run(self):
        assert apriori_row(report_of(zero_trajectory())) == (0.0, 0.0, 0.0, 0.0)

    def test_monotone_under_time_truncation(self):
        traj = diffusion_trajectory(steps=20)
        t_end = float(traj.times[-1])
        full = report_of(traj, t_end)
        half = Trajectory(
            traj.times[:11], traj.s_frames[:11], traj.u_frames[:11], traj.steps[:11]
        )
        truncated = report_of(half, t_end)
        for a, b in zip(apriori_row(truncated), apriori_row(full)):
            assert a <= b + 1e-15

    def test_all_finite_on_default_run(self, desk_config):
        result = run(desk_config)
        assert all(np.isfinite(v) for v in apriori_row(result.report))


def primitive_w14_prefix_loop(traj, kappa):
    """Reference: a trapezoid over every prefix of the per-frame norms."""
    h = traj.grid.h
    p = 4.0 / 3.0
    per_frame = []
    for f in traj.s_frames:
        prim = primitive_field(f.values, h, kappa)
        norm_p = trapezoid(np.abs(prim) ** p, dx=h)
        norm_dp = trapezoid(np.abs(d1(prim, h)) ** p, dx=h)
        per_frame.append((norm_p + norm_dp) ** (1.0 / p))
    per_frame = np.asarray(per_frame)
    out = np.zeros(len(traj.times))
    for k in range(1, len(traj.times)):
        out[k] = float(trapezoid(per_frame[: k + 1] ** p, traj.times[: k + 1])) ** (1.0 / p)
    return out


class TestFluxAndPrimitive:
    def test_flux_is_half_signed_square_of_gradient(self):
        s = diffusion_trajectory(steps=3).s_matrix()
        g = d1(s, GRID.h)
        assert np.array_equal(flux_field(s, GRID.h), 0.5 * np.abs(g) * g)
        assert np.array_equal(2.0 * flux_field(s, GRID.h), np.abs(g) * g)

    @pytest.mark.parametrize("kappa", [0.25, 0.03125])
    def test_primitive_series_matches_prefix_loop(self, kappa):
        result = run(make_config(kappa=kappa, t_end=8e-3, save_every=1))
        traj = result.trajectory
        assert len(traj.times) == 41
        got = _primitive_w14_series(traj.times, traj.s_matrix(), traj.grid.h, kappa)
        want = primitive_w14_prefix_loop(traj, kappa)
        assert got[0] == want[0] == 0.0
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def space_norm(values, h, q):
    """The per-frame space norm the mixed norms were built from, one frame at a time."""
    if q == math.inf:
        return float(np.max(np.abs(values)))
    return float(trapezoid(np.abs(values) ** q, dx=h)) ** (1.0 / q)


def mixed_norm_series_loop(times, frames, h, p, q):
    """Reference: the mixed norm of every prefix through a per-frame space norm."""
    out = np.zeros(len(times))
    for k in range(1, len(times)):
        per_frame = np.array([space_norm(f, h, q) for f in frames[: k + 1]])
        if p == math.inf:
            out[k] = np.max(per_frame)
        else:
            out[k] = float(trapezoid(per_frame**p, times[: k + 1])) ** (1.0 / p)
    return out


def quadratic_mixed_norm_series(times, values, h, p, q):
    """Reference: one whole mixed norm per prefix [0, t_k], the O(K^2) assembly."""
    out = np.zeros(len(times))
    for k in range(1, len(times)):
        out[k] = norm_lp_time_lq_space(times[: k + 1], values[: k + 1], h, p, q)
    return out


def energy_loop(traj, kappa):
    """Reference: gradient energy and dissipation integrand, one frame at a time."""
    h = traj.grid.h
    grad_sq, integrand = [], []
    for f in traj.s_frames:
        g = d1(f.values, h)
        grad_sq.append(float(np.sqrt(trapezoid(g**2, dx=h))) ** 2)
        integrand.append(float(trapezoid(smoothed_abs(g, kappa) * d2(f.values, h) ** 2, dx=h)))
    return np.array(grad_sq), _cumulative_time_trapz(traj.times, np.array(integrand))


def st_l43_loop(traj):
    """Reference: the running L^{4/3} space-time norm of the difference quotients."""
    h = traj.grid.h
    p = 4.0 / 3.0
    out = np.zeros(len(traj.times))
    acc = 0.0
    for k in range(len(traj.times) - 1):
        dt = traj.times[k + 1] - traj.times[k]
        v = (traj.s_frames[k + 1].values - traj.s_frames[k].values) / dt
        acc += dt * float(trapezoid(np.abs(v) ** p, dx=h))
        out[k + 1] = acc ** (1.0 / p)
    return out


@pytest.fixture(
    scope="module",
    params=[
        dict(kappa=0.25, t_end=8e-3, save_every=1),
        dict(n=129, kappa=0.0625, t_end=6e-3, save_every=3, theta=0.6,
             body=BodyForce(family="ramp", amplitude=0.1, rate=5.0)),
    ],
    ids=["desk", "theta-ramp"],
)
def stacked_run(request):
    cfg = make_config(**request.param)
    return cfg, run(cfg)


class TestMonitorsMatchFrameLoops:
    """Each monitor on the (frames, nodes) stack against its frame-by-frame loop.

    Columns that raise a per-frame value to a power may differ in the last
    bit: numpy's array power and Python's float power round independently.
    """

    def test_energy(self, stacked_run):
        cfg, result = stacked_run
        series = energy_monitor(result.trajectory, cfg.reg.kappa)
        grad_sq, dissipation = energy_loop(result.trajectory, cfg.reg.kappa)
        np.testing.assert_allclose(series.grad_norm_sq, grad_sq, rtol=1e-14, atol=0.0)
        assert np.array_equal(series.dissipation, dissipation)

    def test_st_l43(self, stacked_run):
        _, result = stacked_run
        traj = result.trajectory
        got = _st_l43_series(traj.times, traj.s_matrix(), traj.grid.h)
        np.testing.assert_allclose(got, st_l43_loop(traj), rtol=1e-14, atol=0.0)

    def test_flux_gradients(self, stacked_run):
        _, result = stacked_run
        traj = result.trajectory
        h = traj.grid.h
        want = [d1(2.0 * flux_field(f.values, h), h) for f in traj.s_frames]
        assert np.array_equal(_flux_gradients(traj.s_matrix(), h), np.array(want))

    def test_mixed_norms(self, stacked_run):
        _, result = stacked_run
        traj, report = result.trajectory, result.report
        h = traj.grid.h
        s = traj.s_matrix()
        for got, values, p, q in [
            (report.sx_l83_linf, d1(s, h), 8.0 / 3.0, math.inf),
            (report.flux_grad_l43, _flux_gradients(s, h), 4.0 / 3.0, 4.0 / 3.0),
        ]:
            frames = list(values)
            np.testing.assert_allclose(
                got, mixed_norm_series_loop(traj.times, frames, h, p, q), rtol=1e-14, atol=0.0
            )
            want = quadratic_mixed_norm_series(traj.times, values, h, p, q)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
            # the last row is the whole-run norm, bit for bit
            assert got[0] == 0.0 and got[-1] == want[-1]
            assert got[-1] == norm_lp_time_lq_space(traj.times, values, h, p, q)

    def test_report_makes_one_whole_run_norm_per_mixed_column(self, stacked_run, monkeypatch):
        cfg, result = stacked_run
        calls = []

        def counting(*args):
            calls.append(len(args[0]))
            return norm_lp_time_lq_space(*args)

        monkeypatch.setattr(diagnostics, "norm_lp_time_lq_space", counting)
        rebuilt = build_report(result.trajectory, cfg)
        assert calls == [len(result.trajectory.times)] * 2
        assert rebuilt.to_csv_text() == result.report.to_csv_text()

    def test_max_abs_s(self, stacked_run):
        _, result = stacked_run
        want = [float(np.max(np.abs(f.values))) for f in result.trajectory.s_frames]
        assert np.array_equal(result.report.max_abs_s, want)


def frame_loop_weak_residual_series(traj, material, test_functions):
    """The per-frame, per-test-function loop that weak_residual_series replaced."""
    h, x = traj.grid.h, traj.grid.x
    nt, nphi = len(traj.times), len(test_functions)
    pairs = np.zeros((4, nt, nphi))
    for k in range(nt):
        t, s, u = traj.times[k], traj.s_frames[k].values, traj.u_frames[k].values
        s_x = d1(s, h)
        flux = flux_field(s, h)
        kinetic = driving_force(u, d1(u, h), s, s_x, x, material) * np.abs(s_x)
        for m, tf in enumerate(test_functions):
            pairs[0, k, m] = trapezoid(s * tf.phi_t(t, x), dx=h)
            pairs[1, k, m] = trapezoid(flux * tf.phi_x(t, x), dx=h)
            pairs[2, k, m] = trapezoid(kinetic * tf.phi(t, x), dx=h)
            pairs[3, k, m] = trapezoid(s * tf.phi(t, x), dx=h)
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


def reference_csv_text(report):
    """The per-value writer that to_csv_text replaced, kept as the reference."""
    header = ["time", "max_abs_S", "grad_norm_sq", "dissipation", "St_L43", "Sx_L83_Linf",
              "flux_grad_L43", "primitive_W14_L43"]
    header += [f"weak_res_{m + 1}" for m in range(report.weak_residuals.shape[1])]
    lines = [",".join(header + ["elasticity_cross_check"])]
    for k in range(len(report.times)):
        row = [
            report.times[k], report.max_abs_s[k], report.grad_norm_sq[k], report.dissipation[k],
            report.st_l43[k], report.sx_l83_linf[k], report.flux_grad_l43[k],
            report.primitive_w14_l43[k], *report.weak_residuals[k], report.cross_check[k],
        ]
        lines.append(",".join(FLOAT_FMT.format(v) for v in row))
    return "\n".join(lines) + "\n"


class TestReportRecompute:
    @pytest.mark.parametrize("n_frames, n_phi", [(1, 0), (3, 5), (201, 5)])
    def test_csv_text_matches_reference_writer(self, n_frames, n_phi):
        rng = np.random.default_rng(n_frames)
        special = [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]

        def series(*shape):
            values = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            flat = values.reshape(-1)
            flat[: min(len(flat), len(special))] = special[: len(flat)]
            rng.shuffle(flat)
            return values

        report = DiagnosticsReport(
            *(series(n_frames) for _ in range(8)), series(n_frames, n_phi), series(n_frames)
        )
        assert report.to_csv_text() == reference_csv_text(report)

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

    @pytest.mark.parametrize("reference", [-1, 1])
    def test_overflowed_member_keeps_a_row(self, monkeypatch, reference):
        base = make_config(n=33, t_end=2e-3, dt=2e-4, save_every=2)
        study = StudyConfig(base=base, kappas=(0.5, 0.25, 0.125), reference=reference)
        plain = run_study(study)
        plain_run = studies.Simulation.run

        def overflow_second_member(sim, *args, **kwargs):
            if sim.config.reg.kappa == 0.25:
                raise NonFiniteReport("series grad_norm_sq contains non-finite entries")
            return plain_run(sim, *args, **kwargs)

        monkeypatch.setattr(studies.Simulation, "run", overflow_second_member)
        result = run_study(study)
        bad = result.rows[1]
        assert bad.termination == OVERFLOWED and bad.termination.fail_time is None
        assert (bad.kappa, bad.h, bad.dt) == (0.25, plain.rows[1].h, plain.rows[1].dt)
        for value in (bad.d_kappa, bad.d_primitive, bad.max_principle_margin, bad.sup_energy,
                      bad.weak_residual_max):
            assert math.isnan(value)
        assert not result.strictly_decreasing
        for i in (0, 2):
            row, want = result.rows[i], plain.rows[i]
            assert row.termination.status == "completed"
            assert row.sup_energy == want.sup_energy
            assert row.weak_residual_max == want.weak_residual_max
            if bad.is_reference:
                assert math.isnan(row.d_kappa) and math.isnan(row.d_primitive)
            else:
                assert row.d_kappa == want.d_kappa and row.d_primitive == want.d_primitive

    def test_mismatched_grids_raise(self):
        t1 = diffusion_trajectory(steps=3)
        other_grid = Grid(1.0, 2.0, 33)
        z = ScalarField(other_grid, np.zeros(other_grid.n))
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
