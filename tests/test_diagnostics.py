import collections
import importlib.util
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.integrate import trapezoid

from confsim import diagnostics
from confsim.grid_field import Grid, ScalarField, Trajectory, d1, d2, norm_lp_time_lq_space
from confsim.material import MaterialParams
from confsim.order_parameter import (
    driving_force,
    semi_implicit_step,
    smoothed_abs,
    smoothed_abs_primitive,
    step_constants,
)
from confsim.config import BodyForce, StudyConfig, parse_config_text
from confsim.diagnostics import (
    DiagnosticsReport,
    _cumulative_time_trapz,
    _flux_gradients,
    _primitive_w14_series,
    _st_l43_series,
    build_report,
    energy_monitor,
    weak_residual,
    weak_residual_series,
)
from confsim.simulator import Simulation, write_run, load_run
from confsim.studies import (
    OVERFLOWED,
    halving_study,
    mms_convergence,
    run_study,
    write_study_csv,
)
from confsim import studies
from confsim.diagnostics import NonFiniteReport

from conftest import make_config
from test_report_oracles import closure_sine_modes
from test_step_oracles import same_bits

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

GRID = Grid(1.0, 2.0, 65)
MAT = MaterialParams(c=1.0, nu=0.1, mu=2.0, lam=0.2, e=0.06, well_weight=1.0)


def bench_config_text(workload, seed, quick=False):
    """The config text of a bench workload (``bench/workloads.py``)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH_WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.config_text(workload, seed, quick)


def zero_trajectory(n_frames=5, t_end=1e-2):
    z = ScalarField(GRID, np.zeros(GRID.n))
    times = np.linspace(0.0, t_end, n_frames)
    return Trajectory(times, [z] * n_frames, [z] * n_frames, np.arange(n_frames))


def diffusion_trajectory(amp=0.7, steps=20, dt=2e-4, kappa=0.25):
    """Force-free evolution collected by explicit calls to the stepper."""
    xi = (GRID.x - GRID.a) / (GRID.d - GRID.a)
    v = amp * np.sin(math.pi * xi)
    v[0] = v[-1] = 0.0
    zero = np.zeros(GRID.n)
    constants = step_constants(GRID.x, GRID.h, MAT)
    frames = [v]
    for _ in range(steps):
        frames.append(semi_implicit_step(frames[-1], zero, dt, kappa, 1.0, d1(frames[-1], GRID.h), constants))
    times = np.arange(steps + 1) * dt
    z = ScalarField(GRID, zero)
    return Trajectory(
        times, [ScalarField(GRID, f) for f in frames], [z] * (steps + 1), np.arange(steps + 1)
    )


def energy_of(traj, kappa):
    """(grad_norm_sq, dissipation) of a trajectory, from its own stacks."""
    s = traj.s_matrix()
    s_x = d1(s, traj.grid.h)
    return energy_monitor(traj.times, s, s_x, smoothed_abs(s_x, kappa), traj.grid.h)


def weak_residual_series_of(traj, material, t_end):
    """The weak residual series of a trajectory, from its own stacks."""
    s = traj.s_matrix()
    return weak_residual_series(traj.times, s, traj.u_matrix(), d1(s, traj.grid.h), traj.grid, material, t_end)


def weak_residual_of(traj, material):
    """The final weak residual of a trajectory, from its own stacks."""
    s = traj.s_matrix()
    return weak_residual(traj.times, s, traj.u_matrix(), d1(s, traj.grid.h), traj.grid, material)


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
        grad_norm_sq, dissipation = energy_of(zero_trajectory(), kappa=0.25)
        assert np.all(grad_norm_sq == 0.0)
        assert np.all(dissipation == 0.0)

    def test_dissipation_nondecreasing(self):
        _, dissipation = energy_of(diffusion_trajectory(), kappa=0.25)
        assert np.all(np.diff(dissipation) >= 0.0)


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
        result = Simulation(desk_config).run()
        assert all(np.isfinite(v) for v in apriori_row(result.report))


def primitive_w14_prefix_loop(traj, kappa):
    """Reference: a trapezoid over every prefix of the per-frame norms."""
    h = traj.grid.h
    p = 4.0 / 3.0
    per_frame = []
    for f in traj.s_frames:
        g = d1(f.values, h)
        prim = 0.5 * (g * np.hypot(g, kappa) + kappa**2 * np.arcsinh(g / kappa))
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
        assert np.array_equal(smoothed_abs_primitive(g, 0.0), 0.5 * np.abs(g) * g)
        assert np.array_equal(2.0 * smoothed_abs_primitive(g, 0.0), np.abs(g) * g)

    @pytest.mark.parametrize("kappa", [0.25, 0.03125])
    def test_primitive_series_matches_prefix_loop(self, kappa):
        result = Simulation(make_config(kappa=kappa, t_end=8e-3, save_every=1)).run()
        traj = result.trajectory
        assert len(traj.times) == 41
        s_x = d1(traj.s_matrix(), traj.grid.h)
        got = _primitive_w14_series(traj.times, s_x, traj.grid.h, kappa, smoothed_abs(s_x, kappa))
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
        dict(n=129, kappa=0.0625, t_end=6e-3, save_every=3,
             body=BodyForce(family="ramp", amplitude=0.1, rate=5.0)),
    ],
    ids=["desk", "ramp"],
)
def stacked_run(request):
    cfg = make_config(**request.param)
    return cfg, Simulation(cfg).run()


class TestMonitorsMatchFrameLoops:
    """Each monitor on the (frames, nodes) stack against its frame-by-frame loop.

    Columns that raise a per-frame value to a power may differ in the last
    bit: numpy's array power and Python's float power round independently.
    """

    def test_energy(self, stacked_run):
        cfg, result = stacked_run
        grad_norm_sq, dissipation = energy_of(result.trajectory, cfg.reg.kappa)
        want_grad_sq, want_dissipation = energy_loop(result.trajectory, cfg.reg.kappa)
        np.testing.assert_allclose(grad_norm_sq, want_grad_sq, rtol=1e-14, atol=0.0)
        assert np.array_equal(dissipation, want_dissipation)

    def test_st_l43(self, stacked_run):
        _, result = stacked_run
        traj = result.trajectory
        got = _st_l43_series(traj.times, traj.s_matrix(), traj.grid.h)
        np.testing.assert_allclose(got, st_l43_loop(traj), rtol=1e-14, atol=0.0)

    def test_flux_gradients(self, stacked_run):
        _, result = stacked_run
        traj = result.trajectory
        h = traj.grid.h
        want = [d1(2.0 * (0.5 * g * np.abs(g)), h) for g in (d1(f.values, h) for f in traj.s_frames)]
        assert np.array_equal(_flux_gradients(d1(traj.s_matrix(), h), h), np.array(want))

    def test_mixed_norms(self, stacked_run):
        _, result = stacked_run
        traj, report = result.trajectory, result.report
        h = traj.grid.h
        s = traj.s_matrix()
        for got, values, p, q in [
            (report.sx_l83_linf, d1(s, h), 8.0 / 3.0, math.inf),
            (report.flux_grad_l43, _flux_gradients(d1(s, h), h), 4.0 / 3.0, 4.0 / 3.0),
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


def frame_integrands(traj, material, k):
    """S, the flux |S_x|S_x/2 and the kinetic term of frame k, computed on that frame alone."""
    h, x = traj.grid.h, traj.grid.x
    s, u = traj.s_frames[k].values, traj.u_frames[k].values
    s_x = d1(s, h)
    return s, 0.5 * s_x * np.abs(s_x), driving_force(u, d1(u, h), s, s_x, step_constants(x, h, material)) * np.abs(s_x)


def frame_loop_weak_residual_series(traj, material, test_functions):
    """The per-frame, per-test-function loop of trapezoids that weak_residual_series replaced."""
    h, x = traj.grid.h, traj.grid.x
    nt, nphi = len(traj.times), len(test_functions)
    pairs = np.zeros((4, nt, nphi))
    for k in range(nt):
        t = traj.times[k]
        s, flux, kinetic = frame_integrands(traj, material, k)
        for m, tf in enumerate(test_functions):
            phi = tf.time(t) * tf.space(x)
            pairs[0, k, m] = trapezoid(s * (tf.time_t(t) * tf.space(x)), dx=h)
            pairs[1, k, m] = trapezoid(flux * (tf.time(t) * tf.space_x(x)), dx=h)
            pairs[2, k, m] = trapezoid(kinetic * phi, dx=h)
            pairs[3, k, m] = trapezoid(s * phi, dx=h)
    cnu = material.c * material.nu
    residuals = np.zeros((nt, nphi))
    for m in range(nphi):
        a_cum, b_cum, c_cum = (_cumulative_time_trapz(traj.times, pairs[i, :, m]) for i in range(3))
        residuals[:, m] = a_cum - cnu * b_cum - c_cum + pairs[3, 0, m] - pairs[3, :, m]
    return residuals


def fsum_weak_residual_series(traj, material, test_functions):
    """The weak residual with every sum taken by math.fsum, and its scale.

    Returns (residuals, scale), both (K, M): scale is the same sum of the
    absolute values of all its terms, the quantity a roundoff bound of any
    summation order is a multiple of.
    """
    h, x, times = traj.grid.h, traj.grid.x, traj.times
    w = np.full(len(x), h)
    w[0] = w[-1] = 0.5 * h
    cnu = material.c * material.nu
    nt, nphi = len(times), len(test_functions)
    residuals, scale = np.zeros((nt, nphi)), np.zeros((nt, nphi))
    # per frame and test function: the four pairings and their absolute sums
    pairs, abs_pairs = np.zeros((4, nt, nphi)), np.zeros((4, nt, nphi))
    for k in range(nt):
        t = times[k]
        s, flux, kinetic = frame_integrands(traj, material, k)
        for m, tf in enumerate(test_functions):
            a, a_t, b, b_x = tf.time(t), tf.time_t(t), tf.space(x), tf.space_x(x)
            for i, (f, g) in enumerate(((s, a_t * b), (flux, a * b_x), (kinetic, a * b), (s, a * b))):
                terms = (w * f * g).tolist()
                pairs[i, k, m] = math.fsum(terms)
                abs_pairs[i, k, m] = math.fsum(map(abs, terms))
    signs = (1.0, -cnu, -1.0)
    for m in range(nphi):
        terms, abs_terms = [], []
        for k in range(1, nt):
            half_dt = 0.5 * (times[k] - times[k - 1])
            for i, sign in enumerate(signs):
                terms += [sign * half_dt * pairs[i, k, m], sign * half_dt * pairs[i, k - 1, m]]
                abs_terms += [abs(sign) * half_dt * abs_pairs[i, k, m], abs(sign) * half_dt * abs_pairs[i, k - 1, m]]
            residuals[k, m] = math.fsum(terms + [pairs[3, 0, m], -pairs[3, k, m]])
            scale[k, m] = math.fsum(abs_terms + [abs_pairs[3, 0, m], abs_pairs[3, k, m]])
    return residuals, scale


WEAK_RESIDUAL_RUNS = [
    dict(n=65, save_every=1),
    dict(n=129, save_every=5, t_end=6e-3, body=BodyForce(family="ramp", amplitude=0.1, rate=5.0)),
    dict(n=513, save_every=4, lam=-0.3, family="bump"),
]


class TestWeakResidual:
    # largest error of a series against the fsum pairing, in units of eps
    # times the absolute scale of its terms (fsum_weak_residual_series)
    ROUNDOFF_ULPS = 8.0

    def assert_within_roundoff(self, got, want, scale):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= self.ROUNDOFF_ULPS * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("fns_of", [closure_sine_modes], ids=["sines"])
    @pytest.mark.parametrize("kw", WEAK_RESIDUAL_RUNS)
    def test_series_and_frame_loop_within_roundoff_of_fsum_pairing(self, kw, fns_of):
        cfg = make_config(**kw)
        traj = Simulation(cfg).run().trajectory
        fns = fns_of(cfg.grid, cfg.t_end)
        want, scale = fsum_weak_residual_series(traj, cfg.material, fns)
        got = weak_residual_series_of(traj, cfg.material, cfg.t_end)
        assert got.shape == (len(traj.times), len(fns))
        assert np.all(got[0] == 0.0)
        self.assert_within_roundoff(got, want, scale)
        # the frame loop of trapezoids meets the same bound, so the two are
        # within twice it of each other
        self.assert_within_roundoff(frame_loop_weak_residual_series(traj, cfg.material, fns), want, scale)

    def test_zero_run_residual_zero(self):
        traj = zero_trajectory()
        res = weak_residual_of(traj, MAT)
        assert np.max(np.abs(res)) < 1e-12

    def test_one_frame_with_default_test_functions_raises(self):
        traj = diffusion_trajectory(steps=0)
        assert len(traj.times) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would fail here
            with pytest.raises(ValueError, match="at least two frames"):
                weak_residual_of(traj, MAT)

    def test_series_starts_at_zero(self, desk_config):
        result = Simulation(desk_config).run()
        series = weak_residual_series_of(result.trajectory, desk_config.material, desk_config.t_end)
        assert np.max(np.abs(series[0])) == 0.0

    def test_refinement_decreases_residual(self):
        base = make_config(n=33, kappa=1.0, dt=4e-4, t_end=0.02, save_every=2, amplitude=0.5)
        values = [row.weak_residual_max for row in run_study(halving_study(base, levels=2)).rows]
        assert values[1] < values[0]


FLOAT_FMT = "{:.17g}"


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
        result = Simulation(desk_config).run()
        write_run(tmp_path / "out", result)
        traj, cfg, diag_text = load_run(tmp_path / "out")
        rebuilt = build_report(traj, cfg)
        assert rebuilt.to_csv_text() == diag_text

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(4, 40),
        save_every=st.integers(1, 5),
        steps=st.integers(1, 12),
        path=st.sampled_from(["direct", "both-verify"]),
    )
    def test_recompute_from_disk_is_bit_exact_for_random_configs(self, n, save_every, steps, path):
        cfg = make_config(n=n, t_end=steps * 2e-4, save_every=save_every, path=path)
        with tempfile.TemporaryDirectory() as tmp:
            write_run(Path(tmp) / "out", Simulation(cfg).run())
            traj, loaded, diag_text = load_run(Path(tmp) / "out")
        assert build_report(traj, loaded).to_csv_text() == diag_text


class TestReportMemory:
    # the peak of one report's traced memory, in (frames, nodes) stacks
    PEAK_STACKS = 10.0

    def test_peak_of_a_long_report(self):
        # 201 frames of 129 nodes, a run that saves every step: each stack is
        # larger than the allocator's mmap threshold.  The monitors work in
        # place, so the report holds a few stacks at a time, S, u and S_x
        # among them, not a fresh stack per operation
        cfg = make_config(n=129, t_end=0.04, save_every=1, body=BodyForce("ramp", amplitude=0.2, rate=5.0))
        grid = cfg.grid
        rng = np.random.default_rng(0)
        times = np.linspace(0.0, cfg.t_end, 201)
        s = rng.uniform(-1.0, 1.0, size=(201, grid.n))
        u = rng.uniform(-1e-2, 1e-2, size=(201, grid.n))
        traj = Trajectory(
            times, [ScalarField(grid, row) for row in s], [ScalarField(grid, row) for row in u], np.arange(201)
        )
        # the per-grid caches of the two elasticity paths, filled before the count
        build_report(traj, cfg)
        tracemalloc.start()
        try:
            build_report(traj, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PEAK_STACKS * s.nbytes, peak / s.nbytes


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

    @pytest.mark.parametrize(
        "text, rejected",
        [
            (bench_config_text("kappa_study", 0, quick=True), 0),
            # the last member trips the guard part way
            ("study.kappas = 0.5 0.25 0.03125\nstudy.reference = 0\nreg.increment_guard = 0.05\n"
             "body.family = ramp\nbody.rate = 1e5\n", 1),
        ],
        ids=["kappa_study", "rejected_member"],
    )
    def test_rows_equal_their_members_reports(self, monkeypatch, text, rejected):
        # each completed member's row holds its report's values, bit for bit
        study = parse_config_text(text)
        members = []
        plain_run_members = studies.run_members

        def recording(study):
            members.extend(plain_run_members(study))
            return members

        monkeypatch.setattr(studies, "run_members", recording)
        result = run_study(study)
        completed = [(row, res) for row, res in zip(result.rows, members) if row.termination.status == "completed"]
        assert len(members) == len(result.rows) == len(study.kappas) == len(completed) + rejected
        for row, res in completed:
            for name in ("sup_energy", "weak_residual_max", "max_principle_margin"):
                assert same_bits(getattr(row, name), getattr(res.report, name)), name

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
        for value in (bad.d_kappa, bad.max_principle_margin, bad.sup_energy, bad.weak_residual_max):
            assert math.isnan(value)
        assert not result.strictly_decreasing
        for i in (0, 2):
            row, want = result.rows[i], plain.rows[i]
            assert row.termination.status == "completed"
            assert row.sup_energy == want.sup_energy
            assert row.weak_residual_max == want.weak_residual_max
            if bad.is_reference:
                assert math.isnan(row.d_kappa)
            else:
                assert row.d_kappa == want.d_kappa

    def test_study_csv_matches_members_run_one_by_one(self, tmp_path, monkeypatch):
        study = parse_config_text(bench_config_text("kappa_study", 0))
        write_study_csv(tmp_path / "lockstep.csv", run_study(study))

        def one_by_one(study):
            return [Simulation(study.member_config(i)).run() for i in range(len(study.kappas))]

        monkeypatch.setattr(studies, "run_members", one_by_one)
        write_study_csv(tmp_path / "serial.csv", run_study(study))
        assert (tmp_path / "lockstep.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()

    def test_each_member_is_stacked_once(self, monkeypatch):
        # S and u are stacked once for a member's report and once for its row,
        # and run_study takes S_x = d1(S) once per member
        study = parse_config_text(bench_config_text("kappa_study", 0, quick=True))
        calls = collections.Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(Trajectory, "s_matrix", counting("s_matrix", Trajectory.s_matrix))
        monkeypatch.setattr(Trajectory, "u_matrix", counting("u_matrix", Trajectory.u_matrix))
        monkeypatch.setattr(studies, "d1", counting("d1", studies.d1))
        result = run_study(study)
        members = len(study.kappas)
        assert members == 5 and all(r.termination.status == "completed" for r in result.rows)
        assert calls["s_matrix"] <= 2 * members and calls["u_matrix"] <= 2 * members
        assert calls["d1"] == members

    @pytest.mark.parametrize("refinement", [False, True], ids=["rejected_member", "refinement"])
    def test_distances_pair_only_members_of_one_grid_and_schedule(self, monkeypatch, refinement):
        # a member that stopped early has fewer frames and a refinement member
        # another grid: neither is paired with the reference
        study = parse_config_text(
            "study.kappas = 0.5 0.25 0.03125\nreg.increment_guard = 0.05\nbody.family = ramp\nbody.rate = 1e5\n"
            + ("study.h_factor = 2\n" if refinement else "study.reference = 0\n")
        )
        pairs = []
        plain_flux_distance = studies.flux_distance

        def recording(times, flux_a, flux_b, h):
            pairs.append((len(times), flux_a.shape, flux_b.shape))
            return plain_flux_distance(times, flux_a, flux_b, h)

        monkeypatch.setattr(studies, "flux_distance", recording)
        result = run_study(study)
        completed = [r.termination.status == "completed" for r in result.rows]
        assert completed == [True, True, False]
        assert [r.is_reference for r in result.rows] == [not refinement, False, False]
        assert not result.strictly_decreasing
        assert math.isnan(result.rows[2].d_kappa)
        if refinement:
            assert pairs == []
            assert all(math.isnan(r.d_kappa) for r in result.rows)
        else:
            assert len(pairs) == 2
            assert all(shape_a == shape_b == (k, study.base.grid.n) for k, shape_a, shape_b in pairs)
            assert result.rows[0].d_kappa == 0.0 and result.rows[1].d_kappa > 0.0

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
        result = run_study(study)
        assert [(r.kappa, r.h, r.dt) for r in result.rows] == [(0.5, 1.0 / 32, 4e-4), (0.25, 1.0 / 64, 2e-4)]
        assert not any(r.is_reference for r in result.rows) and not result.strictly_decreasing
        assert all(math.isnan(r.d_kappa) for r in result.rows)


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
