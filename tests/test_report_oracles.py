"""The one-pass report against the per-frame, per-monitor code it replaced.

``build_report`` stacks S and u once, takes S_x = d1(S) and the smoothed
modulus once and hands them to every monitor; its elasticity cross-check
evaluates the body force for a column of times and makes one FD solve and
one Green quadrature for all frames; its weak residual tabulates the five
sine modes directly.  The code it was written as is kept here as
references: a Green quadrature of one frame per call, a body force of one
time per call, the per-frame cross-check loop, the sine modes as closures
tabulated column by column, and monitors that each get stacks, S_x and
modulus of their own, so that a monitor writing into an input another one
reads changes the bytes.  The report must equal them byte for byte, the
stacked quadrature must equal its rows bit for bit, signed zeros included,
and a saved frame's FD residual must be the one of the right-hand side its
step solved against."""

import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from confsim import diagnostics, elasticity, simulator
from confsim.config import BodyForce
from confsim.diagnostics import (
    DiagnosticsReport,
    NonFiniteReport,
    _cumulative_time_trapz,
    _mixed_norm_series,
    _primitive_w14_series,
    _st_l43_series,
    build_report,
    energy_monitor,
    weak_residual_series,
)
from confsim.elasticity import (
    GreenKernel, _green_weights, elastic_rhs, fd_operator, fd_residual, solve_fd, solve_green,
)
from confsim.grid_field import Grid, ScalarField, Trajectory, d1
from confsim.order_parameter import driving_force, mollify, smoothed_abs, step_constants
from confsim.simulator import Simulation, march

from conftest import make_config
from test_step_oracles import same_bits


def reference_body_evaluate(body, t, grid):
    """Nodal body force at one time."""
    if body.family == "zero":
        return np.zeros(grid.n)
    if body.family == "constant":
        return np.full(grid.n, body.amplitude)
    if body.family == "poly":
        values = np.zeros(grid.n)
        for k, ck in enumerate(body.coeffs):
            values += ck * (grid.x - grid.a) ** k
        return values
    return np.full(grid.n, body.amplitude + body.rate * t)


def reference_solve_green(kernel, s_moll, b, params):
    """The Green quadrature of one frame, a 1-D prefix and suffix sum."""
    grid = s_moll.grid
    assert b.shape == (grid.n,) and s_moll.values.shape == (grid.n,)
    u1, u2, b_left, s_left, b_right, s_right, diag = _green_weights(grid)
    b_mu = b / params.mu
    s_lam = (params.lam / params.mu) * s_moll.values
    left = (b_left * b_mu - s_left * s_lam).cumsum()
    right = np.zeros(grid.n)
    right[:-1] = (b_right * b_mu - s_right * s_lam)[:0:-1].cumsum()[::-1]
    u = u2 * left
    u += u1 * right
    u += diag * s_lam
    u[0] = 0.0
    u[-1] = 0.0
    return u


def reference_cross_check_series(traj, config):
    """One body force per time and one Green quadrature per frame."""
    grid = traj.grid
    kernel = GreenKernel(grid.a, grid.d)
    b = np.array([reference_body_evaluate(config.body, float(t), grid) for t in traj.times])
    material = config.material
    rhs = elastic_rhs(d1(traj.s_matrix(), grid.h), b / material.mu, material.lam / material.mu)
    u_fd = solve_fd(rhs, fd_operator(grid))
    out = np.zeros(len(traj.times))
    for k, s in enumerate(traj.s_frames):
        u_green = reference_solve_green(kernel, s, b[k], config.material)
        out[k] = float(np.max(np.abs(u_fd[k] - u_green)))
    return out


class Mode(NamedTuple):
    """A separable test function phi(t, x) = time(t) * space(x) as closures.

    ``time`` and ``time_t`` (its derivative) take an array of times and
    ``space`` and ``space_x`` (its derivative) an array of nodes; each returns
    its values at those points, or a constant that stands for all of them.
    """

    time: Callable
    time_t: Callable
    space: Callable
    space_x: Callable


def closure_sine_modes(grid, t_end, count=5):
    """(1 - t/t_end) sin(m pi (x - a)/(d - a)) for m = 1 .. count, one closure per factor."""
    length = grid.d - grid.a

    def time(t):
        return 1.0 - t / t_end

    def time_t(t):
        return -1.0 / t_end

    modes = []
    for m in range(1, count + 1):
        km = m * math.pi / length

        def space(x, km=km, a=grid.a):
            return np.sin(km * (x - a))

        def space_x(x, km=km, a=grid.a):
            return km * np.cos(km * (x - a))

        modes.append(Mode(time, time_t, space, space_x))
    return modes


def tabulate(factors, points):
    """(points, M) table whose column m holds ``factors[m]`` at every point."""
    table = np.empty((len(points), len(factors)))
    for m, factor in enumerate(factors):
        table[:, m] = factor(points)
    return table


def reference_weak_residual_series(traj, material, modes):
    """The weak residual against the modes' tables, tabulated column by column from closures."""
    h, x, times = traj.grid.h, traj.grid.x, traj.times.copy()
    s, u = traj.s_matrix(), traj.u_matrix()
    s_x = d1(s, h)
    weights = np.full((len(x), 1), h)
    weights[0] = weights[-1] = 0.5 * h
    space = tabulate([m.space for m in modes], x) * weights
    space_x = tabulate([m.space_x for m in modes], x) * weights
    time = tabulate([m.time for m in modes], times)
    time_t = tabulate([m.time_t for m in modes], times)
    kinetic = driving_force(u, d1(u, h), s, s_x, step_constants(x, h, material)) * np.abs(s_x)
    s_space = s @ space
    a_cum = _cumulative_time_trapz(times, time_t * s_space)
    flux = 0.5 * s_x * np.abs(s_x)
    b_cum = _cumulative_time_trapz(times, time * (flux @ space_x))
    c_cum = _cumulative_time_trapz(times, time * (kinetic @ space))
    boundary = time * s_space
    return a_cum - material.c * material.nu * b_cum - c_cum + boundary[0] - boundary


def reference_build_report(traj, config):
    """Every monitor on inputs of its own: fresh stacks of the frames, S_x, modulus and times."""
    kappa = config.reg.kappa
    h = traj.grid.h

    def times():
        return traj.times.copy()

    def s():
        return traj.s_matrix()

    def s_x():
        return d1(traj.s_matrix(), h)

    def modulus():
        return smoothed_abs(s_x(), kappa)

    grad_norm_sq, dissipation = energy_monitor(times(), s(), s_x(), modulus(), h)
    modes = closure_sine_modes(traj.grid, config.t_end)
    report = DiagnosticsReport(
        times=times(),
        max_abs_s=np.max(np.abs(s()), axis=-1),
        grad_norm_sq=grad_norm_sq,
        dissipation=dissipation,
        st_l43=_st_l43_series(times(), s(), h),
        sx_l83_linf=_mixed_norm_series(times(), s_x(), h, 8.0 / 3.0, np.inf),
        flux_grad_l43=_mixed_norm_series(times(), d1(s_x() * np.abs(s_x()), h), h, 4.0 / 3.0, 4.0 / 3.0),
        primitive_w14_l43=_primitive_w14_series(times(), s_x(), h, kappa, modulus()),
        weak_residuals=reference_weak_residual_series(traj, config.material, modes),
        cross_check=reference_cross_check_series(traj, config),
    )
    report.validate()
    return report


def trajectory_of(grid, times, s, u):
    return Trajectory(
        times, [ScalarField(grid, row) for row in s], [ScalarField(grid, row) for row in u], np.arange(len(times))
    )


@st.composite
def bodies(draw):
    """A body force of each family, its parameters signed zeros included."""
    signed = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0]))
    return BodyForce(
        family=draw(st.sampled_from(["zero", "constant", "poly", "ramp"])),
        amplitude=draw(signed),
        coeffs=tuple(draw(st.lists(signed, min_size=1, max_size=4))),
        rate=draw(st.one_of(st.floats(-50.0, 50.0), st.sampled_from([0.0, -0.0]))),
    )


@st.composite
def report_cases(draw):
    """A trajectory of K frames on n nodes and the config its report is built under."""
    n = draw(st.sampled_from([4, 33, 129, 2049]))
    frames = draw(st.sampled_from([1, 2, 201]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dt = draw(st.sampled_from([1e-5, 2e-4, 1e-2]))
    # strictly increasing save times from 0, not all one step apart
    times = np.concatenate([[0.0], np.cumsum(dt * rng.uniform(0.5, 1.5, size=frames - 1))])
    amplitude = draw(st.floats(1e-3, 1.5))
    s, u = amplitude * rng.uniform(-1.0, 1.0, size=(2, frames, n))
    if draw(st.booleans()):
        # pinned ends, as a run saves them, of either sign
        s[..., 0] = u[..., 0] = 0.0
        s[..., -1] = u[..., -1] = -0.0
    config = make_config(
        n=n,
        t_end=float(times[-1]) if frames > 1 else dt,
        dt=dt,
        kappa=draw(st.floats(1e-3, 1.0)),
        lam=draw(st.floats(-1.0, 1.0)),
        body=draw(bodies()),
    )
    return trajectory_of(config.grid, times, s, u), config


class TestAgainstReferences:
    # no shrinking: a case is mostly an rng seed, and shrinking one of 201 frames of 2049 nodes
    # takes minutes
    @settings(max_examples=40, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(case=report_cases())
    def test_report_bytes(self, case):
        traj, config = case
        got = build_report(traj, config)
        want = reference_build_report(traj, config)
        assert got.to_csv_text() == want.to_csv_text()
        assert same_bits(got.cross_check, want.cross_check)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(1e-3, 10.0), length=st.floats(1e-3, 10.0), n=st.integers(4, 2049),
           frames=st.sampled_from([1, 2, 201]), span=st.floats(1e-5, 10.0), at_last_frame=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_sine_tables_equal_the_closure_basis(self, a, length, n, frames, span, at_last_frame, seed):
        # the weak residual of the direct tables against the closure basis, tabulated column by
        # column, on any grid and save times: equal bits mean equal tables
        grid = Grid(a, a + length, n)
        rng = np.random.default_rng(seed)
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, span, frames - 1))])
        t_end = float(times[-1]) if at_last_frame and frames > 1 else span * rng.uniform(1.0, 2.0)
        s, u = rng.uniform(-1.0, 1.0, size=(2, frames, n))
        material = make_config(lam=float(rng.uniform(-1.0, 1.0))).material
        got = weak_residual_series(times, s, u, d1(s, grid.h), grid, material, t_end)
        want = reference_weak_residual_series(
            trajectory_of(grid, times, s, u), material, closure_sine_modes(grid, t_end)
        )
        assert got.shape == (frames, diagnostics.MODES)
        assert same_bits(got, want)

    @settings(max_examples=60, deadline=None)
    @given(body=bodies(), n=st.sampled_from([4, 33, 129, 2049]), frames=st.sampled_from([1, 2, 201]),
           seed=st.integers(0, 2**32 - 1))
    def test_body_force_of_a_column_of_times(self, body, n, frames, seed):
        grid = Grid(1.0, 2.0, n)
        times = np.random.default_rng(seed).uniform(0.0, 3.0, frames)
        times[0] = 0.0
        got = body.evaluate(times[:, None], grid)
        assert got.shape == (frames, n)
        for row, t in zip(got, times):
            assert same_bits(row, reference_body_evaluate(body, float(t), grid))
            assert same_bits(body.evaluate(float(t), grid), row)
        if frames > 1:
            # a flat array of times would lay them along x; it is refused, not misread
            with pytest.raises(ValueError):
                body.evaluate(times, grid)
            with pytest.raises(ValueError):
                body.evaluate(times.reshape(1, frames), grid)

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([4, 33, 129, 2049]), frames=st.sampled_from([1, 2, 201]),
           shared_b=st.booleans(), zeros=st.sampled_from([None, 0.0, -0.0]), seed=st.integers(0, 2**32 - 1))
    def test_stacked_green_equals_its_rows(self, n, frames, shared_b, zeros, seed):
        grid = Grid(1.0, 2.0, n)
        rng = np.random.default_rng(seed)
        s = rng.uniform(-1.0, 1.0, size=(frames, n))
        b = rng.uniform(-1.0, 1.0, size=(n,) if shared_b else (frames, n))
        if zeros is not None:
            # a frame of signed zeros under a body force of signed zeros
            s[0] = zeros
            (b if shared_b else b[0])[...] = zeros
        material = make_config(lam=float(rng.uniform(-1.0, 1.0))).material
        kernel = GreenKernel(grid.a, grid.d)
        b_mu = b / material.mu
        lam_mu = material.lam / material.mu
        b_mu_before = b_mu.copy()
        got = solve_green(kernel, ScalarField(grid, s), b_mu, lam_mu)
        assert got.shape == (frames, n)
        assert same_bits(b_mu, b_mu_before)  # the caller's b/mu is only read
        rows_b = [b] * frames if shared_b else b
        for k, (row, b_k) in enumerate(zip(s, rows_b)):
            want = reference_solve_green(kernel, ScalarField(grid, row), b_k, material)
            assert same_bits(got[k], want)
            assert same_bits(solve_green(kernel, ScalarField(grid, row), b_k / material.mu, lam_mu), want)

    def test_green_rejects_a_body_force_off_the_grid(self):
        grid = Grid(1.0, 2.0, 33)
        for b_mu in (np.zeros(32), np.zeros((2, 32)), np.float64(0.0)):
            with pytest.raises(ValueError, match="expected 33 body-force values"):
                solve_green(GreenKernel(grid.a, grid.d), ScalarField(grid, np.zeros((2, 33))), b_mu, 0.1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("frames", [1, 2, 201])
    def test_a_non_finite_frame_still_raises(self, bad, frames):
        config = make_config(n=33, t_end=1e-2, dt=1e-4, body=BodyForce(family="ramp", amplitude=0.1, rate=2.0))
        rng = np.random.default_rng(frames)
        times = np.linspace(0.0, config.t_end, frames) if frames > 1 else np.zeros(1)
        s, u = rng.uniform(-0.5, 0.5, size=(2, frames, config.grid.n))
        s[frames // 2, 7] = bad
        traj = trajectory_of(config.grid, times, s, u)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteReport, match="non-finite"):
                build_report(traj, config)
            with pytest.raises(NonFiniteReport, match="non-finite"):
                reference_build_report(traj, config)


def counting(monkeypatch, owners, name):
    """Count the calls of ``name`` wherever one of ``owners`` binds it; returns the call list."""
    calls = []
    for owner in owners:
        if not hasattr(owner, name):
            continue
        plain = getattr(owner, name)

        def counted(*args, plain=plain, **kwargs):
            calls.append(args)
            return plain(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestOnePass:
    @pytest.mark.parametrize("path", ["direct", "both-verify"])
    def test_one_green_call_and_one_stack_per_report(self, monkeypatch, path):
        result = simulator.Simulation(make_config(path=path, t_end=4e-3, save_every=2)).run()
        frames = len(result.trajectory.times)
        assert frames == 11
        green = counting(monkeypatch, [diagnostics, elasticity], "solve_green")
        s_stacks = counting(monkeypatch, [Trajectory], "s_matrix")
        u_stacks = counting(monkeypatch, [Trajectory], "u_matrix")
        d1_calls = counting(monkeypatch, [diagnostics], "d1")
        rebuilt = build_report(result.trajectory, result.config)
        assert rebuilt.to_csv_text() == result.report.to_csv_text()
        assert len(green) == 1 and green[0][1].values.shape == (frames, result.config.grid.n)
        assert len(s_stacks) == len(u_stacks) == 1
        s = result.trajectory.s_matrix()
        assert sum(np.array_equal(args[0], s) for args in d1_calls) == 1

    def test_one_body_force_evaluation_per_report(self, monkeypatch):
        cfg = make_config(t_end=4e-3, save_every=1, body=BodyForce(family="ramp", amplitude=0.1, rate=3.0))
        result = simulator.Simulation(cfg).run()
        times = []
        plain = BodyForce.evaluate

        def recording(self, t, grid):
            times.append(t)
            return plain(self, t, grid)

        monkeypatch.setattr(BodyForce, "evaluate", recording)
        assert build_report(result.trajectory, cfg).to_csv_text() == result.report.to_csv_text()
        assert len(times) == 1 and np.array_equal(times[0], result.trajectory.times[:, None])


def saving_every_step(path="direct", kappa=0.25, amplitude=0.8):
    body = BodyForce(family="ramp", amplitude=0.2, rate=4.0)
    return make_config(path=path, t_end=3e-3, save_every=1, kappa=kappa, kappa_m=1e-3, amplitude=amplitude, body=body)


class TestRecordedResidual:
    """A saved frame's FD residual reuses the right-hand side its step's solve built."""

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("path", ["direct", "both-verify"])
    def test_one_rhs_per_step(self, monkeypatch, members, path):
        configs = [saving_every_step(path, kappa=k) for k in (0.25, 0.5, 0.125)[:members]]
        sims = [Simulation(cfg) for cfg in configs]
        rhs_calls = counting(monkeypatch, [elasticity, simulator], "elastic_rhs")
        march(sims)
        assert configs[0].n_steps == 15
        assert all(len(sim.times) == 16 for sim in sims)
        # one for the t = 0 solve and one per step, for the whole batch
        assert len(rhs_calls) == 16

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("path", ["direct", "both-verify"])
    def test_residual_equals_fd_residual_per_frame(self, members, path):
        configs = [saving_every_step(path, kappa=k, amplitude=a) for k, a in ((0.25, 0.8), (0.5, 0.6), (0.125, 0.7))]
        configs = configs[:members]
        sims = [Simulation(cfg) for cfg in configs]
        grid, material, body = configs[0].grid, configs[0].material, configs[0].body
        residuals = [[] for _ in sims]
        for step in range(configs[0].n_steps + 1):
            march(sims, until_step=step)
            for sim, found in zip(sims, residuals):
                b_mu = body.evaluate(sim.time, grid) / material.mu
                rhs = elastic_rhs(d1(mollify(sim.mollifier, sim.time), grid.h), b_mu, material.lam / material.mu)
                found.append(fd_residual(sim.u, rhs, grid))
        for sim, found in zip(sims, residuals):
            result = sim.run()
            assert len(found) == len(result.trajectory.times) == 16
            assert result.elasticity_residual_max == max(found)
            assert result.report.to_csv_text() == reference_build_report(result.trajectory, sim.config).to_csv_text()
