import math
import tracemalloc
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from confsim import config
from confsim.grid_field import Grid, d1
from confsim.material import MaterialParams, double_well
from confsim.order_parameter import (
    BLOCK,
    MAX_MOLLIFIER_FLOATS,
    InsufficientHistory,
    MollifierState,
    RegularizationParams,
    StepRejected,
    driving_force,
    mollifier_floats,
    mollify,
    semi_implicit_step,
    smoothed_abs,
    smoothed_abs_primitive,
    step_constants,
    window_length,
)

from conftest import make_config

GRID = Grid(1.0, 2.0, 101)


def material(**kw):
    base = dict(c=1.0, nu=0.1, mu=2.0, lam=0.2, e=0.06, well_weight=1.0)
    base.update(kw)
    return MaterialParams(**base)


def constants(mat):
    return step_constants(GRID.x, GRID.h, mat)


def take_step(s, force, mat, dt, kappa, guard, s_x=None):
    """``semi_implicit_step`` on GRID, with s_x = d1(s) unless it is given."""
    return semi_implicit_step(s, force, dt, kappa, guard, d1(s, GRID.h) if s_x is None else s_x, constants(mat))


def bump(grid=GRID, amp=0.5):
    xi = (grid.x - grid.a) / (grid.d - grid.a)
    v = amp * np.sin(math.pi * xi)
    v[0] = v[-1] = 0.0
    return v


def explicit_euler(s, force, mat, kappa, dt, h=GRID.h):
    """Independent forward-Euler oracle for a single step."""
    s_x = d1(s, h)
    mod = np.sqrt(kappa**2 + s_x**2)
    coef = mat.c * mat.nu * mod
    lap = np.zeros_like(s)
    lap[1:-1] = (s[2:] - 2 * s[1:-1] + s[:-2]) / h**2
    new = s + dt * (coef * lap - force * (mod - kappa))
    new[0] = new[-1] = 0.0
    return new


class TestSmoothedAbs:
    def test_known_values(self):
        assert smoothed_abs(0.0, 1.0) == 1.0
        assert smoothed_abs(3.0, 4.0) == 5.0
        assert smoothed_abs(-2.5, 0.0) == 2.5

    @given(p=st.floats(-100.0, 100.0), kappa=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, p, kappa):
        m = smoothed_abs(p, kappa)
        assert m >= max(abs(p), kappa) - 1e-15
        assert abs(m - abs(p)) <= kappa + 1e-15


class TestPrimitive:
    def test_zero_argument(self):
        for kappa in (1e-3, 0.2, 1.0):
            assert smoothed_abs_primitive(0.0, kappa) == 0.0

    def test_unsmoothed_limit(self):
        assert smoothed_abs_primitive(2.0, 0.0) == 2.0
        assert smoothed_abs_primitive(-2.0, 0.0) == -2.0

    def test_closed_form_value(self):
        # int_0^1 sqrt(1 + y^2) dy = (sqrt(2) + asinh(1)) / 2
        expected = 0.5 * (math.sqrt(2.0) + math.asinh(1.0))
        assert smoothed_abs_primitive(1.0, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.1477935747, abs=1e-9)

    def test_matches_adaptive_quadrature(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = rng.uniform(-5.0, 5.0)
            kappa = rng.uniform(1e-3, 1.0)
            target, _ = quad(lambda y: math.hypot(y, kappa), 0.0, p, epsabs=1e-13, epsrel=1e-13)
            assert abs(smoothed_abs_primitive(p, kappa) - target) < 1e-10

    @given(p=st.floats(-50.0, 50.0), kappa=st.floats(1e-3, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_odd(self, p, kappa):
        a = smoothed_abs_primitive(p, kappa)
        b = smoothed_abs_primitive(-p, kappa)
        assert a == pytest.approx(-b, rel=1e-12, abs=1e-13)

    def test_derivative_is_smoothed_abs(self):
        rng = np.random.default_rng(11)
        h = 1e-5
        for _ in range(100):
            p = rng.uniform(-5.0, 5.0)
            kappa = rng.uniform(0.05, 1.0)
            fd = (
                smoothed_abs_primitive(p + h, kappa) - smoothed_abs_primitive(p - h, kappa)
            ) / (2 * h)
            assert abs(fd - smoothed_abs(p, kappa)) < 1e-7


class TestMollifier:
    def test_weights_normalized(self):
        state = MollifierState(kappa_m=0.25, dt=2e-4)
        assert np.all(state.weights >= 0.0)
        assert np.sum(state.weights) == pytest.approx(1.0, abs=1e-15)

    def test_constant_history_reproduced(self):
        state = MollifierState(kappa_m=0.01, dt=1e-3)
        f = bump()
        for k in range(state.window_size + 3):
            state.push(f, k * 1e-3)
        out = mollify(state, state.time)
        assert np.max(np.abs(out - f)) < 1e-14

    def test_delta_limit(self):
        # window shorter than the step: single weight on the newest frame
        state = MollifierState(kappa_m=1e-6, dt=1e-3)
        assert state.window_size == 1
        state.push(bump(amp=0.1), 0.0)
        state.push(bump(amp=0.9), 1e-3)
        out = mollify(state, 1e-3)
        assert np.array_equal(out, bump(amp=0.9))

    def test_linear_in_time_shifts_by_first_moment(self):
        dt = 1e-3
        state = MollifierState(kappa_m=0.02, dt=dt)
        ones = np.ones(GRID.n)
        times = [k * dt for k in range(state.window_size + 5)]
        for t in times:
            state.push(t * ones, t)
        t_now = times[-1]
        out = mollify(state, t_now)
        expected = t_now - state.first_moment
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_early_history_padded_with_initial_frame(self):
        state = MollifierState(kappa_m=0.02, dt=1e-3)
        f0 = bump(amp=0.3)
        state.push(f0, 0.0)
        out = mollify(state, 0.0)
        assert np.max(np.abs(out - f0)) < 1e-15

    def test_empty_history_raises(self):
        state = MollifierState(kappa_m=0.02, dt=1e-3)
        with pytest.raises(InsufficientHistory):
            mollify(state, 0.0)


class DequeMollifier:
    """Reference: a deque of frame copies, stacked on every call."""

    def __init__(self, weights):
        self.weights = weights
        self.frames = deque(maxlen=len(weights))

    def push(self, values):
        self.frames.appendleft(values.copy())

    def mollify(self):
        k = len(self.frames)
        w = self.weights
        stacked = np.stack(self.frames)
        if k >= len(w):
            return w @ stacked
        values = w[:k] @ stacked
        values += (1.0 - w[:k].sum()) * stacked[-1]
        return values


def fsum_mollify(weights, frames):
    """A full window's average with every product rounded once and the sum
    rounded once (``math.fsum``), and the sum of the products' magnitudes."""
    products = weights[:, None] * frames
    return np.array([math.fsum(col) for col in products.T]), np.abs(products).sum(axis=0)


def dot_error_bound(m: int) -> float:
    """gamma_{m+3} = (m + 3) u / (1 - (m + 3) u), u = 2^-53.

    Any order of summing m products differs from the exact sum by at most
    gamma_m times the sum of their magnitudes, and the blocked form (two
    partial sums and one addition) by at most gamma_{m+1}; ``fsum_mollify``
    is within 2u of the exact sum, so either form is within gamma_{m+3} of it.
    """
    u = 2.0**-53
    return (m + 3) * u / (1.0 - (m + 3) * u)


class TestMollifierRingBuffer:
    @pytest.mark.parametrize("m", [1, 2, 37, BLOCK, 100])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_deque_reference_bit_for_bit(self, m, seed):
        dt = 1e-3
        state = MollifierState(kappa_m=m * dt, dt=dt)
        assert state.window_size == m
        ref = DequeMollifier(state.weights)
        rng = np.random.default_rng(seed)
        # below, at and well past the window: the ring wraps several times,
        # and a window longer than BLOCK stays full for several blocks
        for k in range(1, 4 * m + 6):
            values = rng.normal(size=GRID.n)
            state.push(values, k * dt)
            ref.push(values)
            assert len(state.frames) == min(k, m)
            assert np.array_equal(state.frames, np.stack(ref.frames))
            got = mollify(state, k * dt)
            if k < m:
                # the filling window is the old expression, bit for bit
                assert np.array_equal(got, ref.mollify())
                continue
            # a full window sums in blocks; it and the one-product form
            # (the reference) both meet the roundoff bound of a dot product
            exact, magnitude = fsum_mollify(state.weights, state.frames)
            bound = dot_error_bound(m) * magnitude
            assert np.all(np.abs(got - exact) <= bound)
            assert np.all(np.abs(ref.mollify() - exact) <= bound)

    def test_frames_view_is_read_only(self):
        state = MollifierState(kappa_m=0.003, dt=1e-3)
        state.push(bump(), 0.0)
        with pytest.raises(ValueError):
            state.frames[0, 1] = 1.0

    def test_max_frames_caps_the_buffer(self):
        dt = 1e-3
        state = MollifierState(kappa_m=37 * dt, dt=dt, max_frames=5)
        ref = DequeMollifier(state.weights)
        rng = np.random.default_rng(5)
        for k in range(1, 6):
            values = rng.normal(size=GRID.n)
            state.push(values, k * dt)
            ref.push(values)
            assert np.array_equal(mollify(state, k * dt), ref.mollify())
        with pytest.raises(ValueError, match="at most 5 frames"):
            state.push(bump(), 6 * dt)

    @pytest.mark.parametrize("max_frames, rows", [(5, 5), (36, 36), (37, 74), (90, 74), (None, 74)])
    def test_only_a_ring_that_can_wrap_is_mirrored(self, max_frames, rows):
        # a ring of fewer rows than the 37-step window raises before it wraps, so it holds each frame once
        dt = 1e-3
        state = MollifierState(kappa_m=37 * dt, dt=dt, max_frames=max_frames)
        ref = DequeMollifier(state.weights)
        rng = np.random.default_rng(rows)
        for k in range(min(max_frames or 90, 90)):
            values = rng.normal(size=GRID.n)
            state.push(values, k * dt)
            ref.push(values)
            assert np.array_equal(state.frames, np.stack(ref.frames))
        assert state._buf.shape == (rows, GRID.n)

    @pytest.mark.parametrize("pushes", [3, 7, 20])
    def test_restore_continues_bit_for_bit(self, pushes):
        dt = 1e-3
        rng = np.random.default_rng(pushes)
        history = [rng.normal(size=GRID.n) for _ in range(pushes + 10)]
        whole = MollifierState(kappa_m=7 * dt, dt=dt)
        for k, values in enumerate(history[:pushes]):
            whole.push(values, k * dt)
        assert len(whole.frames) == min(pushes, 7)
        restored = MollifierState(kappa_m=7 * dt, dt=dt)
        restored.restore(whole.frames, (pushes - 1) * dt, pushes)
        for k, values in enumerate(history[pushes:], start=pushes):
            for state in (whole, restored):
                state.push(values, k * dt)
            assert np.array_equal(mollify(restored, k * dt), mollify(whole, k * dt))

    # m = 100: the window fills at frame 99, inside the block of frames 64-127
    @pytest.mark.parametrize("pushes", [100, 101, 128, 129, 150, 191, 192, 300])
    def test_restore_inside_a_block_is_bit_identical(self, pushes):
        # the restored state forms the block's products from its window, with
        # zero rows for the frames that left since the block began
        dt = 1e-3
        rng = np.random.default_rng(pushes)
        history = rng.normal(size=(pushes + 2 * BLOCK + 5, GRID.n))
        whole = MollifierState(kappa_m=100 * dt, dt=dt)
        for k, values in enumerate(history[:pushes]):
            whole.push(values, k * dt)
            mollify(whole, k * dt)
        restored = MollifierState(kappa_m=100 * dt, dt=dt)
        restored.restore(whole.frames, (pushes - 1) * dt, pushes)
        assert np.array_equal(mollify(restored, (pushes - 1) * dt), mollify(whole, (pushes - 1) * dt))
        for k, values in enumerate(history[pushes:], start=pushes):
            for state in (whole, restored):
                state.push(values, k * dt)
            assert np.array_equal(mollify(restored, k * dt), mollify(whole, k * dt))

    def test_block_weights_built_on_the_first_full_window(self):
        dt = 1e-3
        state = MollifierState(kappa_m=100 * dt, dt=dt)
        for k in range(100):
            state.push(bump(), k * dt)
            mollify(state, k * dt)
            assert (state._block_weights is None) == (k < 99)
        w = state.weights
        assert state._block_weights.shape == (BLOCK, 100)
        assert np.array_equal(state._block_weights, [np.concatenate([w[j:], np.zeros(j)]) for j in range(BLOCK)])

    def test_first_full_window_call_peak(self):
        # m = 4000, n = 33: the window fills at step 31 of its block, so the call builds W, (L, m), from
        # the zero-padded weights, (m + L,), and forms the block's products, (L, n), from a zero-padded
        # window, (m, n); an index array for W would add L*m more
        m, n, dt = 4000, 33, 1e-3
        state = MollifierState(kappa_m=m * dt, dt=dt)
        for k in range(m):
            state.push(np.ones(n), k * dt)
        tracemalloc.start()
        try:
            mollify(state, (m - 1) * dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (BLOCK * m + (m + BLOCK) * (n + 1)) + 2**16


class TestStepCeiling:
    def test_window_beyond_ceiling_rejected(self):
        with pytest.raises(ValueError, match="reg.kappa_m / reg.dt"):
            RegularizationParams(kappa=0.25, dt=1e-300)
        with pytest.raises(ValueError, match="exceeds the ceiling"):
            MollifierState(kappa_m=1.0, dt=1e-300)


class TestMollifierMemory:
    """A config whose mollifier needs more than ``MAX_MOLLIFIER_FLOATS`` is refused before a run builds it."""

    @pytest.mark.parametrize(
        "kappa_m, t_end", [(0.1, 0.05), (0.1, 0.3), (0.02, 0.3)], ids=["filling", "fills", "fills_short_window"]
    )
    def test_ceiling_at_its_boundary(self, monkeypatch, kappa_m, t_end):
        cfg = make_config(n=33, dt=1e-3, t_end=t_end, kappa_m=kappa_m)
        floats = mollifier_floats(window_length(kappa_m, 1e-3), cfg.n_steps + 1, 33)
        monkeypatch.setattr(config, "MAX_MOLLIFIER_FLOATS", floats)
        replace(cfg)
        monkeypatch.setattr(config, "MAX_MOLLIFIER_FLOATS", floats - 1)
        with pytest.raises(config.ConfigInvalid, match=r"reg\.kappa_m / reg\.dt = .* exceeds the ceiling"):
            replace(cfg)

    @pytest.mark.parametrize(
        "kappa_m, t_end, part, offset, advice",
        [
            # a window of m = 100 steps that fills in a 301-frame run: about 3mn floats
            (0.1, 0.3, "floats", -1, "raise reg.dt or lower reg.kappa_m or grid.n"),
            (0.1, 0.3, "weights", 0, "raise reg.dt or lower reg.kappa_m or grid.n"),
            (0.1, 0.3, "weights", -1, "raise reg.dt or lower reg.kappa_m"),
            # one that does not fill in 51 frames: 3m = 300 weights and a ring of 51 x 33 floats
            (0.1, 0.05, "floats", -1, "raise reg.dt or lower reg.kappa_m or run.t_end or grid.n"),
            (0.1, 0.05, "ring", 0, "raise reg.dt or lower reg.kappa_m or run.t_end or grid.n"),
            (0.1, 0.05, "ring", -1, "raise reg.dt or lower run.t_end or grid.n"),
            # nor in 3 frames, where the weights are the larger part
            (0.1, 0.002, "weights", 0, "raise reg.dt or lower reg.kappa_m or run.t_end or grid.n"),
            (0.1, 0.002, "weights", -1, "raise reg.dt or lower reg.kappa_m"),
            (0.1, 0.002, "ring", -1, "raise reg.dt"),
        ],
    )
    def test_message_names_the_keys_that_lower_the_estimate(self, monkeypatch, kappa_m, t_end, part, offset, advice):
        cfg = make_config(n=33, dt=1e-3, t_end=t_end, kappa_m=kappa_m)
        m, frames = window_length(kappa_m, 1e-3), cfg.n_steps + 1
        floats, weights = mollifier_floats(m, frames, 33), mollifier_floats(m, frames, 0)
        # the ceiling at the whole estimate, at its weights (3m, and the block weights of a full
        # window) or at the rest, the floats of the nodes
        parts = {"floats": floats, "weights": weights, "ring": floats - weights}
        monkeypatch.setattr(config, "MAX_MOLLIFIER_FLOATS", parts[part] + offset)
        with pytest.raises(config.ConfigInvalid, match=r"reg\.kappa_m / reg\.dt = .* exceeds the ceiling") as err:
            replace(cfg)
        message = str(err.value)
        assert message.split("; ")[-1] == advice
        assert ("does not fill" in message) == (frames < m)

    def test_estimate_of_the_probe_exceeds_the_ceiling(self):
        # a one-step run on a window of 2.5e8 steps: its weights alone are 2 GB
        m = window_length(0.25, 1e-9)
        assert m == 250_000_000 and mollifier_floats(m, 2, 65) == 3 * m + 2 * 65 > MAX_MOLLIFIER_FLOATS

    def test_estimate_once_the_window_fills(self):
        # the block weights, L*m floats, a block's zero-padded window and its products; and the
        # ring mirrored, since it can wrap, where one that cannot is held once
        m, n = 100, 129
        assert mollifier_floats(m, m - 1, n) == 3 * m + (m - 1) * n
        assert mollifier_floats(m, m, n) == 3 * m + 2 * m * n + BLOCK * m + (m + BLOCK) * n

    @pytest.mark.parametrize(
        "m, frames, n",
        # the last two are dominated by the weights and by the block weights
        [(100, 40, 129), (100, 230, 129), (20, 90, 129), (1, 5, 129), (100_000, 3, 129), (1000, 1100, 4)],
    )
    def test_estimate_bounds_the_traced_peak(self, m, frames, n):
        # a run's pushes and calls: the window fills mid-block at frames >= m, and blocks start after
        dt = 1e-3
        row = np.ones(n)
        tracemalloc.start()
        try:
            state = MollifierState(kappa_m=m * dt, dt=dt, max_frames=frames)
            for k in range(frames):
                state.push(row, k * dt)
                mollify(state, k * dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.window_size == m
        # plus 64 KiB for Python objects, array headers and numpy's own small buffers
        assert peak <= 8 * mollifier_floats(m, frames, n) + 2**16


class TestDrivingForce:
    def test_rest_state(self):
        z = np.zeros(GRID.n)
        out = driving_force(z, z, z, z, constants(material()))
        assert np.all(out == 0.0)

    def test_half_state_reduces_to_misfit_term(self):
        mat = material(lam=0.0, nu=1e-12, e=0.5)
        # nu must stay positive; kill the gradient correction via s_x = 0
        z = np.zeros(GRID.n)
        half = np.full(GRID.n, 0.5)
        out = driving_force(z, z, half, z, constants(mat))
        assert np.max(np.abs(out - mat.c * mat.e * 0.5)) < 1e-14

    def test_matches_pointwise_formula(self):
        rng = np.random.default_rng(12)
        mat = material()
        u, u_x, s, s_x = rng.normal(size=(4, GRID.n))
        out = driving_force(u, u_x, s, s_x, constants(mat))
        well_prime = 2.0 * mat.well_weight * s * (1 - s) * (1 - 2 * s)
        expected = mat.c * (-mat.lam * (u_x + 2 * u / GRID.x) + mat.e * s + well_prime)
        expected -= (2 * mat.c * mat.nu / GRID.x) * s_x
        assert np.max(np.abs(out - expected)) < 1e-14

    def test_equals_the_double_well_derivative_bit_for_bit(self):
        rng = np.random.default_rng(16)
        mat = material(well_weight=1.7)
        u, u_x, s, s_x = rng.normal(size=(4, GRID.n))
        _, well_prime = double_well(s, mat.well_weight)
        expected = mat.c * (-mat.lam * (u_x + 2.0 * u / GRID.x) + mat.e * s + well_prime)
        expected = expected - (2.0 * mat.c * mat.nu / GRID.x) * s_x
        assert np.array_equal(driving_force(u, u_x, s, s_x, constants(mat)), expected)

    def test_stack_matches_rows_bit_for_bit(self):
        rng = np.random.default_rng(14)
        mat = material()
        u, s = rng.normal(size=(2, 6, GRID.n))
        out = driving_force(u, d1(u, GRID.h), s, d1(s, GRID.h), constants(mat))
        assert out.shape == (6, GRID.n)
        for k in range(6):
            row = driving_force(u[k], d1(u[k], GRID.h), s[k], d1(s[k], GRID.h), constants(mat))
            assert np.array_equal(out[k], row)


class TestSemiImplicitStep:
    def test_rest_state_is_fixed_point(self):
        z = np.zeros(GRID.n)
        out = take_step(z, z, material(), 1e-3, 0.25, 1.0)
        assert np.all(out == 0.0)

    def test_maximum_principle_with_zero_force(self):
        s = bump(amp=0.7)
        mat = material()
        zero = np.zeros(GRID.n)
        out = take_step(s, zero, mat, 5e-4, 0.25, 1.0)
        assert np.max(np.abs(out)) <= np.max(np.abs(s)) + 1e-12
        # oracle: many tiny explicit steps land near the implicit result
        oracle = s
        for _ in range(100):
            oracle = explicit_euler(oracle, zero, mat, 0.25, 5e-6)
        assert np.max(np.abs(oracle)) <= np.max(np.abs(s)) + 1e-12
        assert np.max(np.abs(out - oracle)) < 5e-4 * 0.1

    def test_consistent_with_forward_euler(self):
        s = bump(amp=0.6)
        mat = material()
        force = np.cos(2 * GRID.x)
        diffs = []
        for dt in (1e-6, 5e-7):
            implicit = take_step(s, force, mat, dt, 0.25, 1.0)
            explicit = explicit_euler(s, force, mat, 0.25, dt)
            diffs.append(np.max(np.abs(implicit - explicit)))
        assert diffs[0] < 1e-8
        assert diffs[0] / diffs[1] == pytest.approx(4.0, abs=0.8)

    def test_boundaries_pinned_exactly(self):
        rng = np.random.default_rng(13)
        s = bump(amp=0.5)
        force = rng.normal(size=GRID.n)
        out = take_step(s, force, material(), 1e-4, 0.1, 1.0)
        assert out[0] == 0.0
        assert out[-1] == 0.0

    def test_unconditional_stability_fully_implicit(self):
        s = bump(amp=0.9)
        mat = material()
        for dt in (1e-3, 1e-1, 10.0):
            out = take_step(s, np.zeros(GRID.n), mat, dt, 0.25, 1e9)
            assert np.max(np.abs(out)) <= np.max(np.abs(s)) + 1e-12

    def test_guard_trips(self):
        s = bump(amp=0.9)
        force = np.full(GRID.n, -50.0)
        with pytest.raises(StepRejected) as err:
            take_step(s, force, material(), 1.0, 0.25, 0.5)
        assert err.value.increment > 0.5

    def test_batch_matches_rows_bit_for_bit(self):
        rng = np.random.default_rng(15)
        kappas = np.array([[0.5], [0.125], [0.03125]])
        s = np.stack([bump(amp=a) for a in (0.9, 0.5, 0.2)])
        force = rng.normal(size=s.shape)
        s_x = d1(s, GRID.h)
        out = take_step(s, force, material(), 1e-4, kappas, 1.0, s_x)
        for k, kappa in enumerate(kappas[:, 0]):
            row = take_step(s[k], force[k], material(), 1e-4, kappa, 1.0)
            assert np.array_equal(out[k], row)

    @pytest.mark.parametrize("where", ["force", "s"])
    def test_non_finite_row_stays_apart(self, where):
        # 0 * inf = nan would carry row 0's overflow across the shared solve
        s = np.stack([bump(amp=0.6), bump(amp=0.4)])
        force = np.ones_like(s)
        {"force": force, "s": s}[where][0, 10] = np.inf
        mat = material()
        with np.errstate(all="ignore"):
            with pytest.raises(StepRejected) as alone:
                take_step(s[0], force[0], mat, 1e-4, 0.25, 1.0)
            row1 = take_step(s[1], force[1], mat, 1e-4, 0.125, 1.0)
            with pytest.raises(StepRejected) as batch:
                take_step(s, force, mat, 1e-4, np.array([[0.25], [0.125]]), 1.0)
        assert batch.value.rejected.tolist() == [True, False]
        assert np.array_equal(batch.value.increment, alone.value.increment, equal_nan=True)
        assert np.array_equal(batch.value.new[1], row1)

    def test_batch_rejects_only_the_rows_over_the_guard(self):
        s = np.stack([bump(amp=0.9), bump(amp=0.9)])
        force = np.stack([np.full(GRID.n, -50.0), np.zeros(GRID.n)])
        step = (1.0, 0.25, 0.5)  # dt, kappa, guard
        with pytest.raises(StepRejected) as err:
            take_step(s, force, material(), *step)
        assert err.value.rejected.tolist() == [True, False]
        assert err.value.increment > 0.5
        assert np.array_equal(err.value.new[1], take_step(s[1], force[1], material(), *step))

    def test_param_invariants(self):
        with pytest.raises(ValueError, match="kappa must lie in"):
            RegularizationParams(kappa=1.5, dt=1e-3)
        with pytest.raises(ValueError, match="kappa must lie in"):
            RegularizationParams(kappa=0.0, dt=1e-3)
        with pytest.raises(ValueError, match="dt must be positive"):
            RegularizationParams(kappa=0.5, dt=0.0)
        reg = RegularizationParams(kappa=0.5, dt=1e-3)
        assert reg.kappa_m == 0.5
