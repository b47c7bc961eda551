import functools
import json
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from confsim.config import BodyForce, InitialData, StudyConfig, config_digest, parse_config_text
from confsim.diagnostics import NonFiniteReport
from confsim.simulator import (
    SNAPSHOT_VERSION,
    ChecksumMismatch,
    Simulation,
    VersionMismatch,
    load_run,
    load_snapshot,
    march,
    save_snapshot,
    write_run,
)
from confsim import elasticity, simulator
from confsim.elasticity import GreenKernel, elastic_rhs, fd_operator, fd_residual, solve_fd, solve_green
from confsim.grid_field import FieldFileError, ScalarField, Trajectory, d1
from confsim.order_parameter import BLOCK, mollify
from confsim.studies import run_study

from conftest import edit_fields, make_config


def flip_byte_before(path, member):
    """Flip one bit of the byte before ``member``'s entry in the archive at ``path``: the last data byte of the
    member written before it."""
    with zipfile.ZipFile(path) as archive:
        offset = archive.getinfo(member).header_offset - 1
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def with_members(**members):
    """A damage that writes the archive at its path again with ``members`` in place of its own."""
    return lambda path: edit_fields(path, lambda m: m.update(members))


class TestRestState:
    def test_everything_stays_zero(self):
        cfg = make_config(amplitude=0.0)
        result = Simulation(cfg).run()
        assert result.termination.status == "completed"
        assert np.all(result.trajectory.s_matrix() == 0.0)
        assert np.all(result.trajectory.u_matrix() == 0.0)


class TestDecoupling:
    def test_lambda_zero_makes_u_depend_on_body_only(self):
        body = BodyForce(family="constant", amplitude=0.3)
        cfg = make_config(lam=0.0, body=body)
        result = Simulation(cfg).run()
        grid = cfg.grid
        b = body.evaluate(0.0, grid)
        u_expected = solve_fd(b / cfg.material.mu, fd_operator(grid))
        for u_frame in result.trajectory.u_matrix():
            assert np.max(np.abs(u_frame - u_expected)) < 1e-12


class TestTrajectoryContract:
    def test_frames_and_times(self, desk_config):
        result = Simulation(desk_config).run()
        traj = result.trajectory
        traj.validate(t_end=desk_config.t_end)
        for frames in (traj.s_matrix(), traj.u_matrix()):
            assert np.all(np.isfinite(frames))
            assert np.all(frames[:, [0, -1]] == 0.0)

    def test_last_frame_lands_on_t_end(self):
        # 100 * 7e-4 is 0.06999999999999999 in floating point, one ulp short of t_end
        cfg = make_config(n=17, dt=7e-4, t_end=0.07, save_every=50)
        assert cfg.n_steps == 100
        assert cfg.step_time(cfg.n_steps) == cfg.t_end
        traj = Simulation(cfg).run().trajectory
        traj.validate(t_end=cfg.t_end)
        assert list(traj.times) == [0.0, 50 * 7e-4, 0.07]

    def test_t_end_far_below_dt_takes_one_step(self):
        # t_end / dt rounds to zero steps; the one step lands on t_end
        cfg = make_config(n=17, t_end=1e-13)
        assert cfg.n_steps == 1
        traj = Simulation(cfg).run().trajectory
        traj.validate(t_end=cfg.t_end)
        assert list(traj.times) == [0.0, 1e-13]
        assert list(traj.steps) == [0, 1]

    def test_step_count_computed_once_per_config(self, monkeypatch):
        cfg = make_config(n=17, dt=7e-4, t_end=0.07, save_every=50)
        assert cfg.n_steps == 100
        # every later step_time reads the stored count
        monkeypatch.setattr(np, "ceil", lambda *args: pytest.fail("n_steps recomputed"))
        assert [cfg.step_time(k) for k in (99, 100, 101)] == [99 * 7e-4, 0.07, 0.07]
        assert cfg.n_steps == 100

    def test_saved_u_frames_satisfy_discrete_equation(self, desk_config):
        result = Simulation(desk_config).run()
        assert result.elasticity_residual_max < 1e-10

    def test_determinism(self, desk_config):
        r1 = Simulation(desk_config).run()
        r2 = Simulation(desk_config).run()
        assert np.array_equal(r1.trajectory.s_matrix(), r2.trajectory.s_matrix())
        assert np.array_equal(r1.trajectory.u_matrix(), r2.trajectory.u_matrix())
        assert r1.report.to_csv_text() == r2.report.to_csv_text()


class TestElasticityPaths:
    def test_both_verify_records_discrepancy(self):
        cfg = make_config(path="both-verify")
        result = Simulation(cfg).run()
        assert result.path_discrepancy_max is not None
        assert result.path_discrepancy_max < max(1e-6, 5.0 * cfg.grid.h**2)

    def test_both_verify_solves_green_once_per_run_call(self, monkeypatch):
        # one stacked quadrature per run() call, of the frames recorded since the last call
        green = elasticity.solve_green
        calls = []

        def counting(*args):
            calls.append(args)
            return green(*args)

        def stacked_frames():
            frames = [args[1].values.shape for args in calls]
            calls.clear()
            return frames

        monkeypatch.setattr(elasticity, "solve_green", counting)
        cfg = make_config(path="both-verify")
        n = cfg.grid.n
        assert cfg.n_steps == 20
        sim = Simulation(cfg)
        sim.run(until_step=8)
        assert sim.frame_steps == [0, 5, 8]
        assert stacked_frames() == [(3, n)]
        result = sim.run()
        assert len(result.trajectory.times) == 6
        assert stacked_frames() == [(3, n)]
        sim.run()
        assert stacked_frames() == []
        sims = [Simulation(cfg), Simulation(replace(cfg, reg=replace(cfg.reg, kappa=0.5)))]
        march(sims)
        assert stacked_frames() == []
        for member in sims:
            member.run()
        assert stacked_frames() == [(5, n)] * 2

    def test_both_verify_gap_uses_each_frames_mollified_s_and_body_force(self):
        cfg = make_config(path="both-verify", t_end=2e-3, save_every=1)
        kernel = GreenKernel(cfg.grid.a, cfg.grid.d)
        sim = Simulation(cfg)
        gaps = []
        for step in range(cfg.n_steps + 1):
            sim.run(until_step=step)
            s_moll = ScalarField(cfg.grid, mollify(sim.mollifier, sim.time))
            b_mu = cfg.body.evaluate(sim.time, cfg.grid) / cfg.material.mu
            u_green = solve_green(kernel, s_moll, b_mu, cfg.material.lam / cfg.material.mu)
            gaps.append(np.max(np.abs(sim.u - u_green)))
        assert sim.run().path_discrepancy_max == max(gaps)

    def test_both_verify_run_equals_direct_run(self):
        cfg = make_config(path="both-verify", t_end=0.01, save_every=3, kappa=0.125)
        checked = Simulation(cfg).run()
        direct = Simulation(replace(cfg, elasticity_path="direct")).run()
        assert np.array_equal(checked.trajectory.s_matrix(), direct.trajectory.s_matrix())
        assert np.array_equal(checked.trajectory.u_matrix(), direct.trajectory.u_matrix())
        assert checked.report.to_csv_text() == direct.report.to_csv_text()
        assert checked.elasticity_residual_max == direct.elasticity_residual_max
        assert direct.path_discrepancy_max is None and checked.path_discrepancy_max > 0.0


def frame_check(sim):
    """FD residual and Green gap of a member's current frame, each computed on that frame alone."""
    cfg = sim.config
    grid = cfg.grid
    s_moll = mollify(sim.mollifier, sim.time)
    b = cfg.body.evaluate(sim.time, grid)
    rhs = elastic_rhs(d1(s_moll, grid.h), b / cfg.material.mu, cfg.material.lam / cfg.material.mu)
    u_green = solve_green(GreenKernel(grid.a, grid.d), ScalarField(grid, s_moll), b / cfg.material.mu,
                          cfg.material.lam / cfg.material.mu)
    return fd_residual(sim.u, rhs, grid), float(np.max(np.abs(sim.u - u_green)))


def checks_frame_by_frame(configs, splits=()):
    """Each member's (step, FD residual, Green gap) of every saved frame, marched step by step.

    A run split at a step saves a frame there as well.
    """
    sims = [Simulation(cfg) for cfg in configs]
    checks = [[] for _ in sims]
    stop = configs[0].n_steps
    for step in range(stop + 1):
        march(sims, until_step=step)
        if step % configs[0].save_every == 0 or step == stop or step in splits:
            for found, sim in zip(checks, sims):
                found.append((step, *frame_check(sim)))
    return checks


def maxima(checks, through_step=None):
    """The residual and gap maxima over the frames checked through ``through_step``."""
    kept = [check for check in checks if through_step is None or check[0] <= through_step]
    return max(r for _, r, _ in kept), max(g for _, _, g in kept)


RAMP = BodyForce(family="ramp", amplitude=0.2, rate=5.0)


class TestStackedFrameChecks:
    """run() checks its new frames in one stacked pass; the maxima are those of a check per frame, bit for bit."""

    @pytest.mark.parametrize(
        "kw", [dict(save_every=3), dict(save_every=1, body=RAMP)], ids=["lone", "ramp"]
    )
    def test_lone_run(self, kw):
        cfg = make_config(path="both-verify", t_end=4e-3, **kw)
        [checks] = checks_frame_by_frame([cfg])
        result = Simulation(cfg).run()
        assert len(checks) == len(result.trajectory.times)
        assert (result.elasticity_residual_max, result.path_discrepancy_max) == maxima(checks)
        direct = Simulation(replace(cfg, elasticity_path="direct")).run()
        assert direct.elasticity_residual_max == result.elasticity_residual_max
        assert direct.path_discrepancy_max is None

    @pytest.mark.parametrize("body", [None, RAMP], ids=["zero", "ramp"])
    def test_lockstep_members(self, body):
        configs = [
            make_config(path="both-verify", t_end=4e-3, save_every=2, kappa=k, amplitude=a, body=body)
            for k, a in ((0.25, 0.8), (0.5, 0.6), (0.125, 0.7))
        ]
        checks = checks_frame_by_frame(configs)
        sims = [Simulation(cfg) for cfg in configs]
        march(sims)
        for sim, found in zip(sims, checks):
            result = sim.run()
            assert (result.elasticity_residual_max, result.path_discrepancy_max) == maxima(found)

    def test_split_run(self):
        cfg = make_config(path="both-verify", t_end=4e-3, save_every=2, body=RAMP)
        splits = (5, 6, 13)
        [checks] = checks_frame_by_frame([cfg], splits)
        sim = Simulation(cfg)
        for split in splits:
            part = sim.run(until_step=split)
            assert (part.elasticity_residual_max, part.path_discrepancy_max) == maxima(checks, split)
        result = sim.run()
        assert [step for step, _, _ in checks] == sim.frame_steps
        assert (result.elasticity_residual_max, result.path_discrepancy_max) == maxima(checks)


class TestSnapshotRestart:
    def test_split_run_is_bit_identical(self, tmp_path):
        cfg = make_config(n=129, t_end=0.01, dt=2e-4, save_every=10, kappa=0.25)
        whole = Simulation(cfg).run()

        first = Simulation(cfg)
        part1 = first.run(until_step=30)
        save_snapshot(tmp_path / "snap.json", first)
        second = load_snapshot(tmp_path / "snap.json", cfg)
        part2 = second.run()

        times = np.concatenate([part1.trajectory.times, part2.trajectory.times[1:]])
        s_all = np.vstack([part1.trajectory.s_matrix(), part2.trajectory.s_matrix()[1:]])
        u_all = np.vstack([part1.trajectory.u_matrix(), part2.trajectory.u_matrix()[1:]])
        assert np.array_equal(times, whole.trajectory.times)
        assert np.array_equal(s_all, whole.trajectory.s_matrix())
        assert np.array_equal(u_all, whole.trajectory.u_matrix())

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _short_window_run(window):
        cfg = make_config(n=33, t_end=8e-3, dt=2e-4, save_every=1, kappa_m=window * 2e-4)
        return cfg, Simulation(cfg).run()

    @settings(max_examples=30, deadline=None)
    @given(window=st.integers(1, 8), split=st.integers(0, 40))
    def test_split_after_wrap_is_bit_identical(self, window, split):
        # a window of a few steps: most split steps fall after the ring has wrapped
        cfg, whole = self._short_window_run(window)
        assert cfg.n_steps == 40
        first = Simulation(cfg)
        part1 = first.run(until_step=split)
        with tempfile.TemporaryDirectory() as tmp:
            save_snapshot(Path(tmp) / "snap.json", first)
            part2 = load_snapshot(Path(tmp) / "snap.json", cfg).run()

        steps = np.concatenate([part1.trajectory.steps, part2.trajectory.steps[1:]])
        s_all = np.vstack([part1.trajectory.s_matrix(), part2.trajectory.s_matrix()[1:]])
        u_all = np.vstack([part1.trajectory.u_matrix(), part2.trajectory.u_matrix()[1:]])
        assert np.array_equal(steps, whole.trajectory.steps)
        assert np.array_equal(s_all, whole.trajectory.s_matrix())
        assert np.array_equal(u_all, whole.trajectory.u_matrix())

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _long_window_run():
        # a 100-step window, longer than BLOCK: full from step 99 (inside the
        # block of steps 64-127) through the full blocks 128-191, 192-255 and
        # 256-319 to step 320
        cfg = make_config(n=33, t_end=0.064, dt=2e-4, save_every=1, kappa_m=100 * 2e-4)
        assert cfg.n_steps == 320 and BLOCK == 64
        return cfg, Simulation(cfg).run()

    @pytest.mark.parametrize("split", [99, 110, 150, 192, 270])
    def test_split_in_a_full_window_block_is_bit_identical(self, tmp_path, split):
        # inside the block where the window fills, inside the first and the
        # third full blocks, and on a block boundary
        cfg, whole = self._long_window_run()
        first = Simulation(cfg)
        part1 = first.run(until_step=split)
        save_snapshot(tmp_path / "snap.json", first)
        part2 = load_snapshot(tmp_path / "snap.json", cfg).run()

        steps = np.concatenate([part1.trajectory.steps, part2.trajectory.steps[1:]])
        s_all = np.vstack([part1.trajectory.s_matrix(), part2.trajectory.s_matrix()[1:]])
        u_all = np.vstack([part1.trajectory.u_matrix(), part2.trajectory.u_matrix()[1:]])
        assert np.array_equal(steps, whole.trajectory.steps)
        assert np.array_equal(s_all, whole.trajectory.s_matrix())
        assert np.array_equal(u_all, whole.trajectory.u_matrix())

    def test_resumed_trajectory_validates(self, tmp_path):
        # a run resumed from a snapshot starts at the snapshot's time, and its
        # trajectory, as marched and as read back, is a valid trajectory
        cfg = make_config(n=33, t_end=4e-3, dt=2e-4, save_every=5)
        first = Simulation(cfg)
        first.run(until_step=7)
        save_snapshot(tmp_path / "snap.json", first)
        resumed = load_snapshot(tmp_path / "snap.json", cfg).run()
        traj = resumed.trajectory
        assert traj.times[0] == first.time > 0.0
        traj.validate(t_end=cfg.t_end)
        write_run(tmp_path / "run", resumed)
        back, _, _ = load_run(tmp_path / "run")
        back.validate(t_end=cfg.t_end)

    def test_round_trip_equality(self, tmp_path, desk_config):
        sim = Simulation(desk_config)
        sim.run(until_step=10)
        save_snapshot(tmp_path / "snap.json", sim)
        restored = load_snapshot(tmp_path / "snap.json", desk_config)
        assert restored.step_index == sim.step_index
        assert restored.time == sim.time
        assert np.array_equal(restored.s, sim.s)

    def test_snapshot_members(self, tmp_path, desk_config):
        # one numpy archive under the name given, no .npz added, whose time is the config's at its step
        sim = Simulation(desk_config)
        sim.run(until_step=5)
        path = tmp_path / "snap"
        save_snapshot(path, sim)
        assert [p.name for p in tmp_path.iterdir()] == ["snap"]
        with np.load(path, allow_pickle=False) as snapshot:
            assert snapshot.files == ["version", "config_hash", "step", "window"]
            assert snapshot["version"] == SNAPSHOT_VERSION == 2
            assert snapshot["config_hash"] == config_digest(desk_config)
            assert snapshot["step"] == 5 and np.issubdtype(snapshot["step"].dtype, np.integer)
            window = snapshot["window"]
        assert window.dtype == np.float64 and np.array_equal(window, sim.mollifier.frames)
        assert load_snapshot(path, desk_config).time == desk_config.step_time(5) == sim.time

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda path: path.write_bytes(path.read_bytes()[:-100]), "File is not a zip file"),
            (lambda path: flip_byte_before(path, "window.npy"), "Bad CRC-32 for file 'step.npy'"),
            (lambda path: path.write_bytes(b""), "No data left in file"),
            (lambda path: edit_fields(path, lambda m: m.pop("window")), "window is not a file in the archive"),
            (
                lambda path: edit_fields(path, lambda m: m.update(window=m["window"].astype(np.float32))),
                "expected a float64 window of shape (6, 65) at step 5, got float32 of shape (6, 65)",
            ),
            (
                lambda path: edit_fields(path, lambda m: m.update(window=m["window"][1:])),
                "expected a float64 window of shape (6, 65) at step 5, got float64 of shape (5, 65)",
            ),
            (
                lambda path: edit_fields(path, lambda m: m.update(window=m["window"][:, :-1])),
                "got float64 of shape (6, 64)",
            ),
            (with_members(step=np.int64(21)), "in [0, 20], got 21 of dtype int64"),
            (with_members(step=np.int64(-1)), "in [0, 20], got -1 of dtype int64"),
            (with_members(step=np.float64(5)), "got 5.0 of dtype float64"),
            (with_members(step=np.arange(5)), "got [0 1 2 3 4] of dtype"),
            (
                lambda path: path.write_text(json.dumps({"format": "confsim-snapshot", "version": 1, "history": []})),
                "an earlier version's JSON snapshot",
            ),
        ],
        ids=[
            "truncated", "flipped_byte", "empty", "missing_member", "float32_window", "rows_for_step", "other_n",
            "step_past_the_end", "negative_step", "float_step", "step_array", "json_snapshot",
        ],
    )
    def test_damaged_snapshot_names_the_file(self, tmp_path, desk_config, damage, message):
        sim = Simulation(desk_config)
        sim.run(until_step=5)
        path = tmp_path / "snap.npz"
        save_snapshot(path, sim)
        damage(path)
        with pytest.raises(FieldFileError) as info:
            load_snapshot(path, desk_config)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)
        assert "pickle" not in str(info.value)

    def test_version_mismatch(self, tmp_path, desk_config):
        path = tmp_path / "snap.npz"
        save_snapshot(path, Simulation(desk_config))
        with_members(version=np.int64(99))(path)
        with pytest.raises(VersionMismatch, match="snapshot version 99 != 2"):
            load_snapshot(path, desk_config)

    def test_wrong_config_rejected(self, tmp_path, desk_config):
        sim = Simulation(desk_config)
        path = tmp_path / "snap.json"
        save_snapshot(path, sim)
        other = make_config(kappa=0.5)
        with pytest.raises(ChecksumMismatch):
            load_snapshot(path, other)


def assert_same_run(got, want):
    assert got.termination == want.termination
    assert np.array_equal(got.trajectory.times, want.trajectory.times)
    assert np.array_equal(got.trajectory.steps, want.trajectory.steps)
    assert np.array_equal(got.trajectory.s_matrix(), want.trajectory.s_matrix())
    assert np.array_equal(got.trajectory.u_matrix(), want.trajectory.u_matrix())
    assert got.report.to_csv_text() == want.report.to_csv_text()
    assert got.elasticity_residual_max == want.elasticity_residual_max
    assert got.path_discrepancy_max == want.path_discrepancy_max


class TestContinuedRun:
    def test_second_call_continues_without_repeating_a_frame(self):
        cfg = make_config(t_end=0.004, save_every=5)
        whole = Simulation(cfg).run()
        sim = Simulation(cfg)
        sim.run(until_step=10)
        assert_same_run(sim.run(), whole)

    def test_stopped_run_marches_no_further(self):
        sim = Simulation(make_config(increment_guard=1e-12))
        first = sim.run()
        assert first.termination.status == "step-rejected"
        assert_same_run(sim.run(), first)


class TestLockstep:
    BODY = BodyForce(family="ramp", amplitude=0.2, rate=50.0)

    def member(self, kappa, window, amplitude, lo, hi, path):
        cfg = make_config(n=33, t_end=4e-3, dt=2e-4, save_every=3, kappa=kappa,
                          kappa_m=None if window is None else window * 2e-4, path=path, body=self.BODY)
        return replace(cfg, init=InitialData(amplitude=amplitude, support_lo=lo, support_hi=hi))

    @settings(max_examples=25, deadline=None)
    @given(
        members=st.lists(
            st.tuples(
                st.floats(0.02, 1.0),
                st.sampled_from([None, 1, 3, 8]),  # mollifier window in steps; None couples it to kappa
                st.floats(0.3, 0.95),
                st.floats(0.2, 0.35),
                st.floats(0.6, 0.8),
            ),
            min_size=2,
            max_size=3,
        ),
        path=st.sampled_from(["direct", "both-verify"]),
    )
    def test_each_member_matches_its_run_alone(self, members, path):
        configs = [self.member(*m, path) for m in members]
        sims = [Simulation(cfg) for cfg in configs]
        march(sims)
        for sim, cfg in zip(sims, configs):
            assert_same_run(sim.run(), Simulation(cfg).run())

    @pytest.mark.parametrize("windows", [(70, 150), (150, 100, 70)])
    def test_full_window_blocks_match_each_run_alone(self, windows):
        # windows longer than BLOCK and of different lengths, each full for
        # more than a block: every member blocks its own window
        configs = [
            replace(self.member(0.5 / (i + 1), window, 0.8, 0.3, 0.7, "direct"), t_end=0.07, save_every=10)
            for i, window in enumerate(windows)
        ]
        assert min(windows) > BLOCK and all(cfg.n_steps - max(windows) > BLOCK for cfg in configs)
        sims = [Simulation(cfg) for cfg in configs]
        march(sims)
        for sim, cfg in zip(sims, configs):
            assert_same_run(sim.run(), Simulation(cfg).run())

    @pytest.mark.parametrize("kappas", [(0.5, 0.03125), (0.03125, 0.5, 0.25)])
    def test_rejected_member_stops_alone(self, kappas):
        base = parse_config_text(
            "reg.increment_guard = 0.05\nbody.family = ramp\nbody.rate = 1e5\n"
        )
        configs = [replace(base, reg=replace(base.reg, kappa=k, kappa_m=k)) for k in kappas]
        sims = [Simulation(cfg) for cfg in configs]
        march(sims)
        results = [sim.run() for sim in sims]
        statuses = [r.termination.status for r in results]
        assert statuses == ["step-rejected" if k == 0.03125 else "completed" for k in kappas]
        for sim, got, cfg in zip(sims, results, configs):
            assert_same_run(got, Simulation(cfg).run())
            if got.termination.status == "step-rejected":
                # the time of the last accepted state, where the rejected step started
                assert got.termination.fail_time == cfg.step_time(sim.step_index) > 0.0
                assert got.trajectory.steps[-1] <= sim.step_index < cfg.n_steps

    def test_members_must_share_all_but_kappa_and_step(self):
        with pytest.raises(ValueError, match="marched together"):
            march([Simulation(make_config(n=33)), Simulation(make_config(n=65))])
        ahead = Simulation(make_config(kappa=0.5))
        ahead.run(until_step=2)
        with pytest.raises(ValueError, match="marched together"):
            march([Simulation(make_config()), ahead])


BODY_FAMILIES = {
    "zero": BodyForce(),
    "constant": BodyForce(family="constant", amplitude=0.3),
    "poly": BodyForce(family="poly", coeffs=(0.1, 0.2, -0.3)),
    "ramp": BodyForce(family="ramp", amplitude=0.2, rate=5.0),
}


class TestPerRunConstants:
    """``march`` builds the FD operator and a time-independent body force once per call, not once per step."""

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        plain = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return plain(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("family", sorted(BODY_FAMILIES))
    def test_calls_per_march(self, monkeypatch, members, family):
        configs = [make_config(t_end=4e-3, kappa=k, body=BODY_FAMILIES[family]) for k in (0.25, 0.5, 0.125)[:members]]
        assert configs[0].n_steps == 20
        sims = [Simulation(cfg) for cfg in configs]
        operators = self.count_calls(monkeypatch, elasticity, "fd_operator")
        bodies = self.count_calls(monkeypatch, BodyForce, "evaluate")
        march(sims, until_step=12)
        march(sims)
        assert all(sim.step_index == 20 for sim in sims)
        # each call: the operator for the t = 0 solve of a fresh member and for its steps
        assert len(operators) <= 2 * 2
        if family == "ramp":
            # the t = 0 solve and one per step
            assert len(bodies) == 1 + 20
        else:
            # the t = 0 solve and once per call
            assert len(bodies) == 1 + 2

    @pytest.mark.parametrize("family", sorted(BODY_FAMILIES))
    def test_a_march_with_no_step_to_take_builds_nothing(self, monkeypatch, family):
        # after a study's lockstep march, each member's run() has no first frame to record and no step to take
        base = make_config(n=33, t_end=2e-3, save_every=2, body=BODY_FAMILIES[family])
        study = StudyConfig(base=base, kappas=(0.5, 0.25, 0.125, 0.0625, 0.03125))
        constants = self.count_calls(monkeypatch, simulator, "step_constants")
        bodies = self.count_calls(monkeypatch, BodyForce, "evaluate")
        run_study(study)
        assert len(constants) == 1
        # the lockstep march's t = 0 solve and its steps' b/mu (once, or once per step for a ramp),
        # then one evaluation of every frame in each member's report
        assert len(bodies) == 1 + (base.n_steps if family == "ramp" else 1) + len(study.kappas)


class TestGuard:
    def test_rejected_step_reported_with_partial_frames(self):
        cfg = make_config(increment_guard=1e-12)
        result = Simulation(cfg).run()
        assert result.termination.status == "step-rejected"
        assert result.termination.fail_time is not None
        assert len(result.trajectory.times) >= 1


class TestOverflow:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_report_is_typed(self):
        with pytest.raises(NonFiniteReport, match="non-finite"):
            Simulation(make_config(amplitude=1e308, t_end=1e-3)).run()
        assert issubclass(NonFiniteReport, ValueError)


def run_with_frames(n: int, frames: int):
    """A run on n nodes that saves ``frames`` frames; a one-frame run is one whose step 0 is rejected."""
    if frames == 1:
        result = Simulation(make_config(n=n, increment_guard=1e-12)).run()
        assert result.termination.status == "step-rejected"
    else:
        result = Simulation(make_config(n=n, t_end=(frames - 1) * 2e-4, save_every=1)).run()
    assert len(result.trajectory.times) == frames
    return result


NEAR_EXTREMES = [-0.0, 1e300, -1e300, 9.999999999999999e299, -1.0000000000000001e300, 5e-324]


class TestRunPersistence:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(4, 257),
        frames=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(st.sampled_from(NEAR_EXTREMES), min_size=1, max_size=8),  # one frame on 4 nodes has 8 values
    )
    def test_write_then_load_is_bit_exact(self, n, frames, seed, specials):
        # a real run's report and config beside synthetic frames of the same count
        result = run_with_frames(n, frames)
        grid = result.config.grid
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(2, frames, n)) * 10.0 ** rng.integers(-300, 301, size=(2, frames, n))
        values.reshape(-1)[rng.choice(values.size, size=len(specials), replace=False)] = specials
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-9, 1.0, size=frames - 1))])
        steps = np.concatenate([[0], np.cumsum(rng.integers(1, 1000, size=frames - 1))])
        traj = Trajectory(times, [ScalarField(grid, row) for row in values[0]],
                          [ScalarField(grid, row) for row in values[1]], steps)
        with tempfile.TemporaryDirectory() as tmp:
            write_run(tmp, replace(result, trajectory=traj))
            back, cfg, diag_text = load_run(tmp)
        assert cfg == result.config and diag_text == result.report.to_csv_text()
        for got, want in ((back.s_matrix(), values[0]), (back.u_matrix(), values[1]), (back.times, times)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(back.steps, steps)

    def test_write_and_load_round_trip(self, tmp_path, desk_config):
        result = Simulation(desk_config).run()
        write_run(tmp_path / "out", result)
        traj, cfg, diag_text = load_run(tmp_path / "out")
        assert cfg == desk_config
        assert np.array_equal(traj.times, result.trajectory.times)
        assert np.array_equal(traj.s_matrix(), result.trajectory.s_matrix())
        assert np.array_equal(traj.u_matrix(), result.trajectory.u_matrix())
        assert diag_text == result.report.to_csv_text()
