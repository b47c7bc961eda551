import functools
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confsim.config import BodyForce
from confsim.diagnostics import NonFiniteReport
from confsim.simulator import (
    ChecksumMismatch,
    Simulation,
    VersionMismatch,
    load_run,
    load_snapshot,
    run,
    save_snapshot,
    write_run,
)
from confsim.elasticity import solve_fd

from conftest import make_config


class TestRestState:
    def test_everything_stays_zero(self):
        cfg = make_config(amplitude=0.0)
        result = run(cfg)
        assert result.termination.status == "completed"
        assert np.all(result.trajectory.s_matrix() == 0.0)
        assert np.all(result.trajectory.u_matrix() == 0.0)


class TestDecoupling:
    def test_lambda_zero_makes_u_depend_on_body_only(self):
        body = BodyForce(family="constant", amplitude=0.3)
        cfg = make_config(lam=0.0, body=body)
        result = run(cfg)
        grid = cfg.grid
        b = body.evaluate(0.0, grid)
        u_expected = solve_fd(b / cfg.material.mu, grid)
        for u_frame in result.trajectory.u_matrix():
            assert np.max(np.abs(u_frame - u_expected)) < 1e-12


class TestTrajectoryContract:
    def test_frames_and_times(self, desk_config):
        result = run(desk_config)
        traj = result.trajectory
        traj.validate(t_end=desk_config.t_end)
        for frames in (traj.s_matrix(), traj.u_matrix()):
            assert np.all(np.isfinite(frames))
            assert np.all(frames[:, [0, -1]] == 0.0)

    def test_saved_u_frames_satisfy_discrete_equation(self, desk_config):
        result = run(desk_config)
        assert result.elasticity_residual_max < 1e-10

    def test_determinism(self, desk_config):
        r1 = run(desk_config)
        r2 = run(desk_config)
        assert np.array_equal(r1.trajectory.s_matrix(), r2.trajectory.s_matrix())
        assert np.array_equal(r1.trajectory.u_matrix(), r2.trajectory.u_matrix())
        assert r1.report.to_csv_text() == r2.report.to_csv_text()


class TestElasticityPaths:
    def test_both_verify_records_discrepancy(self):
        cfg = make_config(path="both-verify")
        result = run(cfg)
        assert result.path_discrepancy_max is not None
        assert result.path_discrepancy_max < max(1e-6, 5.0 * cfg.grid.h**2)

    def test_green_path_runs(self):
        cfg = make_config(path="green", t_end=1e-3)
        result = run(cfg)
        assert result.termination.status == "completed"


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

    def test_round_trip_equality(self, tmp_path, desk_config):
        sim = Simulation(desk_config)
        sim.run(until_step=10)
        save_snapshot(tmp_path / "snap.json", sim)
        restored = load_snapshot(tmp_path / "snap.json", desk_config)
        assert restored.step_index == sim.step_index
        assert restored.time == sim.time
        assert np.array_equal(restored.s, sim.s)

    def test_corrupted_byte_detected(self, tmp_path, desk_config):
        sim = Simulation(desk_config)
        sim.run(until_step=5)
        path = tmp_path / "snap.json"
        save_snapshot(path, sim)
        blob = bytearray(path.read_bytes())
        pos = blob.index(b'"time"') + 10
        blob[pos:pos + 1] = b"9" if blob[pos:pos + 1] != b"9" else b"8"
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            load_snapshot(path, desk_config)

    def test_version_mismatch(self, tmp_path, desk_config):
        import json

        sim = Simulation(desk_config)
        path = tmp_path / "snap.json"
        save_snapshot(path, sim)
        doc = json.loads(path.read_text())
        doc.pop("checksum")
        doc["version"] = 99
        from confsim.simulator import _payload_checksum

        doc["checksum"] = _payload_checksum(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch):
            load_snapshot(path, desk_config)

    def test_wrong_config_rejected(self, tmp_path, desk_config):
        sim = Simulation(desk_config)
        path = tmp_path / "snap.json"
        save_snapshot(path, sim)
        other = make_config(kappa=0.5)
        with pytest.raises(ChecksumMismatch):
            load_snapshot(path, other)


class TestGuard:
    def test_rejected_step_reported_with_partial_frames(self):
        cfg = make_config(increment_guard=1e-12)
        result = run(cfg)
        assert result.termination.status == "step-rejected"
        assert result.termination.fail_time is not None
        assert len(result.trajectory.times) >= 1


class TestOverflow:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_report_is_typed(self):
        with pytest.raises(NonFiniteReport, match="non-finite"):
            run(make_config(amplitude=1e308, t_end=1e-3))
        assert issubclass(NonFiniteReport, ValueError)


class TestRunPersistence:
    def test_write_and_load_round_trip(self, tmp_path, desk_config):
        result = run(desk_config)
        write_run(tmp_path / "out", result)
        traj, cfg, diag_text = load_run(tmp_path / "out")
        assert cfg == desk_config
        assert np.array_equal(traj.times, result.trajectory.times)
        assert np.array_equal(traj.s_matrix(), result.trajectory.s_matrix())
        assert np.array_equal(traj.u_matrix(), result.trajectory.u_matrix())
        assert diag_text == result.report.to_csv_text()
