"""Coupled time marching: mollify history, solve elasticity, build force, step.

A single simulation is self-contained and deterministic: the schedule is a
pure function of the step index, there is no randomness, and identical configs
produce bit-identical outputs.  Snapshots capture the mollifier history window,
the current time and the config hash, so a restarted run continues exactly.
A finished run carries its diagnostics report; ``write_run``/``load_run``
persist it with the frames and the config echo.  The typed config lives in
``config`` and the monitors in ``diagnostics``, both below this module.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import diagnostics
from .grid_field import FLOAT_FMT, ScalarField, Trajectory, d1, load_field, save_field
from .order_parameter import MollifierState, StepRejected, driving_force, mollify, semi_implicit_step
from .elasticity import GreenKernel, fd_residual, elastic_rhs, solve_elasticity
# BodyForce is not used here by name: bench/tracer.py reaches it as simulator.BodyForce.
from .config import BodyForce, SimulationConfig, config_digest, config_echo, parse_config_text

SNAPSHOT_VERSION = 1


class ChecksumMismatch(RuntimeError):
    pass


class VersionMismatch(RuntimeError):
    pass


@dataclass(frozen=True)
class Termination:
    status: str  # completed | step-rejected | overflowed (a study member)
    fail_time: Optional[float] = None


@dataclass
class RunResult:
    trajectory: Trajectory
    report: diagnostics.DiagnosticsReport
    termination: Termination
    elasticity_residual_max: float
    path_discrepancy_max: Optional[float]
    config: SimulationConfig
    config_hash: str


class Simulation:
    """Owns the marching state of one run; not shared between threads."""

    def __init__(self, config: SimulationConfig, _restore=None):
        self.config = config
        self.grid = config.grid
        self.kernel = (
            GreenKernel(self.grid.a, self.grid.d)
            if config.elasticity_path in ("green", "both-verify")
            else None
        )
        self.mollifier = MollifierState(config.reg.kappa_m, config.reg.dt, config.n_steps + 1)
        if _restore is None:
            self.step_index = 0
            self.s = config.init.build(self.grid)
            self.mollifier.push(self.s, 0.0)
        else:
            self.step_index = _restore["step_index"]
            arrays = _restore["history"]
            self.mollifier.restore(arrays, _restore["time"])
            self.s = np.array(arrays[0], dtype=float)
        self.time = config.step_time(self.step_index)
        self._reset_recording()

    def _reset_recording(self):
        self.times: list[float] = []
        self.s_frames: list[ScalarField] = []
        self.u_frames: list[ScalarField] = []
        self.frame_steps: list[int] = []
        self.residual_max = 0.0
        self.discrepancy_max = None

    def _solve_for_u(self, t: float):
        s_moll = mollify(self.mollifier, t)
        b = self.config.body.evaluate(t, self.grid)
        u, disc = solve_elasticity(
            s_moll, b, self.grid, self.config.material, self.config.elasticity_path, self.kernel
        )
        return u, s_moll, b, disc

    def _record_frame(self, u: np.ndarray, s_moll: np.ndarray, b: np.ndarray, disc):
        # every step makes new s and u arrays, so the frames need no copy
        self.times.append(self.time)
        self.s_frames.append(ScalarField(self.grid, self.s))
        self.u_frames.append(ScalarField(self.grid, u))
        self.frame_steps.append(self.step_index)
        if self.config.elasticity_path != "green":
            rhs = elastic_rhs(d1(s_moll, self.grid.h), b, self.config.material)
            self.residual_max = max(self.residual_max, fd_residual(u, rhs, self.grid))
        if disc is not None:
            self.discrepancy_max = max(self.discrepancy_max or 0.0, disc)

    def run(self, until_step: Optional[int] = None) -> RunResult:
        cfg = self.config
        h = self.grid.h
        x = self.grid.x
        n_total = cfg.n_steps
        stop = n_total if until_step is None else min(until_step, n_total)
        status = Termination("completed")

        u, s_moll, b, disc = self._solve_for_u(self.time)
        self._record_frame(u, s_moll, b, disc)

        while self.step_index < stop:
            s_x = d1(self.s, h)
            force = driving_force(u, d1(u, h), self.s, s_x, x, cfg.material)
            t_next = cfg.step_time(self.step_index + 1)
            dt_n = t_next - self.time
            try:
                self.s = semi_implicit_step(self.s, force, h, cfg.material, cfg.reg, dt=dt_n, s_x=s_x)
            except StepRejected:
                status = Termination("step-rejected", self.time)
                break
            self.step_index += 1
            self.time = t_next
            self.mollifier.push(self.s, self.time)
            u, s_moll, b, disc = self._solve_for_u(self.time)
            if self.step_index % cfg.save_every == 0 or self.step_index == stop:
                self._record_frame(u, s_moll, b, disc)

        traj = Trajectory(
            np.array(self.times), list(self.s_frames), list(self.u_frames), np.array(self.frame_steps)
        )
        return RunResult(
            trajectory=traj,
            report=diagnostics.build_report(traj, self.config),
            termination=status,
            elasticity_residual_max=self.residual_max,
            path_discrepancy_max=self.discrepancy_max,
            config=self.config,
            config_hash=config_digest(self.config),
        )

    # --- snapshot support -------------------------------------------------

    def snapshot_payload(self) -> dict:
        return {
            "format": "confsim-snapshot",
            "version": SNAPSHOT_VERSION,
            "config_hash": config_digest(self.config),
            "step_index": self.step_index,
            "time": self.time,
            "grid": {"a": self.grid.a, "d": self.grid.d, "n": self.grid.n},
            "history": [a.tolist() for a in self.mollifier.state_arrays()],
        }

    @classmethod
    def from_payload(cls, config: SimulationConfig, payload: dict) -> "Simulation":
        if payload.get("version") != SNAPSHOT_VERSION:
            raise VersionMismatch(
                f"snapshot version {payload.get('version')} != {SNAPSHOT_VERSION}"
            )
        if payload["config_hash"] != config_digest(config):
            raise ChecksumMismatch("snapshot was produced by a different config")
        return cls(config, _restore=payload)


def run(config: SimulationConfig) -> RunResult:
    """Run a configured simulation to its final time."""
    return Simulation(config).run()


# --- snapshot files --------------------------------------------------------


def _payload_checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def save_snapshot(path, sim: Simulation):
    payload = sim.snapshot_payload()
    doc = dict(payload)
    doc["checksum"] = _payload_checksum(payload)
    Path(path).write_text(json.dumps(doc))


def load_snapshot(path, config: SimulationConfig) -> Simulation:
    doc = json.loads(Path(path).read_text())
    stated = doc.pop("checksum", None)
    if stated is None or stated != _payload_checksum(doc):
        raise ChecksumMismatch(f"snapshot {path} failed its checksum")
    return Simulation.from_payload(config, doc)


# --- run-directory persistence ---------------------------------------------


def write_run(out_dir, result: RunResult):
    """Persist frames, diagnostics and metadata under ``out_dir``."""
    out = Path(out_dir)
    frames = out / "frames"
    frames.mkdir(parents=True, exist_ok=True)
    traj = result.trajectory
    index_lines = ["k,step,time"]
    # frame paths as strings: a Path per file costs as much as formatting it
    for k, (t, s, u, step) in enumerate(zip(traj.times, traj.s_frames, traj.u_frames, traj.steps)):
        save_field(f"{frames}/S_{k:06d}.csv", s, t)
        save_field(f"{frames}/u_{k:06d}.csv", u, t)
        index_lines.append(f"{k},{step},{FLOAT_FMT.format(t)}")
    (frames / "index.csv").write_text("\n".join(index_lines) + "\n")
    (out / "diagnostics.csv").write_text(result.report.to_csv_text())
    meta = [
        "# confsim run metadata",
        f"config_hash = {result.config_hash}",
        f"termination = {result.termination.status}",
    ]
    if result.termination.fail_time is not None:
        meta.append(f"fail_time = {FLOAT_FMT.format(result.termination.fail_time)}")
    meta.append("[config]")
    meta.append(config_echo(result.config).rstrip("\n"))
    (out / "meta.txt").write_text("\n".join(meta) + "\n")


def load_run(run_dir):
    """Read back a persisted run: (trajectory, config, diagnostics text)."""
    out = Path(run_dir)
    meta = out.read_text() if out.is_file() else (out / "meta.txt").read_text()
    config_text = meta.split("[config]", 1)[1]
    config = parse_config_text(config_text)
    frames = out / "frames"
    index = (frames / "index.csv").read_text().strip().splitlines()[1:]
    times, steps, s_frames, u_frames = [], [], [], []
    grid = config.grid
    for line in index:
        k, step, t = line.split(",")
        s, ts = load_field(f"{frames}/S_{int(k):06d}.csv", grid)
        u, _ = load_field(f"{frames}/u_{int(k):06d}.csv", grid)
        times.append(float(t))
        steps.append(int(step))
        s_frames.append(s)
        u_frames.append(u)
    traj = Trajectory(np.array(times), s_frames, u_frames, np.array(steps))
    diag_text = (out / "diagnostics.csv").read_text()
    return traj, config, diag_text
