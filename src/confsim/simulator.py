"""Coupled time marching: mollify history, solve elasticity, build force, step.

A single simulation is self-contained and deterministic: the schedule is a
pure function of the step index, there is no randomness, and identical configs
produce bit-identical outputs.  Snapshots capture the mollifier history window,
the current time and the config hash, so a restarted run continues exactly.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .grid_field import FLOAT_FMT, Grid, ScalarField, Trajectory, d1, load_field, save_field
from .material import MaterialParams, TensorSpec
from .order_parameter import (
    MAX_STEPS,
    MollifierState,
    RegularizationParams,
    StepRejected,
    driving_force,
    mollify,
    semi_implicit_step,
)
from .elasticity import GreenKernel, fd_residual, elastic_rhs, solve_elasticity

SNAPSHOT_VERSION = 1


class ConfigInvalid(ValueError):
    pass


class ChecksumMismatch(RuntimeError):
    pass


class VersionMismatch(RuntimeError):
    pass


def _smooth_ramp(s: np.ndarray) -> np.ndarray:
    """C-infinity transition, exactly 0 for s <= 0 and exactly 1 for s >= 1."""
    out = np.zeros_like(s)
    mid = (s > 0.0) & (s < 1.0)
    f = np.exp(-1.0 / s[mid])
    g = np.exp(-1.0 / (1.0 - s[mid]))
    out[mid] = f / (f + g)
    out[s >= 1.0] = 1.0
    return out


@dataclass(frozen=True)
class InitialData:
    """Initial order parameter; both families lie in the zero-boundary class.

    "plateau" is compactly supported with smooth shoulders, so all derivatives
    vanish at the boundary; "bump" is a half sine.
    """

    family: str = "plateau"
    amplitude: float = 0.8
    support_lo: float = 0.3
    support_hi: float = 0.7
    shoulder: float = 0.15

    def __post_init__(self):
        if self.family not in ("plateau", "bump"):
            raise ConfigInvalid(f"unknown initial-data family {self.family!r}")
        if self.family == "plateau":
            if not (0.0 < self.support_lo < self.support_hi < 1.0):
                raise ConfigInvalid("plateau support must satisfy 0 < lo < hi < 1")
            if not self.shoulder > 0:
                raise ConfigInvalid("plateau shoulder width must be positive")

    def build(self, grid: Grid) -> ScalarField:
        xi = (grid.x - grid.a) / (grid.d - grid.a)
        if self.family == "bump":
            values = self.amplitude * np.sin(np.pi * xi)
        else:
            rise = _smooth_ramp((xi - self.support_lo) / self.shoulder)
            fall = _smooth_ramp((self.support_hi - xi) / self.shoulder)
            values = self.amplitude * rise * fall
        values[0] = 0.0
        values[-1] = 0.0
        return ScalarField(grid, values)


@dataclass(frozen=True)
class BodyForce:
    """Radial volume force family; continuous in t with continuous t-derivative."""

    family: str = "zero"
    amplitude: float = 0.0
    coeffs: tuple = (0.0,)
    rate: float = 0.0

    def __post_init__(self):
        if self.family not in ("zero", "constant", "poly", "ramp"):
            raise ConfigInvalid(f"unknown body-force family {self.family!r}")

    def evaluate(self, t: float, grid: Grid) -> ScalarField:
        if self.family == "zero":
            values = np.zeros(grid.n)
        elif self.family == "constant":
            values = np.full(grid.n, self.amplitude)
        elif self.family == "poly":
            values = np.zeros(grid.n)
            for k, ck in enumerate(self.coeffs):
                values += ck * (grid.x - grid.a) ** k
        else:  # ramp
            values = np.full(grid.n, self.amplitude + self.rate * t)
        return ScalarField(grid, values)


@dataclass(frozen=True)
class SimulationConfig:
    grid: Grid
    material: MaterialParams
    reg: RegularizationParams
    t_end: float
    save_every: int = 10
    elasticity_path: str = "direct"
    init: InitialData = field(default_factory=InitialData)
    body: BodyForce = field(default_factory=BodyForce)
    tensor_spec: Optional[TensorSpec] = None

    def __post_init__(self):
        if not self.t_end > 0:
            raise ConfigInvalid(f"t_end must be positive, got {self.t_end}")
        if self.save_every < 1:
            raise ConfigInvalid(f"save_every must be >= 1, got {self.save_every}")
        if self.elasticity_path not in ("direct", "green", "both-verify"):
            raise ConfigInvalid(f"unknown elasticity path {self.elasticity_path!r}")
        steps = self.t_end / self.reg.dt
        if not steps <= MAX_STEPS:
            raise ConfigInvalid(
                f"run.t_end / reg.dt = {steps:.3g} steps exceeds the ceiling of {MAX_STEPS}; "
                "raise reg.dt or lower run.t_end"
            )

    @property
    def n_steps(self) -> int:
        return int(np.ceil(self.t_end / self.reg.dt - 1e-9))

    def step_time(self, n: int) -> float:
        return min(n * self.reg.dt, self.t_end)


@dataclass(frozen=True)
class Termination:
    status: str  # completed | step-rejected
    fail_time: Optional[float] = None


@dataclass
class RunResult:
    trajectory: Trajectory
    report: "object"  # DiagnosticsReport; duck typed to keep module layering flat
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
            self.mollifier.restore(arrays, self.grid, _restore["time"])
            self.s = ScalarField(self.grid, np.asarray(arrays[0], dtype=float).copy())
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
            s_moll, b, self.config.material, self.config.elasticity_path, self.kernel
        )
        return u, s_moll, b, disc

    def _record_frame(self, u: ScalarField, s_moll: ScalarField, b: ScalarField, disc):
        self.times.append(self.time)
        self.s_frames.append(self.s.copy())
        self.u_frames.append(u.copy())
        self.frame_steps.append(self.step_index)
        if self.config.elasticity_path != "green":
            rhs = elastic_rhs(d1(s_moll), b, self.config.material)
            self.residual_max = max(self.residual_max, fd_residual(u, rhs))
        if disc is not None:
            self.discrepancy_max = max(self.discrepancy_max or 0.0, disc)

    def run(self, until_step: Optional[int] = None) -> RunResult:
        cfg = self.config
        n_total = cfg.n_steps
        stop = n_total if until_step is None else min(until_step, n_total)
        status = Termination("completed")

        u, s_moll, b, disc = self._solve_for_u(self.time)
        self._record_frame(u, s_moll, b, disc)

        while self.step_index < stop:
            s_x = d1(self.s)
            force = driving_force_at(u, self.s, s_x, cfg.material)
            t_next = cfg.step_time(self.step_index + 1)
            dt_n = t_next - self.time
            try:
                self.s = semi_implicit_step(self.s, force, cfg.material, cfg.reg, dt=dt_n, s_x=s_x)
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
        from . import diagnostics  # deferred: diagnostics consumes trajectories

        report = diagnostics.build_report(traj, self.config)
        return RunResult(
            trajectory=traj,
            report=report,
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


def driving_force_at(
    u: ScalarField, s: ScalarField, s_x: ScalarField, material: MaterialParams
) -> ScalarField:
    """Driving force on the state (u, s), given s_x = d1(s)."""
    return driving_force(u, d1(u), s, s_x, material)


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


def config_echo(config: SimulationConfig) -> str:
    """Canonical key-value rendering; parsing it back yields an equal config."""
    from .config import echo_lines  # deferred: config imports simulator types

    return "\n".join(echo_lines(config)) + "\n"


def config_digest(config: SimulationConfig) -> str:
    return hashlib.sha256(config_echo(config).encode()).hexdigest()


def write_run(out_dir, result: RunResult):
    """Persist frames, diagnostics and metadata under ``out_dir``."""
    out = Path(out_dir)
    frames = out / "frames"
    frames.mkdir(parents=True, exist_ok=True)
    traj = result.trajectory
    index_lines = ["k,step,time"]
    for k, (t, s, u, step) in enumerate(zip(traj.times, traj.s_frames, traj.u_frames, traj.steps)):
        save_field(frames / f"S_{k:06d}.csv", s, t)
        save_field(frames / f"u_{k:06d}.csv", u, t)
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
    from .config import parse_config_text

    out = Path(run_dir)
    meta = out.read_text() if out.is_file() else (out / "meta.txt").read_text()
    config_text = meta.split("[config]", 1)[1]
    config = parse_config_text(config_text)
    index = (out / "frames" / "index.csv").read_text().strip().splitlines()[1:]
    times, steps, s_frames, u_frames = [], [], [], []
    grid = config.grid
    for line in index:
        k, step, t = line.split(",")
        s, ts = load_field(out / "frames" / f"S_{int(k):06d}.csv", grid)
        u, _ = load_field(out / "frames" / f"u_{int(k):06d}.csv", grid)
        times.append(float(t))
        steps.append(int(step))
        s_frames.append(s)
        u_frames.append(u)
    traj = Trajectory(np.array(times), s_frames, u_frames, np.array(steps))
    diag_text = (out / "diagnostics.csv").read_text()
    return traj, config, diag_text
