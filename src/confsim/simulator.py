"""Coupled time marching: mollify history, solve elasticity, build force, step.

A single simulation is self-contained and deterministic: the schedule is a
pure function of the step index, there is no randomness, and identical configs
produce bit-identical outputs.  Every step solves elasticity by finite
differences.  ``Simulation.run`` checks the frames recorded since its last
call in one stacked pass: one FD residual of their u against the right-hand
sides their steps solved, and on "both-verify" one Green quadrature of their
mollified S; the largest of each is the largest of its frames' own values.
``march`` advances simulations that share grid, schedule, material, body
force and elasticity path in lockstep, as (B, n) arrays, each member
bit-identical to its run alone; ``Simulation.run`` is its one-member case.
Each ``march`` call builds once what every step would compute alike, and
the step's functions take it as their one input of constants: the nodes,
the curvature row 2 c nu / x and the step's scalars as 0-d arrays
(``step_constants``), and the FD operator with its LU factors, lam/mu and
h (``elastic_constants``); it builds a lone member's kappa once too, and
for a body force fixed in time (every family but ramp) its b/mu, which
it divides afresh at every step for a ramp.  A call with no first frame to
record and no step to take, such as a study member's ``Simulation.run``
after the lockstep march, builds none of it.
A finished run carries its diagnostics report; ``write_run``/``load_run``
persist it with the config echo and the saved frames in one numpy archive,
``fields.npz``.  A snapshot is a numpy archive of the step, the mollifier
window and the config hash, so a restarted run continues exactly; one
reader, ``_read_arrays``, opens both.  Their layouts are known to this
module alone.  The typed config lives in ``config`` and the monitors in
``diagnostics``, both below this module.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import diagnostics, elasticity
from .grid_field import FLOAT_SLOT, FieldFileError, ScalarField, Trajectory, d1, scalar_array
from .order_parameter import (
    MollifierState, StepRejected, driving_force, mollify, semi_implicit_step, step_constants, window_length,
)
from .elasticity import GreenKernel, elastic_constants, fd_residual, solve_elasticity
# BodyForce is not used here by name: bench/tracer.py reaches it as simulator.BodyForce.
from .config import (
    BodyForce, ConfigInvalid, SimulationConfig, config_digest, config_echo, parse_config_text,
)

SNAPSHOT_VERSION = 2


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


class Simulation:
    """Owns the marching state of one run; not shared between threads."""

    def __init__(self, config: SimulationConfig, _restore=None):
        self.config = config
        self.grid = config.grid
        self.mollifier = MollifierState(config.reg.kappa_m, config.reg.dt, config.n_steps + 1)
        if _restore is None:
            self.step_index = 0
            self.s = config.init.build(self.grid)
            self.mollifier.push(self.s, 0.0)
        else:
            self.step_index, window = _restore
            # a run pushes its initial state and then one frame per step
            self.mollifier.restore(window, config.step_time(self.step_index), self.step_index + 1)
            # a copy, so the first frame of the resumed run does not hold the whole window
            self.s = window[0].copy()
        self.time = config.step_time(self.step_index)
        self.u: Optional[np.ndarray] = None  # displacement of the current state, once solved
        self.termination = Termination("completed")
        self.times: list[float] = []
        self.s_frames: list[ScalarField] = []
        self.u_frames: list[ScalarField] = []
        self.frame_steps: list[int] = []
        self.residual_max = 0.0
        self.discrepancy_max = None
        # what the next frame check reads of the frames recorded since the
        # last one: the FD right-hand sides, and on "both-verify" the mollified S
        self._unchecked_rhs: list[np.ndarray] = []
        self._unchecked_s_moll: list[np.ndarray] = []

    def _record_frame(self, u: np.ndarray, s_moll: np.ndarray, rhs: np.ndarray):
        """Save S and u, and keep what ``_check_frames`` reads: u's FD ``rhs``, on "both-verify" ``s_moll``."""
        # every step makes new s and u arrays, so the frames need no copy
        self.times.append(self.time)
        self.s_frames.append(ScalarField(self.grid, self.s))
        self.u_frames.append(ScalarField(self.grid, u))
        self.frame_steps.append(self.step_index)
        self._unchecked_rhs.append(rhs)
        if self.config.elasticity_path == "both-verify":
            self._unchecked_s_moll.append(s_moll)

    def _check_frames(self):
        """Fold the frames recorded since the last call into the residual and discrepancy maxima.

        One FD residual of the stacked u against their right-hand sides, and
        on "both-verify" one Green quadrature of their mollified S against the
        body force at their times.  Each row of a stacked pass is the bits of
        its frame alone, and the maxima fold the frames in order, so both are
        those of a check per frame.
        """
        count = len(self._unchecked_rhs)
        if not count:
            return
        grid = self.grid
        u = np.array([frame.values for frame in self.u_frames[-count:]])
        self.residual_max = max(self.residual_max, *fd_residual(u, np.array(self._unchecked_rhs), grid).tolist())
        if self._unchecked_s_moll:
            b_mu = self.config.body_over_mu(np.array(self.times[-count:])[:, None])
            # looked up on the module, where bench/tracer.py wraps it
            u_green = elasticity.solve_green(GreenKernel(grid.a, grid.d),
                                             ScalarField(grid, np.array(self._unchecked_s_moll)), b_mu,
                                             elastic_constants(grid, self.config.material).lam_mu)
            # np.abs(u - u_green), in place
            gap = np.subtract(u, u_green, out=u_green)
            gaps = np.max(np.abs(gap, out=gap), axis=-1).tolist()
            self.discrepancy_max = max(self.discrepancy_max or 0.0, *gaps)
        self._unchecked_rhs.clear()
        self._unchecked_s_moll.clear()

    def run(self, until_step: Optional[int] = None) -> RunResult:
        """March to ``until_step`` (the final step when None) and report every frame recorded so far.

        A second call continues where the first stopped; after a rejected
        step, or once the run is at its stop, it marches nothing further.
        The frames recorded since the last call are checked here
        (``_check_frames``).
        """
        march([self], until_step)
        self._check_frames()
        traj = Trajectory(
            np.array(self.times), list(self.s_frames), list(self.u_frames), np.array(self.frame_steps)
        )
        return RunResult(
            trajectory=traj,
            report=diagnostics.build_report(traj, self.config),
            termination=self.termination,
            elasticity_residual_max=self.residual_max,
            path_discrepancy_max=self.discrepancy_max,
            config=self.config,
        )


def _lockstep_key(config: SimulationConfig) -> tuple:
    """What members marched together share: the config but kappa, kappa_m and the initial data."""
    reg = config.reg
    return (
        config.grid, config.t_end, config.save_every, config.material, config.body,
        config.elasticity_path, reg.dt, reg.increment_guard,
    )


def _stack(rows: list[np.ndarray]) -> np.ndarray:
    """Members' rows as one array: (B, n), or the row itself for a lone member.

    A lone member keeps the (n,) shape of a run alone, because numpy's per-call
    cost on a (1, n) stack makes each of a step's small operations slower.
    """
    return rows[0] if len(rows) == 1 else np.array(rows)


def _rows(batch: np.ndarray):
    """The members' rows of a batch made by ``_stack``."""
    return (batch,) if batch.ndim == 1 else batch


def _solve_for_u(sims: list[Simulation], t: float, elastic):
    """Displacements of the members at time t on the run's ``elastic_constants``: (u, rhs, s_moll), batched by
    ``_stack``."""
    s_moll = _stack([mollify(sim.mollifier, t) for sim in sims])
    u, rhs = solve_elasticity(s_moll, sims[0].config.body_over_mu(t), elastic)
    return u, rhs, s_moll


def _record_frames(sims: list[Simulation], u, rhs, s_moll):
    for sim, u_row, rhs_row, moll_row in zip(sims, _rows(u), _rows(rhs), _rows(s_moll)):
        sim._record_frame(u_row, moll_row, rhs_row)


def march(sims: Sequence[Simulation], until_step: Optional[int] = None):
    """Advance the simulations together to ``until_step`` (the final step when None).

    The members may differ in ``reg.kappa``, ``reg.kappa_m`` and initial data
    only, and must stand at the same step.  S and u are held as (B, n)
    arrays (``_stack``).  Each time step makes one derivative pair, one
    driving force, one order-parameter step (one solve of size B*n), one
    body force and one elasticity solve with B right-hand sides; each member
    mollifies and pushes its own window.  A recorded frame keeps the
    right-hand side of that solve, and on "both-verify" its mollified S, for
    the frame check of the member's next ``Simulation.run`` call.
    A member whose step is rejected stops there with its own termination
    while the others go on, and a member that already stopped on a rejected
    step is left as it is.  Every member records the frames, S and u of its
    run alone, bit for bit.
    """
    active = [sim for sim in sims if sim.termination.status == "completed"]
    if not active:
        return
    lead = active[0]
    cfg = lead.config
    key = _lockstep_key(cfg)
    if any(_lockstep_key(sim.config) != key or sim.step_index != lead.step_index for sim in active):
        raise ValueError("simulations marched together must share all config but kappa, kappa_m and "
                         "initial data, and stand at the same step")
    stop = cfg.n_steps if until_step is None else min(until_step, cfg.n_steps)
    if lead.step_index >= stop and all(sim.u is not None for sim in active):
        return  # no first frame to record and no step to take
    # what the members share, looked up once, and what every step would compute alike, built once
    grid, material, reg = cfg.grid, cfg.material, cfg.reg
    h, save_every, step_time, guard = grid.h, cfg.save_every, cfg.step_time, reg.increment_guard
    constants = step_constants(grid.x, h, material)
    elastic = elastic_constants(grid, material)
    two_h = constants.two_h
    fresh = [sim for sim in active if sim.u is None]
    if fresh:
        u, rhs, s_moll = _solve_for_u(fresh, lead.time, elastic)
        _record_frames(fresh, u, rhs, s_moll)
        for sim, row in zip(fresh, _rows(u)):
            sim.u = row
    # b/mu of a body force fixed in time is divided once, a ramp's at every step
    fixed = cfg.body.time_independent
    if fixed:
        b_mu = cfg.body_over_mu(lead.time)
    step, time = lead.step_index, lead.time
    s = _stack([sim.s for sim in active])
    u = _stack([sim.u for sim in active])
    # a lone member steps with its own reg.kappa, a batch with a column of them
    lone = s.ndim == 1
    kappa = scalar_array(reg.kappa) if lone else np.array([[sim.config.reg.kappa] for sim in active])
    while step < stop:
        s_x = d1(s, h, two_h=two_h)
        force = driving_force(u, d1(u, h, two_h=two_h), s, s_x, constants)
        t_next = step_time(step + 1)
        try:
            s = semi_implicit_step(s, force, t_next - time, kappa, guard, s_x, constants)
        except StepRejected as exc:
            rejected = np.ones(1, dtype=bool) if exc.rejected is None else exc.rejected
            for sim, row, stopped in zip(active, _rows(u), rejected):
                if stopped:
                    sim.termination = Termination("step-rejected", time)
                    sim.u = row
            kept = ~rejected
            active = [sim for sim, keep in zip(active, kept) if keep]
            if not active:
                return
            # kappa is a float only for a lone member, whose rejection returned above
            s, kappa = exc.new[kept], kappa[kept]
        step += 1
        time = t_next
        # _solve_for_u's work, without its per-member lists for a lone member
        if lone:
            lead.step_index, lead.time, lead.s = step, time, s
            lead.mollifier.push(s, time)
            s_moll = mollify(lead.mollifier, time)
        else:
            for sim, row in zip(active, s):
                sim.step_index, sim.time, sim.s = step, time, row
                sim.mollifier.push(row, time)
            s_moll = _stack([mollify(sim.mollifier, time) for sim in active])
        if not fixed:
            b_mu = cfg.body_over_mu(time)
        u, rhs = solve_elasticity(s_moll, b_mu, elastic)
        if step % save_every == 0 or step == stop:
            _record_frames(active, u, rhs, s_moll)
    for sim, row in zip(active, _rows(u)):
        sim.u = row


# --- snapshot files --------------------------------------------------------


def _read_arrays(path, names) -> tuple:
    """The members ``names`` of the numpy archive at ``path``, never unpickled; ``FieldFileError`` naming the
    file for each error numpy raises on a damaged one, none an ``OSError``: a damaged zip (its CRC catches a
    flipped byte), an empty file, an object or missing member, a plain .npy (an array, indexed by a name with
    an IndexError)."""
    try:
        with open(path, "rb") as file:
            archive = np.load(file, allow_pickle=False)
            return tuple(archive[name] for name in names)
    except (zipfile.BadZipFile, EOFError, ValueError, LookupError) as exc:
        raise FieldFileError(f"{path}: {exc}") from None


def save_snapshot(path, sim: Simulation):
    """Write what ``sim`` resumes from to ``path`` as one numpy archive: ``version``, ``config_hash``, ``step``
    and ``window``, the mollifier frames, newest first.  Into an open file, so numpy adds no .npz to the name."""
    with open(path, "wb") as file:
        np.savez(file, version=SNAPSHOT_VERSION, config_hash=config_digest(sim.config), step=sim.step_index,
                 window=sim.mollifier.frames)


def load_snapshot(path, config: SimulationConfig) -> Simulation:
    """The simulation saved at ``path`` by ``save_snapshot``, to continue under ``config``; ``FieldFileError``
    naming the file for a JSON snapshot of earlier versions, a damaged archive, or a ``step`` or ``window``
    that does not fit the config."""
    with open(path, "rb") as file:
        if file.read(1) == b"{":
            raise FieldFileError(f"{path}: an earlier version's JSON snapshot, which this version does not read")
    version, config_hash, step, window = _read_arrays(path, ("version", "config_hash", "step", "window"))
    # tolist() of a 0-d member is its scalar, and of any other a list, which equals neither
    if version.tolist() != SNAPSHOT_VERSION:
        raise VersionMismatch(f"{path}: snapshot version {version} != {SNAPSHOT_VERSION}")
    if config_hash.tolist() != config_digest(config):
        raise ChecksumMismatch(f"{path}: snapshot was produced by a different config")
    if not (step.ndim == 0 and np.issubdtype(step.dtype, np.integer) and 0 <= step <= config.n_steps):
        raise FieldFileError(f"{path}: expected an integer step in [0, {config.n_steps}], "
                             f"got {step} of dtype {step.dtype}")
    rows = min(window_length(config.reg.kappa_m, config.reg.dt), int(step) + 1)
    if window.dtype != np.float64 or window.shape != (rows, config.grid.n):
        raise FieldFileError(f"{path}: expected a float64 window of shape {(rows, config.grid.n)} at step {step}, "
                             f"got {window.dtype} of shape {window.shape}")
    return Simulation(config, _restore=(int(step), window))


# --- run-directory persistence ---------------------------------------------


# Field files of earlier layouts, which write_run and load_run refuse: one table per field, then one file per frame.
EARLIER_LAYOUTS = ("S.csv", "u.csv", "frames")


def _refuse_earlier_layout(out: Path):
    for name in EARLIER_LAYOUTS:
        if (out / name).exists():
            raise FieldFileError(f"{out / name}: a field file of an earlier version's run directory, "
                                 "which this version neither reads nor writes over")


def write_run(out_dir, result: RunResult):
    """Persist the fields, diagnostics and metadata under ``out_dir``, over any earlier run there.

    ``fields.npz`` is one uncompressed numpy archive of the frames' ``step`` and
    ``time`` (K,), the nodes ``x`` (n,), and ``S`` and ``u`` (K, n).  A directory of
    an earlier layout raises ``FieldFileError`` before anything is written.
    """
    out = Path(out_dir)
    _refuse_earlier_layout(out)
    out.mkdir(parents=True, exist_ok=True)
    traj = result.trajectory
    np.savez(out / "fields.npz", step=traj.steps, time=traj.times, x=traj.grid.x, S=traj.s_matrix(), u=traj.u_matrix())
    (out / "diagnostics.csv").write_text(result.report.to_csv_text())
    meta = [
        "# confsim run metadata",
        f"config_hash = {config_digest(result.config)}",
        f"termination = {result.termination.status}",
    ]
    if result.termination.fail_time is not None:
        meta.append(f"fail_time = {FLOAT_SLOT % result.termination.fail_time}")
    meta.append("[config]")
    meta.append(config_echo(result.config).rstrip("\n"))
    (out / "meta.txt").write_text("\n".join(meta) + "\n")


def load_run(run_dir):
    """Read back a persisted run: (trajectory, config, diagnostics text).

    Raises ``FieldFileError`` naming the file for an earlier layout's field
    file, a ``meta.txt`` without ``[config]``, whose config does not parse (a
    key an older version wrote, say) or whose ``config_hash`` is not its
    digest, and a ``fields.npz`` that is damaged, lacks a member, has one of
    another dtype or shape, nodes other than the grid's bit for bit, or times
    not strictly increasing (the first may follow 0: a resumed run's does).
    """
    out = Path(run_dir)
    _refuse_earlier_layout(out)
    meta_path = out / "meta.txt"
    head, sep, config_text = meta_path.read_text().partition("[config]")
    if not sep:
        raise FieldFileError(f"{meta_path}: no [config] line")
    try:
        # a blank line for each line above [config] keeps a parse error's line number the file's
        config = parse_config_text("\n" * head.count("\n") + config_text)
    except ConfigInvalid as exc:
        raise FieldFileError(f"{meta_path}: {exc}") from None
    stated = [line.partition(" = ")[2] for line in head.splitlines() if line.startswith("config_hash = ")]
    if not stated:
        raise FieldFileError(f"{meta_path}: no config_hash line")
    if stated != [config_digest(config)]:
        raise FieldFileError(f"{meta_path}: config_hash differs from the digest of its [config] section")
    grid = config.grid
    path = out / "fields.npz"
    steps, times, x, s, u = _read_arrays(path, ("step", "time", "x", "S", "u"))
    if not np.issubdtype(steps.dtype, np.integer) or any(a.dtype != np.float64 for a in (times, x, s, u)):
        raise FieldFileError(f"{path}: expected an integer step and float64 time, x, S and u, got "
                             f"{steps.dtype}, {times.dtype}, {x.dtype}, {s.dtype} and {u.dtype}")
    k = len(s) if s.ndim == 2 else 0
    if not (k >= 1 and s.shape == u.shape == (k, grid.n) and steps.shape == times.shape == (k,)):
        raise FieldFileError(f"{path}: expected S and u of shape (K >= 1, {grid.n}) and step and time of "
                             f"shape (K,), got {s.shape}, {u.shape}, {steps.shape} and {times.shape}")
    if not np.array_equal(x, grid.x):
        raise FieldFileError(f"{path}: x differs from the nodes of the grid on [{grid.a:g}, {grid.d:g}]")
    if not np.all(np.diff(times) > 0):
        raise FieldFileError(f"{path}: times do not increase strictly")
    traj = Trajectory(
        times, [ScalarField(grid, row) for row in s], [ScalarField(grid, row) for row in u], steps
    )
    diag_text = (out / "diagnostics.csv").read_text()
    return traj, config, diag_text
