"""Command-line front end.

Exit codes are the machine-readable channel: 0 success, 1 bad input (a
command-line usage error, a config or validation failure, a damaged run
directory, or a run with no 3D lift), 2 numerical failure (a rejected step,
or a run whose monitors overflowed to inf or nan).  stdout carries
human-readable tables only; outputs land in the directory given by --out.
numpy's floating-point warnings are silenced while a command runs, so an
overflow reaches stderr as one ``error:`` line, as does a usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import ConfigInvalid, SimulationConfig, StudyConfig, parse_config_text
from .diagnostics import NonFiniteReport
from .grid_field import FieldFileError
from .reduction3d import NoLift, RadialLift, random_shell_points, residual_elasticity_3d, residual_order_3d
from .simulator import Simulation, load_run, write_run
from .studies import mms_convergence, run_study, write_refinement_csv, write_study_csv

_INPUT_ERRORS = (ConfigInvalid, FieldFileError, NoLift, OSError)


def _load(args, want) -> object:
    cfg = parse_config_text(Path(args.config).read_text() if args.config else "", args.set)
    if not isinstance(cfg, want):
        raise ConfigInvalid(f"config_kind: expected a {'study' if want is StudyConfig else 'simulation'} config")
    return cfg


def _cmd_run(args) -> int:
    cfg = _load(args, SimulationConfig)
    result = Simulation(cfg).run()
    out = Path(args.out)
    write_run(out, result)
    report = result.report
    print(f"frames saved        : {len(result.trajectory.times)}")
    print(f"final time          : {result.trajectory.times[-1]:.6g}")
    print(f"max principle margin: {report.max_principle_margin:.3e}")
    print(f"sup gradient energy : {report.sup_energy:.6g}")
    print(f"weak residual (max) : {report.weak_residual_max:.3e}")
    print(f"elasticity residual : {result.elasticity_residual_max:.3e}")
    if result.path_discrepancy_max is not None:
        print(f"path discrepancy    : {result.path_discrepancy_max:.3e}")
    if result.termination.status != "completed":
        print(f"run stopped early   : step rejected at t = {result.termination.fail_time:.6g}")
        return 2
    return 0


def _rejected_tag(termination) -> str:
    if termination.status == "completed":
        return ""
    if termination.fail_time is None:
        return f" ({termination.status})"
    return f" (rejected at t = {termination.fail_time:.6g})"


def _members_exit(terminations) -> int:
    """Exit code of a study: 2 when any member stopped on a rejected step or overflowed."""
    return 2 if any(t.status != "completed" for t in terminations) else 0


def _cmd_study(args) -> int:
    study = _load(args, StudyConfig)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_study(study)
    if study.is_refinement:
        print("kappa      h           dt          weak_res")
        for r in result.rows:
            tag = _rejected_tag(r.termination)
            print(f"{r.kappa:<10.5g} {r.h:<11.5g} {r.dt:<11.5g} {r.weak_residual_max:.4e}{tag}")
        write_refinement_csv(out / "refinement.csv", result)
    else:
        write_study_csv(out / "study.csv", result)
        print("kappa      D_kappa      margin       sup_energy   weak_res")
        for r in result.rows:
            tag = " (ref)" if r.is_reference else ""
            print(
                f"{r.kappa:<10.5g} {r.d_kappa:<12.4e} {r.max_principle_margin:<12.4e} "
                f"{r.sup_energy:<12.6g} {r.weak_residual_max:<.4e}{tag}{_rejected_tag(r.termination)}"
            )
        print(f"distance sequence strictly decreasing: {result.strictly_decreasing}")
    return _members_exit(r.termination for r in result.rows)


def _cmd_check_reduction(args) -> int:
    if args.samples < 1:
        raise ConfigInvalid(f"samples: --samples must be at least 1, got {args.samples}")
    if not args.h3 > 0:
        raise ConfigInvalid(f"h3: --h3 must be positive, got {args.h3}")
    traj, cfg, _ = load_run(args.run)
    width = cfg.grid.d - cfg.grid.a
    if not 6 * args.h3 < width:
        # samples keep 3*h3 from each wall, so the shell must be wider than 6*h3
        raise ConfigInvalid(f"h3: --h3 = {args.h3} needs 6*h3 < d - a = {width:g}; sample margin is 3*h3")
    if len(traj.times) < 2:
        raise ConfigInvalid("frames: need at least two saved frames")
    k = len(traj.times) - 1
    lift0, lift1 = (
        RadialLift.from_frames(
            cfg.grid, traj.u_frames[i].values, traj.s_frames[i].values,
            cfg.body.evaluate(float(traj.times[i]), cfg.grid), cfg.material,
        )
        for i in (k - 1, k)
    )
    dt = float(traj.times[k] - traj.times[k - 1])

    rng = np.random.default_rng(11)
    pts = random_shell_points(cfg.grid.a, cfg.grid.d, args.samples, rng, margin=3 * args.h3)
    balance = residual_elasticity_3d(lift0, pts, args.h3)
    evolution, identity = residual_order_3d(lift0, lift1, dt, pts, cfg.material, args.h3)
    print(f"samples: {args.samples}   h3: {args.h3}")
    print("residual                         max")
    print(f"elasticity balance               {np.max(balance):.4e}")
    print(f"order-parameter evolution        {np.max(evolution):.4e}")
    print(f"strain pairing identity          {np.max(identity):.4e}")
    return 0


def _cmd_mms(args) -> int:
    result = mms_convergence()
    print("manufactured-solution convergence")
    print(f"elasticity slope   : {result.elasticity_slope:.3f}   errors {result.elasticity_errors}")
    quad = "exact (machine precision, slope undefined)" if result.quadratic_exact else "NOT exact"
    print(f"quadratic case     : {quad} (error {result.quadratic_error:.3e})")
    print(f"parabolic dt slope : {result.dt_slope:.3f}   errors {result.dt_errors}")
    print(f"parabolic h slope  : {result.h_slope:.3f}   errors {result.h_errors}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigInvalid, so they exit 1 as bad input."""

    def error(self, message):
        raise ConfigInvalid(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="confsim")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file path")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                       help="override a config key")
        p.add_argument("--out", default="out", help="output directory")

    common(sub.add_parser("run", help="run one simulation"))
    common(sub.add_parser("study", help="run a regularization study"))
    pr = sub.add_parser("check-reduction", help="3D residuals of a persisted run")
    pr.add_argument("--run", required=True, help="run output directory")
    pr.add_argument("--samples", type=int, default=50)
    pr.add_argument("--h3", type=float, default=5.0e-3)
    sub.add_parser("mms", help="manufactured-solution convergence orders")

    return parser


_HANDLERS = {
    "run": _cmd_run,
    "study": _cmd_study,
    "check-reduction": _cmd_check_reduction,
    "mms": _cmd_mms,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            return _HANDLERS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NonFiniteReport as exc:
        print(f"error: run overflowed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
