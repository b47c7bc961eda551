"""confsim benchmark: one workload, measured for a fixed time.

    python3 bench/run.py --workload march_long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/confsim`` must be present).
The runner is a closed loop with one caller: it starts one fresh worker
process per repetition (``worker.py``), waits for it, and starts the next
unless it would end after ``--seconds``.  With ``--trace 0`` every
repetition is untraced and the end-to-end metrics are medians over them,
the times taken at the reference speed of ``speed.py``.  With
``--trace 1`` traced and untraced repetitions alternate; the per-layer
metrics are medians over the traced ones and ``trace.overhead_frac``
compares the two.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--quick`` shrinks every workload to a few steps and one
repetition of each kind, for ``smoke.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
WORK_ROOT = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"
DEADLINE_S = 150.0  # the whole invocation must end well within 180 s
MIN_REPS = 3
# Times reported at the reference speed: each repetition's value is
# multiplied by its "speed", speed.REFERENCE_S over the mean of the probe
# times measured just before the worker starts and just after it ends.
SCALED = ("setup_s", "run_s", "persist_s")
# Share of the probe's work timed on each CPU to choose the fastest.
CHOICE_SHARE = 0.25

# Layers compared in the printed split of a traced run (inclusive seconds).
SPLIT_LAYERS = (
    "order_parameter.mollify",
    "order_parameter.semi_implicit_step",
    "order_parameter.driving_force",
    "elasticity.solve_fd",
    "elasticity.solve_green",
    "simulator.body_force",
    "diagnostics.build_report",
)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # One thread everywhere.  With two study threads on a 2-vCPU host, run_s
    # of kappa_study followed the host's load on the second vCPU: it stepped
    # from 2.3 s to 3.8 s between consecutive runs while single-threaded
    # workloads moved 15%.  One pool thread still runs the pool's code path.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "CONFSIM_THREADS"):
        env[var] = "1"
    return env


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "confsim").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def run_worker(workload, cfg_path, rep_dir, trace, env, slot, timeout):
    rep_dir.mkdir(parents=True)
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--config", str(cfg_path),
        "--out", str(rep_dir / "run"),
        "--trace", str(trace),
    ]
    if trace:
        cmd += ["--spans", str(rep_dir / "spans.json")]
    if slot is not None:
        cmd += ["--reference", str(REFERENCE), "--slot", str(slot)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited {proc.returncode}: {proc.stderr.strip()[-600:]}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, f"worker printed no result: {lines[-1][:200]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny t_end and one repetition of each kind (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "confsim" / "__init__.py").is_file():
        print(f"error: no confsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.quick and not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2
    # metric names and units come from BENCHMARK.json, as {name: unit}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {section: {m["name"]: m["unit"] for m in spec[section]}
             for section in ("end_to_end", "per_layer")}

    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # running worker, and the finally below removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    env = worker_env()
    # byte-compile once so the first repetition's import time is not an outlier
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "confsim")],
                   env=env, check=True)

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return measure(args, env, work, started, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def measure(args, env, work: Path, started: float, units: dict) -> int:
    cfg_path = work / "case.cfg"
    cfg_path.write_text(workloads.config_text(args.workload, args.seed, args.quick))
    slot = None if args.quick else workloads.seed_slot(args.seed)
    # untraced repetitions give the end-to-end numbers; with --trace 1 they
    # alternate with traced ones so the overhead compares like with like
    if args.quick:
        min_untraced, min_traced = 1, args.trace
    else:
        min_untraced, min_traced = (2, 2) if args.trace else (MIN_REPS, 0)

    cpus = sorted(os.sched_getaffinity(0))
    untraced, traced, errors, rep_walls = [], [], [], []
    attempted = failed = 0
    rep = 0
    while True:
        elapsed = time.perf_counter() - started
        enough = len(untraced) >= min_untraced and len(traced) >= min_traced
        # stop before a repetition that would end past --seconds
        if enough and (args.quick or elapsed + median(rep_walls) > args.seconds):
            break
        if elapsed > DEADLINE_S - 20.0:
            break
        trace = args.trace * (rep % 2)
        cpu, probe_before = pin_fastest_cpu(cpus, work)
        doc, error = run_worker(args.workload, cfg_path, work / f"rep{rep:03d}", trace, env, slot,
                                timeout=DEADLINE_S - elapsed)
        probe_after = speed.probe_s(work)
        rep_walls.append(time.perf_counter() - started - elapsed)
        rep += 1
        if doc is None:
            attempted += 1
            failed += 1
            errors.append(error)
            break
        doc["speed"] = speed.REFERENCE_S / ((probe_before + probe_after) / 2)
        doc["cpu"] = cpu
        for name, ok, detail in doc["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                errors.append(f"check {name} failed ({detail})")
        (traced if trace else untraced).append(doc)
        if trace and (work / f"rep{rep - 1:03d}" / "spans.json").is_file():
            TRACE_OUT.mkdir(exist_ok=True)
            shutil.copy(work / f"rep{rep - 1:03d}" / "spans.json",
                        TRACE_OUT / f"{args.workload}.spans.json")

    report(args, env, untraced, traced, attempted, failed, errors, units["end_to_end"])
    correct = failed == 0 and bool(untraced) and (bool(traced) or not args.trace)
    if args.trace:
        metrics = per_layer_metrics(untraced, traced, units["per_layer"]) if correct else {}
    else:
        metrics = {
            name: {"value": median(samples(untraced, name)), "unit": unit}
            for name, unit in units["end_to_end"].items()
        } if untraced else {}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def pin_fastest_cpu(cpus, work: Path) -> tuple:
    """Pin this process, and so the next worker, to the CPU on which a short
    speed probe runs fastest now; return that CPU and the full probe's time
    there.

    The host's speed changes per vCPU (a busy sibling hyperthread halves it
    for tens of seconds), so the probe and the worker it scales share one.
    The full probe is timed after the choice, so that the choice does not
    bias it towards a lucky fast sample.
    """
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = speed.probe_s(work, CHOICE_SHARE)
    cpu = min(times, key=times.get)
    os.sched_setaffinity(0, {cpu})
    return cpu, speed.probe_s(work)


def samples(docs, name) -> list:
    """One value of an end-to-end metric per repetition; times at reference speed."""
    return [d[name] * d["speed"] if name in SCALED else d[name] for d in docs]


def per_layer_metrics(untraced, traced, units: dict) -> dict:
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_frac":
            value = median(samples(traced, "run_s")) / median(samples(untraced, "run_s")) - 1
        elif name == "check.result_dev":
            devs = [d["result_dev"] for d in untraced + traced if d["result_dev"] is not None]
            value = max(devs, default=0.0)
        else:
            value = median([d["layers"][name] for d in traced])
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def report(args, env, untraced, traced, attempted, failed, errors, e2e_units: dict):
    docs = untraced + traced
    ident = source_identity()
    versions = docs[0]["versions"] if docs else {"python": platform.python_version()}
    print(f"confsim benchmark  workload={args.workload}  seed={args.seed} "
          f"(slot {workloads.seed_slot(args.seed)})  trace={args.trace}  quick={args.quick}")
    print(f"  why: {workloads.WORKLOADS[args.workload]['why']}")
    print(f"  nproc={os.cpu_count()}  "
          + "  ".join(f"{v}={env[v]}" for v in ("CONFSIM_THREADS", "OPENBLAS_NUM_THREADS"))
          + "  " + "  ".join(f"{k}={v}" for k, v in versions.items()))
    print(f"  git_sha={ident['git_sha']}  src_sha256={ident['src_sha256']}")
    print(f"  repetitions: {len(untraced)} untraced, {len(traced)} traced, each in a fresh process "
          f"pinned to the CPU with the fastest probe; cpus used: "
          + " ".join(str(d["cpu"]) for d in docs))
    if untraced:
        n = len(untraced)
        print(f"  end-to-end (untraced; median, min, max over n={n}, times at reference speed, "
              f"then wall time; no tail percentile, it needs 10 samples beyond it)")
        for name, unit in e2e_units.items():
            vals = samples(untraced, name)
            line = (f"    {name:<14} {median(vals):>12.6g} {unit:<3} "
                    f"min {min(vals):.6g}  max {max(vals):.6g}")
            if name in SCALED:
                wall = [d[name] for d in untraced]
                line += f"  wall {median(wall):.6g} min {min(wall):.6g} max {max(wall):.6g}"
            print(line)
        speeds = [d["speed"] for d in untraced]
        print(f"    speed          {median(speeds):>12.4f}     min {min(speeds):.4f}  "
              f"max {max(speeds):.4f}  (speed.REFERENCE_S over the probe time)")

    devs = [d["result_dev"] for d in docs if d["result_dev"] is not None]
    print(f"  failed_frac    {failed / max(attempted, 1):.6g} ({failed} of {attempted} operations)")
    if devs:
        print(f"  result_dev     {max(devs):.3e} (tolerance {workloads.RESULT_DEV_TOL:g})")
    else:
        print("  result_dev     not checked (quick mode has no reference)")
    if traced:
        layers = {
            name: median([d["layers"][f"{name}.s"] for d in traced]) for name in SPLIT_LAYERS
        }
        run_s = median([d["layers"]["simulator.run.s"] for d in traced]) or 1.0
        print("  layer split (traced; inclusive seconds over all phases; share of simulator.run)")
        for name, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"    {name:<38} {secs:>10.4f} s  {secs / run_s:6.1%}")
        top = max(layers, key=layers.get)
        print(f"  top layer: {top}")
    for err in errors:
        print(f"  FAILED: {err}")


if __name__ == "__main__":
    sys.exit(main())
