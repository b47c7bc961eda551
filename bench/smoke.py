"""Smoke test of the benchmark itself, in quick mode.

    python3 bench/smoke.py

For every workload, runs ``run.py --quick`` untraced and traced and checks
the result line: exactly the four keys, ``correct`` true, and the metric
names and units of BENCHMARK.json.  A per-layer metric must be nonzero on
every workload it applies to (``APPLIES``).  Finally runs the benchmark in a
directory that holds only BENCHMARK.json and the benchmark files, where it
must fail without printing a result.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS = tuple(workloads.RUN_WORKLOADS)
ALL = tuple(workloads.WORKLOADS)

# Per-layer metrics that must read nonzero, by workload.  The others (for
# example the rejection counters and result_dev) must only be present.
APPLIES = {
    **{
        name: ALL
        for name in (
            "order_parameter.mollify.s",
            "order_parameter.mollify.calls",
            "order_parameter.semi_implicit_step.s",
            "order_parameter.semi_implicit_step.calls",
            "order_parameter.driving_force.s",
            "order_parameter.driving_force.calls",
            "elasticity.solve_elasticity.s",
            "elasticity.solve_elasticity.calls",
            "elasticity.solve_fd.s",
            "elasticity.solve_fd.calls",
            "elasticity.solve_green.s",
            "elasticity.solve_green.calls",
            "elasticity.solve_green.first_s",
            "elasticity.solve_green.bytes_computed",
            "simulator.run.s",
            "simulator.run.self_s",
            "simulator.body_force.s",
            "simulator.body_force.calls",
            "simulator.frames",
            "diagnostics.build_report.s",
            "diagnostics.build_report.self_s",
            "diagnostics.build_report.calls",
            "diagnostics.mixed_norm_series.s",
            "diagnostics.primitive_w14_series.s",
            "diagnostics.weak_residual_series.s",
            "diagnostics.cross_check_series.s",
            "diagnostics.energy_monitor.s",
            "diagnostics.st_l43_series.s",
            "grid_field.norm_lp_time_lq_space.s",
            "grid_field.norm_lp_time_lq_space.calls",
            "config.parse_config_text.s",
            "setup.import_s",
        )
    },
    "order_parameter.mollify.full_over_filling": ("march_long", "kappa_study"),
    "simulator.write_run.s": RUNS,
    "simulator.write_run.bytes": RUNS,
    "simulator.load_run.s": RUNS,
    "diagnostics.build_report.growth": RUNS,
    **{
        name: ("kappa_study",)
        for name in (
            "studies.run_study.s",
            "studies.run_study.self_s",
            "studies.member_run.s",
            "studies.member_run.max_s",
            "studies.member_overlap",
            "studies.weak_residual.s",
            "studies.energy_monitor.s",
            "studies.flux_distance.s",
        )
    },
}


def fail(message: str):
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def run_bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(ALL):
        fail(f"BENCHMARK.json workloads {names} != {sorted(ALL)}")
    for undefined in set(APPLIES) - {m["name"] for m in spec["per_layer"]}:
        fail(f"APPLIES names {undefined}, which BENCHMARK.json does not list")
    for workload in names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                fail(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: not correct\n{proc.stdout}")
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in spec[section]}
            if sorted(metrics) != sorted(expected):
                fail(f"{workload} trace={trace}: metrics {sorted(set(metrics) ^ set(expected))}")
            for name, unit in expected.items():
                value = metrics[name]["value"]
                if metrics[name]["unit"] != unit or not isinstance(value, (int, float)):
                    fail(f"{workload} {name}: {metrics[name]}")
                if section == "end_to_end" and value <= 0:
                    fail(f"{workload} {name} reads {value}")
                if workload in APPLIES.get(name, ()) and value == 0:
                    fail(f"{workload} {name} reads 0 on a workload it applies to")
            print(f"smoke: ok {workload} trace={trace} ({len(metrics)} metrics)")

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, names[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("smoke: ok bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
