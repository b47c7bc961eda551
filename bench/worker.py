"""One repetition of a benchmark workload, in a fresh process.

    python3 bench/worker.py --workload march_long --config case.cfg --out run_dir [--trace 1]

Every repetition starts a new interpreter, so each one pays the imports and
the dense Green build (``elasticity._green_matrices`` is an lru_cache) as a
``confsim run`` user does.  The worker calls the library the way
``confsim.cli`` does: ``parse_config_text`` -> ``Simulation(...).run()`` or
``run_study`` -> ``write_run``/``load_run`` -> ``build_report``.  It prints
one JSON object (timings, output checks, headline outputs and, with
``--trace 1``, per-layer metrics) as its last line of stdout.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import workloads  # noqa: E402

HEADLINE_POINTS = 33  # final S is compared on this many evenly spaced nodes
# The persist round trip is repeated until this much time is spent (at most
# PERSIST_MAX_ROUNDS times) and its median is reported: one round trip takes
# 0.3 ms (study.csv) to 1 s (save_dense), and the short ones are noisy alone.
PERSIST_MIN_S = 0.5
PERSIST_MAX_ROUNDS = 2000


def _run_headline(result) -> dict:
    s = result.trajectory.s_frames[-1].values
    step = (len(s) - 1) / (HEADLINE_POINTS - 1)
    last_row = result.report.to_csv_text().strip().splitlines()[-1]
    return {
        "final_S": [float(s[round(i * step)]) for i in range(HEADLINE_POINTS)],
        "diag_last": [float(v) for v in last_row.split(",")],
    }


def _study_headline(result) -> dict:
    return {"D_kappa": [r.d_kappa for r in result.rows]}


def result_dev(headline: dict, reference: dict) -> float:
    """Largest relative deviation of the headline outputs from the reference.

    final_S and D_kappa are vectors of one quantity and are scaled by their
    largest reference magnitude; each diagnostics column is its own quantity
    and is scaled by its own reference value.
    """
    dev = 0.0
    for key, ref in reference.items():
        got = headline[key]
        if len(got) != len(ref):
            return math.inf
        if key == "diag_last":
            scales = [abs(r) for r in ref]
        else:
            scales = [max(abs(r) for r in ref)] * len(ref)
        for g, r, scale in zip(got, ref, scales):
            if g != r:
                dev = max(dev, abs(g - r) / scale if scale > 0 else math.inf)
    return dev


def _timed_rounds(fn, max_rounds):
    """Repeat fn(), which returns (exact, payload).  Return the median seconds
    of a round, whether every round was exact, and the last payload."""
    times, all_exact, spent = [], True, 0.0
    while len(times) < max_rounds and spent < PERSIST_MIN_S:
        t0 = perf_counter()
        exact, payload = fn()
        times.append(perf_counter() - t0)
        spent += times[-1]
        all_exact = all_exact and exact
    return median(times), all_exact, payload


def _read_study_csv(path) -> list[list[float]]:
    lines = Path(path).read_text().strip().splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--config", required=True, help="generated config file")
    parser.add_argument("--out", required=True, help="directory for the persisted run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the recorded spans here (with --trace 1)")
    parser.add_argument("--reference", help="reference.json with recorded headline outputs")
    parser.add_argument("--slot", type=int, help="seed slot of the config in the reference")
    args = parser.parse_args(argv)
    kind = workloads.WORKLOADS[args.workload]["kind"]
    out = Path(args.out)

    t_import = perf_counter()
    import numpy as np
    import scipy

    import confsim
    from confsim import config, diagnostics, simulator, studies

    import_s = perf_counter() - t_import

    # Study members finish inside run_study; record each member's termination.
    terminations = []
    plain_run = simulator.Simulation.run

    def recording_run(self, *a, **kw):
        res = plain_run(self, *a, **kw)
        terminations.append(res.termination.status)
        return res

    simulator.Simulation.run = recording_run

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install(confsim)

    text = Path(args.config).read_text()
    cfg = config.parse_config_text(text)
    sim = simulator.Simulation(cfg) if kind == "run" else None
    setup_s = perf_counter() - T_START

    checks = []  # (name, ok, detail)

    def check(name, ok, detail=""):
        checks.append((name, bool(ok), str(detail)))

    t0 = perf_counter()
    result = sim.run() if kind == "run" else studies.run_study(cfg)
    run_s = perf_counter() - t0

    if kind == "run":

        def round_trip():
            simulator.write_run(out, result)
            traj, cfg_back, diag_text = simulator.load_run(out)
            recomputed = diagnostics.build_report(traj, cfg_back).to_csv_text()
            return recomputed == diag_text, (traj, cfg_back, diag_text)

        persist_s, all_exact, (traj, cfg_back, diag_text) = _timed_rounds(
            round_trip, 1 if args.trace else PERSIST_MAX_ROUNDS
        )
        check("persist_bit_exact", all_exact and diag_text == result.report.to_csv_text())

        report = result.report
        check("termination_completed", result.termination.status == "completed",
              result.termination.status)
        check("max_principle_margin", report.max_principle_margin <= workloads.MAX_PRINCIPLE_TOL,
              f"{report.max_principle_margin:.3e}")
        try:
            report.validate()
        except ValueError as exc:
            check("report_finite", False, exc)
        else:
            check("report_finite", math.isfinite(result.elasticity_residual_max))
        if cfg.elasticity_path == "both-verify":
            disc = result.path_discrepancy_max
            check("path_discrepancy", disc is not None and disc <= workloads.PATH_DISCREPANCY_TOL,
                  f"{disc:.3e}" if disc is not None else "missing")
        headline = _run_headline(result)
        frames = len(result.trajectory.times)
    else:
        out.mkdir(parents=True, exist_ok=True)

        rows = [
            [r.kappa, r.h, r.dt, r.d_kappa, r.max_principle_margin, r.sup_energy,
             r.weak_residual_max]
            for r in result.rows
        ]

        def round_trip():
            studies.write_study_csv(out / "study.csv", result)
            return _read_study_csv(out / "study.csv") == rows, None

        persist_s, all_exact, _ = _timed_rounds(round_trip, 1 if args.trace else PERSIST_MAX_ROUNDS)
        check("persist_bit_exact", all_exact)
        for i, status in enumerate(terminations):
            check(f"member_{i}_completed", status == "completed", status)
        check("all_members_ran", len(terminations) == len(cfg.kappas), len(terminations))
        margin = max(r.max_principle_margin for r in result.rows)
        check("max_principle_margin", margin <= workloads.MAX_PRINCIPLE_TOL, f"{margin:.3e}")
        check("report_finite", all(math.isfinite(v) for row in rows for v in row))
        check("strictly_decreasing", result.strictly_decreasing)
        headline = _study_headline(result)
        frames = 0

    dev = None
    if args.reference and args.slot is not None:
        ref = json.loads(Path(args.reference).read_text())[args.workload][str(args.slot)]
        dev = result_dev(headline, ref)
        check("result_dev", dev <= workloads.RESULT_DEV_TOL, f"{dev:.3e}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    doc = {
        "setup_s": setup_s,
        "import_s": import_s,
        "run_s": run_s,
        "persist_s": persist_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": checks,
        "result_dev": dev,
        "headline": headline,
        "members_rejected": sum(1 for s in terminations if s != "completed") if kind == "study" else 0,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "confsim": confsim.__version__,
        },
    }

    if tracer is not None:
        layers = tracing.layer_metrics(tracer)
        layers["setup.import_s"] = import_s
        layers["studies.members_rejected"] = doc["members_rejected"]
        tracer.enabled = False
        growth = 0.0
        if kind == "run" and frames >= 4:
            # report cost at K frames over K/2 frames, untraced
            half = (frames + 1) // 2
            half_traj = confsim.Trajectory(
                traj.times[:half], traj.s_frames[:half], traj.u_frames[:half], traj.steps[:half]
            )
            t0 = perf_counter()
            diagnostics.build_report(traj, cfg_back)
            full_s = perf_counter() - t0
            t0 = perf_counter()
            diagnostics.build_report(half_traj, cfg_back)
            growth = full_s / (perf_counter() - t0)
        layers["diagnostics.build_report.growth"] = growth
        layers["simulator.write_run.bytes"] = _tree_bytes(out) if kind == "run" else 0
        doc["layers"] = layers
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.to_records()))
        tracer.uninstall()

    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
