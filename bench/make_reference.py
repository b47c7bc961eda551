"""Record the headline outputs that ``result_dev`` compares against.

    python3 bench/make_reference.py

Runs every workload on every seed slot once, untraced, and writes
``reference.json``: the final S on 33 evenly spaced nodes and the last row
of diagnostics.csv for a run, the D_kappa column for a study.  The file
holds the outputs of the commit that defined the benchmark; rewrite it only
when a change to the outputs is intended, and say so where the change is
recorded.  Refuses to write if any output check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads

JOBS = 2


def main() -> int:
    env = run.worker_env()
    work = run.WORK_ROOT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cases = [(w, slot) for w in workloads.WORKLOADS for slot in range(workloads.SEED_SLOTS)]

    def one(case):
        workload, slot = case
        case_dir = work / f"{workload}-{slot}"
        case_dir.mkdir()
        cfg = case_dir / "case.cfg"
        cfg.write_text(workloads.config_text(workload, slot))
        return run.run_worker(workload, cfg, case_dir / "rep", 0, env, None, timeout=600)

    try:
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            results = list(pool.map(one, cases))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = {w: {} for w in workloads.WORKLOADS}
    bad = 0
    for (workload, slot), (doc, error) in zip(cases, results):
        if doc is None:
            print(f"{workload} slot {slot}: {error}", file=sys.stderr)
            bad += 1
            continue
        for name, ok, detail in doc["checks"]:
            if not ok:
                print(f"{workload} slot {slot}: check {name} failed ({detail})", file=sys.stderr)
                bad += 1
        reference[workload][str(slot)] = doc["headline"]
    if bad:
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE} ({len(cases)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
