"""Workload definitions shared by the runner, the worker and the reference maker.

Each workload is a config text for ``confsim.config.parse_config_text``.  The
seed only perturbs the initial plateau (amplitude and support edges); the
program under test sees nothing but the generated config.  Seeds are folded
onto ``SEED_SLOTS`` perturbations so that every input has headline outputs
recorded in ``reference.json``.
"""

from __future__ import annotations

import random

SEED_SLOTS = 32

# Why each workload is here, and which layer it loads (also in README.md).
WORKLOADS = {
    "march_long": {
        "kind": "run",
        "why": "2000 steps with the 1250-frame mollifier window full for the last 750; stepping dominates",
        "keys": {"run.t_end": "0.4", "run.save_every": "100"},
        # a 10-step mollifier window so the quick run also sees it full
        "quick": {"run.t_end": "0.004", "run.save_every": "5", "reg.kappa_m": "0.002"},
    },
    "save_dense": {
        "kind": "run",
        "why": "201 saved frames, then write/read back; quadratic report assembly and run I/O dominate",
        "keys": {"run.t_end": "0.04", "run.save_every": "1"},
        "quick": {"run.t_end": "0.002", "run.save_every": "1"},
    },
    "kappa_study": {
        "kind": "study",
        "why": "5-member kappa study on a shared grid; member pool plus aggregation in the studies layer",
        "keys": {"run.t_end": "0.1", "study.kappas": "0.5 0.25 0.125 0.0625 0.03125"},
        "quick": {"run.t_end": "0.004", "run.save_every": "4", "reg.kappa_m": "0.002"},
    },
    "fine_verify": {
        "kind": "run",
        "why": "n=2049 with both elasticity paths; dense Green quadrature is memory bound and sets peak RSS",
        "keys": {
            "grid.n": "2049",
            "run.elasticity_path": "both-verify",
            "run.t_end": "0.04",
            "run.save_every": "20",
        },
        "quick": {"run.t_end": "0.002", "run.save_every": "2"},
    },
}

# Workloads whose run is persisted with write_run/load_run (a study writes study.csv).
RUN_WORKLOADS = tuple(name for name, w in WORKLOADS.items() if w["kind"] == "run")

# fine_verify runs both elasticity paths; the seed commit gives about 6.5e-9.
PATH_DISCREPANCY_TOL = 1e-7
MAX_PRINCIPLE_TOL = 1e-8
# Largest relative deviation of a headline output from reference.json that
# still counts as correct: roundoff-level changes pass, real changes do not.
RESULT_DEV_TOL = 1e-6


def seed_slot(seed: int) -> int:
    return seed % SEED_SLOTS


def plateau_keys(workload: str, slot: int) -> dict:
    """Deterministic perturbation of the initial plateau for one seed slot."""
    rng = random.Random(f"{workload}:{slot}")
    return {
        "init.amplitude": f"{0.8 + 0.08 * (2.0 * rng.random() - 1.0):.6f}",
        "init.support_lo": f"{0.3 + 0.03 * (2.0 * rng.random() - 1.0):.6f}",
        "init.support_hi": f"{0.7 + 0.03 * (2.0 * rng.random() - 1.0):.6f}",
    }


def config_text(workload: str, seed: int, quick: bool = False) -> str:
    spec = WORKLOADS[workload]
    keys = dict(spec["keys"])
    if quick:
        keys.update(spec["quick"])
    keys.update(plateau_keys(workload, seed_slot(seed)))
    lines = [f"# confsim benchmark workload {workload}, seed {seed}"]
    lines += [f"{key} = {value}" for key, value in sorted(keys.items())]
    return "\n".join(lines) + "\n"
