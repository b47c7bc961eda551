"""A fixed reference computation that measures how fast the host runs now.

On a shared host a vCPU's speed changes by up to 2x for seconds to minutes
at a time with other tenants' load, while CPU time stays equal to wall
time.  ``run.py`` times this probe on the CPU it pins the next worker to,
just before it starts the worker and just after the worker ends, and
reports that repetition's times scaled by ``REFERENCE_S`` over the mean
probe time, i.e. in seconds at the speed at which the probe takes
``REFERENCE_S``.  The probe is the benchmark's own code and does what the
program does, with numpy, scipy and plain Python only, so the program
under test never runs in it: time steps (a weighted sum over a window of
stacked frames, a tridiagonal solve and a few small elementwise operations
on a 129-node field), then CSV text written to small files, read back and
parsed.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.linalg import solve_banded

# Probe seconds that define the reference speed: about the probe's time in
# a fast stretch on the host the benchmark was defined on (2 vCPUs, numpy 2
# with scipy-openblas, one thread).
REFERENCE_S = 0.155
NODES = 129
WINDOW = 1000
STEPS = 140
TEXT_ROWS = 400
TEXT_ROUNDS = 12
FILES_PER_ROUND = 10


def _numeric(rng, steps: int) -> np.ndarray:
    frames = deque((rng.random(NODES) for _ in range(WINDOW)), maxlen=WINDOW)
    weights = rng.random(WINDOW)
    weights /= weights.sum()
    ab = np.ones((3, NODES))
    ab[1] = -4.0
    s = rng.random(NODES)
    for _ in range(steps):
        v = weights @ np.stack(frames)
        frames.appendleft(v + 1e-3 * s)
        x = solve_banded((1, 1), ab, v)
        s = np.hypot(np.gradient(x), 0.1) * 0.5 + np.tanh(s)
    return s


def _text_files(rng, rounds: int, directory: Path) -> float:
    """Format rows of floats as CSV text into small files, read them back and
    parse them, as the run I/O and the config parser do in plain Python."""
    rows = rng.random((TEXT_ROWS, 6)).tolist()
    per_file = TEXT_ROWS // FILES_PER_ROUND
    total = 0.0
    for _ in range(rounds):
        parsed = {}
        for f in range(FILES_PER_ROUND):
            path = directory / f"probe_{f:02d}.csv"
            chunk = rows[f * per_file:(f + 1) * per_file]
            path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in chunk))
            for i, line in enumerate(path.read_text().splitlines()):
                parsed[f"row.{f}.{i}"] = [float(v) for v in line.split(",")]
        total += sum(parsed["row.0.0"])
    return total


def probe_s(directory: Path, share: float = 1.0) -> float:
    """Wall seconds of the fixed probe computation, or of a share of its work;
    its files are written in ``directory``."""
    rng = np.random.default_rng(0)
    t0 = perf_counter()
    s = _numeric(rng, max(1, round(STEPS * share)))
    total = _text_files(rng, max(1, round(TEXT_ROUNDS * share)), directory)
    elapsed = perf_counter() - t0
    if not (np.isfinite(s).all() and np.isfinite(total)):  # keeps the results live
        raise FloatingPointError("speed probe diverged")
    return elapsed
