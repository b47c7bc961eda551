#!/usr/bin/env python3
"""Default regularization study: four halvings against a finer reference.

Writes out/study/study.csv and prints the distance table.  The distances
measure how far the signed gradient flux |S_x|S_x/2 of each run sits from the
reference run in the L^{4/3}(0,T;L^2) norm; they should decrease strictly as
the regularization parameter shrinks toward the reference.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from confsim.config import StudyConfig, default_config
from confsim.studies import run_study, write_study_csv


def main():
    base = default_config()
    study = StudyConfig(base=base, kappas=(0.5, 0.25, 0.125, 0.0625, 0.03125), reference=-1)
    result = run_study(study)
    out = Path("out/study")
    out.mkdir(parents=True, exist_ok=True)
    write_study_csv(out / "study.csv", result)
    print(f"wrote {out / 'study.csv'}")
    print("kappa      D_kappa")
    for row in result.rows:
        tag = " (reference)" if row.is_reference else ""
        print(f"{row.kappa:<10.5g} {row.d_kappa:<12.4e}{tag}")
    print(f"strictly decreasing: {result.strictly_decreasing}")


if __name__ == "__main__":
    main()
