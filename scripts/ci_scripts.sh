#!/usr/bin/env bash
# Run every confsim CLI subcommand end to end, and the code-line count, in a
# fresh temporary directory that is removed afterwards.  CI runs this with
# PYTHONWARNINGS=error::RuntimeWarning, so that a stray numpy warning fails a
# script as it fails the suite.
#
# usage: scripts/ci_scripts.sh
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

confsim() {
  PYTHONPATH="$root/src" python3 -m confsim.cli "$@"
}

# refused PATTERN COMMAND...: COMMAND must exit 1 with one stderr line, an "error:" line
# matching PATTERN; the line is left in refused.err for further checks
refused() {
  local pattern="$1"
  shift
  local status=0
  "$@" 2> refused.err || status=$?
  if [ "$status" -ne 1 ] || [ "$(grep -c "^error: .*$pattern" refused.err)" -ne 1 ] \
    || [ "$(wc -l < refused.err)" -ne 1 ]; then
    echo "$* exited $status, expected 1 with one error line matching '$pattern'" >&2
    cat refused.err >&2
    exit 1
  fi
}

# the default run, and the default config's five-member kappa study
confsim run --out run-default
confsim study --out study-default --set "study.kappas=0.5 0.25 0.125 0.0625 0.03125"
# (h, dt, kappa) halved together over three levels: the weak residual decreases level over level
confsim study --out study-halving --set grid.n=33 --set reg.kappa=1 --set reg.dt=4e-4 --set run.t_end=0.02 \
  --set run.save_every=2 --set init.amplitude=0.5 --set "study.kappas=1 0.5 0.25" --set study.h_factor=2 \
  --set study.dt_factor=2
# the code-line count of each module of src/confsim
python3 "$root/scripts/code_lines.py"
confsim run --out run-both-verify --set run.elasticity_path=both-verify --set run.t_end=0.004
# the Green quadrature is the oracle only: a run that asks to march on it must exit 1
refused "elasticity path 'green'" confsim run --out run-green --set run.elasticity_path=green
# every step is backward Euler: the implicitness weight of earlier versions is an unknown key
refused "reg\.theta" confsim run --out run-theta --set reg.theta=0.5
# a time-dependent body force saved every step: the report's body force for a column of
# times, its one Green quadrature of all frames, and each saved frame's reused FD rhs
confsim run --out run-ramp --set run.elasticity_path=both-verify --set run.save_every=1 --set run.t_end=0.004 \
  --set body.family=ramp --set body.amplitude=0.2 --set body.rate=5
# 150 frames saved every step: each (frames, nodes) stack of the report is larger than the
# allocator's mmap threshold, and the report's in-place kernels run end to end
confsim run --out run-dense --set run.save_every=1 --set run.t_end=0.03
# a run directory of the one-file-per-frame layout of earlier versions: writing a run into
# it must exit 1, leave its frames/ in place and write nothing
mkdir -p run-old-layout/frames
echo "k,step,time" > run-old-layout/frames/index.csv
refused "run-old-layout/frames" confsim run --out run-old-layout --set run.t_end=0.002
if [ ! -f run-old-layout/frames/index.csv ] || [ -e run-old-layout/fields.npz ]; then
  echo "run into an old-layout directory did not leave frames/ in place and write nothing" >&2
  exit 1
fi
# a run directory of the one-table-per-field layout of earlier versions (S.csv): writing a run
# into it and checking it must each exit 1, and S.csv stays in place
mkdir -p run-table-layout
printf 'step,time,1,2\n0,0,0.5,0.5\n' > run-table-layout/S.csv
refused "run-table-layout/S\.csv" confsim run --out run-table-layout --set run.t_end=0.002
if [ ! -f run-table-layout/S.csv ] || [ -e run-table-layout/fields.npz ]; then
  echo "run into an S.csv directory did not leave S.csv in place and write nothing" >&2
  exit 1
fi
refused "run-table-layout/S\.csv" confsim check-reduction --run run-table-layout
if [ ! -f run-table-layout/S.csv ]; then
  echo "check-reduction on an S.csv directory did not leave S.csv in place" >&2
  exit 1
fi
# a one-step run whose mollifier window, reg.kappa_m / reg.dt = 2.5e8 steps, cannot be held:
# refused from the config with exit 1 and one error line, before any array is allocated
refused "" timeout 60 env PYTHONPATH="$root/src" python3 -m confsim.cli run --out run-unholdable --set reg.dt=1e-9 \
  --set run.t_end=1e-9
# 1e8 nodes at the default run, whose 101 frames never fill the 1250-step window: the ring of
# 101 rows is refused with exit 1 and one error line that names grid.n and run.t_end
refused "grid\.n" timeout 60 env PYTHONPATH="$root/src" python3 -m confsim.cli run --out run-large-grid \
  --set grid.n=100000000
if [ "$(grep -c 'run\.t_end' refused.err)" -ne 1 ]; then
  echo "run on grid.n=100000000: the error line does not name run.t_end" >&2
  cat refused.err >&2
  exit 1
fi
# a 100-step mollifier window that fills at step 99 and stays full for 300 steps: the
# full-window average in blocks of order_parameter.BLOCK steps, over several blocks
PYTHONWARNINGS=error::RuntimeWarning confsim run --out run-full-window --set reg.kappa_m=0.02 --set run.t_end=0.08
# the stiffness-tensor input of earlier versions is gone: a config file that sets one of its
# keys must exit 1 with one error line, the unknown-key line
printf 'material.tensor.family = diagonal\n' > tensor.cfg
refused "unknown config key 'material\.tensor\.family'" confsim run --config tensor.cfg --out run-tensor-key
# a config file with an override on top: meta.txt echoes the override, not the file's value
printf 'grid.n = 33\nrun.t_end = 0.002\ninit.amplitude = 0.8\n' > small.cfg
confsim run --config small.cfg --set init.amplitude=0.5 --out run-config
if ! grep -q '^init\.amplitude = 0\.5$' run-config/meta.txt || ! grep -q '^grid\.n = 33$' run-config/meta.txt; then
  echo "run on --config small.cfg --set init.amplitude=0.5: meta.txt does not echo the file and the override" >&2
  exit 1
fi
# the 3D check of a run with the default material, lifted from its scalars: its echo in
# meta.txt is re-parsed by load_run
confsim run --out run-lift --set grid.n=33 --set run.t_end=0.002
confsim check-reduction --run run-lift
# every sample point of the 3D check in one pass, at 2000 points
confsim check-reduction --run run-lift --samples 2000
# a shorter run written over it: fields.npz is replaced, and read back whole
confsim run --out run-lift --set grid.n=33 --set run.t_end=0.001
confsim check-reduction --run run-lift
# a copy whose meta.txt config was edited after the run: its config_hash no longer
# matches, so check-reduction must exit 1
cp -r run-lift run-lift-edited
sed -i 's/^material\.nu = .*/material.nu = 5/' run-lift-edited/meta.txt
refused "config_hash" confsim check-reduction --run run-lift-edited
# a copy whose meta.txt names reg.theta, as run directories of earlier versions do
cp -r run-lift run-lift-theta
sed -i 's/^\[config\]$/[config]\nreg.theta = 1/' run-lift-theta/meta.txt
grep -q '^reg\.theta = 1$' run-lift-theta/meta.txt
refused "reg\.theta" confsim check-reduction --run run-lift-theta
# a run whose e is not 3 * lambda**2 / mu has no 3D lift: check-reduction must exit 1 with
# one error line that names material.e
confsim run --out run-no-lift --set grid.n=33 --set run.t_end=0.001 --set material.e=0.07
refused "material\.e" confsim check-reduction --run run-no-lift
# usage errors are bad input: a removed command and an unparsable flag value exit 1 with one
# error line, not argparse's exit 2
refused "invalid choice" confsim verify-green
refused "invalid int" confsim check-reduction --run run-lift --samples abc
confsim mms
# both study tables: study.csv of a kappa study, refinement.csv of a refinement study
confsim study --out study-kappa --set "study.kappas=0.5 0.25 0.125" --set run.t_end=0.004
confsim study --out study-refinement --set "study.kappas=0.5 0.25" --set reg.kappa=0.5 --set study.h_factor=2 \
  --set grid.n=33 --set run.t_end=0.004
# a refinement study has no reference member: setting study.reference there must exit 1
# with one error line that names it
refused "study\.reference" confsim study --out study-refinement-reference --set "study.kappas=0.5 0.25" \
  --set reg.kappa=0.5 --set study.h_factor=2 --set grid.n=17 --set run.t_end=0.002 --set study.reference=0
# a lockstep study checked against the Green quadrature on every member's saved frames
confsim study --out study-both-verify --set "study.kappas=0.5 0.25 0.125" --set run.elasticity_path=both-verify \
  --set run.t_end=0.004
# a lockstep study under a ramp body force saved every step: each member's run() checks its
# frames in one stacked FD residual, and its report pairs the weak residual's test functions
PYTHONWARNINGS=error::RuntimeWarning confsim study --out study-ramp --set "study.kappas=0.5 0.25 0.125" \
  --set run.save_every=1 --set run.t_end=0.004 --set body.family=ramp --set body.amplitude=0.2 --set body.rate=5
# the body-force families fixed in time, whose b/mu each march computes once: a constant force
# checked against the Green quadrature, and a lockstep study under a polynomial one
PYTHONWARNINGS=error::RuntimeWarning confsim run --out run-constant --set run.elasticity_path=both-verify \
  --set run.t_end=0.004 --set body.family=constant --set body.amplitude=0.3
PYTHONWARNINGS=error::RuntimeWarning confsim study --out study-poly --set "study.kappas=0.5 0.25 0.125" \
  --set run.t_end=0.004 --set body.family=poly --set "body.coeffs=0.1 0.2 -0.3"
# the march_long run split at step 1500, inside its full 1250-frame window: saved to a snapshot,
# resumed and finished, it ends on the whole run's last S and u bit for bit
PYTHONWARNINGS=error::RuntimeWarning PYTHONPATH="$root/src" python3 -c '
import numpy as np
from confsim.config import parse_config_text
from confsim.order_parameter import window_length
from confsim.simulator import Simulation, load_snapshot, save_snapshot
cfg = parse_config_text("run.t_end = 0.4\nrun.save_every = 100\n")
assert cfg.n_steps == 2000 and window_length(cfg.reg.kappa_m, cfg.reg.dt) == 1250
whole = Simulation(cfg).run().trajectory
first = Simulation(cfg)
first.run(until_step=1500)
save_snapshot("march_long.snap", first)
resumed = load_snapshot("march_long.snap", cfg).run().trajectory
assert resumed.steps[0] == 1500 and resumed.steps[-1] == whole.steps[-1] == 2000
assert np.array_equal(resumed.s_frames[-1].values, whole.s_frames[-1].values)
assert np.array_equal(resumed.u_frames[-1].values, whole.u_frames[-1].values)
'
