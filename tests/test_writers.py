"""Every CSV table confsim writes goes through ``grid_field.csv_text``.

The writers each table had before are kept here as references, and the
files written today must match them byte for byte: ``diagnostics.csv``,
``study.csv`` and ``refinement.csv``.  The run's fields are no table: they
are ``fields.npz``, whose checks are in ``tests/test_grid_field.py``.
"""

import dataclasses
import itertools
import math
import os

import numpy as np
import pytest

from confsim import diagnostics
from confsim.cli import main
from confsim.config import parse_config_text
from confsim.diagnostics import DiagnosticsReport, NonFiniteReport, weak_residual_series
from confsim.grid_field import csv_text, d1
from confsim.simulator import Simulation, load_run, write_run
from confsim.studies import halving_study, run_members, run_study, write_study_csv

from conftest import make_config
from test_step_oracles import same_bits

FMT = "{:.17g}"


def reference_diagnostics_csv(report):
    """The hand-listed DiagnosticsReport.to_csv_text that the column table replaced."""
    n_phi = report.weak_residuals.shape[1]
    header = ["time", "max_abs_S", "grad_norm_sq", "dissipation", "St_L43", "Sx_L83_Linf",
              "flux_grad_L43", "primitive_W14_L43"]
    header += [f"weak_res_{m + 1}" for m in range(n_phi)]
    header.append("elasticity_cross_check")
    columns = [
        report.times, report.max_abs_s, report.grad_norm_sq, report.dissipation, report.st_l43,
        report.sx_l83_linf, report.flux_grad_l43, report.primitive_w14_l43,
        *report.weak_residuals.T, report.cross_check,
    ]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    rows = zip(*(c.tolist() for c in columns))
    return ",".join(header) + "\n" + "".join(row % values for values in rows)


def reference_validate(report):
    """The hand-listed DiagnosticsReport.validate that the column table replaced."""
    nt = len(report.times)
    for name in ("max_abs_s", "grad_norm_sq", "dissipation", "st_l43", "sx_l83_linf", "flux_grad_l43",
                 "primitive_w14_l43", "cross_check"):
        series = getattr(report, name)
        if len(series) != nt:
            raise ValueError(f"series {name} has wrong length")
        if not np.all(np.isfinite(series)):
            raise NonFiniteReport(f"series {name} contains non-finite entries")
    if report.weak_residuals.shape[0] != nt:
        raise ValueError("weak residual table malformed")
    if not np.all(np.isfinite(report.weak_residuals)):
        raise NonFiniteReport("weak residual table contains non-finite entries")


def reference_study_csv(result):
    """The per-value write_study_csv that csv_text replaced."""
    lines = ["kappa,h,dt,D_kappa,max_principle_margin,sup_energy,weak_residual_max"]
    for r in result.rows:
        values = (r.kappa, r.h, r.dt, r.d_kappa, r.max_principle_margin, r.sup_energy, r.weak_residual_max)
        lines.append(",".join(FMT.format(v) for v in values))
    return "\n".join(lines) + "\n"


def reference_weak_residual_max(res):
    """A member's largest final weak residual from its own frames; nan unless it completed."""
    if res is None or res.termination.status != "completed":
        return math.nan
    traj = res.trajectory
    s = traj.s_matrix()
    series = weak_residual_series(
        traj.times, s, traj.u_matrix(), d1(s, traj.grid.h), traj.grid, res.config.material, float(traj.times[-1])
    )
    return float(np.max(np.abs(series[-1])))


def reference_refinement_csv(study, results):
    """The f-string lines of the refinement branch of ``confsim study`` that csv_text replaced."""
    lines = ["kappa,h,dt,weak_residual_max"]
    for i, res in enumerate(results):
        cfg = study.member_config(i)
        wr = reference_weak_residual_max(res)
        lines.append(f"{cfg.reg.kappa:.17g},{cfg.grid.h:.17g},{cfg.reg.dt:.17g},{wr:.17g}")
    return "\n".join(lines) + "\n"


class TestCsvText:
    def test_header_then_one_row_per_entry(self):
        text = csv_text(("a", "b"), ([1.0, -0.0], np.array([math.nan, 0.1 + 0.2])))
        assert text == "a,b\n1,nan\n-0,0.30000000000000004\n"

    def test_no_rows_is_the_header(self):
        assert csv_text(("a", "b"), ([], [])) == "a,b\n"

    def test_columns_of_unequal_length_raise(self):
        with pytest.raises(ValueError):
            csv_text(("a", "b"), ([1.0, 2.0], [1.0]))


class TestDiagnosticsColumns:
    def test_every_array_field_is_one_table_entry(self):
        arrays = [f.name for f in dataclasses.fields(DiagnosticsReport) if f.type == "np.ndarray"]
        attrs = [attr for _, attr in diagnostics._COLUMNS]
        names = [name for name, _ in diagnostics._COLUMNS]
        assert len(arrays) == 10
        assert sorted(attrs) == sorted(arrays)
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("path", ["direct", "both-verify"])
    def test_run_diagnostics_match_reference_writer(self, tmp_path, path):
        result = Simulation(make_config(n=33, t_end=2e-3, save_every=2, path=path)).run()
        write_run(tmp_path, result)
        want = reference_diagnostics_csv(result.report)
        assert (tmp_path / "diagnostics.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("n_phi", [0, 5])
    def test_validate_raises_as_the_reference(self, n_phi):
        rng = np.random.default_rng(n_phi)
        fields = [f.name for f in dataclasses.fields(DiagnosticsReport)]
        good = {name: rng.normal(size=(4, n_phi) if name == "weak_residuals" else 4) for name in fields}

        def outcome(check, report):
            try:
                check(report)
            except ValueError as exc:
                return type(exc), str(exc)
            return None

        def nan_at_end(v):
            v = v.copy()
            v.reshape(-1)[-1:] = math.nan
            return v

        breaks = [nan_at_end, lambda v: v[:-1]]
        # every pair of broken series, so the first failure reported is pinned too
        for (a, break_a), (b, break_b) in itertools.product(itertools.product(fields[1:], breaks), repeat=2):
            values = dict(good)
            values[a] = break_a(values[a])
            values[b] = break_b(values[b])
            report = DiagnosticsReport(**values)
            assert outcome(DiagnosticsReport.validate, report) == outcome(reference_validate, report)
        assert outcome(DiagnosticsReport.validate, DiagnosticsReport(**good)) is None


class TestStudyTables:
    def test_study_csv_with_a_rejected_member_matches_reference_writer(self, tmp_path):
        study = parse_config_text(
            "study.kappas = 0.5 0.03125\nstudy.reference = 0\nreg.increment_guard = 0.05\n"
            "body.family = ramp\nbody.rate = 1e5\n"
        )
        result = run_study(study)
        assert result.rows[1].termination.status == "step-rejected"
        write_study_csv(tmp_path / "study.csv", result)
        text = (tmp_path / "study.csv").read_text()
        assert text.splitlines()[2].endswith(",nan")
        assert (tmp_path / "study.csv").read_bytes() == reference_study_csv(result).encode()

    @pytest.mark.parametrize("guard", ["1e9", "1e-12"], ids=["completed", "rejected"])
    def test_refinement_csv_matches_reference_writer(self, tmp_path, guard):
        cfg_path = tmp_path / "refine.cfg"
        cfg_path.write_text(
            "grid.n = 17\nrun.t_end = 2e-3\nreg.dt = 2e-4\nrun.save_every = 2\nreg.kappa = 0.5\n"
            f"study.kappas = 0.5 0.25\nstudy.h_factor = 2\nreg.increment_guard = {guard}\n"
        )
        code = main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == (0 if guard == "1e9" else 2)
        study = parse_config_text(cfg_path.read_text())
        want = reference_refinement_csv(study, run_members(study))
        assert (tmp_path / "out" / "refinement.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("guard", ["1e9", "1e-12"], ids=["completed", "rejected"])
    def test_refinement_rows_are_the_table(self, tmp_path, guard):
        base_text = (
            "grid.n = 17\nrun.t_end = 2e-3\nreg.dt = 2e-4\nrun.save_every = 2\nreg.kappa = 0.5\n"
            f"reg.increment_guard = {guard}\n"
        )
        cfg_path = tmp_path / "refine.cfg"
        cfg_path.write_text(base_text + "study.kappas = 0.5 0.25 0.125\nstudy.h_factor = 2\nstudy.dt_factor = 2\n")
        study = parse_config_text(cfg_path.read_text())
        base = parse_config_text(base_text)
        assert study == halving_study(base, 3)
        rows = run_study(study).rows
        code = main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == (0 if guard == "1e9" else 2)
        table = (tmp_path / "out" / "refinement.csv").read_text().splitlines()
        assert table[0] == "kappa,h,dt,weak_residual_max" and len(table) == len(rows) + 1
        for line, row in zip(table[1:], rows):
            want = (row.kappa, row.h, row.dt, row.weak_residual_max)
            assert all(same_bits(float(v), w) for v, w in zip(line.split(","), want)), line


class TestStaleFrames:
    """Writing a run over an earlier one leaves nothing of the earlier run to read."""

    def test_shorter_run_removes_the_longer_runs_frames(self, tmp_path):
        long = Simulation(make_config(n=17, t_end=4e-3, save_every=1)).run()
        short = Simulation(make_config(n=17, t_end=4e-4, save_every=1)).run()
        assert (len(long.trajectory.times), len(short.trajectory.times)) == (21, 3)
        write_run(tmp_path, long)
        write_run(tmp_path, short)
        assert sorted(os.listdir(tmp_path)) == ["diagnostics.csv", "fields.npz", "meta.txt"]
        traj, _, diag_text = load_run(tmp_path)
        assert np.array_equal(traj.s_matrix(), short.trajectory.s_matrix())
        assert np.array_equal(traj.u_matrix(), short.trajectory.u_matrix())
        assert np.array_equal(traj.times, short.trajectory.times)
        assert np.array_equal(traj.steps, short.trajectory.steps)
        assert diag_text == short.report.to_csv_text()

    def test_rewrite_of_the_same_run_keeps_every_frame(self, tmp_path):
        result = Simulation(make_config(n=17, t_end=1e-3, save_every=1)).run()
        write_run(tmp_path, result)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        write_run(tmp_path, result)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        with np.load(tmp_path / "fields.npz") as fields:
            assert len(fields["S"]) == len(fields["u"]) == len(result.trajectory.times)
