import numpy as np
import pytest

from confsim.cli import main
from confsim.config import (
    ParseError,
    SimulationConfig,
    StudyConfig,
    ValidationError,
    config_digest,
    config_echo,
    default_config,
    echo_lines,
    parse_config_text,
)
from confsim.simulator import load_run

FAST = [
    "grid.n = 33",
    "run.t_end = 2e-3",
    "reg.dt = 2e-4",
    "run.save_every = 2",
]


def write_config(tmp_path, lines, name="case.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParsing:
    def test_empty_config_gives_documented_defaults(self):
        cfg = parse_config_text("")
        assert isinstance(cfg, SimulationConfig)
        assert cfg == default_config()
        assert cfg.grid.n == 129
        assert cfg.reg.kappa == 0.25
        assert cfg.reg.kappa_m == 0.25
        assert cfg.material.mu == 2.0
        assert cfg.elasticity_path == "direct"

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\ngrid.n = 65  # trailing\n")
        assert cfg.grid.n == 65

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("grid.a = 1.0\nthis is broken\n")
        assert err.value.line == 2

    def test_bad_number_reported(self):
        with pytest.raises(ParseError) as err:
            parse_config_text("grid.a = wide\n")
        assert err.value.line == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="unknown config key"):
            parse_config_text("grid.q = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config_text("grid.n = 65\ngrid.n = 33\n")

    def test_kappa_range_enforced(self):
        with pytest.raises(ValidationError, match="kappa must lie in"):
            parse_config_text("reg.kappa = 1.5\n")

    def test_interval_order_enforced(self):
        with pytest.raises(ValidationError, match="0 < a < d"):
            parse_config_text("grid.a = 2.0\ngrid.d = 1.0\n")

    def test_overrides(self):
        cfg = parse_config_text("grid.n = 65\n", overrides=["grid.n=33", "reg.kappa=0.5"])
        assert cfg.grid.n == 33
        assert cfg.reg.kappa == 0.5

    @pytest.mark.parametrize(
        "override", ["body.amplitude=inf", "body.coeffs=0 nan", "material.nu=inf"]
    )
    def test_non_finite_value_exits_one(self, tmp_path, capsys, override):
        argv = ["run", "--out", str(tmp_path / "out"), "--set", "body.family=constant",
                "--set", override]
        assert main(argv) == 1
        assert "non-finite value" in capsys.readouterr().err
        with pytest.raises(ParseError, match="non-finite"):
            parse_config_text(override.replace("=", " = ") + "\n")

    def test_override_unknown_key(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config_text("", overrides=["nope=1"])


class TestEchoRoundTrip:
    def test_scalar_config(self):
        cfg = parse_config_text("reg.kappa = 0.125\nmaterial.lambda = 0.37\n")
        assert parse_config_text("\n".join(echo_lines(cfg))) == cfg

    def test_tensor_config(self):
        text = (
            "material.tensor.family = diagonal\n"
            "material.tensor.mu0 = 2\n"
            "material.misfit_iso = 0.1\n"
        )
        cfg = parse_config_text(text)
        assert cfg.material.mu == pytest.approx(2.0)
        assert cfg.material.lam == pytest.approx(0.2)
        assert cfg.material.e == pytest.approx(0.06)
        assert parse_config_text("\n".join(echo_lines(cfg))) == cfg

    def test_entries_tensor_round_trip(self):
        from confsim.material import ElasticityTensor

        flat = " ".join(str(v) for v in ElasticityTensor.diagonal_family(1.5).entries.ravel())
        text = f"material.tensor.entries = {flat}\nmaterial.tensor.family = entries\nmaterial.misfit_iso = 0.2\n"
        cfg = parse_config_text(text)
        assert parse_config_text("\n".join(echo_lines(cfg))) == cfg

    def test_study_config(self):
        cfg = parse_config_text("study.kappas = 0.5 0.25 0.125\n")
        assert isinstance(cfg, StudyConfig)
        assert parse_config_text("\n".join(echo_lines(cfg))) == cfg

    def test_digest_is_stable(self):
        cfg = default_config()
        assert config_digest(cfg) == config_digest(parse_config_text(config_echo(cfg)))


class TestTensorValidation:
    def test_isotropic_fails_structural_conditions(self):
        text = (
            "material.tensor.family = isotropic\n"
            "material.tensor.lambda_L = 1\n"
            "material.tensor.mu_L = 1\n"
            "material.misfit_iso = 0.1\n"
        )
        with pytest.raises(ValidationError, match="zero_unless_k_equals_j"):
            parse_config_text(text)

    def test_scalar_keys_conflict_with_tensor(self):
        text = "material.tensor.family = diagonal\nmaterial.tensor.mu0 = 1\nmaterial.misfit_iso = 0.1\nmaterial.mu = 3\n"
        with pytest.raises(ValidationError, match="conflicts"):
            parse_config_text(text)

    def test_misfit_required(self):
        with pytest.raises(ValidationError, match="misfit"):
            parse_config_text("material.tensor.family = diagonal\nmaterial.tensor.mu0 = 1\n")


class TestCliRun:
    def test_run_success(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "meta.txt").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "frames" / "S_000000.csv").exists()
        assert (out / "frames" / "index.csv").exists()
        assert "max principle margin" in capsys.readouterr().out

    def test_bad_config_exits_one(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, ["reg.kappa = 7"])
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "kappa" in capsys.readouterr().err

    def test_three_node_grid_exits_one(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path / "out"), "--set", "grid.n=3"])
        assert code == 1
        assert "need at least 4 nodes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("material.e=-1", "e must be nonnegative"),
            ("material.mu=0", "mu must be positive"),
            ("material.c=-1", "c must be positive"),
            ("material.nu=0", "nu must be positive"),
            ("material.well_weight=0", "well_weight must be positive"),
        ],
    )
    def test_bad_material_scalar_exits_one(self, tmp_path, capsys, override, message):
        code = main(["run", "--out", str(tmp_path / "out"), "--set", override])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: material: {message}, got {float(override.split('=')[1])}"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "override, series",
        [("init.amplitude=1e308", "grad_norm_sq"), ("material.lambda=1e308", "cross_check")],
    )
    def test_overflow_exits_two(self, tmp_path, capsys, override, series):
        code = main(["run", "--out", str(tmp_path / "out"), "--set", override, "--set", "run.t_end=0.002"])
        assert code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: run overflowed: series {series} contains non-finite entries"]
        assert not (tmp_path / "out").exists()

    def test_overflow_writes_one_stderr_line(self, tmp_path, capsys):
        # no RuntimeWarning filter here: the command itself must keep numpy quiet
        before = np.geterr()
        argv = ["run", "--out", str(tmp_path / "out"), "--set", "init.amplitude=1e308",
                "--set", "run.t_end=0.002"]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: run overflowed: series grad_norm_sq contains non-finite entries"
        ]
        assert np.geterr() == before

    @pytest.mark.parametrize(
        "overrides, names",
        [
            (["reg.dt=1e-300", "run.t_end=1"], "reg.kappa_m / reg.dt"),
            (["reg.dt=1e-12", "reg.kappa_m=1e-12", "run.t_end=1"], "run.t_end / reg.dt"),
        ],
    )
    def test_step_ceiling_exits_one(self, tmp_path, capsys, overrides, names):
        argv = ["run", "--out", str(tmp_path / "out")]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert names in err and "exceeds the ceiling" in err

    def test_missing_config_exits_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "o")]) == 1

    def test_study_config_rejected_by_run(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST + ["study.kappas = 0.5 0.25"])
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1

    def test_guard_trip_exits_two_with_partial_frames(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST + ["reg.increment_guard = 1e-12"])
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        # diagnostics and the frames recorded so far are still flushed
        assert (tmp_path / "out" / "diagnostics.csv").exists()
        assert (tmp_path / "out" / "frames" / "S_000000.csv").exists()
        meta = (tmp_path / "out" / "meta.txt").read_text()
        assert "termination = step-rejected" in meta

    def test_meta_reparses_to_same_config(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        _, cfg, _ = load_run(tmp_path / "out")
        assert cfg == parse_config_text("\n".join(FAST))
        meta = (tmp_path / "out" / "meta.txt").read_text()
        stated = [l for l in meta.splitlines() if l.startswith("config_hash")][0].split("=")[1].strip()
        assert stated == config_digest(cfg)

    def test_set_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        code = main(
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
             "--set", "reg.kappa=0.5"]
        )
        assert code == 0
        _, cfg, _ = load_run(tmp_path / "out")
        assert cfg.reg.kappa == 0.5


class TestCliStudy:
    def test_study_csv_columns(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST + ["study.kappas = 0.5 0.25"])
        code = main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        text = (tmp_path / "out" / "study.csv").read_text().splitlines()
        assert text[0] == "kappa,h,dt,D_kappa,max_principle_margin,sup_energy,weak_residual_max"
        assert len(text) == 3

    def test_rejected_members_exit_two(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST + ["study.kappas = 0.5 0.25"])
        code = main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     "--set", "reg.increment_guard=1e-12"])
        assert code == 2
        out = capsys.readouterr().out
        assert out.count("rejected at t = 0") == 2
        assert "strictly decreasing: False" in out
        text = (tmp_path / "out" / "study.csv").read_text().splitlines()
        assert text[0] == "kappa,h,dt,D_kappa,max_principle_margin,sup_energy,weak_residual_max"
        assert len(text) == 3

    def test_rejected_reference_exits_two_without_traceback(self, tmp_path, capsys):
        code = main(["study", "--out", str(tmp_path / "out"),
                     "--set", "study.kappas=0.5 0.03125", "--set", "reg.increment_guard=0.05",
                     "--set", "body.family=ramp", "--set", "body.rate=1e5"])
        assert code == 2
        out = capsys.readouterr().out
        assert "(ref) (rejected at t = " in out
        assert "strictly decreasing: False" in out
        assert len((tmp_path / "out" / "study.csv").read_text().splitlines()) == 3

    def test_rejected_refinement_member_exits_two(self, tmp_path, capsys):
        lines = FAST + ["reg.kappa = 0.5", "study.kappas = 0.5 0.25", "study.h_factor = 2",
                        "reg.increment_guard = 1e-12"]
        cfg_path = write_config(tmp_path, lines)
        assert main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().out.count("rejected at t = 0") == 2

    def test_overflowed_members_keep_their_rows(self, tmp_path, capsys):
        argv = ["study", "--out", str(tmp_path / "out"), "--set", "init.amplitude=1e308",
                "--set", "run.t_end=0.002", "--set", "study.kappas=0.5 0.25"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.count("(overflowed)") == 2
        assert "(ref) (overflowed)" in captured.out
        assert "strictly decreasing: False" in captured.out
        text = (tmp_path / "out" / "study.csv").read_text().splitlines()
        assert text[0] == "kappa,h,dt,D_kappa,max_principle_margin,sup_energy,weak_residual_max"
        assert [line.split(",", 3)[3] for line in text[1:]] == ["nan,nan,nan,nan"] * 2

    def test_overflowed_refinement_member_exits_two(self, tmp_path, capsys):
        argv = ["study", "--out", str(tmp_path / "out"), "--set", "init.amplitude=1e308",
                "--set", "run.t_end=0.002", "--set", "study.kappas=0.5 0.25",
                "--set", "study.h_factor=2", "--set", "grid.n=17"]
        assert main(argv) == 2
        assert capsys.readouterr().out.count("nan (overflowed)") == 2
        assert len((tmp_path / "out" / "refinement.csv").read_text().splitlines()) == 3

    def test_sim_config_rejected_by_study(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        assert main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1

    def test_refinement_factors_switch_to_refinement_table(self, tmp_path, capsys):
        lines = FAST + [
            "reg.kappa = 0.5",
            "study.kappas = 0.5 0.25",
            "study.h_factor = 2",
            "study.dt_factor = 2",
        ]
        cfg_path = write_config(tmp_path, lines)
        code = main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        text = (tmp_path / "out" / "refinement.csv").read_text().splitlines()
        assert text[0] == "kappa,h,dt,weak_residual_max"
        assert len(text) == 3
        assert "weak_res" in capsys.readouterr().out

    def test_refined_member_beyond_step_ceiling_exits_one(self, tmp_path, capsys):
        # the third member's step is 1e-3 / 2**40: rejected before any member runs
        argv = ["study", "--out", str(tmp_path / "out"), "--set", "study.kappas=0.5 0.25 0.125",
                "--set", "study.dt_factor=1048576", "--set", "reg.dt=1e-3"]
        assert main(argv) == 1
        assert "exceeds the ceiling" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCliTools:
    def test_verify_green(self, capsys):
        assert main(["verify-green"]) == 0
        out = capsys.readouterr().out
        assert "symmetry" in out
        assert "derivative jump" in out

    def tensor_run(self, tmp_path):
        lines = FAST + [
            "material.tensor.family = diagonal",
            "material.tensor.mu0 = 2",
            "material.misfit_iso = 0.1",
        ]
        cfg_path = write_config(tmp_path, lines)
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        return str(tmp_path / "out")

    def test_check_reduction(self, tmp_path, capsys):
        run_dir = self.tensor_run(tmp_path)
        code = main(["check-reduction", "--run", run_dir, "--samples", "10", "--h3", "0.005"])
        assert code == 0
        out = capsys.readouterr().out
        assert "elasticity balance" in out

    @pytest.mark.parametrize(
        "flag, value, invariant",
        [
            ("--samples", "0", "samples"),
            ("--samples", "-3", "samples"),
            ("--h3", "0", "h3"),
            ("--h3", "-1", "h3"),
            ("--h3", "nan", "h3"),
            ("--h3", "10", "h3"),
            ("--h3", "0.16666666666666667", "h3"),  # 6*h3 == d - a on the unit shell
        ],
    )
    def test_check_reduction_bad_arguments_exit_one(self, tmp_path, capsys, flag, value, invariant):
        run_dir = self.tensor_run(tmp_path)
        capsys.readouterr()
        assert main(["check-reduction", "--run", run_dir, flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {invariant}: ")
        assert "residual" not in captured.out

    def test_damaged_run_directory_exits_one(self, tmp_path, capsys):
        run_dir = self.tensor_run(tmp_path)
        frame = tmp_path / "out" / "frames" / "S_000001.csv"
        lines = frame.read_text().splitlines()
        frame.write_text("\n".join(lines[:7] + lines[8:]) + "\n")
        capsys.readouterr()
        assert main(["check-reduction", "--run", run_dir]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and err[0].endswith("S_000001.csv: expected 33 nodes, got 32")

    def test_check_reduction_requires_tensor_config(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert main(["check-reduction", "--run", str(tmp_path / "out")]) == 1

    def test_mms_command(self, capsys):
        assert main(["mms"]) == 0
        assert "elasticity slope" in capsys.readouterr().out
