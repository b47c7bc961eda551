import itertools
import re
import zipfile
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from confsim import material, simulator
from confsim.cli import main
from confsim.config import (
    _CATALOG,
    BodyForce,
    ConfigInvalid,
    InitialData,
    SimulationConfig,
    StudyConfig,
    config_digest,
    config_echo,
    echo_lines,
    parse_config_text,
    parse_pairs,
)
from confsim.grid_field import Grid
from confsim.material import ElasticityTensor, MaterialParams, TensorSpec
from confsim.order_parameter import RegularizationParams
from confsim.simulator import load_run

from conftest import edit_fields

FAST = [
    "grid.n = 33",
    "run.t_end = 2e-3",
    "reg.dt = 2e-4",
    "run.save_every = 2",
]


DIAGONAL = [
    "material.tensor.family = diagonal",
    "material.tensor.mu0 = 2",
    "material.misfit_iso = 0.1",
]
ENTRIES = " ".join(str(v) for v in ElasticityTensor.diagonal_family(1.5).entries.ravel())
STUDY = ["study.kappas = 0.5 0.25"]

# a valid non-default value of each catalog key, then the keys that value needs
CATALOG_CASES = {
    "grid.a": ["grid.a = 0.5"],
    "grid.d": ["grid.d = 3"],
    "grid.n": ["grid.n = 65"],
    "material.c": ["material.c = 1.5"],
    "material.nu": ["material.nu = 0.2"],
    "material.well_weight": ["material.well_weight = 0.5"],
    "material.mu": ["material.mu = 3"],
    "material.lambda": ["material.lambda = 0.37"],
    "material.e": ["material.e = 0.1"],
    "material.tensor.family": DIAGONAL,
    "material.tensor.mu0": [
        "material.tensor.mu0 = 2.5", "material.tensor.family = diagonal", "material.misfit_iso = 0.1",
    ],
    "material.tensor.entries": [
        f"material.tensor.entries = {ENTRIES}", "material.tensor.family = entries",
        "material.misfit_iso = 0.1",
    ],
    "material.misfit": [
        "material.misfit = 0.1 0 0 0 0.1 0 0 0 0.1", "material.tensor.family = diagonal",
        "material.tensor.mu0 = 2",
    ],
    "material.misfit_iso": [
        "material.misfit_iso = 0.2", "material.tensor.family = diagonal", "material.tensor.mu0 = 2",
    ],
    "reg.kappa": ["reg.kappa = 0.125"],
    "reg.kappa_m": ["reg.kappa_m = 0.01"],
    "reg.dt": ["reg.dt = 1e-4"],
    "reg.increment_guard": ["reg.increment_guard = 0.5"],
    "run.t_end": ["run.t_end = 0.01"],
    "run.save_every": ["run.save_every = 3"],
    "run.elasticity_path": ["run.elasticity_path = both-verify"],
    "init.family": ["init.family = bump"],
    "init.amplitude": ["init.amplitude = 0.5"],
    "init.support_lo": ["init.support_lo = 0.2"],
    "init.support_hi": ["init.support_hi = 0.8"],
    "init.shoulder": ["init.shoulder = 0.1"],
    "body.family": ["body.family = constant"],
    "body.amplitude": ["body.amplitude = 0.3"],
    "body.coeffs": ["body.coeffs = 0.1 0.2 -0.3", "body.family = poly"],
    "body.rate": ["body.rate = 2", "body.family = ramp"],
    "study.kappas": ["study.kappas = 0.5 0.25 0.125"],
    "study.reference": ["study.reference = 0", *STUDY],
    "study.h_factor": ["study.h_factor = 2", *STUDY],
    "study.dt_factor": ["study.dt_factor = 2", *STUDY],
}
# the keys each tensor family reads, with values it accepts
FAMILY_LINES = {
    "diagonal": ["material.tensor.mu0 = 2"],
    "isotropic": ["material.tensor.lambda_L = 0", "material.tensor.mu_L = 1"],
    "entries": [f"material.tensor.entries = {ENTRIES}"],
}
# no isotropic tensor passes the structural conditions, so no parsed config sets these
ISOTROPIC_KEYS = ("material.tensor.lambda_L", "material.tensor.mu_L")
# the class of each catalog part, whose field defaults are its keys' defaults
PART_CLASSES = {
    "grid": Grid, "material": MaterialParams, "tensor_spec": TensorSpec, "reg": RegularizationParams,
    "run": SimulationConfig, "init": InitialData, "body": BodyForce, "study": StudyConfig,
}
# the axes of the rule for the keys a config does not read: its tensor family and its kind
RULE_FAMILIES = {
    "no family": [],
    **{
        family: [f"material.tensor.family = {family}", *lines, "material.misfit_iso = 0.1"]
        for family, lines in FAMILY_LINES.items()
    },
}
RULE_KINDS = {"run": [], "kappa study": STUDY, "refinement": [*STUDY, "study.h_factor = 2"]}
# a valid non-default value of each catalog key
CASE_VALUES = {
    **{key: lines[0].split(" = ", 1)[1] for key, lines in CATALOG_CASES.items()},
    **dict(line.split(" = ", 1) for line in FAMILY_LINES["isotropic"]),
}


def key_default(key):
    """The default of ``key`` that its part's class states; None where the class has none."""
    _, part, attr = _CATALOG[key]
    default = next(f.default for f in fields(PART_CLASSES[part]) if f.name == attr)
    return None if default is MISSING else default


def parse_outcome(lines, overrides=None):
    """The config that ``lines`` with ``overrides`` parse to, or the text of the error that refuses them."""
    try:
        return parse_config_text("\n".join(lines), overrides)
    except ConfigInvalid as exc:
        return str(exc)


def write_config(tmp_path, lines, name="case.cfg"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def write_old_layout(out, layout) -> dict:
    """Write an earlier version's field files under ``out``; return the tree ``read_tree`` reads.

    "frames" is the one-file-per-frame layout (frames/S_<k>.csv, frames/u_<k>.csv
    and frames/index.csv), "S.csv" the table of one field per file.
    """
    if layout == "frames":
        (out / "frames").mkdir(parents=True, exist_ok=True)
        old = {"S_000000.csv": "0,1\n", "u_000000.csv": "0,1\n", "index.csv": "k,step,time\n0,0,0\n"}
        for name, text in old.items():
            (out / "frames" / name).write_text(text)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / layout).write_text("step,time,1,2\n0,0,0.5,0.5\n")
    return read_tree(out)


def read_tree(root) -> dict:
    """The files under ``root``, by path relative to it, with their bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def edit_frames(path, edit):
    """Apply ``edit`` to each member of ``fields.npz`` at ``path`` with a row per frame: all but x."""
    edit_fields(path, lambda m: m.update({k: edit(v) for k, v in m.items() if k != "x"}))


def flip_last_byte_of_s(path):
    """Flip one bit of the last byte of S's data, which sits right before u's entry in the archive."""
    with zipfile.ZipFile(path) as archive:
        offset = archive.getinfo("u.npy").header_offset - 1
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


class TestParsing:
    def test_empty_config_gives_documented_defaults(self):
        cfg = parse_config_text("")
        assert isinstance(cfg, SimulationConfig)
        assert cfg == SimulationConfig()
        assert cfg.grid.n == 129
        assert cfg.reg.kappa == 0.25
        assert cfg.reg.kappa_m == 0.25
        assert cfg.material.mu == 2.0
        assert cfg.elasticity_path == "direct"

    def test_each_part_defaults_to_the_empty_config(self):
        # a part's class holds its keys' defaults: built with no arguments, it is the empty config's part
        cfg = parse_config_text("")
        assert SimulationConfig() == cfg
        parts = (cfg.grid, cfg.material, cfg.reg, cfg.init, cfg.body)
        assert (Grid(), MaterialParams(), RegularizationParams(), InitialData(), BodyForce()) == parts
        study = parse_config_text("\n".join(STUDY))
        assert StudyConfig(base=SimulationConfig(), kappas=study.kappas) == study

    def test_comments_and_blanks(self):
        cfg = parse_config_text("# comment\n\ngrid.n = 65  # trailing\n")
        assert cfg.grid.n == 65

    def test_parse_error_carries_line(self):
        with pytest.raises(ConfigInvalid, match="^line 2, column 1: expected 'key = value'"):
            parse_config_text("grid.a = 1.0\nthis is broken\n")

    def test_bad_number_reported(self):
        with pytest.raises(ConfigInvalid, match="^line 1, column 1: cannot parse value for grid.a"):
            parse_config_text("grid.a = wide\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid, match="^unknown_key: unknown config key"):
            parse_config_text("grid.q = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigInvalid, match="^line 2, column 1: duplicate key 'grid.n'"):
            parse_config_text("grid.n = 65\ngrid.n = 33\n")

    def test_kappa_range_enforced(self):
        with pytest.raises(ConfigInvalid, match="^regularization: kappa must lie in"):
            parse_config_text("reg.kappa = 1.5\n")

    def test_interval_order_enforced(self):
        with pytest.raises(ConfigInvalid, match="^grid: require 0 < a < d"):
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
        with pytest.raises(ConfigInvalid, match="^line 1, column 1: .*non-finite"):
            parse_config_text(override.replace("=", " = ") + "\n")

    def test_bad_override_value_names_the_override(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path / "out"), "--set", "reg.increment_guard=inf"])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --set reg.increment_guard=inf: cannot parse value for reg.increment_guard: "
            "non-finite value 'inf'"
        ]
        with pytest.raises(ConfigInvalid, match="^--set grid.n=6.5: cannot parse value for grid.n"):
            parse_config_text("", overrides=["grid.n=6.5"])

    def test_override_unknown_key(self):
        with pytest.raises(ConfigInvalid, match="^unknown_key: override references unknown key"):
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
        cfg = SimulationConfig()
        assert config_digest(cfg) == config_digest(parse_config_text(config_echo(cfg)))

    def test_digest_is_pinned(self):
        # the echo bytes are a run's identity in meta.txt: changing them is a format change
        assert config_digest(SimulationConfig()) == (
            "450e1c24661df6221c58fdd4f7c2f689bc831c93a18133f3cadcf22caf4fe497"
        )
        assert config_digest(parse_config_text("\n".join(DIAGONAL))) == (
            "940bb31f3d236006d64b1490ea58decec2092c8caf5bc118df092d50f8964b95"
        )


class TestCatalog:
    @pytest.mark.parametrize("key", sorted(set(_CATALOG) - set(ISOTROPIC_KEYS)))
    def test_key_is_echoed_and_round_trips(self, key):
        lines = CATALOG_CASES[key]
        given = parse_pairs("\n".join(lines))
        assert given[key] != key_default(key)
        cfg = parse_config_text("\n".join(lines))
        echoed = parse_pairs(config_echo(cfg))
        assert echoed[key] == given[key]
        # every other echoed key reads back as set or as its default
        expected = {k: given.get(k, key_default(k)) for k in _CATALOG}
        known = [k for k in echoed if expected[k] is not None]
        assert {k: echoed[k] for k in known} == {k: expected[k] for k in known}
        assert parse_config_text(config_echo(cfg)) == cfg

    def test_refinement_echo_omits_the_reference(self):
        cfg = parse_config_text("\n".join(CATALOG_CASES["study.h_factor"]))
        assert not any(line.startswith("study.reference") for line in echo_lines(cfg))
        assert parse_config_text(config_echo(cfg)) == cfg

    @pytest.mark.parametrize("kind", RULE_KINDS)
    @pytest.mark.parametrize("family", RULE_FAMILIES)
    @pytest.mark.parametrize("key", sorted(_CATALOG))
    def test_a_set_key_is_refused_exactly_when_the_echo_omits_it(self, monkeypatch, key, family, kind):
        if family == "isotropic":
            # no isotropic tensor passes the structural conditions; with the default material's
            # scalars in their place, its configs parse and show the rule too
            monkeypatch.setattr(material, "scalar_coefficients", lambda tensor, misfit: (2.0, 0.2, 0.06))
        lines = RULE_FAMILIES[family] + RULE_KINDS[kind]
        echoed = dict(line.split(" = ", 1) for line in echo_lines(parse_config_text("\n".join(lines))))
        # an echoed key is set to the value the config holds, any other to a valid non-default value
        unset = parse_outcome(lines)
        got = parse_outcome(lines, [f"{key}={echoed.get(key, CASE_VALUES[key])}"])
        if kind == "run" and key == "study.kappas":
            assert isinstance(got, StudyConfig)  # it makes the run a study, whose echo holds it
        elif key in echoed:
            assert got == unset
        else:
            assert isinstance(got, str) and got != unset

    def test_unequal_configs_have_unequal_digests(self):
        configs = [SimulationConfig()] + [parse_config_text("\n".join(lines)) for lines in CATALOG_CASES.values()]
        for a, b in itertools.combinations(configs, 2):
            assert (a == b) == (config_digest(a) == config_digest(b))

    @pytest.mark.parametrize("h_factor, dt_factor", [(1, 1), (2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("reference", [-2, -1, 0, 1])
    def test_code_built_study_round_trips_or_is_refused(self, reference, h_factor, dt_factor):
        def build():
            return StudyConfig(
                base=SimulationConfig(), kappas=(0.5, 0.25), reference=reference, h_factor=h_factor,
                dt_factor=dt_factor,
            )

        if (h_factor > 1 or dt_factor > 1) and reference != -1:
            message = "study.reference is not read by a refinement study (study.h_factor or study.dt_factor > 1)"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build()
        else:
            cfg = build()
            assert parse_config_text(config_echo(cfg)) == cfg

    def test_isotropic_keys_are_echoed(self):
        spec = TensorSpec("isotropic", lambda_l=0.5, mu_l=0.75, misfit_iso=0.1)
        cfg = replace(parse_config_text("\n".join(DIAGONAL)), tensor_spec=spec)
        lines = echo_lines(cfg)
        assert "material.tensor.lambda_L = 0.5" in lines
        assert "material.tensor.mu_L = 0.75" in lines
        assert not any(line.startswith("material.tensor.mu0") for line in lines)
        with pytest.raises(ConfigInvalid, match="^tensor_assumptions: tensor fails structural conditions"):
            parse_config_text(config_echo(cfg))


class TestTensorValidation:
    def test_isotropic_fails_structural_conditions(self):
        text = (
            "material.tensor.family = isotropic\n"
            "material.tensor.lambda_L = 1\n"
            "material.tensor.mu_L = 1\n"
            "material.misfit_iso = 0.1\n"
        )
        with pytest.raises(ConfigInvalid, match="^tensor_assumptions: .*zero_unless_k_equals_j"):
            parse_config_text(text)

    def test_error_names_only_the_failed_gate_conditions(self, tmp_path, capsys):
        # the diagonal family with one entry off the k == j pattern; full_symmetry fails too but does not gate
        entries = ElasticityTensor.diagonal_family(1.5).entries.copy()
        entries[0, 1, 2, 0] = 0.5
        values = " ".join(repr(float(v)) for v in entries.ravel())
        argv = ["run", "--out", str(tmp_path / "out"), "--set", "material.tensor.family=entries",
                "--set", f"material.tensor.entries={values}", "--set", "material.misfit_iso=0.1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: tensor_assumptions: tensor fails structural conditions: zero_unless_k_equals_j at (0, 1, 2, 0)"
        ]
        assert not (tmp_path / "out").exists()

    def test_scalar_keys_conflict_with_tensor(self):
        text = "material.tensor.family = diagonal\nmaterial.tensor.mu0 = 1\nmaterial.misfit_iso = 0.1\nmaterial.mu = 3\n"
        with pytest.raises(ConfigInvalid, match="^tensor_spec: material.mu conflicts"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "family, foreign",
        [
            pytest.param(family, line, id=f"{family}-{line.split(' = ')[0]}")
            for family in FAMILY_LINES
            for other, lines in FAMILY_LINES.items()
            if other != family
            for line in lines
        ],
    )
    def test_key_of_another_family_exits_one(self, tmp_path, capsys, family, foreign):
        lines = [f"material.tensor.family = {family}", *FAMILY_LINES[family], "material.misfit_iso = 0.1"]
        cfg_path = write_config(tmp_path, lines + [foreign])
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        key = foreign.split(" = ")[0]
        assert capsys.readouterr().err.splitlines() == [
            f"error: tensor_spec: {key} is not read by tensor family '{family}'"
        ]
        assert not (tmp_path / "out").exists()
        if family != "isotropic":  # no isotropic tensor passes the structural conditions
            cfg = parse_config_text("\n".join(lines))
            assert parse_config_text(config_echo(cfg)) == cfg

    def test_unknown_family_is_named_before_foreign_keys(self):
        text = "material.tensor.family = cubic\nmaterial.tensor.lambda_L = 1\nmaterial.misfit_iso = 0.1\n"
        with pytest.raises(ConfigInvalid, match="^tensor_spec: unknown tensor family 'cubic'"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "family, kept",
        [pytest.param(family, [], id=family) for family in FAMILY_LINES]
        + [pytest.param("isotropic", FAMILY_LINES["isotropic"][:1], id="isotropic-lambda_L-only")],
    )
    def test_unset_key_of_the_family_exits_one(self, tmp_path, capsys, family, kept):
        cfg_path = write_config(tmp_path, [f"material.tensor.family = {family}", *kept, "material.misfit_iso = 0.1"])
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        missing = [line.split(" = ")[0] for line in FAMILY_LINES[family] if line not in kept]
        assert capsys.readouterr().err.splitlines() == [
            f"error: tensor_spec: tensor family '{family}' needs {' and '.join(missing)}"
        ]
        assert not (tmp_path / "out").exists()

    def test_misfit_required(self):
        with pytest.raises(ConfigInvalid, match="^tensor_spec: tensor family needs exactly one of material.misfit"):
            parse_config_text("material.tensor.family = diagonal\nmaterial.tensor.mu0 = 1\n")


class TestCliRun:
    def test_run_success(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, FAST)
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "meta.txt").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "fields.npz").exists()
        assert not any((out / name).exists() for name in ("S.csv", "u.csv", "frames"))
        stdout = capsys.readouterr().out
        assert "max principle margin" in stdout
        assert "elasticity residual : " in stdout

    @pytest.mark.parametrize("command", ["run", "study"])
    def test_green_path_exits_one(self, tmp_path, capsys, command):
        # the Green quadrature is the oracle only: no run marches on it
        study = command == "study"
        lines = FAST + ["run.elasticity_path = green"] + ["study.kappas = 0.5 0.25"] * study
        from_file = ["--config", str(write_config(tmp_path, lines))]
        from_set = ["--set", "run.elasticity_path=green"] + ["--set", "study.kappas=0.5 0.25"] * study
        for args in (from_file, from_set):
            assert main([command, "--out", str(tmp_path / "out"), *args]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [
                "error: config: unknown elasticity path 'green'; expected direct or both-verify"
            ]
            assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_theta_key_exits_one(self, tmp_path, capsys):
        # the implicitness weight of earlier versions: every step is backward Euler now
        from_file = ["--config", str(write_config(tmp_path, FAST + ["reg.theta = 1"]))]
        from_set = ["--set", "reg.theta=0.5"]
        for args, error in (
            (from_file, "error: unknown_key: unknown config key 'reg.theta'"),
            (from_set, "error: unknown_key: override references unknown key 'reg.theta'"),
        ):
            assert main(["run", "--out", str(tmp_path / "out"), *args]) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [error]
            assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", ["direct", "both-verify"])
    def test_every_path_reports_elasticity_residual(self, tmp_path, capsys, path):
        code = main(["run", "--out", str(tmp_path / "out"), "--set", f"run.elasticity_path={path}",
                     "--set", "run.t_end=0.002"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "elasticity residual : " in stdout
        assert ("path discrepancy" in stdout) == (path == "both-verify")

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
        with np.load(tmp_path / "out" / "fields.npz") as fields:
            assert fields["S"].shape == fields["u"].shape == (1, 33)
        meta = (tmp_path / "out" / "meta.txt").read_text()
        assert "termination = step-rejected" in meta

    @pytest.mark.parametrize("layout", ["frames", "S.csv"])
    def test_run_into_old_layout_directory_exits_one(self, tmp_path, capsys, layout):
        out = tmp_path / "out"
        old = write_old_layout(out, layout)
        cfg_path = write_config(tmp_path, FAST)
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: {out / layout}: a field file of an earlier version's run directory, "
            "which this version neither reads nor writes over"
        ]
        assert captured.out == ""
        # nothing deleted, nothing written
        assert read_tree(out) == old

    def test_unholdable_mollifier_window_exits_one(self, tmp_path, capsys, monkeypatch):
        # a one-step run whose window of reg.kappa_m / reg.dt = 2.5e8 steps would tabulate 2 GB arrays
        def refuse(*args, **kwargs):
            raise AssertionError("the mollifier was built")

        monkeypatch.setattr(simulator, "MollifierState", refuse)
        argv = ["run", "--out", str(tmp_path / "out"), "--set", "reg.dt=1e-9", "--set", "run.t_end=1e-9"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "reg.kappa_m / reg.dt = 250000000 steps" in err[0] and "exceeds the ceiling of 2 GiB" in err[0]
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_mollifier_ring_of_a_large_grid_exits_one(self, tmp_path, capsys, monkeypatch):
        # 1e8 nodes at the default run: its 101 frames never fill the 1250-step window, so the
        # estimate is the ring of 101 rows, which grid.n and run.t_end bound and reg.kappa_m does not
        def refuse(*args, **kwargs):
            raise AssertionError("the mollifier was built")

        monkeypatch.setattr(simulator, "MollifierState", refuse)
        argv = ["run", "--out", str(tmp_path / "out"), "--set", "grid.n=100000000"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "reg.kappa_m / reg.dt = 1250 steps" in err[0] and "exceeds the ceiling of 2 GiB" in err[0]
        assert "does not fill in the run's 101 frames" in err[0]
        assert err[0].endswith("; raise reg.dt or lower run.t_end or grid.n")
        assert captured.out == "" and not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("reference", ["5", "-3"])
    def test_reference_out_of_range_exits_one(self, tmp_path, capsys, reference):
        argv = ["study", "--out", str(tmp_path / "out"), "--set", "study.kappas=0.5 0.25",
                "--set", f"study.reference={reference}"]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: study: study.reference = {reference} is out of range for 2 kappas"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "factor, reference", [("study.h_factor", "0"), ("study.dt_factor", "0"), ("study.h_factor", "-1")]
    )
    def test_reference_of_a_refinement_study_exits_one(self, tmp_path, capsys, factor, reference):
        # a refinement study has no reference member, so the key is not read
        argv = ["study", "--out", str(tmp_path / "out"), "--set", "study.kappas=0.5 0.25", "--set", "reg.kappa=0.5",
                "--set", f"{factor}=2", "--set", "grid.n=17", "--set", "run.t_end=0.002",
                "--set", f"study.reference={reference}"]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: study: study.reference is not read by a refinement study (study.h_factor or study.dt_factor > 1)"
        ]
        assert not (tmp_path / "out").exists()

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

    def check_reduction_error(self, run_dir, capsys) -> str:
        """The one stderr line of ``check-reduction`` on ``run_dir``, which must exit 1."""
        capsys.readouterr()
        assert main(["check-reduction", "--run", run_dir]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "residual" not in captured.out
        return err[0]

    @pytest.mark.parametrize("layout", ["frames", "S.csv"])
    def test_damaged_run_directory_exits_one(self, tmp_path, capsys, layout):
        # an earlier version's field files beside the run's own: refused, and nothing deleted
        run_dir = self.tensor_run(tmp_path)
        out = tmp_path / "out"
        write_old_layout(out, layout)
        before = read_tree(out)
        error = self.check_reduction_error(run_dir, capsys)
        assert error.startswith(f"error: {out / layout}: a field file of an earlier version's run directory")
        assert read_tree(out) == before

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda path: path.unlink(), "No such file or directory"),
            (lambda path: path.write_bytes(path.read_bytes()[:-100]), "File is not a zip file"),
            (flip_last_byte_of_s, "Bad CRC-32 for file 'S.npy'"),
            (lambda path: path.write_bytes(b""), "No data left in file"),
            (lambda path: edit_fields(path, lambda m: m.pop("u")), "u is not a file in the archive"),
            (
                lambda path: edit_fields(path, lambda m: m.update(S=m["S"].astype(np.float32))),
                "got int64, float64, float64, float32 and float64",
            ),
            (
                lambda path: edit_fields(path, lambda m: m.update(x=np.array(["a"] * 33, dtype=object))),
                "Object arrays cannot be loaded when allow_pickle=False",
            ),
            (
                lambda path: edit_fields(path, lambda m: m.update(u=m["u"][:, :-1])),
                "expected S and u of shape (K >= 1, 33) and step and time of shape (K,), got (6, 33), (6, 32)",
            ),
            (
                lambda path: edit_fields(path, lambda m: m.update(x=Grid(1.0, 2.5, 33).x)),
                "x differs from the nodes of the grid on [1, 2]",
            ),
            # a copy of the last frame: dt = 0 between the last two frames
            (lambda path: edit_frames(path, lambda v: np.concatenate([v, v[-1:]])), "times do not increase strictly"),
        ],
        ids=[
            "missing_file", "truncated", "flipped_byte", "empty", "missing_member", "float32_S", "object_member",
            "wrong_shape", "other_grid_x", "repeated_time",
        ],
    )
    def test_damaged_fields_exits_one(self, tmp_path, capsys, damage, message):
        run_dir = self.tensor_run(tmp_path)
        path = tmp_path / "out" / "fields.npz"
        damage(path)
        error = self.check_reduction_error(run_dir, capsys)
        assert str(path) in error and message in error

    @pytest.mark.parametrize(
        "name, damage, message",
        [
            ("meta.txt", lambda text: text.replace("[config]\n", ""), "meta.txt: no [config] line"),
            (
                "meta.txt",
                lambda text: re.sub(r"(?m)^material\.nu = .*$", "material.nu = 5", text),
                "meta.txt: config_hash differs from the digest of its [config] section",
            ),
            (
                "meta.txt",
                lambda text: re.sub(r"(?m)^config_hash = .*\n", "", text),
                "meta.txt: no config_hash line",
            ),
            (
                "meta.txt",
                lambda text: text.replace("run.elasticity_path = direct", "run.elasticity_path = green"),
                "meta.txt: config: unknown elasticity path 'green'; expected direct or both-verify",
            ),
            # the implicitness weight, a key of earlier versions
            (
                "meta.txt",
                lambda text: text.replace("[config]\n", "[config]\nreg.theta = 1\n"),
                "meta.txt: unknown_key: unknown config key 'reg.theta'",
            ),
        ],
        ids=["meta_without_config", "config_edited", "meta_without_hash", "green_path", "theta_key"],
    )
    def test_damaged_run_metadata_exits_one(self, tmp_path, capsys, name, damage, message):
        run_dir = self.tensor_run(tmp_path)
        path = tmp_path / "out" / name
        text = path.read_text()
        assert damage(text) != text
        path.write_text(damage(text))
        assert message in self.check_reduction_error(run_dir, capsys)

    def test_parse_error_names_the_line_of_meta_txt(self, tmp_path, capsys):
        run_dir = self.tensor_run(tmp_path)
        path = tmp_path / "out" / "meta.txt"
        lines = path.read_text().splitlines()
        lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith("material.nu = "))
        lines[lineno - 1] = "this is broken"
        path.write_text("\n".join(lines) + "\n")
        error = self.check_reduction_error(run_dir, capsys)
        assert f"meta.txt: line {lineno}, column 1: expected 'key = value', got 'this is broken'" in error

    def test_run_need_not_start_at_time_zero(self, tmp_path):
        # a run resumed from a snapshot saves its first frame at the snapshot's time
        run_dir = self.tensor_run(tmp_path)
        edit_frames(tmp_path / "out" / "fields.npz", lambda v: v[1:])
        traj, _, _ = load_run(run_dir)
        assert traj.times[0] > 0.0 and len(traj.times) == 5

    def test_check_reduction_requires_tensor_config(self, tmp_path):
        cfg_path = write_config(tmp_path, FAST)
        main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert main(["check-reduction", "--run", str(tmp_path / "out")]) == 1

    def test_mms_command(self, capsys):
        assert main(["mms"]) == 0
        assert "elasticity slope" in capsys.readouterr().out
