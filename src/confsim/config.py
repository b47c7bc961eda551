"""Structured key-value config files: parsing, validation, canonical echo.

The format is one ``key = value`` pair per line, ``#`` comments, flat dotted
keys.  Parsing is strict: unknown keys are rejected so sweep typos cannot
silently fall back to defaults.  ``echo_lines`` renders a config canonically
(every key, sorted, floats at 17 significant digits) and re-parsing the echo
reproduces an equal config; the run hash is taken over that text.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional

from .grid_field import FLOAT_FMT, Grid
from .material import AssumptionViolated, MaterialParams, TensorSpec
from .order_parameter import RegularizationParams
from .simulator import BodyForce, InitialData, SimulationConfig
from .studies import StudyConfig


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ValidationError(ValueError):
    def __init__(self, invariant: str, message: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}")


# key -> (kind, default); None default means "optional, absent unless set"
_CATALOG = {
    "grid.a": ("float", 1.0),
    "grid.d": ("float", 2.0),
    "grid.n": ("int", 129),
    "material.c": ("float", 1.0),
    "material.nu": ("float", 0.1),
    "material.well_weight": ("float", 1.0),
    "material.mu": ("float", 2.0),
    "material.lambda": ("float", 0.2),
    "material.e": ("float", 0.06),
    "material.tensor.family": ("str", None),
    "material.tensor.mu0": ("float", None),
    "material.tensor.lambda_L": ("float", None),
    "material.tensor.mu_L": ("float", None),
    "material.tensor.entries": ("floats", None),
    "material.misfit": ("floats", None),
    "material.misfit_iso": ("float", None),
    "reg.kappa": ("float", 0.25),
    "reg.kappa_m": ("float", None),
    "reg.dt": ("float", 2.0e-4),
    "reg.theta": ("float", 1.0),
    "reg.increment_guard": ("float", 1.0),
    "run.t_end": ("float", 0.02),
    "run.save_every": ("int", 10),
    "run.elasticity_path": ("str", "direct"),
    "init.family": ("str", "plateau"),
    "init.amplitude": ("float", 0.8),
    "init.support_lo": ("float", 0.3),
    "init.support_hi": ("float", 0.7),
    "init.shoulder": ("float", 0.15),
    "body.family": ("str", "zero"),
    "body.amplitude": ("float", 0.0),
    "body.coeffs": ("floats", (0.0,)),
    "body.rate": ("float", 0.0),
    "study.kappas": ("floats", None),
    "study.reference": ("int", -1),
    "study.h_factor": ("int", 1),
    "study.dt_factor": ("int", 1),
}

_SCALAR_MATERIAL_KEYS = ("material.mu", "material.lambda", "material.e")


def _convert(key: str, raw: str, line: int):
    kind = _CATALOG[key][0]
    try:
        if kind == "int":
            return int(raw)
        if kind == "str":
            return raw.strip()
        values = (float(raw),) if kind == "float" else tuple(float(p) for p in raw.split())
        if not values:
            raise ValueError("empty value")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"non-finite value {raw.strip()!r}")
        return values[0] if kind == "float" else values
    except ValueError as exc:
        raise ParseError(line, 1, f"cannot parse value for {key}: {exc}") from exc


def parse_pairs(text: str) -> dict:
    """Raw key/value extraction with line-accurate errors."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped == "[config]":
            continue
        if "=" not in stripped:
            raise ParseError(lineno, 1, f"expected 'key = value', got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in _CATALOG:
            raise ValidationError("unknown_key", f"unknown config key {key!r}")
        if key in raw:
            raise ParseError(lineno, 1, f"duplicate key {key!r}")
        raw[key] = _convert(key, value.strip(), lineno)
    return raw


def apply_overrides(raw: dict, overrides) -> dict:
    out = dict(raw)
    for item in overrides or ():
        if "=" not in item:
            raise ValidationError("override_format", f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in _CATALOG:
            raise ValidationError("unknown_key", f"override references unknown key {key!r}")
        out[key] = _convert(key, value.strip(), 0)
    return out


def _build_material(raw: dict) -> tuple[MaterialParams, Optional[TensorSpec]]:
    c = raw.get("material.c", _CATALOG["material.c"][1])
    nu = raw.get("material.nu", _CATALOG["material.nu"][1])
    ww = raw.get("material.well_weight", _CATALOG["material.well_weight"][1])
    family = raw.get("material.tensor.family")
    if family is None:
        for key in ("material.tensor.mu0", "material.tensor.lambda_L", "material.tensor.mu_L",
                    "material.tensor.entries", "material.misfit", "material.misfit_iso"):
            if key in raw:
                raise ValidationError("tensor_spec", f"{key} requires material.tensor.family")
        params = MaterialParams(
            c=c,
            nu=nu,
            mu=raw.get("material.mu", _CATALOG["material.mu"][1]),
            lam=raw.get("material.lambda", _CATALOG["material.lambda"][1]),
            e=raw.get("material.e", _CATALOG["material.e"][1]),
            well_weight=ww,
        )
        return params, None
    for key in _SCALAR_MATERIAL_KEYS:
        if key in raw:
            raise ValidationError(
                "tensor_spec", f"{key} conflicts with material.tensor.family; scalars are derived"
            )
    if ("material.misfit" in raw) == ("material.misfit_iso" in raw):
        raise ValidationError(
            "tensor_spec", "tensor family needs exactly one of material.misfit / material.misfit_iso"
        )
    spec = TensorSpec(
        family=family,
        mu0=raw.get("material.tensor.mu0", 0.0),
        lambda_l=raw.get("material.tensor.lambda_L", 0.0),
        mu_l=raw.get("material.tensor.mu_L", 0.0),
        entries=raw.get("material.tensor.entries"),
        misfit=raw.get("material.misfit"),
        misfit_iso=raw.get("material.misfit_iso"),
    )
    try:
        tensor, misfit = spec.build()
        params = MaterialParams.from_tensors(tensor, misfit, c=c, nu=nu, well_weight=ww)
    except AssumptionViolated as exc:
        failed = [cond.name for cond in exc.report.conditions if not cond.passed]
        raise ValidationError(
            "tensor_assumptions", f"tensor fails structural conditions: {', '.join(failed)}"
        ) from exc
    except ValueError as exc:
        raise ValidationError("tensor_spec", str(exc)) from exc
    return params, spec


def build_config(raw: dict):
    """Typed, fully validated config from raw pairs; study keys switch the type."""

    def get(key):
        return raw.get(key, _CATALOG[key][1])

    try:
        grid = Grid(a=get("grid.a"), d=get("grid.d"), n=get("grid.n"))
    except ValueError as exc:
        raise ValidationError("grid", str(exc)) from exc
    material, tensor_spec = _build_material(raw)
    try:
        reg = RegularizationParams(
            kappa=get("reg.kappa"),
            dt=get("reg.dt"),
            theta=get("reg.theta"),
            kappa_m=raw.get("reg.kappa_m"),
            increment_guard=get("reg.increment_guard"),
        )
    except ValueError as exc:
        raise ValidationError("regularization", str(exc)) from exc
    try:
        init = InitialData(
            family=get("init.family"),
            amplitude=get("init.amplitude"),
            support_lo=get("init.support_lo"),
            support_hi=get("init.support_hi"),
            shoulder=get("init.shoulder"),
        )
        body = BodyForce(
            family=get("body.family"),
            amplitude=get("body.amplitude"),
            coeffs=get("body.coeffs"),
            rate=get("body.rate"),
        )
        sim = SimulationConfig(
            grid=grid,
            material=material,
            reg=reg,
            t_end=get("run.t_end"),
            save_every=get("run.save_every"),
            elasticity_path=get("run.elasticity_path"),
            init=init,
            body=body,
            tensor_spec=tensor_spec,
        )
    except ValueError as exc:
        raise ValidationError("config", str(exc)) from exc

    if any(k.startswith("study.") for k in raw):
        if "study.kappas" not in raw:
            raise ValidationError("study", "study config requires study.kappas")
        try:
            return StudyConfig(
                base=sim,
                kappas=raw["study.kappas"],
                reference=get("study.reference"),
                h_factor=get("study.h_factor"),
                dt_factor=get("study.dt_factor"),
            )
        except (ValueError, IndexError) as exc:
            raise ValidationError("study", str(exc)) from exc
    return sim


def parse_config_text(text: str, overrides=None):
    raw = parse_pairs(text)
    raw = apply_overrides(raw, overrides)
    return build_config(raw)


def parse_config(path, overrides=None):
    return parse_config_text(Path(path).read_text(), overrides)


def _fmt(kind: str, value) -> str:
    if kind == "float":
        return FLOAT_FMT.format(value)
    if kind == "floats":
        return " ".join(FLOAT_FMT.format(v) for v in value)
    return str(value)


def echo_lines(config) -> list[str]:
    """Canonical rendering: every applicable key, sorted, defaults resolved."""
    if isinstance(config, StudyConfig):
        pairs = _echo_pairs(config.base)
        pairs["study.kappas"] = ("floats", config.kappas)
        pairs["study.reference"] = ("int", config.reference)
        pairs["study.h_factor"] = ("int", config.h_factor)
        pairs["study.dt_factor"] = ("int", config.dt_factor)
    else:
        pairs = _echo_pairs(config)
    return [f"{key} = {_fmt(kind, value)}" for key, (kind, value) in sorted(pairs.items())]


def _echo_pairs(sim: SimulationConfig) -> dict:
    pairs = {
        "grid.a": ("float", sim.grid.a),
        "grid.d": ("float", sim.grid.d),
        "grid.n": ("int", sim.grid.n),
        "material.c": ("float", sim.material.c),
        "material.nu": ("float", sim.material.nu),
        "material.well_weight": ("float", sim.material.well_weight),
        "reg.kappa": ("float", sim.reg.kappa),
        "reg.kappa_m": ("float", sim.reg.kappa_m),
        "reg.dt": ("float", sim.reg.dt),
        "reg.theta": ("float", sim.reg.theta),
        "reg.increment_guard": ("float", sim.reg.increment_guard),
        "run.t_end": ("float", sim.t_end),
        "run.save_every": ("int", sim.save_every),
        "run.elasticity_path": ("str", sim.elasticity_path),
        "init.family": ("str", sim.init.family),
        "init.amplitude": ("float", sim.init.amplitude),
        "init.support_lo": ("float", sim.init.support_lo),
        "init.support_hi": ("float", sim.init.support_hi),
        "init.shoulder": ("float", sim.init.shoulder),
        "body.family": ("str", sim.body.family),
        "body.amplitude": ("float", sim.body.amplitude),
        "body.coeffs": ("floats", sim.body.coeffs),
        "body.rate": ("float", sim.body.rate),
    }
    spec = sim.tensor_spec
    if spec is None:
        pairs["material.mu"] = ("float", sim.material.mu)
        pairs["material.lambda"] = ("float", sim.material.lam)
        pairs["material.e"] = ("float", sim.material.e)
    else:
        pairs["material.tensor.family"] = ("str", spec.family)
        if spec.family == "diagonal":
            pairs["material.tensor.mu0"] = ("float", spec.mu0)
        elif spec.family == "isotropic":
            pairs["material.tensor.lambda_L"] = ("float", spec.lambda_l)
            pairs["material.tensor.mu_L"] = ("float", spec.mu_l)
        else:
            pairs["material.tensor.entries"] = ("floats", spec.entries)
        if spec.misfit_iso is not None:
            pairs["material.misfit_iso"] = ("float", spec.misfit_iso)
        else:
            pairs["material.misfit"] = ("floats", spec.misfit)
    return pairs


def default_config() -> SimulationConfig:
    return build_config({})
