"""Typed run and study configs, and the key-value files they are read from.

``SimulationConfig`` (with its ``InitialData`` and ``BodyForce`` families)
and ``StudyConfig`` are the validated schema every layer above this one
consumes.  The file format is one ``key = value`` pair per line, ``#``
comments, flat dotted keys.  Parsing is strict: unknown keys are rejected so
sweep typos cannot silently fall back to defaults.  ``echo_lines`` renders a
config canonically (every key, sorted, floats at 17 significant digits) and
re-parsing the echo reproduces an equal config; ``config_digest``, the run
hash, is taken over that text.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .grid_field import FLOAT_FMT, Grid
from .material import AssumptionViolated, MaterialParams, TensorSpec
from .order_parameter import MAX_STEPS, RegularizationParams


class ConfigInvalid(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ValidationError(ValueError):
    def __init__(self, invariant: str, message: str):
        self.invariant = invariant
        super().__init__(f"{invariant}: {message}")


def _smooth_ramp(s: np.ndarray) -> np.ndarray:
    """C-infinity transition, exactly 0 for s <= 0 and exactly 1 for s >= 1."""
    out = np.zeros_like(s)
    mid = (s > 0.0) & (s < 1.0)
    f = np.exp(-1.0 / s[mid])
    g = np.exp(-1.0 / (1.0 - s[mid]))
    out[mid] = f / (f + g)
    out[s >= 1.0] = 1.0
    return out


@dataclass(frozen=True)
class InitialData:
    """Initial order parameter; both families lie in the zero-boundary class.

    "plateau" is compactly supported with smooth shoulders, so all derivatives
    vanish at the boundary; "bump" is a half sine.
    """

    family: str = "plateau"
    amplitude: float = 0.8
    support_lo: float = 0.3
    support_hi: float = 0.7
    shoulder: float = 0.15

    def __post_init__(self):
        if self.family not in ("plateau", "bump"):
            raise ConfigInvalid(f"unknown initial-data family {self.family!r}")
        if self.family == "plateau":
            if not (0.0 < self.support_lo < self.support_hi < 1.0):
                raise ConfigInvalid("plateau support must satisfy 0 < lo < hi < 1")
            if not self.shoulder > 0:
                raise ConfigInvalid("plateau shoulder width must be positive")

    def build(self, grid: Grid) -> np.ndarray:
        xi = (grid.x - grid.a) / (grid.d - grid.a)
        if self.family == "bump":
            values = self.amplitude * np.sin(np.pi * xi)
        else:
            rise = _smooth_ramp((xi - self.support_lo) / self.shoulder)
            fall = _smooth_ramp((self.support_hi - xi) / self.shoulder)
            values = self.amplitude * rise * fall
        values[0] = 0.0
        values[-1] = 0.0
        return values


@dataclass(frozen=True)
class BodyForce:
    """Radial volume force family; continuous in t with continuous t-derivative."""

    family: str = "zero"
    amplitude: float = 0.0
    coeffs: tuple = (0.0,)
    rate: float = 0.0

    def __post_init__(self):
        if self.family not in ("zero", "constant", "poly", "ramp"):
            raise ConfigInvalid(f"unknown body-force family {self.family!r}")

    def evaluate(self, t: float, grid: Grid) -> np.ndarray:
        if self.family == "zero":
            values = np.zeros(grid.n)
        elif self.family == "constant":
            values = np.full(grid.n, self.amplitude)
        elif self.family == "poly":
            values = np.zeros(grid.n)
            for k, ck in enumerate(self.coeffs):
                values += ck * (grid.x - grid.a) ** k
        else:  # ramp
            values = np.full(grid.n, self.amplitude + self.rate * t)
        return values


@dataclass(frozen=True)
class SimulationConfig:
    grid: Grid
    material: MaterialParams
    reg: RegularizationParams
    t_end: float
    save_every: int = 10
    elasticity_path: str = "direct"
    init: InitialData = field(default_factory=InitialData)
    body: BodyForce = field(default_factory=BodyForce)
    tensor_spec: Optional[TensorSpec] = None

    def __post_init__(self):
        if not self.t_end > 0:
            raise ConfigInvalid(f"t_end must be positive, got {self.t_end}")
        if self.save_every < 1:
            raise ConfigInvalid(f"save_every must be >= 1, got {self.save_every}")
        if self.elasticity_path not in ("direct", "green", "both-verify"):
            raise ConfigInvalid(f"unknown elasticity path {self.elasticity_path!r}")
        steps = self.t_end / self.reg.dt
        if not steps <= MAX_STEPS:
            raise ConfigInvalid(
                f"run.t_end / reg.dt = {steps:.3g} steps exceeds the ceiling of {MAX_STEPS}; "
                "raise reg.dt or lower run.t_end"
            )

    @property
    def n_steps(self) -> int:
        return int(np.ceil(self.t_end / self.reg.dt - 1e-9))

    def step_time(self, n: int) -> float:
        return min(n * self.reg.dt, self.t_end)


@dataclass(frozen=True)
class StudyConfig:
    """A family of runs over a decreasing regularization sequence.

    With the default unit factors all members share the grid and time step
    (the setting in which reference distances are defined).  Factors above one
    refine the mesh and the step per member, turning the sequence into a
    simultaneous refinement path.
    """

    base: SimulationConfig
    kappas: tuple
    reference: int = -1
    h_factor: int = 1
    dt_factor: int = 1

    def __post_init__(self):
        ks = tuple(float(k) for k in self.kappas)
        if len(ks) < 2:
            raise ValueError("a study needs at least two kappa values")
        if any(not (0 < k <= 1) for k in ks):
            raise ValueError("kappa values must lie in (0, 1]")
        if any(b <= a for a, b in zip(ks[1:], ks[:-1])):
            raise ValueError("kappa values must be strictly decreasing")
        object.__setattr__(self, "kappas", ks)
        if self.h_factor < 1 or self.dt_factor < 1:
            raise ValueError("refinement factors must be >= 1")
        self.kappas[self.reference]  # raises IndexError for a bad reference
        for index in range(len(ks)):
            self.member_config(index)  # a refined member must be a valid config too

    @property
    def is_refinement(self) -> bool:
        return self.h_factor > 1 or self.dt_factor > 1

    def member_config(self, index: int) -> SimulationConfig:
        kappa = self.kappas[index]
        base = self.base
        reg = base.reg
        # a mollifier width equal to kappa is treated as coupled and swept along
        kappa_m = kappa if reg.kappa_m == reg.kappa else reg.kappa_m
        hf = self.h_factor**index
        tf = self.dt_factor**index
        grid = Grid(base.grid.a, base.grid.d, (base.grid.n - 1) * hf + 1)
        return replace(
            base,
            grid=grid,
            save_every=base.save_every * tf,
            reg=RegularizationParams(
                kappa=kappa,
                dt=reg.dt / tf,
                theta=reg.theta,
                kappa_m=kappa_m,
                increment_guard=reg.increment_guard,
            ),
        )


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


def _convert(key: str, raw: str):
    """``raw`` as the catalog type of ``key``; a ValueError names the key."""
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
        raise ValueError(f"cannot parse value for {key}: {exc}") from exc


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
        try:
            raw[key] = _convert(key, value.strip())
        except ValueError as exc:
            raise ParseError(lineno, 1, str(exc)) from exc
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
        try:
            out[key] = _convert(key, value.strip())
        except ValueError as exc:
            raise ConfigInvalid(f"--set {item}: {exc}") from exc
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
        try:
            params = MaterialParams(
                c=c,
                nu=nu,
                mu=raw.get("material.mu", _CATALOG["material.mu"][1]),
                lam=raw.get("material.lambda", _CATALOG["material.lambda"][1]),
                e=raw.get("material.e", _CATALOG["material.e"][1]),
                well_weight=ww,
            )
        except ValueError as exc:
            raise ValidationError("material", str(exc)) from exc
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


def config_echo(config) -> str:
    """Canonical key-value rendering; parsing it back yields an equal config."""
    return "\n".join(echo_lines(config)) + "\n"


def config_digest(config) -> str:
    return hashlib.sha256(config_echo(config).encode()).hexdigest()


def default_config() -> SimulationConfig:
    return build_config({})
