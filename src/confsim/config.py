"""Typed run and study configs, and the key-value files they are read from.

``SimulationConfig`` (with its ``InitialData`` and ``BodyForce`` families)
and ``StudyConfig`` are the validated schema every layer above this one
consumes.  The file format is one ``key = value`` pair per line, ``#``
comments, flat dotted keys.  ``_CATALOG`` is the single table of keys: it
gives each key's type and the attribute of the built config that holds it,
and parsing, building and the echo all read it.  A key's default is the one
its part's class holds (``Grid``, ``MaterialParams``, ``RegularizationParams``,
``InitialData``, ``BodyForce``, ``TensorSpec``, ``StudyConfig`` and the run
fields of ``SimulationConfig``): a part is built from the keys that were set
and its class fills in the rest.  The keys a tensor family reads
(``_FAMILY_KEYS``, the keys of ``material.FAMILY_FIELDS``) have no default,
and a config that leaves one unset is refused by name.  A run's config with
no argument is ``SimulationConfig()``; a file's text and its overrides are
read by ``parse_config_text``.  Parsing is strict: unknown keys are
rejected so sweep typos cannot silently fall back to defaults, and so are
the keys a config does not read, which ``_unread_keys`` alone names (material
scalars next to a tensor family, tensor keys of another family or of no
family, ``study.reference`` in a refinement study).  ``echo_lines`` renders a
config canonically (every key it reads, sorted, floats at 17 significant
digits) and re-parsing the echo reproduces an equal config;
``config_digest``, the run hash, is taken over that text.  Every input error
is a ``ConfigInvalid`` whose message leads with where it was found: the line
of the file, or the invariant that failed.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .grid_field import FLOAT_SLOT, Grid
from .material import FAMILY_FIELDS, AssumptionViolated, MaterialParams, TensorSpec
from .order_parameter import MAX_MOLLIFIER_FLOATS, MAX_STEPS, RegularizationParams, mollifier_floats, window_length


class ConfigInvalid(ValueError):
    """Bad input: a config that does not parse or validate, or a command-line value out of range."""


@contextmanager
def _invariant(name: str):
    """Raise a ValueError of the block as a ConfigInvalid that names the invariant ``name``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigInvalid(f"{name}: {exc}") from exc


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

    @property
    def time_independent(self) -> bool:
        """Whether every time gives the same values: all families but ramp."""
        return self.family != "ramp"

    def evaluate(self, t, grid: Grid) -> np.ndarray:
        """Nodal values at time ``t``: (n,) at one time, (K, n) at a (K, 1) column of times.

        Each row of a column's values equals the values at its time alone, bit for bit.
        Times in any other layout, such as a flat (K,) array, raise ValueError.
        """
        # np.shape of a lone float costs more than the zero family's whole evaluation
        if isinstance(t, float):
            shape = (grid.n,)
        else:
            t_shape = np.shape(t)
            if t_shape and t_shape[-1] != 1:
                raise ValueError(f"times of shape {t_shape} are not a scalar or a (K, 1) column")
            shape = t_shape[:-1] + (grid.n,)
        if self.family == "zero":
            values = np.zeros(shape)
        elif self.family == "constant":
            values = np.full(shape, self.amplitude)
        elif self.family == "poly":
            values = np.zeros(shape)
            for k, ck in enumerate(self.coeffs):
                values += ck * (grid.x - grid.a) ** k
        else:  # ramp
            values = np.full(shape, self.amplitude + self.rate * t)
        return values


@dataclass(frozen=True)
class SimulationConfig:
    """One run; with no arguments, the default run."""

    grid: Grid = field(default_factory=Grid)
    material: MaterialParams = field(default_factory=MaterialParams)
    reg: RegularizationParams = field(default_factory=RegularizationParams)
    t_end: float = 0.02
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
        if self.elasticity_path not in ("direct", "both-verify"):
            raise ConfigInvalid(
                f"unknown elasticity path {self.elasticity_path!r}; expected direct or both-verify"
            )
        steps = self.t_end / self.reg.dt
        if not steps <= MAX_STEPS:
            raise ConfigInvalid(
                f"run.t_end / reg.dt = {steps:.3g} steps exceeds the ceiling of {MAX_STEPS}; "
                "raise reg.dt or lower run.t_end"
            )
        m = window_length(self.reg.kappa_m, self.reg.dt)
        frames = self.n_steps + 1
        floats = mollifier_floats(m, frames, self.grid.n)
        if floats > MAX_MOLLIFIER_FLOATS:
            # name the keys that can lower the estimate enough; reg.dt shortens both the window
            # and the run.  A window that fills holds about 3mn floats.  One that cannot fill holds
            # its weights, 3m, and a ring of one row per frame; lowering reg.kappa_m helps only if
            # the ring alone fits, and run.t_end or grid.n only if the weights alone fit.
            weights = mollifier_floats(m, frames, 0)
            fills = frames >= m
            lower = []
            if fills or floats - weights <= MAX_MOLLIFIER_FLOATS:
                lower.append("reg.kappa_m")
            if weights <= MAX_MOLLIFIER_FLOATS:
                lower += ["grid.n"] if fills else ["run.t_end", "grid.n"]
            raise ConfigInvalid(
                f"mollifier window reg.kappa_m / reg.dt = {m} steps: up to {floats * 8 / 2**30:.3g} GiB exceeds "
                f"the ceiling of {MAX_MOLLIFIER_FLOATS * 8 / 2**30:g} GiB"
                + ("" if fills else f" (the window does not fill in the run's {frames} frames)")
                + "; raise reg.dt"
                + (" or lower " + " or ".join(lower) if lower else "")
            )

    @cached_property
    def n_steps(self) -> int:
        """Steps to t_end, at least one, computed once per config."""
        return max(1, int(np.ceil(self.t_end / self.reg.dt - 1e-9)))

    def step_time(self, n: int) -> float:
        """Time after step n; the last step lands on t_end exactly, not on n_steps * dt."""
        return self.t_end if n >= self.n_steps else n * self.reg.dt

    def body_over_mu(self, t) -> np.ndarray:
        """b/mu at time t, or at a (K, 1) column of times: the body force as the elasticity solves take it."""
        return np.divide(self.body.evaluate(t, self.grid), self.material.mu)


# the error for a reference set in a refinement study, by code or by key
_REFINEMENT_REFERENCE = "study.reference is not read by a refinement study (study.h_factor or study.dt_factor > 1)"


@dataclass(frozen=True)
class StudyConfig:
    """A family of runs over a decreasing regularization sequence.

    With the default unit factors all members share the grid and time step
    (the setting in which reference distances are defined).  Factors above one
    refine the mesh and the step per member, turning the sequence into a
    simultaneous refinement path, which has no reference member: its
    ``reference`` stays -1.
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
        if not -len(ks) <= self.reference < len(ks):
            raise ValueError(f"study.reference = {self.reference} is out of range for {len(ks)} kappas")
        for index in range(len(ks)):
            self.member_config(index)  # a refined member must be a valid config too
        if self.is_refinement and self.reference != -1:
            raise ValueError(_REFINEMENT_REFERENCE)

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
            reg=replace(reg, kappa=kappa, dt=reg.dt / tf, kappa_m=kappa_m),
        )


# key -> (kind, part, field): the value's type and the attribute of the built
# config that holds it.  The part is a component of the SimulationConfig
# ("run" is the SimulationConfig itself) or "study", the StudyConfig.
_CATALOG = {
    "grid.a": ("float", "grid", "a"),
    "grid.d": ("float", "grid", "d"),
    "grid.n": ("int", "grid", "n"),
    "material.c": ("float", "material", "c"),
    "material.nu": ("float", "material", "nu"),
    "material.well_weight": ("float", "material", "well_weight"),
    "material.mu": ("float", "material", "mu"),
    "material.lambda": ("float", "material", "lam"),
    "material.e": ("float", "material", "e"),
    "material.tensor.family": ("str", "tensor_spec", "family"),
    "material.tensor.mu0": ("float", "tensor_spec", "mu0"),
    "material.tensor.lambda_L": ("float", "tensor_spec", "lambda_l"),
    "material.tensor.mu_L": ("float", "tensor_spec", "mu_l"),
    "material.tensor.entries": ("floats", "tensor_spec", "entries"),
    "material.misfit": ("floats", "tensor_spec", "misfit"),
    "material.misfit_iso": ("float", "tensor_spec", "misfit_iso"),
    "reg.kappa": ("float", "reg", "kappa"),
    "reg.kappa_m": ("float", "reg", "kappa_m"),
    "reg.dt": ("float", "reg", "dt"),
    "reg.increment_guard": ("float", "reg", "increment_guard"),
    "run.t_end": ("float", "run", "t_end"),
    "run.save_every": ("int", "run", "save_every"),
    "run.elasticity_path": ("str", "run", "elasticity_path"),
    "init.family": ("str", "init", "family"),
    "init.amplitude": ("float", "init", "amplitude"),
    "init.support_lo": ("float", "init", "support_lo"),
    "init.support_hi": ("float", "init", "support_hi"),
    "init.shoulder": ("float", "init", "shoulder"),
    "body.family": ("str", "body", "family"),
    "body.amplitude": ("float", "body", "amplitude"),
    "body.coeffs": ("floats", "body", "coeffs"),
    "body.rate": ("float", "body", "rate"),
    "study.kappas": ("floats", "study", "kappas"),
    "study.reference": ("int", "study", "reference"),
    "study.h_factor": ("int", "study", "h_factor"),
    "study.dt_factor": ("int", "study", "dt_factor"),
}

# derived from the tensor when a tensor family is given, so not read then
_SCALAR_MATERIAL_KEYS = ("material.mu", "material.lambda", "material.e")

# the keys of the tensor fields each family reads (material.FAMILY_FIELDS); a
# family's config may set no other
_TENSOR_KEYS = {attr: key for key, (_, part, attr) in _CATALOG.items() if part == "tensor_spec"}
_FAMILY_KEYS = {family: tuple(_TENSOR_KEYS[name] for name in fields) for family, fields in FAMILY_FIELDS.items()}


def _unread_keys(family: Optional[str], study: Optional["StudyConfig"]) -> dict:
    """The keys a config does not read, in the order they are refused, each with the error for setting it.

    ``family`` is the config's tensor family (None: scalar material) and
    ``study`` its StudyConfig (None: a run).  The material keys depend on the
    family alone, the study keys on the kind of config alone.
    """
    if family is None:
        unread = {
            key: f"tensor_spec: {key} requires material.tensor.family"
            for key, (_, part, _) in _CATALOG.items() if part == "tensor_spec"
        }
    else:
        unread = {key: f"tensor_spec: {key} conflicts with material.tensor.family; scalars are derived"
                  for key in _SCALAR_MATERIAL_KEYS}
        if family in _FAMILY_KEYS:  # an unknown family is named by TensorSpec
            unread.update(
                (key, f"tensor_spec: {key} is not read by tensor family {family!r}")
                for other, keys in _FAMILY_KEYS.items() if other != family for key in keys
            )
    if study is None:  # never refused: setting a study key makes the config a study
        unread.update((key, f"study: {key} is read by a study only") for key in _CATALOG if key.startswith("study."))
    elif study.is_refinement:
        unread["study.reference"] = f"study: {_REFINEMENT_REFERENCE}"
    return unread


def _refuse_unread(raw: dict, unread: dict, parts) -> None:
    """Refuse the first key of ``parts`` that ``raw`` sets and the config does not read."""
    for key, message in unread.items():
        if key in raw and _CATALOG[key][1] in parts:
            raise ConfigInvalid(message)


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
        if not stripped or stripped == "[config]":
            continue
        at = f"line {lineno}, column 1"
        if "=" not in stripped:
            raise ConfigInvalid(f"{at}: expected 'key = value', got {stripped!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in _CATALOG:
            raise ConfigInvalid(f"unknown_key: unknown config key {key!r}")
        if key in raw:
            raise ConfigInvalid(f"{at}: duplicate key {key!r}")
        try:
            raw[key] = _convert(key, value.strip())
        except ValueError as exc:
            raise ConfigInvalid(f"{at}: {exc}") from exc
    return raw


def apply_overrides(raw: dict, overrides) -> dict:
    out = dict(raw)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigInvalid(f"override_format: override {item!r} is not key=value")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in _CATALOG:
            raise ConfigInvalid(f"unknown_key: override references unknown key {key!r}")
        try:
            out[key] = _convert(key, value.strip())
        except ValueError as exc:
            raise ConfigInvalid(f"--set {item}: {exc}") from exc
    return out


def _part_kwargs(raw: dict, part: str) -> dict:
    """Constructor arguments of one part: the keys of it that were set; its class fills in the rest."""
    return {attr: raw[key] for key, (_, key_part, attr) in _CATALOG.items() if key_part == part and key in raw}


def _build_material(raw: dict) -> tuple[MaterialParams, Optional[TensorSpec]]:
    family = raw.get("material.tensor.family")
    _refuse_unread(raw, _unread_keys(family, None), ("material", "tensor_spec"))
    if family is None:
        with _invariant("material"):
            return MaterialParams(**_part_kwargs(raw, "material")), None
    missing = [key for key in _FAMILY_KEYS.get(family, ()) if key not in raw]
    if missing:
        raise ConfigInvalid(f"tensor_spec: tensor family {family!r} needs {' and '.join(missing)}")
    if ("material.misfit" in raw) == ("material.misfit_iso" in raw):
        raise ConfigInvalid("tensor_spec: tensor family needs exactly one of material.misfit / material.misfit_iso")
    try:
        spec = TensorSpec(**_part_kwargs(raw, "tensor_spec"))
        tensor, misfit = spec.build()
        params = MaterialParams.from_tensors(tensor, misfit, **_part_kwargs(raw, "material"))
    except AssumptionViolated as exc:
        raise ConfigInvalid(f"tensor_assumptions: tensor fails structural conditions: {exc.failed}") from exc
    except ValueError as exc:
        raise ConfigInvalid(f"tensor_spec: {exc}") from exc
    return params, spec


def build_config(raw: dict):
    """Typed, fully validated config from raw pairs; study keys switch the type."""
    with _invariant("grid"):
        grid = Grid(**_part_kwargs(raw, "grid"))
    material, tensor_spec = _build_material(raw)
    with _invariant("regularization"):
        reg = RegularizationParams(**_part_kwargs(raw, "reg"))
    with _invariant("config"):
        sim = SimulationConfig(
            grid=grid,
            material=material,
            reg=reg,
            init=InitialData(**_part_kwargs(raw, "init")),
            body=BodyForce(**_part_kwargs(raw, "body")),
            tensor_spec=tensor_spec,
            **_part_kwargs(raw, "run"),
        )
    if not any(k.startswith("study.") for k in raw):
        return sim
    if "study.kappas" not in raw:
        raise ConfigInvalid("study: study config requires study.kappas")
    with _invariant("study"):
        study = StudyConfig(base=sim, **_part_kwargs(raw, "study"))
    _refuse_unread(raw, _unread_keys(raw.get("material.tensor.family"), study), ("study",))
    return study


def parse_config_text(text: str, overrides=None):
    raw = parse_pairs(text)
    raw = apply_overrides(raw, overrides)
    return build_config(raw)


def _fmt(kind: str, value) -> str:
    if kind == "float":
        return FLOAT_SLOT % value
    if kind == "floats":
        return " ".join(FLOAT_SLOT % v for v in value)
    return str(value)


def echo_lines(config) -> list[str]:
    """Canonical rendering: every key the config reads, sorted, defaults resolved."""
    study = config if isinstance(config, StudyConfig) else None
    sim = config.base if study is not None else config
    spec = sim.tensor_spec
    parts = {
        "grid": sim.grid, "material": sim.material, "tensor_spec": spec, "reg": sim.reg,
        "init": sim.init, "body": sim.body, "run": sim, "study": study,
    }
    unread = _unread_keys(None if spec is None else spec.family, study)
    lines = []
    for key in sorted(_CATALOG):
        if key in unread:
            continue
        kind, part, attr = _CATALOG[key]
        value = getattr(parts[part], attr)
        if value is not None:  # the misfit form that was not given
            lines.append(f"{key} = {_fmt(kind, value)}")
    return lines


def config_echo(config) -> str:
    """Canonical key-value rendering; parsing it back yields an equal config."""
    return "\n".join(echo_lines(config)) + "\n"


def config_digest(config) -> str:
    return hashlib.sha256(config_echo(config).encode()).hexdigest()
