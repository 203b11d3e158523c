"""Experiment configuration: a flat JSON tree with fail-closed parsing.

Five sections (market, reward, solver, girl, io), every key optional with
defaults matching the reference experiment; unknown sections or keys, and
values of the wrong type, are errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

from .errors import ConfigError
from .girl import FitConfig
from .glearner import SolverConfig
from .market import MarketSpec
from .rewards import RewardParams


@dataclass(frozen=True)
class RewardSection:
    lam: float = 0.001
    eta: float = 1.01
    rho: float = 0.4
    omega: float = 0.15
    benchmark_rate: float = 0.5  # continuous compounding per year (any sign)
    initial_wealth: float = 1000.0

    def __post_init__(self):
        if not self.initial_wealth > 0.0:
            raise ValueError(f"initial_wealth must be > 0, got {self.initial_wealth}")

    def params(self) -> RewardParams:
        return RewardParams(lam=self.lam, eta=self.eta, rho=self.rho, omega=self.omega)


@dataclass(frozen=True)
class SolverSection(SolverConfig):
    """SolverConfig plus the scale of the policy prior."""

    sigma_p_scale: float = 10.0

    def __post_init__(self):
        if not self.sigma_p_scale > 0.0:
            raise ValueError(f"sigma_p_scale must be > 0, got {self.sigma_p_scale}")


@dataclass(frozen=True)
class IoSection:
    outdir: str = "out"
    seed: int = 7  # the only seed: the simulation's and the rollouts'

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    market: MarketSpec = field(default_factory=MarketSpec)
    reward: RewardSection = field(default_factory=RewardSection)
    solver: SolverSection = field(default_factory=SolverSection)
    girl: FitConfig = field(default_factory=FitConfig)
    io: IoSection = field(default_factory=IoSection)

    @property
    def outdir(self) -> Path:
        return Path(self.io.outdir)

    @property
    def rf_period(self) -> float:
        return self.market.r_f * self.market.dt


_SECTION_TYPES = {
    "market": MarketSpec,
    "reward": RewardSection,
    "solver": SolverSection,
    "girl": FitConfig,
    "io": IoSection,
}

# field name -> type of every section, resolved once from the annotations
_FIELD_TYPES = {name: get_type_hints(cls) for name, cls in _SECTION_TYPES.items()}
del _FIELD_TYPES["market"]["seed"]  # set from io.seed, not a key of its own


def _is_number(value) -> bool:
    """A finite JSON number: int or float, not bool, NaN or infinity."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _typed_value(where: str, value, hint):
    """``value`` checked against a section field's type (ints must be int and
    not bool, floats take a finite int or float); tuple-valued fields arrive
    as two-element JSON lists of numbers."""
    if hint is float and _is_number(value):
        return float(value)
    if hint is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if hint in (bool, str) and isinstance(value, hint):
        return value
    if hint == tuple[float, float]:
        if not (isinstance(value, (list, tuple)) and len(value) == 2
                and all(_is_number(v) for v in value)):
            raise ConfigError(f"'{where}' must be a two-element interval of numbers")
        return (float(value[0]), float(value[1]))
    raise ConfigError(f"'{where}' must be of type {hint.__name__}, got {value!r}")


def _build_section(name: str, cls, data: dict, **fixed):
    if not isinstance(data, dict):
        raise ConfigError(f"section '{name}' must be an object")
    hints = _FIELD_TYPES[name]
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in section '{name}': {', '.join(sorted(unknown))}"
        )
    kwargs = {key: _typed_value(f"{name}.{key}", value, hints[key])
              for key, value in data.items()}
    try:
        return cls(**kwargs, **fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section '{name}': {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - set(_SECTION_TYPES)
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    io_sec = _build_section("io", IoSection, data.get("io", {}))
    cfg = ExperimentConfig(
        market=_build_section("market", MarketSpec, data.get("market", {}), seed=io_sec.seed),
        reward=_build_section("reward", RewardSection, data.get("reward", {})),
        solver=_build_section("solver", SolverSection, data.get("solver", {})),
        girl=_build_section("girl", FitConfig, data.get("girl", {})),
        io=io_sec,
    )
    try:
        cfg.market.validate()
        cfg.reward.params().validate()
        cfg.solver.validate()
        cfg.girl.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(
    path: str | Path | None = None, seed: int | None = None, outdir: str | None = None
) -> ExperimentConfig:
    """Read a JSON config file (defaults when ``path`` is None) and apply the
    ``io.seed`` / ``io.outdir`` overrides that are not None."""
    data: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"missing input: config file '{path}' not found")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file '{path}' is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
    overrides = {k: v for k, v in (("seed", seed), ("outdir", outdir)) if v is not None}
    io_data = data.get("io", {})
    if overrides and isinstance(io_data, dict):  # a non-object io fails in config_from_dict
        data["io"] = {**io_data, **overrides}
    return config_from_dict(data)
