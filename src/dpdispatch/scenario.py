"""Scenario assembly: configuration parsing, synthetic traces, building fleet.

Real station PV/weather data is not bundled; synthetic generators are the
default and CSV ingestion the override, so results are labeled synthetic.
Configuration is a YAML file with nested sections (dp, mpc, buildings,
traces); every value has a default so the toolkit runs with no file at all.
"""

from __future__ import annotations

import dataclasses
import numbers
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from dpdispatch.dispatch import MPCConfig
from dpdispatch.privacy import DPParams
from dpdispatch.thermal import (
    ContinuousThermalModel,
    DiscreteThermalModel,
    DisturbanceTrace,
    discretize,
)
from dpdispatch.traces import Trace, TraceError, load_trace, read_table

SECONDS_PER_DAY = 86400


class ConfigError(ValueError):
    """Bad or inconsistent scenario configuration."""


def check_fields(prefix: str, cls: type, values: dict[str, Any]) -> None:
    """Refuse, naming `prefix + field`, a value the field's declared type in
    `cls` does not allow: `int` an integer (a YAML 2.0 is not truncated),
    `float` a number finite as a float, `str` a string, `X | None` null or an
    `X`; a bool is not a number. Undeclared names are left to the constructor."""
    if not isinstance(values, dict):
        raise ConfigError(f"{prefix.rstrip('.')} must be a mapping, got {values!r}")
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    for name, value in values.items():
        kind, nullable, _ = declared.get(name, "").partition(" | None")
        if nullable and value is None:
            continue
        null = " or null" if nullable else ""
        number = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if kind == "int" and not (number and isinstance(value, numbers.Integral)):
            raise ConfigError(f"{prefix}{name} must be an integer{null}, got {value!r}")
        if kind == "float" and not (number and abs(value) <= sys.float_info.max):
            hint = " (in YAML, write 1.0e-5, not 1e-5)" if isinstance(value, str) else ""
            raise ConfigError(f"{prefix}{name} must be a finite number{null}, got {value!r}{hint}")
        if kind == "str" and not isinstance(value, str):
            raise ConfigError(f"{prefix}{name} must be a path string{null}, got {value!r}")


@dataclass(frozen=True)
class BuildingParams:
    a: float = -0.5  # 1/h
    b: float = -6.0  # degC/h while cooling
    g_temp: float = 0.5  # 1/h; equals -a so the OFF fixed point is T_out
    g_solar: float = 0.2  # degC/h per kW/m2
    p_rate: float = 5.0  # kW
    jitter: float = 0.0  # relative spread of a, b, g_temp and g_solar per building

    def __post_init__(self):
        if self.a > 0:
            raise ConfigError(f"buildings.a must not be positive (decay toward ambient), got {self.a}")
        # classify_step assumes ON cools; a jitter of 1 could zero a and b
        if not self.b < 0:
            raise ConfigError(f"buildings.b must be negative (ON cools), got {self.b}")
        if not 0 <= self.jitter < 1:
            raise ConfigError(f"buildings.jitter must lie in [0, 1), got {self.jitter}")
        if not self.p_rate > 0:
            raise ConfigError(f"buildings.p_rate must be positive, got {self.p_rate}")


@dataclass(frozen=True)
class TraceSources:
    pv_csv: str | None = None
    weather_csv: str | None = None
    days: int = 3
    step_seconds: int = 600
    pv_peak_kw: float = 250.0
    cloud_intensity: float = 0.3
    weather_mean_c: float = 30.0
    weather_swing_c: float = 5.0

    def __post_init__(self):
        for name in ("days", "step_seconds"):
            if getattr(self, name) < 1:
                raise ConfigError(f"traces.{name} must be at least 1, got {getattr(self, name)}")
        # synth_pv's cloud multiplier 1 - cloud_intensity * [0, 1] stays in
        # [0, 1], so the PV trace stays nonnegative
        if not 0 <= self.cloud_intensity <= 1:
            raise ConfigError(
                f"traces.cloud_intensity must lie in [0, 1], got {self.cloud_intensity}"
            )
        if not self.pv_peak_kw >= 0:
            raise ConfigError(f"traces.pv_peak_kw must be nonnegative, got {self.pv_peak_kw}")


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario; an unset `dp.seed` is derived from `seed` when the config is
    built, so `dataclasses.replace(cfg, seed=s)` keeps cfg's noise seed."""

    n_buildings: int = 100
    seed: int = 20260826
    dp: DPParams = field(default_factory=DPParams)
    mpc: MPCConfig = field(default_factory=MPCConfig)
    buildings: BuildingParams = field(default_factory=BuildingParams)
    traces: TraceSources = field(default_factory=TraceSources)

    def __post_init__(self):
        if self.n_buildings < 1:
            raise ConfigError("n_buildings must be at least 1")
        # here, not in _sub_seed: refused when built, whichever streams the caller derives
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.horizon_steps < 1:
            raise ConfigError(f"traces.step_seconds must be at most traces.days * "
                              f"{SECONDS_PER_DAY} (traces.days is {self.traces.days}), "
                              f"got {self.traces.step_seconds}")
        if self.dp.seed is None:
            noise_seed = _sub_seed(self.seed, _STREAM_NOISE)
            object.__setattr__(self, "dp", dataclasses.replace(self.dp, seed=noise_seed))

    @property
    def horizon_steps(self) -> int:
        """Whole steps in traces.days: the synthetic traces' length."""
        return self.traces.days * SECONDS_PER_DAY // self.traces.step_seconds


# ScenarioConfig's sections: the YAML key and the dataclass of each
SECTIONS = {"dp": DPParams, "mpc": MPCConfig, "buildings": BuildingParams, "traces": TraceSources}


def _sub_seed(master: int, stream: int) -> int:
    """Stable per-purpose child seed from the master seed."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=(stream,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# child-stream indices off the master seed
_STREAM_NOISE = 0
_STREAM_PV = 1
_STREAM_WEATHER = 2
_STREAM_INIT = 3
_STREAM_JITTER = 4


def build_config(raw: Any, source: str) -> ScenarioConfig:
    """The ScenarioConfig of mapping `raw`, the one place a mapping becomes one.

    `raw` holds the top-level keys and SECTIONS as a YAML config or a run's
    manifest does; a key left out takes its default. Each field is checked by
    check_fields before its dataclass is built, and every refusal is a
    ConfigError; `source` names `raw` in the top-level ones.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    known = ["n_buildings", "seed", *SECTIONS]
    for key in raw:
        if key not in known:
            raise ConfigError(f"{source}: unknown key {key!r}; known keys: {', '.join(known)}")
    try:
        top = {key: raw.get(key, getattr(ScenarioConfig, key)) for key in ("n_buildings", "seed")}
        check_fields("", ScenarioConfig, top)  # before ScenarioConfig derives the noise seed
        sections = {}
        for name, cls in SECTIONS.items():
            check_fields(f"{name}.", cls, raw.get(name, {}))
            sections[name] = cls(**raw.get(name, {}))
        return ScenarioConfig(**top, **sections)
    except TypeError as exc:
        raise ConfigError(f"bad configuration field: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str | Path | None = None, overrides: dict[str, Any] | None = None) -> ScenarioConfig:
    """Build a ScenarioConfig from a YAML file plus flat overrides, by build_config.

    Recognized override keys: seed, epsilon, solver-agnostic mpc horizon
    (horizon), n_buildings. Overrides beat file values; file values beat
    defaults.
    """
    raw: Any = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = yaml.safe_load(path.read_text())
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not a YAML config: {exc}") from None
        raw = {} if raw is None else raw
    overrides = overrides or {}
    if isinstance(raw, dict):  # else build_config refuses it
        raw = {**raw, **{key: overrides[key] for key in ("n_buildings", "seed") if key in overrides}}
        for key, section, name in (("epsilon", "dp", "epsilon"), ("horizon", "mpc", "horizon_np")):
            if key in overrides and isinstance(raw.get(section, {}), dict):
                raw[section] = {**raw.get(section, {}), name: overrides[key]}
    return build_config(raw, str(path))


def synth_pv(
    n_steps: int,
    step_seconds: int,
    peak_kw: float,
    cloud_intensity: float,
    seed: int,
) -> Trace:
    """Clear-sky half-sine daytime PV with a seeded multiplicative cloud dip.

    Daylight spans 06:00-18:00; nighttime output is exactly zero. The cloud
    process is a smoothed uniform sequence scaled by cloud_intensity so the
    multiplier stays in [1 - cloud_intensity, 1] (and hence in [0, 1]).
    """
    hours = (np.arange(n_steps) * step_seconds / 3600.0) % 24.0
    daylight = (hours >= 6.0) & (hours <= 18.0)
    clear = np.where(daylight, np.sin(np.pi * (hours - 6.0) / 12.0), 0.0)
    clear = np.clip(clear, 0.0, None) * peak_kw

    rng = np.random.Generator(np.random.PCG64(seed))
    raw = rng.random(n_steps)
    # short moving average keeps cloud cover from flickering step to step
    kernel = np.ones(5) / 5.0
    smooth = np.convolve(raw, kernel)[2 : 2 + n_steps]  # mode="same", even when n_steps < 5
    factor = 1.0 - cloud_intensity * np.clip(smooth, 0.0, 1.0)
    return Trace(values=tuple((clear * factor).tolist()), unit="kW", step_seconds=step_seconds)


def synth_weather(
    n_steps: int,
    step_seconds: int,
    mean_c: float,
    swing_c: float,
    seed: int,
) -> Trace:
    """Sinusoidal diurnal outdoor temperature, hottest mid-afternoon.

    A small seeded perturbation (2% of the swing) roughens the profile;
    swing_c = 0 therefore yields a perfectly constant trace.
    """
    hours = np.arange(n_steps) * step_seconds / 3600.0
    base = mean_c + swing_c * np.sin(2.0 * np.pi * (hours - 9.0) / 24.0)
    rng = np.random.Generator(np.random.PCG64(seed))
    perturb = 0.02 * swing_c * rng.standard_normal(n_steps)
    return Trace(values=tuple((base + perturb).tolist()), unit="degC", step_seconds=step_seconds)


def _solar_from_pv(pv: Trace, peak_kw: float) -> tuple[float, ...]:
    """Irradiance proxy in kW/m2: PV output normalized to a 1 kW/m2 peak."""
    if peak_kw <= 0:
        return tuple(0.0 for _ in pv.values)
    return tuple(v / peak_kw for v in pv.values)


def build_traces(config: ScenarioConfig) -> tuple[DisturbanceTrace, Trace]:
    """The run's disturbances and PV trace; a synthetic one has horizon_steps steps."""
    tr = config.traces
    if tr.pv_csv is not None:
        pv = load_trace(tr.pv_csv, "kW", tr.step_seconds)
    else:
        pv = synth_pv(
            config.horizon_steps, tr.step_seconds, tr.pv_peak_kw, tr.cloud_intensity,
            _sub_seed(config.seed, _STREAM_PV),
        )
    if tr.weather_csv is not None:
        header, weather = read_table(tr.weather_csv)
        if not {"t_out_c", "q_solar_kw_m2"} <= set(header):
            raise TraceError(
                f"{tr.weather_csv}: expected columns t_out_c and q_solar_kw_m2, got {header}"
            )
        t_out = Trace(values=weather[:, header.index("t_out_c")].tolist(), unit="degC",
                      step_seconds=tr.step_seconds)
        q_solar_vals = weather[:, header.index("q_solar_kw_m2")].tolist()
    else:
        t_out = synth_weather(
            config.horizon_steps, tr.step_seconds, tr.weather_mean_c, tr.weather_swing_c,
            _sub_seed(config.seed, _STREAM_WEATHER),
        )
        q_solar_vals = _solar_from_pv(pv, tr.pv_peak_kw)
    if len(t_out) != len(pv):
        raise ConfigError(
            f"trace length mismatch: PV has {len(pv)} steps, weather has {len(t_out)}"
        )
    return DisturbanceTrace(t_out=t_out.values, q_solar=q_solar_vals,
                            step_seconds=tr.step_seconds), pv


def build_simulation(
    config: ScenarioConfig,
) -> tuple[list[DiscreteThermalModel], list[float], DisturbanceTrace, Trace]:
    """Materialize the fleet, its start temperatures (degC), disturbances, and the PV trace."""
    disturbances, pv = build_traces(config)

    # one vector draw per stream, as Python floats: numpy scalars would make
    # every model coefficient an np.float64 and the closed loop slower
    n = config.n_buildings
    jitter_draws = np.random.default_rng(_sub_seed(config.seed, _STREAM_JITTER)).random(n).tolist()
    init_draws = np.random.default_rng(_sub_seed(config.seed, _STREAM_INIT)).random(n).tolist()
    bp = config.buildings
    # a jitter of 0 scales by exactly 1.0
    scales = [1.0 + bp.jitter * (2.0 * r - 1.0) for r in jitter_draws]
    models = [discretize(ContinuousThermalModel(
        a=bp.a * s, b=bp.b * s, g_temp=bp.g_temp * s, g_solar=bp.g_solar * s, p_rate=bp.p_rate,
    ), config.traces.step_seconds) for s in scales]
    lo, hi = config.mpc.comfort_min, config.mpc.comfort_max
    return models, [lo + (hi - lo) * r for r in init_draws], disturbances, pv
