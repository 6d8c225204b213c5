"""First-order building thermal dynamics and exact zero-order-hold discretization.

One scalar state per building: the indoor temperature. The continuous model is

    dq/dt = a*q + b*u + g_temp*T_out + g_solar*Q_solar

with u the binary HVAC mode (1 = ON). Cooling equipment has b < 0. All rate
coefficients are per hour; discretization takes a step in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class ContinuousThermalModel:
    a: float  # 1/h, must be < 0 for a stable zone
    b: float  # degC/h per unit ON; < 0 for cooling
    g_temp: float  # 1/h, gain on outdoor temperature
    g_solar: float  # degC/h per kW/m2
    p_rate: float  # kW electric draw while ON

    def __post_init__(self):
        if self.a > 0:
            raise ValueError("a must not be positive (open-loop decay toward ambient)")
        if self.p_rate <= 0:
            raise ValueError("p_rate must be positive")


@dataclass(frozen=True)
class DiscreteThermalModel:
    a_d: float
    b_d: float
    g_d_temp: float
    g_d_solar: float
    dt_seconds: int = 600
    p_rate: float = 5.0

    def __post_init__(self):
        if self.dt_seconds <= 0:
            raise ValueError("dt_seconds must be positive")
        if self.p_rate <= 0:
            raise ValueError("p_rate must be positive")


@dataclass(frozen=True)
class BuildingState:
    temp: float  # degC


@dataclass(frozen=True)
class DisturbanceTrace:
    """Outdoor temperature (degC) and solar irradiance (kW/m2) per step."""

    t_out: tuple[float, ...]
    q_solar: tuple[float, ...]
    step_seconds: int = 600

    def __post_init__(self):
        if len(self.t_out) != len(self.q_solar):
            raise ValueError("t_out and q_solar must have equal length")
        if self.step_seconds <= 0:
            raise ValueError("step_seconds must be positive")
        object.__setattr__(self, "t_out", tuple(float(v) for v in self.t_out))
        object.__setattr__(self, "q_solar", tuple(float(v) for v in self.q_solar))

    def __len__(self) -> int:
        return len(self.t_out)


def discretize(model: ContinuousThermalModel, dt_seconds: int = 600) -> DiscreteThermalModel:
    """Exact zero-order-hold discretization of the scalar system.

    a_d = exp(a*dt); each input gain c becomes (a_d - 1)/a * c. The model
    type accepts a = 0, whose limit is a_d = 1 and gain * dt.
    """
    if dt_seconds <= 0:
        raise ValueError("dt_seconds must be positive")
    dt_h = dt_seconds / SECONDS_PER_HOUR
    if model.a == 0.0:
        a_d, factor = 1.0, dt_h
    else:
        a_d = math.exp(model.a * dt_h)
        factor = (a_d - 1.0) / model.a
    return DiscreteThermalModel(
        a_d=a_d,
        b_d=factor * model.b,
        g_d_temp=factor * model.g_temp,
        g_d_solar=factor * model.g_solar,
        dt_seconds=dt_seconds,
        p_rate=model.p_rate,
    )


def predict_temp(
    model: DiscreteThermalModel, temp: float, u: int, t_out: float, q_solar: float
) -> float:
    """Next indoor temperature under one discrete step."""
    return model.a_d * temp + model.b_d * u + model.g_d_temp * t_out + model.g_d_solar * q_solar


def step(
    model: DiscreteThermalModel,
    state: BuildingState,
    u: int,
    v: tuple[float, float],
) -> BuildingState:
    """Advance one building one step: x' = a_d x + b_d u + G_d v."""
    if u not in (0, 1):
        raise ValueError("u must be binary")
    t_out, q_solar = v
    return BuildingState(temp=predict_temp(model, state.temp, u, t_out, q_solar))


def steady_state_temp(model: DiscreteThermalModel, u: int, v: tuple[float, float]) -> float:
    """Fixed point of step under constant input and disturbance."""
    if abs(model.a_d) >= 1.0:
        raise ValueError("no stable fixed point: |a_d| >= 1")
    t_out, q_solar = v
    drive = model.b_d * u + model.g_d_temp * t_out + model.g_d_solar * q_solar
    return drive / (1.0 - model.a_d)


def fleet_coefficients(models: Sequence[DiscreteThermalModel]) -> np.ndarray:
    """(4, n_buildings) rows a_d, b_d, g_d_temp, g_d_solar, one column per building."""
    return np.array([[m.a_d, m.b_d, m.g_d_temp, m.g_d_solar] for m in models], dtype=float).T


_CONTROLS = np.array([0.0, 1.0])


def prefix_temps(
    coef: np.ndarray,
    start: np.ndarray,
    t_out: Sequence[float],
    q_solar: Sequence[float],
) -> list[np.ndarray]:
    """Every building's temperature after every own-control prefix.

    coef comes from fleet_coefficients, start holds the n_b start
    temperatures, and the forecast gives one (t_out, q_solar) per level.
    Level k is an (n_b, 2^(k+1)) array whose column p is the prefix of k + 1
    controls given by the bits of p, the first control the most significant,
    so column p at level k has the children 2p and 2p + 1 at level k + 1.
    Each entry equals predict_temp chained along its prefix, to the bit.
    """
    n_b = len(start)
    a_d, b_d, g_t, g_s = coef[:, :, None]
    # formed once: b_d * u for u = 0.0 and 1.0, and the disturbance products
    # of every level, one column each
    b_u = (b_d * _CONTROLS)[:, None, :]
    d_t = (g_t * np.asarray(t_out, dtype=float)).T[:, :, None, None]
    d_q = (g_s * np.asarray(q_solar, dtype=float)).T[:, :, None, None]
    x = np.asarray(start, dtype=float)[:, None]
    levels = []
    for t, q in zip(d_t, d_q):
        # predict_temp's order, each parent against both controls: column
        # p's children land in 2p and 2p + 1
        x = ((a_d * x)[:, :, None] + b_u + t + q).reshape(n_b, -1)
        levels.append(x)
    return levels
