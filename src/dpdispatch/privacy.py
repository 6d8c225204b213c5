"""Laplace-mechanism noise generation and the net PV reference.

The privacy budget epsilon and the query sensitivity fix the Laplace scale
lambda = sensitivity / epsilon. A noise trace is one independent zero-mean
Laplace(lambda) draw per time step; subtracting it from the PV trace yields
the reference the load fleet must follow.

Sampling uses the inverse-CDF transform driven by numpy's PCG64 generator so
regeneration under a fixed seed is bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dpdispatch.traces import Trace

# Tolerance absorbing float round-off in the e^epsilon ratio comparison.
_RATIO_SLACK = 1e-12
# The largest |draw| _inverse_cdf returns, per unit of scale: ln(1 / tiny).
_MAX_DRAW_PER_SCALE = -float(np.log(np.finfo(np.float64).tiny))


@dataclass(frozen=True)
class DPParams:
    """Privacy budget, sensitivity, and the noise's RNG seed (None: ScenarioConfig derives it)."""

    epsilon: float = 0.1
    sensitivity: float = 1.0
    seed: int | None = None

    def __post_init__(self):
        for name, value in (("epsilon", self.epsilon), ("sensitivity", self.sensitivity)):
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"dp.{name} must be positive and finite, got {value}")
        if not math.isfinite(self.sensitivity / self.epsilon * _MAX_DRAW_PER_SCALE):
            raise ValueError(f"dp.sensitivity / dp.epsilon = {self.sensitivity} / {self.epsilon}: "
                             "the Laplace scale or its largest draw overflows a float")
        if self.seed is not None and not (0 <= self.seed < 2**64):
            raise ValueError("dp.seed must be a 64-bit unsigned integer")


def laplace_scale(params: DPParams) -> float:
    """Noise scale lambda = sensitivity / epsilon."""
    return params.sensitivity / params.epsilon


def _inverse_cdf(p, scale):
    # x = -scale * sgn(p - 1/2) * ln(1 - 2|p - 1/2|); log1p keeps precision
    # near the median. p = 0 exactly would hit ln(0); PCG64's random() never
    # returns 1.0 and we guard the 0 endpoint below.
    q = np.asarray(p, dtype=np.float64) - 0.5
    inner = np.maximum(1.0 - 2.0 * np.abs(q), np.finfo(np.float64).tiny)
    return -scale * np.sign(q) * np.log(inner)


def generate_noise_trace(params: DPParams, length: int, step_seconds: int = 600) -> Trace:
    """i.i.d. Laplace(sensitivity/epsilon) draws in kW, one per step, from params.seed."""
    if length < 1:
        raise ValueError("length must be at least 1")
    if params.seed is None:
        raise ValueError("dp.seed is unset; a ScenarioConfig derives it from its master seed")
    rng = np.random.Generator(np.random.PCG64(params.seed))
    values = _inverse_cdf(rng.random(length), laplace_scale(params))
    return Trace(values=tuple(values.tolist()), unit="kW", step_seconds=step_seconds)


def compute_net_pv(pv: Trace, noise: Trace) -> Trace:
    """Net reference: PV minus noise, elementwise. No clamping here;
    the dispatcher clamps to the fleet envelope and reports what it cut."""
    if len(pv) != len(noise):
        raise ValueError(f"length mismatch: pv has {len(pv)} steps, noise has {len(noise)}")
    if pv.step_seconds != noise.step_seconds:
        raise ValueError("step size mismatch between PV and noise traces")
    if pv.unit != noise.unit:
        raise ValueError(f"unit mismatch: pv in {pv.unit}, noise in {noise.unit}")
    net = tuple(p - n for p, n in zip(pv.values, noise.values))
    return Trace(values=net, unit="kW", step_seconds=pv.step_seconds)


def density_ratio_bound_check(params: DPParams, x: float, shift: float) -> bool:
    """True iff pdf(x) / pdf(x - shift) <= e^epsilon at scale sensitivity/epsilon.

    shift is the query perturbation from changing one dataset element, so it
    must not exceed the sensitivity.
    """
    if abs(shift) > params.sensitivity:
        raise ValueError("|shift| exceeds sensitivity (not a neighboring dataset)")
    scale = laplace_scale(params)
    # log of the pdf ratio; compared in log domain to dodge overflow
    log_ratio = (abs(x - shift) - abs(x)) / scale
    return log_ratio <= params.epsilon + _RATIO_SLACK


def mechanism_expected_squared_error(params: DPParams, m: int) -> float:
    """Total expected squared error 2 m sensitivity^2 / epsilon^2 over m queries."""
    if m < 1:
        raise ValueError("m must be at least 1")
    # via the scale: 2 m (sensitivity/epsilon)^2 rounds exactly where the
    # epsilon^2 form loses an ulp (e.g. epsilon = 0.1)
    return 2.0 * m * laplace_scale(params) ** 2

