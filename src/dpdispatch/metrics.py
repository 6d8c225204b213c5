"""Run-level statistics: tracking error, comfort violations, the noise histogram.

All functions are pure and operate on an immutable RunReport, assembled by
the closed-loop driver or, from the stored run files, by `report`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dpdispatch.traces import Trace

COMFORT_TOL = 1e-9  # band membership slack in degC


@dataclass(frozen=True)
class RunReport:
    """Everything a closed-loop run produced, aligned on one time axis."""

    step_seconds: int
    pv_kw: tuple[float, ...]  # raw PV generation
    noise_kw: tuple[float, ...]  # privacy noise actually used
    reference_kw: tuple[float, ...]  # clamped net reference handed to the solver
    unclamped_reference_kw: tuple[float, ...]  # PV - noise before clamping
    aggregate_kw: tuple[float, ...]  # realized fleet consumption
    temps: np.ndarray  # (n_buildings, n_steps) realized indoor temperatures
    n_on: tuple[int, ...]  # units ON per step
    must_on_kw: tuple[float, ...]  # power forced ON by comfort, per step (int 0 if none)
    free_kw: tuple[float, ...]  # dispatchable power on top of must-ON, per step (int 0 if none)
    infeasible_steps: tuple[int, ...] = ()  # some building has no in-band control

    @property
    def n_steps(self) -> int:
        return len(self.reference_kw)

    @property
    def residual_kw(self) -> tuple[float, ...]:
        return tuple(a - r for a, r in zip(self.aggregate_kw, self.reference_kw))

    @property
    def ref_clamped(self) -> tuple[bool, ...]:
        """Per step, whether clamping to [0, fleet capacity] moved the reference."""
        return tuple(c != r for c, r in zip(self.reference_kw, self.unclamped_reference_kw))

    @property
    def target_clipped(self) -> tuple[bool, ...]:
        """Per step, whether the reference lies outside [must_on_kw, must_on_kw + free_kw]."""
        return tuple(
            not (m <= r <= m + f)
            for r, m, f in zip(self.reference_kw, self.must_on_kw, self.free_kw)
        )

    @property
    def clamp_count(self) -> int:
        return sum(self.ref_clamped)

    @property
    def negative_reference_steps(self) -> int:
        return sum(1 for v in self.unclamped_reference_kw if v < 0)


def tracking_rmse(report: RunReport) -> float:
    """Root-mean-square of the aggregate-minus-reference residual, kW."""
    res = np.asarray(report.residual_kw)
    if res.size == 0:
        raise ValueError("empty report")
    return float(np.sqrt(np.mean(res**2)))


def max_abs_residual(report: RunReport) -> float:
    return float(np.max(np.abs(report.residual_kw)))


def comfort_violations_per_step(report: RunReport, band: tuple[float, float]) -> np.ndarray:
    """Per step, the number of buildings outside the closed band by > 1e-9 degC."""
    lo, hi = band
    temps = report.temps
    return np.count_nonzero((temps < lo - COMFORT_TOL) | (temps > hi + COMFORT_TOL), axis=0)


def comfort_violation_count(report: RunReport, band: tuple[float, float]) -> int:
    """Number of (building, step) samples outside the closed band by > 1e-9 degC."""
    return int(comfort_violations_per_step(report, band).sum())


def noise_histogram(noise: Trace, n_bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width histogram over [min, max] of the trace.

    Returns (counts, bin_edges); counts always sum to the trace length.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be at least 1")
    values = np.asarray(noise.values)
    # np.histogram spans [min, max]; for a constant trace it widens the range
    # by one unit so all mass still lands in a single bin.
    counts, edges = np.histogram(values, bins=n_bins)
    return counts, edges


def residual_vs_intended_noise(report: RunReport) -> dict:
    """How far the realized PV-minus-consumption sits from the intended noise.

    divergence(k) = (PV(k) - aggregate(k)) - noise(k). With exact tracking of
    the unclamped reference this is identically zero; otherwise it decomposes
    into clamping plus tracking error.
    """
    pv = np.asarray(report.pv_kw)
    agg = np.asarray(report.aggregate_kw)
    noise = np.asarray(report.noise_kw)
    divergence = (pv - agg) - noise
    return {
        "per_step": tuple(divergence.tolist()),
        "max_abs": float(np.max(np.abs(divergence))),
        "mean_abs": float(np.mean(np.abs(divergence))),
    }


def summarize(report: RunReport, band: tuple[float, float]) -> dict:
    """Single-row summary used by the CLI and the report command."""
    div = residual_vs_intended_noise(report)
    return {
        "steps": report.n_steps,
        "tracking_rmse_kw": tracking_rmse(report),
        "max_abs_residual_kw": max_abs_residual(report),
        "comfort_violations": comfort_violation_count(report, band),
        "ref_clamped_steps": report.clamp_count,
        "negative_reference_steps": report.negative_reference_steps,
        "infeasible_steps": len(report.infeasible_steps),
        "divergence_max_abs_kw": div["max_abs"],
        "divergence_mean_abs_kw": div["mean_abs"],
    }
