import numpy as np
import pytest

from dpdispatch.metrics import (
    RunReport,
    comfort_violation_count,
    comfort_violations_per_step,
    noise_histogram,
    residual_vs_intended_noise,
    summarize,
    tracking_rmse,
)
from dpdispatch.privacy import DPParams, generate_noise_trace
from dpdispatch.traces import Trace

BAND = (22.5, 23.5)


def make_report(reference, aggregate, temps=None, pv=None, noise=None):
    n = len(reference)
    if temps is None:
        temps = np.full((2, n), 23.0)
    if noise is None:
        noise = tuple(0.0 for _ in range(n))
    if pv is None:
        pv = tuple(r + x for r, x in zip(reference, noise))
    return RunReport(
        step_seconds=600,
        pv_kw=tuple(pv),
        noise_kw=tuple(noise),
        reference_kw=tuple(reference),
        unclamped_reference_kw=tuple(reference),
        aggregate_kw=tuple(aggregate),
        temps=np.asarray(temps, dtype=float),
        n_on=tuple(0 for _ in range(n)),
        must_on_kw=tuple(0.0 for _ in range(n)),
        free_kw=tuple(0.0 for _ in range(n)),
    )


class TestTrackingRmse:
    def test_zero_residual(self):
        assert tracking_rmse(make_report([5.0, 5.0], [5.0, 5.0])) == 0.0

    def test_direct_arithmetic(self):
        report = make_report([0.0, 0.0], [3.0, -4.0])
        assert tracking_rmse(report) == pytest.approx(3.5355339, abs=1e-7)

    def test_homogeneity(self):
        base = make_report([0.0, 0.0], [1.0, -2.0])
        scaled = make_report([0.0, 0.0], [3.0, -6.0])
        assert tracking_rmse(scaled) == pytest.approx(3.0 * tracking_rmse(base), rel=1e-12)

    def test_zero_iff_exact(self):
        assert tracking_rmse(make_report([1.0, 2.0], [1.0, 2.0000001])) > 0.0


class TestComfortViolations:
    def test_all_in_band(self):
        report = make_report([0.0], [0.0], temps=[[23.0], [22.7]])
        assert comfort_violation_count(report, BAND) == 0

    def test_single_violation(self):
        report = make_report([0.0], [0.0], temps=[[23.6], [23.0]])
        assert comfort_violation_count(report, BAND) == 1

    def test_boundary_is_closed(self):
        report = make_report([0.0], [0.0], temps=[[23.5], [22.5]])
        assert comfort_violation_count(report, BAND) == 0

    def test_counts_pairs(self):
        report = make_report([0.0, 0.0], [0.0, 0.0], temps=[[23.6, 23.7], [21.0, 23.0]])
        assert comfort_violation_count(report, BAND) == 3
        assert comfort_violations_per_step(report, BAND).tolist() == [2, 1]


class TestNoiseHistogram:
    def test_constant_trace_single_bin(self):
        counts, _ = noise_histogram(Trace(values=(2.0,) * 10, unit="kW", step_seconds=600), n_bins=7)
        assert counts.sum() == 10
        assert (counts > 0).sum() == 1

    def test_counts_sum_to_length_default_run(self):
        noise = generate_noise_trace(DPParams(epsilon=0.1, seed=1), 432)
        counts, edges = noise_histogram(noise, n_bins=40)
        assert counts.sum() == 432
        assert len(edges) == 41
        assert (np.diff(edges) > 0).all()

    def test_near_symmetric_for_large_sample(self):
        # mirror the binning around zero so bin i pairs with bin -i
        noise = generate_noise_trace(DPParams(epsilon=0.1, seed=2), 10**6)
        values = np.asarray(noise.values)
        span = np.abs(values).max()
        counts, _ = np.histogram(values, bins=40, range=(-span, span))
        asymmetry = np.abs(counts - counts[::-1]).sum() / (2 * counts.sum())
        assert asymmetry < 0.01

    def test_rejects_zero_bins(self):
        with pytest.raises(ValueError):
            noise_histogram(Trace(values=(1.0,), unit="kW", step_seconds=600), n_bins=0)


class TestResidualVsIntendedNoise:
    def test_perfect_tracking_zero_divergence(self):
        noise = (1.0, -2.0, 0.5)
        pv = (5.0, 6.0, 7.0)
        ref = tuple(p - n for p, n in zip(pv, noise))
        report = make_report(ref, ref, pv=pv, noise=noise)
        out = residual_vs_intended_noise(report)
        assert out["max_abs"] == pytest.approx(0.0, abs=1e-12)

    def test_tracking_error_propagates(self):
        noise = (0.0, 0.0)
        pv = (10.0, 10.0)
        ref = (10.0, 10.0)
        agg = (12.5, 7.5)  # off by +-p_rate/2
        report = make_report(ref, agg, pv=pv, noise=noise)
        out = residual_vs_intended_noise(report)
        assert out["max_abs"] == pytest.approx(2.5, rel=1e-12)

    def test_summary_fields(self):
        report = make_report([1.0, 2.0], [1.0, 2.0])
        s = summarize(report, BAND)
        assert s["steps"] == 2
        assert s["tracking_rmse_kw"] == 0.0
        assert s["comfort_violations"] == 0


class TestResidualInvariant:
    def test_residual_recomputed_bitwise(self):
        ref = (3.3, 4.4, 5.5)
        agg = (3.0, 5.0, 5.5)
        report = make_report(ref, agg)
        assert report.residual_kw == tuple(a - r for a, r in zip(agg, ref))
