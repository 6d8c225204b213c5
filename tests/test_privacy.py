import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpdispatch.privacy import (
    DPParams,
    _inverse_cdf,
    compute_net_pv,
    density_ratio_bound_check,
    generate_noise_trace,
    laplace_scale,
    mechanism_expected_squared_error,
)
from dpdispatch.traces import Trace, write_csv


class TestDPParams:
    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            DPParams(epsilon=0.0)
        with pytest.raises(ValueError):
            DPParams(epsilon=-1.0)

    # ln(1 / tiny) = 708.4 scales is the largest draw: 2.5e305 kW of scale
    # keeps it finite, 2.6e305 does not, and 1 / 1e-320 overflows outright
    @pytest.mark.parametrize("epsilon, sensitivity", [(1.0, 2.6e305), (1e-320, 1.0), (0.1, 1e308)])
    def test_rejects_overflowing_noise(self, epsilon, sensitivity):
        with pytest.raises(ValueError, match="dp.sensitivity / dp.epsilon = "):
            DPParams(epsilon=epsilon, sensitivity=sensitivity)

    def test_largest_draw_at_the_largest_scale_is_finite(self):
        scale = laplace_scale(DPParams(epsilon=1.0, sensitivity=2.5e305))
        assert math.isfinite(_inverse_cdf(0.0, scale))

    def test_unset_seed_is_refused(self):
        # numpy would draw an unset seed from OS entropy
        with pytest.raises(ValueError, match="dp.seed is unset"):
            generate_noise_trace(DPParams(), 3)


class TestLaplaceScale:
    def test_paper_budget(self):
        assert laplace_scale(DPParams(epsilon=0.1, sensitivity=1.0)) == 10.0

    def test_unit_case(self):
        assert laplace_scale(DPParams(epsilon=1.0, sensitivity=1.0)) == 1.0

    def test_direct_ratio(self):
        assert laplace_scale(DPParams(epsilon=0.5, sensitivity=2.0)) == 4.0


class TestInverseCdf:
    """The inverse-CDF transform generate_noise_trace draws through."""

    def test_median_maps_to_zero(self):
        assert _inverse_cdf(0.5, 10.0) == 0.0

    def test_analytic_inverse(self):
        # CDF at +scale is (1 + 1 - e^-1)/2, so that uniform must map back to 10
        p = 0.5 * (1.0 + 1.0 - math.exp(-1.0))
        assert _inverse_cdf(p, 10.0) == pytest.approx(10.0, rel=1e-12)


class TestGenerateNoiseTrace:
    PARAMS = DPParams(epsilon=0.1, sensitivity=1.0, seed=99)

    def test_length(self):
        trace = generate_noise_trace(self.PARAMS, 432)
        assert len(trace) == 432
        assert trace.unit == "kW"

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError):
            generate_noise_trace(self.PARAMS, 0)

    def test_deterministic_regeneration(self):
        a = generate_noise_trace(self.PARAMS, 432)
        b = generate_noise_trace(self.PARAMS, 432)
        assert a.values == b.values

    def test_seed_changes_trace(self):
        a = generate_noise_trace(self.PARAMS, 432)
        b = generate_noise_trace(DPParams(epsilon=0.1, sensitivity=1.0, seed=100), 432)
        assert a.values != b.values

    def test_mean_within_clt_bound(self):
        # 3-sigma bound from Laplace variance 2*scale^2 over 432 draws
        trace = generate_noise_trace(self.PARAMS, 432)
        bound = 3.0 * 10.0 * math.sqrt(2.0) / math.sqrt(432)
        assert abs(np.mean(trace.values)) <= bound


class TestComputeNetPv:
    def _pv(self, values):
        return Trace(values=tuple(values), unit="kW", step_seconds=600)

    def test_direct_subtraction(self):
        net = compute_net_pv(self._pv([5.0]), Trace(values=(1.2,), unit="kW", step_seconds=600))
        assert net.values == (5.0 - 1.2,)

    def test_zero_noise_identity(self):
        pv = self._pv([1.0, 2.0, 3.0])
        net = compute_net_pv(pv, Trace(values=(0.0, 0.0, 0.0), unit="kW", step_seconds=600))
        assert net.values == pv.values

    def test_negative_values_preserved(self):
        net = compute_net_pv(self._pv([0.5]), Trace(values=(1.0,), unit="kW", step_seconds=600))
        assert net.values == (-0.5,)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_net_pv(self._pv([1.0, 2.0]), Trace(values=(1.0,), unit="kW", step_seconds=600))

    def test_unit_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_net_pv(self._pv([1.0]), Trace(values=(1.0,), unit="degC", step_seconds=600))

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
    def test_adding_noise_back_inverts(self, noise_vals):
        # algebraic identity; float subtraction then addition can round by
        # one ulp at the result's magnitude
        pv = self._pv([7.5] * len(noise_vals))
        net = compute_net_pv(pv, Trace(values=tuple(noise_vals), unit="kW", step_seconds=600))
        for n, d, p in zip(net.values, noise_vals, pv.values):
            assert n + d == pytest.approx(p, rel=1e-12, abs=1e-12)


class TestDensityRatioBound:
    PARAMS = DPParams(epsilon=0.1, sensitivity=1.0)

    def test_boundary_shift(self):
        assert density_ratio_bound_check(self.PARAMS, x=0.0, shift=1.0)

    def test_zero_shift(self):
        for x in (-3.0, 0.0, 17.5):
            assert density_ratio_bound_check(self.PARAMS, x, 0.0)

    def test_full_grid(self):
        failures = [
            (x, s)
            for x in range(-50, 51)
            for s in (-1.0, -0.5, 0.5, 1.0)
            if not density_ratio_bound_check(self.PARAMS, float(x), s)
        ]
        assert failures == []

    def test_rejects_shift_beyond_sensitivity(self):
        with pytest.raises(ValueError):
            density_ratio_bound_check(self.PARAMS, 0.0, 1.5)


class TestExpectedSquaredError:
    def test_paper_single_query(self):
        assert mechanism_expected_squared_error(DPParams(epsilon=0.1), m=1) == 200.0

    def test_full_horizon(self):
        assert mechanism_expected_squared_error(DPParams(epsilon=0.1), m=432) == 86400.0

    def test_unit_case(self):
        assert mechanism_expected_squared_error(DPParams(epsilon=1.0), m=1) == 2.0

    def test_rejects_zero_queries(self):
        with pytest.raises(ValueError):
            mechanism_expected_squared_error(DPParams(epsilon=1.0), m=0)


class TestNoiseCsv:
    def test_header_and_precision(self, tmp_path):
        trace = generate_noise_trace(DPParams(epsilon=0.1, seed=5), 10)
        path = tmp_path / "noise.csv"
        write_csv(path, ["step", "noise_kw"], enumerate(trace.values))
        lines = path.read_text().splitlines()
        assert lines[0] == "step,noise_kw"
        assert len(lines) == 11
        # repr round-trips exactly, which implies >= 9 significant digits
        for i, line in enumerate(lines[1:]):
            step, val = line.split(",")
            assert int(step) == i
            assert float(val) == trace.values[i]
