import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dpdispatch.thermal import (
    BuildingState,
    ContinuousThermalModel,
    DiscreteThermalModel,
    discretize,
    fleet_coefficients,
    predict_temp,
    prefix_temps,
    steady_state_temp,
    step,
)


def series_exp(z: float, terms: int = 60) -> float:
    """Taylor-series oracle for e^z, independent of math.exp."""
    total, term = 0.0, 1.0
    for n in range(1, terms + 1):
        total += term
        term *= z / n
    return total


def make_model(a_d=0.92, b_d=-0.96, g_t=0.08, g_s=0.0, p_rate=5.0):
    return DiscreteThermalModel(a_d=a_d, b_d=b_d, g_d_temp=g_t, g_d_solar=g_s, p_rate=p_rate)


class TestDiscretize:
    def test_zero_dynamics_limit(self):
        cont = ContinuousThermalModel(a=0.0, b=3.0, g_temp=0.0, g_solar=0.0, p_rate=1.0)
        disc = discretize(cont, dt_seconds=3600)
        assert disc.a_d == 1.0
        assert disc.b_d == 3.0

    def test_a_d_matches_series_oracle(self):
        cont = ContinuousThermalModel(a=-0.5, b=-6.0, g_temp=0.5, g_solar=0.1, p_rate=5.0)
        disc = discretize(cont, dt_seconds=600)
        assert disc.a_d == pytest.approx(series_exp(-0.5 / 6.0), rel=1e-12)
        assert disc.a_d == pytest.approx(0.9200444, abs=1e-7)

    def test_b_d_matches_series_oracle(self):
        cont = ContinuousThermalModel(a=-0.5, b=-6.0, g_temp=0.0, g_solar=0.0, p_rate=5.0)
        disc = discretize(cont, dt_seconds=600)
        a_d = series_exp(-0.5 / 6.0)
        assert disc.b_d == pytest.approx((a_d - 1.0) / (-0.5) * (-6.0), rel=1e-12)
        assert disc.b_d == pytest.approx(-0.9594670, abs=5e-7)

    def test_discrete_stability_range(self):
        disc = discretize(
            ContinuousThermalModel(a=-2.0, b=-1.0, g_temp=0.1, g_solar=0.0, p_rate=1.0), 600
        )
        assert 0.0 < disc.a_d < 1.0

    @pytest.mark.parametrize("dt_seconds", [60, 6])
    def test_first_order_consistency(self, dt_seconds):
        # (a_d - 1)/dt -> a as dt -> 0
        a = -0.7
        disc = discretize(
            ContinuousThermalModel(a=a, b=-1.0, g_temp=0.1, g_solar=0.0, p_rate=1.0), dt_seconds
        )
        dt_h = dt_seconds / 3600.0
        assert (disc.a_d - 1.0) / dt_h == pytest.approx(a, rel=abs(a) * dt_h)

    def test_rejects_nonpositive_dt(self):
        cont = ContinuousThermalModel(a=-0.5, b=-6.0, g_temp=0.5, g_solar=0.0, p_rate=5.0)
        with pytest.raises(ValueError):
            discretize(cont, 0)


class TestStep:
    def test_identity_dynamics(self):
        m = make_model(a_d=1.0, b_d=0.0, g_t=0.0)
        out = step(m, BuildingState(temp=23.0), 0, (30.0, 0.0))
        assert out.temp == 23.0

    def test_cooling_on(self):
        out = step(make_model(), BuildingState(temp=23.0), 1, (30.0, 0.0))
        assert out.temp == pytest.approx(0.92 * 23.0 - 0.96 + 0.08 * 30.0, rel=1e-12)
        assert out.temp == pytest.approx(22.6, abs=1e-9)

    def test_off_drift(self):
        out = step(make_model(), BuildingState(temp=23.0), 0, (30.0, 0.0))
        assert out.temp == pytest.approx(23.56, abs=1e-9)

    def test_rejects_non_binary_input(self):
        with pytest.raises(ValueError):
            step(make_model(), BuildingState(temp=23.0), 2, (30.0, 0.0))

    @given(
        st.floats(min_value=15.0, max_value=35.0),
        st.floats(min_value=15.0, max_value=40.0),
    )
    def test_cooling_monotone_in_u(self, temp, t_out):
        m = make_model()
        on = step(m, BuildingState(temp=temp), 1, (t_out, 0.0))
        off = step(m, BuildingState(temp=temp), 0, (t_out, 0.0))
        assert on.temp < off.temp

    def test_float_controls_give_the_int_controls_bits(self):
        # the solvers pass 0.0 / 1.0; b_d * 0.0 must be b_d * 0 (-0.0 when
        # b_d < 0), so every result, its sign bit included, is unchanged
        rng = np.random.default_rng(20261601)
        cases = [(make_model(a_d=1.0, b_d=b_d, g_t=0.0, g_s=0.0), x, -0.0, -0.0)
                 for b_d in (-1.0, 1.0) for x in (-0.0, 0.0)]
        for _ in range(500):
            model = make_model(a_d=float(rng.uniform(0.5, 1.0)),
                               b_d=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)),
                               g_t=float(rng.uniform(0.0, 0.3)), g_s=float(rng.uniform(0.0, 0.1)))
            cases.append((model, float(rng.uniform(15.0, 35.0)),
                          float(rng.uniform(-10.0, 45.0)), float(rng.uniform(0.0, 1.0))))
        assert {np.sign(m.b_d) for m, *_ in cases} == {-1.0, 1.0}
        for model, x, t_out, q_solar in cases:
            for u in (0, 1):
                as_int = predict_temp(model, x, u, t_out, q_solar)
                as_float = predict_temp(model, x, float(u), t_out, q_solar)
                assert np.float64(as_float).tobytes() == np.float64(as_int).tobytes()
        signs = {math.copysign(1.0, predict_temp(m, x, 0.0, t, q)) for m, x, t, q in cases[:4]}
        assert signs == {-1.0, 1.0}

    def test_linearity_in_state(self):
        m = make_model(g_t=0.0)
        x1, x2, alpha, beta = 20.0, 26.0, 0.3, 0.7
        combined = step(m, BuildingState(temp=alpha * x1 + beta * x2), 0, (0.0, 0.0)).temp
        parts = alpha * step(m, BuildingState(temp=x1), 0, (0.0, 0.0)).temp
        parts += beta * step(m, BuildingState(temp=x2), 0, (0.0, 0.0)).temp
        assert combined == pytest.approx(parts, rel=1e-12)


class TestSteadyState:
    def test_pure_decay(self):
        m = make_model(a_d=0.5, b_d=0.0, g_t=0.0)
        assert steady_state_temp(m, 0, (0.0, 0.0)) == 0.0

    def test_tracks_outdoor(self):
        m = make_model(a_d=0.92, b_d=0.0, g_t=0.08)
        assert steady_state_temp(m, 0, (30.0, 0.0)) == pytest.approx(30.0, rel=1e-12)

    def test_cooling_lowers_fixed_point(self):
        m = make_model()
        off = steady_state_temp(m, 0, (30.0, 0.0))
        on = steady_state_temp(m, 1, (30.0, 0.0))
        assert on == pytest.approx(off - abs(m.b_d) / (1.0 - m.a_d), rel=1e-12)

    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            steady_state_temp(make_model(a_d=1.0), 0, (0.0, 0.0))

    def test_iteration_converges_geometrically(self):
        m = make_model()
        target = steady_state_temp(m, 1, (30.0, 0.0))
        state = BuildingState(temp=35.0)
        err_prev = abs(state.temp - target)
        for _ in range(50):
            state = step(m, state, 1, (30.0, 0.0))
            err = abs(state.temp - target)
            assert err == pytest.approx(m.a_d * err_prev, rel=1e-6)
            err_prev = err


def same_bits(a, b) -> bool:
    """Equal values with equal signs, so 0.0 and -0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(((a == b) & (np.signbit(a) == np.signbit(b))).all())


class TestPrefixTemps:
    """The prefix-tree kernel against predict_temp chained along each prefix."""

    BAND_EDGES = (22.5, 23.5, 22.5 - 1e-9, 23.5 + 1e-9, 22.4999999, 23.5000001)

    def random_fleet(self, rng, n_b):
        models = [
            make_model(
                a_d=float(rng.uniform(0.7, 1.0)), b_d=float(rng.uniform(-1.5, -0.2)),
                g_t=float(rng.uniform(0.0, 0.3)), g_s=float(rng.uniform(0.0, 0.05)),
                p_rate=float(rng.uniform(1.0, 6.0)),
            )
            for _ in range(n_b)
        ]
        starts = [float(rng.choice(self.BAND_EDGES)) if rng.random() < 0.6
                  else float(rng.uniform(21.0, 25.0)) for _ in range(n_b)]
        return models, starts

    def chained(self, model, start, bits, t_out, q_solar):
        x = start
        for u, t, q in zip(bits, t_out, q_solar):
            x = predict_temp(model, x, u, t, q)
        return x

    def check_every_prefix(self, models, starts, t_out, q_solar):
        levels = prefix_temps(fleet_coefficients(models), np.array(starts), t_out, q_solar)
        assert len(levels) == len(t_out)
        for k, level in enumerate(levels):
            assert level.shape == (len(models), 2 ** (k + 1))
            want = [
                [self.chained(m, x0, [(p >> (k - i)) & 1 for i in range(k + 1)], t_out, q_solar)
                 for p in range(2 ** (k + 1))]
                for m, x0 in zip(models, starts)
            ]
            assert same_bits(level, want)
        return levels

    def test_every_entry_is_predict_temp_along_its_prefix(self):
        rng = np.random.default_rng(20261018)
        for horizon in range(1, 7):
            for _ in range(8):
                models, starts = self.random_fleet(rng, int(rng.integers(1, 6)))
                t_out = [float(v) for v in rng.uniform(15.0, 40.0, horizon)]
                q_solar = [float(v) for v in rng.uniform(0.0, 1.0, horizon)]
                self.check_every_prefix(models, starts, t_out, q_solar)

    def test_signed_zeros_follow_predict_temp(self):
        # every OFF term is -0.0, so the all-OFF prefix stays -0.0 only if
        # b_d is multiplied by 0.0 and each term is added in predict_temp's order
        models = [make_model(a_d=1.0, b_d=-1.0, g_t=0.0, g_s=0.0), make_model(a_d=0.5, b_d=0.25)]
        levels = self.check_every_prefix(models, [-0.0, 0.0], [-1.0, -2.0, -0.5], [-1.0, -0.5, -2.0])
        assert np.signbit(levels[-1][0, 0]) and levels[-1][0, 0] == 0.0
