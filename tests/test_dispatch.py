import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dpdispatch.dispatch import (
    EXACT_TABLE_GUARD,
    SOLVERS,
    DispatchProblem,
    MPCConfig,
    Schedule,
    SolverGuardError,
    _column_draws,
    _fleet_draw,
    _level_tables,
    classify_step,
    _result_from_schedule,
    cost,
    predict_trajectories,
    receding_horizon_run,
    solve_exact,
    solve_priority_heuristic,
)
from dpdispatch.metrics import comfort_violations_per_step
from dpdispatch.privacy import DPParams, compute_net_pv, generate_noise_trace
from dpdispatch.scenario import (BuildingParams, ScenarioConfig, TraceSources, build_simulation,
                                 load_config)
from dpdispatch.thermal import DiscreteThermalModel, DisturbanceTrace, predict_temp
from dpdispatch.traces import Trace

COMFORT_TOL = 1e-9
EXACT_BNB = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios" / "exact_bnb.yaml"


def make_model(a_d=0.92, b_d=-0.96, g_t=0.08, g_s=0.0, p_rate=5.0):
    return DiscreteThermalModel(a_d=a_d, b_d=b_d, g_d_temp=g_t, g_d_solar=g_s, p_rate=p_rate)


def make_problem(models, temps, reference, t_out=30.0, q_solar=0.0):
    n_k = len(reference)
    return DispatchProblem(
        models=tuple(models),
        init_temps=tuple(temps),
        disturbance_forecast=DisturbanceTrace(
            t_out=(t_out,) * n_k, q_solar=(q_solar,) * n_k
        ),
        reference=tuple(reference),
    )


def oracle_best(problem, config):
    """Exhaustive enumeration oracle, independent of the solver under test.

    Walks every binary schedule in row-major lexicographic order, computing
    violation and cost with its own plain loops, and keeps the first strict
    improvement so ties resolve to the lexicographically smallest schedule.
    """
    n_b = problem.n_buildings
    n_p = min(config.horizon_np, len(problem.reference))
    p_rates = [m.p_rate for m in problem.models]
    best = None
    for bits in itertools.product((0, 1), repeat=n_b * n_p):
        u = [[bits[j * n_p + k] for k in range(n_p)] for j in range(n_b)]
        temps = list(problem.init_temps)
        viol = 0.0
        total = 0.0
        for k in range(n_p):
            z = 0.0
            e_sum = 0.0
            for j in range(n_b):
                m = problem.models[j]
                temps[j] = (
                    m.a_d * temps[j]
                    + m.b_d * u[j][k]
                    + m.g_d_temp * problem.disturbance_forecast.t_out[k]
                    + m.g_d_solar * problem.disturbance_forecast.q_solar[k]
                )
                e = temps[j] - config.setpoint_xr
                e_sum += e * e
                if temps[j] > config.comfort_max + COMFORT_TOL:
                    viol += temps[j] - config.comfort_max
                elif temps[j] < config.comfort_min - COMFORT_TOL:
                    viol += config.comfort_min - temps[j]
                z += u[j][k] * p_rates[j]
            # squared as d * d, as cost() does: ** goes through libm's pow
            d = z - problem.reference[k]
            total += config.weight_q * (d * d) + config.weight_r * e_sum
        cand = (viol, total, bits)
        if best is None or (cand[0], cand[1]) < (best[0], best[1]):
            best = cand
    u = np.array(best[2]).reshape(n_b, n_p)
    return best[0], best[1], u


def random_instance(rng, max_binaries=12, max_buildings=4):
    n_b = int(rng.integers(1, max_buildings + 1))
    n_p = int(rng.integers(1, max(2, max_binaries // n_b + 1)))
    while n_b * n_p > max_binaries:
        n_p -= 1
    models = tuple(
        make_model(
            a_d=float(rng.uniform(0.7, 0.98)),
            b_d=float(rng.uniform(-1.5, -0.3)),
            g_t=float(rng.uniform(0.02, 0.25)),
            g_s=float(rng.uniform(0.0, 0.05)),
            p_rate=float(rng.uniform(1.0, 6.0)),
        )
        for _ in range(n_b)
    )
    temps = [float(rng.uniform(21.5, 24.5)) for _ in range(n_b)]
    capacity = sum(m.p_rate for m in models)
    reference = [float(rng.uniform(0.0, capacity)) for _ in range(n_p)]
    problem = make_problem(
        models, temps, reference,
        t_out=float(rng.uniform(24.0, 36.0)), q_solar=float(rng.uniform(0.0, 1.0)),
    )
    config = MPCConfig(
        horizon_np=n_p,
        weight_q=float(rng.uniform(0.1, 2.0)),
        weight_r=float(rng.uniform(0.0, 20.0)),
    )
    return problem, config


def tied_instance(rng, max_binaries=10, max_buildings=4):
    """Instances random_instance rarely draws: exact ties and violations.

    Ratings are integers and references multiples of half a rating; one
    weight may be 0; starts of 21 or 26 degC and outdoor temperatures of 15
    or 40 degC force violations. Half the instances have identical buildings
    and start temperatures. Half have dynamics whose sums are exact in
    floating point (a_d = 1, half-degree steps), so distinct schedules tie
    exactly.
    """
    n_b = int(rng.integers(1, max_buildings + 1))
    n_p = max(1, min(int(rng.integers(1, 7)), max_binaries // n_b))
    p_rates = [float(r) for r in rng.integers(1, 4, size=n_b)]
    exact = rng.random() < 0.5

    def draw_model(p_rate):
        if exact:
            return make_model(a_d=1.0, b_d=float(rng.choice([-0.5, -1.0])), g_t=0.0, p_rate=p_rate)
        return make_model(a_d=float(rng.choice([0.8, 0.92])), b_d=float(rng.choice([-0.5, -0.96])),
                          p_rate=p_rate)

    starts = [21.0, 22.5, 23.0, 23.5, 24.5, 26.0]
    if rng.random() < 0.5:
        models = [draw_model(p_rates[0])] * n_b
        temps = [float(rng.choice(starts))] * n_b
    else:
        models = [draw_model(r) for r in p_rates]
        temps = [float(rng.choice(starts)) for _ in range(n_b)]
    reference = [p_rates[0] * int(rng.integers(0, 2 * n_b + 1)) / 2 for _ in range(n_p)]
    weight_q, weight_r = [(0.0, 10.0), (1.0, 0.0), (1.0, 10.0), (2.0, 1.0)][int(rng.integers(4))]
    problem = make_problem(models, temps, reference, t_out=float(rng.choice([15.0, 30.0, 40.0])))
    return problem, MPCConfig(horizon_np=n_p, weight_q=weight_q, weight_r=weight_r)


def wide_instances(make, seed, count):
    """count instances of 5 or 6 buildings (32 or 64 joint columns), <= 12 binaries."""
    rng = np.random.default_rng(seed)
    instances = []
    while len(instances) < count:
        problem, config = make(rng, max_binaries=12, max_buildings=6)
        if problem.n_buildings >= 5:
            instances.append((problem, config))
    return instances


def band_sides(temps, config):
    """Per entry, 1 above the comfort band and -1 below it by more than
    COMFORT_TOL, else 0: the nonzero entries are the violations."""
    return np.where(temps > config.comfort_max + COMFORT_TOL, 1,
                    np.where(temps < config.comfort_min - COMFORT_TOL, -1, 0))


def assert_same_result(got, want):
    """Two DispatchResults equal field by field, arrays to the bit."""
    assert got.schedule.u.dtype == want.schedule.u.dtype
    assert got.schedule.u.tolist() == want.schedule.u.tolist()
    assert got.aggregate_kw == want.aggregate_kw
    assert got.cost == want.cost
    assert got.temps.shape == want.temps.shape
    assert got.temps.tobytes() == want.temps.tobytes()


def assert_result_from_its_schedule(problem, config):
    """solve_exact's result equals, field by field, the one built from its schedule."""
    got = solve_exact(problem, config)
    assert_same_result(got, _result_from_schedule(problem, got.schedule.u, config))


class TestSchedule:
    @pytest.mark.parametrize("u", [[[0.5, 1]], [[1.7]], np.array([[256]]), [[-0.4]]],
                             ids=["half", "1.7", "256", "-0.4"])
    def test_rejects_non_binary_before_casting(self, u):
        with pytest.raises(ValueError, match="0 or 1"):
            Schedule(u=u)


class TestCost:
    def test_zero_at_perfect_tracking_and_setpoint(self):
        # identity dynamics pinned at the setpoint, reference met exactly
        m = make_model(a_d=1.0, b_d=0.0, g_t=0.0, p_rate=5.0)
        problem = make_problem([m], [23.0], [0.0], t_out=0.0)
        sched = Schedule(u=np.zeros((1, 1), dtype=int))
        assert cost(problem, sched, MPCConfig(horizon_np=1)) == 0.0

    def test_direct_evaluation(self):
        # one building: z = 4, ref = 5, predicted error 0.5 -> 1 + 0.25
        m = make_model(a_d=1.0, b_d=0.5, g_t=0.0, p_rate=4.0)
        problem = make_problem([m], [23.0], [5.0], t_out=0.0)
        sched = Schedule(u=np.ones((1, 1), dtype=int))
        config = MPCConfig(horizon_np=1, weight_q=1.0, weight_r=1.0)
        assert cost(problem, sched, config) == pytest.approx(1.25, rel=1e-12)

    def test_r_zero_reduces_to_tracking(self):
        m = make_model()
        problem = make_problem([m, m], [23.0, 23.1], [7.0, 2.0])
        sched = Schedule(u=np.array([[1, 0], [0, 0]]))
        config = MPCConfig(horizon_np=2, weight_q=2.0, weight_r=0.0)
        expected = 2.0 * (5.0 - 7.0) ** 2 + 2.0 * (0.0 - 2.0) ** 2
        assert cost(problem, sched, config) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        m = make_model()
        problem = make_problem([m], [23.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            cost(problem, Schedule(u=np.zeros((2, 2), dtype=int)), MPCConfig(horizon_np=2))


class TestSolveExact:
    def test_trivial_off(self):
        # zero reference, temp holding at setpoint: staying OFF costs nothing
        m = make_model(a_d=1.0, b_d=-0.5, g_t=0.0)
        problem = make_problem([m], [23.0], [0.0], t_out=0.0)
        config = MPCConfig(horizon_np=1)
        result = solve_exact(problem, config)
        assert result.schedule.u.tolist() == [[0]]
        assert result.cost == 0.0
        assert not band_sides(result.temps, config).any()

    def test_hotter_unit_wins(self):
        # one unit of power requested; cooling the hotter building leaves a
        # smaller squared temperature error next step
        m = make_model()
        problem = make_problem([m, m], [22.9, 23.1], [5.0], t_out=28.0)
        result = solve_exact(problem, MPCConfig(horizon_np=1))
        assert result.schedule.u[:, 0].tolist() == [0, 1]

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            problem, config = random_instance(rng)
            got = solve_exact(problem, config)
            oracle_viol, oracle_cost, oracle_u = oracle_best(problem, config)
            assert got.cost == oracle_cost
            assert got.schedule.u.tolist() == oracle_u.tolist()

    def test_matches_oracle_on_tied_and_violating_instances(self):
        # the bound prunes must keep every leaf that ties with the incumbent
        # and stay exact when the optimum violates the band
        rng = np.random.default_rng(20261018)
        n_violating = 0
        for _ in range(200):
            problem, config = tied_instance(rng)
            got = solve_exact(problem, config)
            oracle_viol, oracle_cost, oracle_u = oracle_best(problem, config)
            assert got.cost == oracle_cost
            assert got.schedule.u.tolist() == oracle_u.tolist()
            assert band_sides(got.temps, config).any() == (oracle_viol > 0)
            n_violating += oracle_viol > 0
        assert 0 < n_violating < 200

    def test_weight_scaling_preserves_argmin(self):
        rng = np.random.default_rng(7)
        problem, config = random_instance(rng)
        scaled = MPCConfig(
            horizon_np=config.horizon_np,
            weight_q=3.0 * config.weight_q,
            weight_r=3.0 * config.weight_r,
        )
        base = solve_exact(problem, config)
        scaled_result = solve_exact(problem, scaled)
        assert scaled_result.schedule.u.tolist() == base.schedule.u.tolist()
        assert scaled_result.cost == pytest.approx(3.0 * base.cost, rel=1e-12)

    def test_guard_refusal(self):
        models = [make_model()] * 5
        problem = make_problem(models, [23.0] * 5, [10.0] * 6)
        with pytest.raises(SolverGuardError):
            solve_exact(problem, MPCConfig(horizon_np=6))

    def test_reported_cost_matches_recompute(self):
        rng = np.random.default_rng(11)
        problem, config = random_instance(rng)
        result = solve_exact(problem, config)
        assert result.cost == cost(problem, result.schedule, config)

    def test_result_equals_one_built_from_its_schedule(self):
        # the result is read back from the searched prefix tree; every field
        # must equal the one predict_trajectories and cost() give
        rng_tied, rng_random = np.random.default_rng(20261018), np.random.default_rng(2024)
        instances = [tied_instance(rng_tied) for _ in range(200)]
        instances += [random_instance(rng_random) for _ in range(40)]
        for problem, config in instances:
            assert_result_from_its_schedule(problem, config)

    # the node gather, the bits matrix and the accumulate change shape with
    # the fleet; the default generators stop at 4 buildings (16 columns)
    WIDE = {"random": (random_instance, 20261401), "tied": (tied_instance, 20261402)}

    @pytest.mark.parametrize("kind", sorted(WIDE))
    def test_matches_oracle_at_five_and_six_buildings(self, kind):
        instances = wide_instances(*self.WIDE[kind], count=16)
        assert {p.n_buildings for p, _ in instances} == {5, 6}
        assert max(c.horizon_np for _, c in instances) == 2
        for problem, config in instances:
            got = solve_exact(problem, config)
            oracle_viol, oracle_cost, oracle_u = oracle_best(problem, config)
            assert got.cost == oracle_cost
            assert got.schedule.u.tolist() == oracle_u.tolist()
            assert band_sides(got.temps, config).any() == (oracle_viol > 0)

    @pytest.mark.parametrize("kind", sorted(WIDE))
    def test_result_equals_one_built_from_its_schedule_at_five_and_six_buildings(self, kind):
        for problem, config in wide_instances(*self.WIDE[kind], count=40):
            assert_result_from_its_schedule(problem, config)

    def test_tables_hold_no_negative_zero(self):
        # a node sums each table over the buildings starting at building 0's
        # entry, where a fold from 0.0 adds it to +0.0; the two agree only
        # because no entry is -0.0. Exact dynamics put temperatures on the
        # setpoint and the band edges, so zeros occur.
        rng_tied, rng_random = np.random.default_rng(20261018), np.random.default_rng(2024)
        instances = [tied_instance(rng_tied) for _ in range(200)]
        instances += [random_instance(rng_random) for _ in range(40)]
        instances += wide_instances(tied_instance, 20261402, count=40)
        n_zero = 0
        for problem, config in instances:
            n_p = min(config.horizon_np, len(problem.reference))
            _, _, tables = _level_tables(problem, config, n_p)
            for table in tables:
                assert not np.signbit(table).any()
                n_zero += int((table == 0.0).sum())
        assert n_zero > 0

    def test_tracking_term_squares_as_cost_does(self):
        # cost() squares z - ref as d * d; Python's float ** goes through
        # libm's pow, which differs from d * d in the last bit for about one
        # difference in a thousand; take such a difference where this
        # platform's pow shows it, so the solver's rule is told apart
        rng = np.random.default_rng(14)
        for ref in rng.uniform(4.0, 5.0, 100_000).tolist():
            d = 5.0 - ref
            if d ** 2 != d * d:
                break
        problem = make_problem([make_model(p_rate=5.0)], [23.0], [ref])
        config = MPCConfig(horizon_np=1, weight_q=1.0, weight_r=0.0)
        result = solve_exact(problem, config)
        assert result.schedule.u.tolist() == [[1]]
        assert result.cost == d * d
        assert result.cost == cost(problem, result.schedule, config)

    def test_oracle_squares_as_the_solver_does(self):
        # the instance above at its reference from seed 14, where glibc's
        # pow gives (5 - ref) ** 2 one ulp above (5 - ref) * (5 - ref)
        problem = make_problem([make_model(p_rate=5.0)], [23.0], [4.278575501052201])
        config = MPCConfig(horizon_np=1, weight_q=1.0, weight_r=0.0)
        _, oracle_cost, oracle_u = oracle_best(problem, config)
        result = solve_exact(problem, config)
        assert oracle_u.tolist() == result.schedule.u.tolist() == [[1]]
        assert oracle_cost == result.cost

    @pytest.mark.parametrize("n_b, n_p, entries", [(1, 20, 2**21 - 2), (17, 1, 17 * 2**17)],
                             ids=["tree-1x20", "node-17x1"])
    def test_table_guard_refusal(self, n_b, n_p, entries):
        # within EXACT_GUARD's 24 binaries, but the prefix tree or one node's
        # gather would exceed EXACT_TABLE_GUARD entries
        assert n_b * n_p <= 24 and entries > EXACT_TABLE_GUARD
        problem = make_problem([make_model()] * n_b, [23.0] * n_b, [2.0] * n_p)
        with pytest.raises(SolverGuardError, match=f"{n_b}x{n_p} .* {entries} .*{EXACT_TABLE_GUARD} entries"):
            solve_exact(problem, MPCConfig(horizon_np=n_p))

    @pytest.mark.parametrize("n_b, n_p", [(1, 19), (16, 1)], ids=["tree-1x19", "node-16x1"])
    def test_table_guard_admits_its_largest_instances(self, n_b, n_p):
        problem = make_problem([make_model()] * n_b, [23.0 + 0.01 * j for j in range(n_b)],
                               [2.5 * n_b] * n_p)
        result = solve_exact(problem, MPCConfig(horizon_np=n_p))
        assert result.schedule.u.shape == (n_b, n_p)


class TestPriorityHeuristic:
    def test_zero_reference_all_off(self):
        m = make_model(a_d=1.0, b_d=-0.5, g_t=0.0)
        problem = make_problem([m] * 3, [23.0] * 3, [0.0], t_out=0.0)
        result = solve_priority_heuristic(problem, MPCConfig(horizon_np=1))
        assert result.schedule.u.sum() == 0

    def test_rounded_target_count(self):
        # 12.4 kW at 5 kW units rounds to 2 ON, residual 2.4 <= p_rate/2
        m = make_model(a_d=1.0, b_d=-0.2, g_t=0.0)
        problem = make_problem([m] * 4, [23.0] * 4, [12.4], t_out=0.0)
        result = solve_priority_heuristic(problem, MPCConfig(horizon_np=1))
        assert result.schedule.u[:, 0].sum() == 2
        assert abs(result.aggregate_kw[0] - 12.4) <= 2.5

    def test_all_must_on_dominates_reference(self):
        # every unit would leave the band if OFF, so all run despite ref = 0
        m = make_model()
        problem = make_problem([m, m], [23.45, 23.49], [0.0], t_out=32.0)
        result = solve_priority_heuristic(problem, MPCConfig(horizon_np=1))
        assert result.schedule.u[:, 0].tolist() == [1, 1]
        assert result.aggregate_kw[0] == 10.0

    def test_hottest_units_selected_first(self):
        m = make_model(a_d=1.0, b_d=-0.3, g_t=0.0)
        problem = make_problem([m] * 4, [22.8, 23.3, 22.6, 23.1], [10.0], t_out=0.0)
        result = solve_priority_heuristic(problem, MPCConfig(horizon_np=1))
        assert result.schedule.u[:, 0].tolist() == [0, 1, 0, 1]

    def test_reported_cost_matches_recompute(self):
        rng = np.random.default_rng(5)
        problem, config = random_instance(rng)
        result = solve_priority_heuristic(problem, config)
        assert result.cost == cost(problem, result.schedule, config)


def scalar_reference(problem, schedule, config):
    """Aggregate, cost and temperatures by per-element scalar loops.

    Reads the schedule and temperatures one numpy element at a time and
    accumulates every float sum left to right. A solver's result must match
    it to the bit, whatever the ratings.
    """
    n_b, n_p = problem.n_buildings, schedule.n_steps
    p_rates = [m.p_rate for m in problem.models]
    temps = np.empty((n_b, n_p))
    for j in range(n_b):
        m = problem.models[j]
        x = problem.init_temps[j]
        for k in range(n_p):
            x = (
                m.a_d * x
                + m.b_d * int(schedule.u[j, k])
                + m.g_d_temp * problem.disturbance_forecast.t_out[k]
                + m.g_d_solar * problem.disturbance_forecast.q_solar[k]
            )
            temps[j, k] = x
    aggregate = []
    for k in range(n_p):
        z = 0.0
        for j in range(n_b):
            z += schedule.u[j, k] * p_rates[j]
        aggregate.append(z)
    total = 0.0
    for k in range(n_p):
        e_sum = 0.0
        for j in range(n_b):
            e = temps[j, k] - config.setpoint_xr
            e_sum += e * e
        total += config.weight_q * (aggregate[k] - problem.reference[k]) ** 2 + config.weight_r * e_sum
    return tuple(aggregate), total, temps


class TestScalarReference:
    """The solver bookkeeping matches per-element scalar loops bit for bit."""

    P_RATES = (3.7, 5.1, 4.3, 6.05)
    # both sides of the 22.5-23.5 band, so violations run in both directions
    START = (
        21.5, 24.6, 22.3, 23.8, 23.0, 22.6, 24.2, 21.9,
        21.537, 24.637, 22.337, 23.837, 23.037, 22.637, 24.237, 21.937,
    )

    def _problem(self, reference, n_buildings=len(START), t_out=28.0):
        models = [
            make_model(
                a_d=0.9 + 0.01 * (j % 8), b_d=-0.7 - 0.07 * (j % 8), g_t=0.06 + 0.005 * (j % 8),
                g_s=0.03, p_rate=self.P_RATES[j % len(self.P_RATES)],
            )
            for j in range(n_buildings)
        ]
        return make_problem(models, self.START[:n_buildings], reference, t_out=t_out, q_solar=0.4)

    # weight_q = 0 leaves the comfort sums alone in the cost, so a change in
    # their summation order is not hidden by the larger tracking terms
    @pytest.mark.parametrize("weight_q, weight_r", [(1.0, 10.0), (0.0, 1.0)])
    def test_priority_heuristic_matches_scalar_loops(self, weight_q, weight_r):
        problem = self._problem([7.3, 12.9, 3.1, 18.45, 9.99, 0.7])
        config = MPCConfig(horizon_np=6, weight_q=weight_q, weight_r=weight_r)
        result = solve_priority_heuristic(problem, config)
        aggregate, total, temps = scalar_reference(problem, result.schedule, config)
        sides = band_sides(temps, config)
        assert {-1, 1} <= set(sides.flat)
        assert len(set(np.nonzero(sides)[1].tolist())) > 1
        assert result.aggregate_kw == aggregate
        assert result.cost == total
        assert cost(problem, result.schedule, config) == total
        assert result.temps.tobytes() == temps.tobytes()

    # the exact benchmark's shape: 4 buildings x horizon 5, 20 binaries; a
    # hot day, so the optimum leaves the band on both sides and the two
    # weight settings pick different schedules
    @pytest.mark.parametrize("weight_q, weight_r", [(1.0, 10.0), (0.0, 1.0)])
    def test_exact_matches_scalar_loops(self, weight_q, weight_r):
        problem = self._problem([7.3, 12.9, 3.1, 18.45, 9.99], n_buildings=4, t_out=35.0)
        config = MPCConfig(horizon_np=5, weight_q=weight_q, weight_r=weight_r)
        result = solve_exact(problem, config)
        aggregate, total, temps = scalar_reference(problem, result.schedule, config)
        assert {-1, 1} <= set(band_sides(temps, config).flat)
        assert result.aggregate_kw == aggregate
        assert result.cost == total
        assert result.temps.tobytes() == temps.tobytes()

    def test_too_few_schedule_columns(self):
        problem = self._problem([1.0, 2.0, 3.0])
        sched = Schedule(u=np.zeros((len(self.START), 2), dtype=int))
        with pytest.raises(IndexError):
            predict_trajectories(problem, sched, 3)

    def test_too_few_schedule_rows(self):
        problem = self._problem([1.0, 2.0, 3.0])
        sched = Schedule(u=np.zeros((len(self.START) - 1, 3), dtype=int))
        with pytest.raises(IndexError):
            predict_trajectories(problem, sched, 3)

    def test_too_short_forecast(self):
        problem = self._problem([1.0, 2.0, 3.0])
        sched = Schedule(u=np.zeros((len(self.START), 4), dtype=int))
        with pytest.raises(IndexError):
            predict_trajectories(problem, sched, 4)


class TestClassifyStep:
    """One building's (must-ON, must-OFF, free, infeasible) split."""

    def classify(self, temp, t_out):
        return classify_step([make_model()], [temp], (t_out, 0.0), MPCConfig())

    def test_must_on(self):
        # OFF prediction 23.56 > 23.5 forces ON
        assert self.classify(23.0, 30.0) == ([0], [], [], False)

    def test_must_off(self):
        # ON prediction below 22.5 forces OFF
        assert self.classify(22.6, 28.0) == ([], [0], [], False)

    def test_free_in_band(self):
        assert self.classify(23.0, 29.0) == ([], [], [0], False)

    def test_must_on_above_band_is_flagged(self):
        # OFF 25.42 and ON 24.46, both above 23.5: forced ON, no in-band control
        assert self.classify(24.5, 36.0) == ([0], [], [], True)

    def test_must_off_below_band_is_flagged(self):
        # ON 20.42 and OFF 21.38, both below 22.5: forced OFF, no in-band control
        assert self.classify(21.5, 20.0) == ([], [0], [], True)


def rules_classify(models, temps, v, config):
    """classify_step's rules one building at a time, written out plainly.

    Each building's (forced control or None, no in-band control) comes from
    its OFF and ON predictions; the fleet split collects them in index order.
    """

    def one(model, temp):
        temp_off = predict_temp(model, temp, 0, v[0], v[1])
        temp_on = predict_temp(model, temp, 1, v[0], v[1])
        must_on = temp_off > config.comfort_max
        must_off = temp_on < config.comfort_min
        if must_on and must_off:
            near_off = abs(temp_off - config.setpoint_xr) <= abs(temp_on - config.setpoint_xr)
            return (0 if near_off else 1), True
        if must_on:
            return 1, temp_on > config.comfort_max
        if must_off:
            return 0, temp_off < config.comfort_min
        return None, False

    must_on, must_off, free = [], [], []
    infeasible = False
    for j, m in enumerate(models):
        forced, stuck = one(m, temps[j])
        infeasible = infeasible or stuck
        {1: must_on, 0: must_off, None: free}[forced].append(j)
    return must_on, must_off, free, infeasible


def rules_greedy_schedule(problem, config):
    """solve_priority_heuristic's schedule by the plain rules.

    Fleet sums are explicit left folds from int 0, the ranking sorts on
    (-(temp - comfort_min), index) and the column is built from a set.
    """
    n_b = problem.n_buildings
    n_p = min(config.horizon_np, len(problem.reference))
    models = problem.models
    p_rates = [m.p_rate for m in models]
    temps = problem.init_temps
    u = np.zeros((n_b, n_p), dtype=int)
    for k in range(n_p):
        v = (problem.disturbance_forecast.t_out[k], problem.disturbance_forecast.q_solar[k])
        must_on, _, free, _ = rules_classify(models, temps, v, config)
        forced_kw = 0
        for j in must_on:
            forced_kw = forced_kw + p_rates[j]
        target = 0
        if free:
            free_kw = 0
            for j in free:
                free_kw = free_kw + p_rates[j]
            residual = problem.reference[k] - forced_kw
            target = int(np.floor(residual / (free_kw / len(free)) + 0.5))
            target = max(0, min(len(free), target))
        ranked = sorted(free, key=lambda j: (-(temps[j] - config.comfort_min), j))
        on_set = set(must_on) | set(ranked[:target])
        for j in range(n_b):
            u[j, k] = 1 if j in on_set else 0
        col = u[:, k].tolist()
        temps = [predict_temp(m, x, uj, v[0], v[1]) for m, x, uj in zip(models, temps, col)]
    return u


# predictions of the identity model land exactly on its start (OFF) and one
# degree below it (ON), so starts of 23.5 and 22.5 put them on the band edges
EDGE_MODEL = make_model(a_d=1.0, b_d=-1.0, g_t=0.0, p_rate=4.3)
# a swing of 2 degC in a 1 degC band: at 23.0 degC and 25 degC outside, OFF
# lands on 24.0 and ON on 22.0, equally far from the setpoint
SWING_MODEL = make_model(a_d=0.5, b_d=-2.0, g_t=0.5, p_rate=3.7)
SWING_V = (25.0, 0.0)


def random_fleet(rng, n_b):
    """Random, edge and swing buildings with starts on and off the band edges."""
    models, temps = [], []
    for _ in range(n_b):
        kind = rng.integers(3)
        if kind == 0:
            models.append(make_model(
                a_d=float(rng.uniform(0.7, 0.98)), b_d=float(rng.uniform(-1.5, -0.3)),
                g_t=float(rng.uniform(0.02, 0.25)), g_s=float(rng.uniform(0.0, 0.05)),
                p_rate=float(rng.uniform(1.0, 6.0)),
            ))
        else:
            models.append(EDGE_MODEL if kind == 1 else SWING_MODEL)
        temps.append(float(rng.choice([21.5, 22.5, 22.8, 23.0, 23.2, 23.5, 24.5])))
    return models, temps


class TestRulesParity:
    """classify_step and the greedy pick against the plain rules."""

    @pytest.mark.parametrize("v", [SWING_V, (30.0, 0.4), (20.0, 0.0), (36.0, 1.0)])
    def test_classify_matches_rules_on_random_fleets(self, v):
        rng = np.random.default_rng(13)
        config = MPCConfig()
        for _ in range(40):
            models, temps = random_fleet(rng, int(rng.integers(1, 60)))
            split = classify_step(models, temps, v, config)
            assert split == rules_classify(models, temps, v, config)

    def test_band_edges_are_not_forced(self):
        # OFF at exactly comfort_max and ON at exactly comfort_min stay free;
        # a forced control landing on an edge is in band, but the 21.5 unit
        # lands at 21.5 OFF and 20.5 ON, below the band either way
        split = classify_step([EDGE_MODEL] * 4, [23.5, 22.5, 24.5, 21.5], (30.0, 0.0), MPCConfig())
        assert split == ([2], [1, 3], [0], True)

    def test_equidistant_swing_takes_off(self):
        config = MPCConfig()
        assert predict_temp(SWING_MODEL, 23.0, 0, *SWING_V) - 23.0 == 23.0 - predict_temp(
            SWING_MODEL, 23.0, 1, *SWING_V
        )
        # 23.0 ties and goes OFF; 23.2 lands closer with ON
        split = classify_step([SWING_MODEL] * 2, [23.0, 23.2], SWING_V, config)
        assert split == ([1], [0], [], True)
        assert split == rules_classify([SWING_MODEL] * 2, [23.0, 23.2], SWING_V, config)

    def test_equal_temperatures_lowest_index_first(self):
        m = make_model(a_d=1.0, b_d=-0.3, g_t=0.0, p_rate=4.3)
        problem = make_problem([m] * 5, [23.0] * 5, [8.6], t_out=0.0)
        result = solve_priority_heuristic(problem, MPCConfig(horizon_np=1))
        assert result.schedule.u[:, 0].tolist() == [1, 1, 0, 0, 0]

    def test_greedy_matches_rules_with_tied_temperatures(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n_b = int(rng.integers(2, 40))
            # few distinct models and starts, so many free units tie
            kinds = [make_model(a_d=0.92, p_rate=4.3), make_model(a_d=0.9, b_d=-0.7, p_rate=5.1)]
            models = [kinds[i] for i in rng.integers(2, size=n_b)]
            temps = [float(t) for t in rng.choice([22.8, 23.0, 23.2], size=n_b)]
            reference = [float(r) for r in rng.uniform(0.0, 4.3 * n_b, size=6)]
            problem = make_problem(models, temps, reference, t_out=float(rng.choice([28.0, 30.0])))
            config = MPCConfig(horizon_np=6)
            u = solve_priority_heuristic(problem, config).schedule.u
            assert (u == rules_greedy_schedule(problem, config)).all()


# 0/1 schedules of 1-40 buildings and 1-8 columns, and ratings that are
# either few and repeated or arbitrary
_SCHEDULES = st.tuples(st.integers(1, 40), st.integers(1, 8)).flatmap(
    lambda shape: arrays(np.int8, shape, elements=st.integers(0, 1)))
_RATING = st.one_of(st.sampled_from([4.3, 5.1, 3.7]), st.floats(min_value=1.0, max_value=6.0))


class TestColumnDraws:
    @given(st.data())
    def test_equals_left_fold_over_on_ratings(self, data):
        u = data.draw(_SCHEDULES)
        p_rates = data.draw(st.lists(_RATING, min_size=len(u), max_size=len(u)))
        draws = _column_draws(u, p_rates).tolist()
        assert len(draws) == u.shape[1]
        for c, z in enumerate(draws):
            fold = 0.0
            for on, rating in zip(u[:, c].tolist(), p_rates):
                if on:
                    fold = fold + rating
            assert type(z) is float
            assert z.hex() == fold.hex()  # bit for bit, sign of zero included

    @given(st.lists(_RATING, min_size=1, max_size=40))
    def test_all_off_column_draws_zero(self, p_rates):
        u = np.zeros((len(p_rates), 3), dtype=np.int8)
        assert [z.hex() for z in _column_draws(u, p_rates).tolist()] == [(0.0).hex()] * 3

    @given(_SCHEDULES, st.sampled_from([-1, 1]))
    def test_rating_count_must_match_rows(self, u, delta):
        p_rates = [4.3] * (len(u) + delta)
        with pytest.raises(ValueError, match="ratings"):
            _column_draws(u, p_rates)


class TestLeftSum:
    """_fleet_draw, the fold every fleet draw of the greedy solver and the loop takes."""

    def test_equals_explicit_left_fold(self):
        for k in range(51):
            acc = 0
            for v in [4.3] * k:
                acc = acc + v
            assert _fleet_draw(np.full(k, 4.3)) == acc

    def test_empty_is_int_zero(self):
        assert _fleet_draw(np.array([])) == 0
        assert type(_fleet_draw(np.array([]))) is int

    @given(st.data())
    def test_subset_fold_is_its_columns_draw(self, data):
        # a unit set in index order, as classify_step lists must-ON and free units
        p_rates = data.draw(st.lists(_RATING, min_size=1, max_size=40))
        units = sorted(data.draw(st.sets(st.integers(0, len(p_rates) - 1))))
        draw = _fleet_draw(np.array(p_rates)[units])
        fold = 0
        for j in units:
            fold = fold + p_rates[j]
        assert (type(draw) is int) == (not units)
        if not units:
            assert draw == 0
            return
        column = np.zeros((len(p_rates), 1), dtype=np.int8)
        column[units] = 1
        assert type(draw) is float
        assert draw.hex() == fold.hex()  # bit for bit
        assert draw.hex() == _column_draws(column, p_rates)[0].item().hex()


class TestRecedingHorizon:
    def _reference(self, values):
        return Trace(values=tuple(values), unit="kW", step_seconds=600)

    def test_horizon_one_exact_equals_per_step_choice(self):
        models = [make_model(), make_model()]
        dist = DisturbanceTrace(t_out=(30.0,) * 5, q_solar=(0.0,) * 5)
        ref = self._reference([5.0, 0.0, 10.0, 5.0, 0.0])
        config = MPCConfig(horizon_np=1)
        report = receding_horizon_run(models, [23.0, 23.2], dist, ref, config, "exact",
                                      pv=ref, noise_kw=[0.0] * 5)

        # independent per-step exhaustive choice
        temps = [23.0, 23.2]
        for t in range(5):
            problem = make_problem(models, temps, [ref.values[t]], t_out=30.0)
            best = oracle_best(problem, config)
            u = best[2][:, 0]
            z = sum(u[j] * models[j].p_rate for j in range(2))
            assert report.aggregate_kw[t] == z
            for j in range(2):
                m = models[j]
                temps[j] = m.a_d * temps[j] + m.b_d * u[j] + m.g_d_temp * 30.0

    def test_comfort_pressure_forces_consumption(self):
        # zero reference, temps at the hot edge: must-ON keeps the fleet in band
        models = [make_model()] * 4
        dist = DisturbanceTrace(t_out=(30.0,) * 20, q_solar=(0.0,) * 20)
        ref = self._reference([0.0] * 20)
        report = receding_horizon_run(models, [23.5] * 4, dist, ref, MPCConfig(), "greedy",
                                      pv=ref, noise_kw=[0.0] * 20)
        assert sum(report.aggregate_kw) > 0
        assert (report.temps >= 22.5 - COMFORT_TOL).all()
        assert (report.temps <= 23.5 + COMFORT_TOL).all()
        assert report.infeasible_steps == ()

    @settings(max_examples=40, deadline=None)
    @given(
        n_b=st.integers(2, 30),
        jitter=st.floats(0.0, 0.2),
        weather_mean=st.floats(20.0, 32.0),
        pv_per_building=st.floats(1.0, 15.0),
        horizon=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_greedy_violation_only_at_flagged_steps(
        self, n_b, jitter, weather_mean, pv_per_building, horizon, seed
    ):
        # not the converse: a forced control may land outside the band by
        # less than COMFORT_TOL, which flags the step without a violation
        cfg = ScenarioConfig(
            n_buildings=n_b, seed=seed, mpc=MPCConfig(horizon_np=horizon),
            buildings=BuildingParams(jitter=jitter),
            traces=TraceSources(days=1, weather_mean_c=weather_mean,
                                pv_peak_kw=pv_per_building * n_b),
        )
        models, temps, dist, pv = build_simulation(cfg)
        report = receding_horizon_run(models, temps, dist, pv, cfg.mpc, "greedy",
                                      pv=pv, noise_kw=[0.0] * len(pv))
        band = (cfg.mpc.comfort_min, cfg.mpc.comfort_max)
        violating = np.flatnonzero(comfort_violations_per_step(report, band)).tolist()
        assert set(violating) <= set(report.infeasible_steps)

    def test_determinism(self):
        models = [make_model()] * 3
        temps = [22.8, 23.1, 23.4]
        dist = DisturbanceTrace(t_out=(31.0,) * 12, q_solar=(0.2,) * 12)
        ref = self._reference([7.5] * 12)
        a = receding_horizon_run(models, temps, dist, ref, MPCConfig(), "greedy",
                                 pv=ref, noise_kw=[0.0] * 12)
        b = receding_horizon_run(models, temps, dist, ref, MPCConfig(), "greedy",
                                 pv=ref, noise_kw=[0.0] * 12)
        assert a.aggregate_kw == b.aggregate_kw
        assert (a.temps == b.temps).all()

    def test_trace_underrun_rejected(self):
        models = [make_model()]
        with pytest.raises(ValueError):
            receding_horizon_run(
                models, [23.0],
                DisturbanceTrace(t_out=(30.0,), q_solar=(0.0,)),
                self._reference([1.0, 1.0]), MPCConfig(), "greedy",
                pv=self._reference([1.0, 1.0]), noise_kw=[0.0] * 2,
            )

    def test_unknown_solver_rejected(self):
        models = [make_model()]
        with pytest.raises(ValueError):
            receding_horizon_run(
                models, [23.0],
                DisturbanceTrace(t_out=(30.0,), q_solar=(0.0,)),
                self._reference([1.0]), MPCConfig(), "simplex",
                pv=self._reference([1.0]), noise_kw=[0.0],
            )

    @staticmethod
    def _inputs():
        cfg = ScenarioConfig(n_buildings=5, traces=TraceSources(days=1))
        models, temps, dist, pv = build_simulation(cfg)
        noise = generate_noise_trace(cfg.dp, len(pv), pv.step_seconds)
        return dict(models=models, init_temps=temps, disturbances=dist,
                    reference=compute_net_pv(pv, noise), config=cfg.mpc,
                    pv=pv, noise_kw=noise.values)

    @pytest.mark.parametrize("missing", ["pv", "noise_kw"])
    def test_pv_and_noise_are_required(self, missing):
        # the report carries them, so none is made up from the reference
        kwargs = self._inputs()
        del kwargs[missing]
        with pytest.raises(TypeError, match=missing):
            receding_horizon_run(**kwargs)

    @pytest.mark.parametrize("change, message", [
        (lambda k: {"disturbances": dataclasses.replace(k["disturbances"], step_seconds=300)},
         "step sizes disagree: reference 600 s, disturbances 300 s, models [600] s, pv [600] s"),
        (lambda k: {"reference": dataclasses.replace(k["reference"], step_seconds=60)},
         "step sizes disagree: reference 60 s, disturbances 600 s, models [600] s, pv [600] s"),
        (lambda k: {"models": k["models"][:4] + [dataclasses.replace(k["models"][4], dt_seconds=300)]},
         "models [300, 600] s"),
        (lambda k: {"pv": dataclasses.replace(k["pv"], step_seconds=300)}, "pv [300] s"),
        (lambda k: {"noise_kw": k["noise_kw"][:10]}, "noise_kw has 10 steps, the reference 144"),
        (lambda k: {"pv": dataclasses.replace(k["pv"], values=k["pv"].values[:-1])},
         "pv has 143 steps, the reference 144"),
    ], ids=["disturbances-300s", "reference-60s", "one-model-300s", "pv-300s", "noise-10-steps",
            "pv-one-short"])
    def test_disagreeing_inputs_rejected(self, change, message):
        # each went through the whole loop and returned a RunReport
        kwargs = self._inputs()
        kwargs.update(change(kwargs))
        with pytest.raises(ValueError) as exc:
            receding_horizon_run(**kwargs)
        assert message in str(exc.value)

    @pytest.mark.parametrize("solver, make_config", [
        ("exact", lambda: load_config(EXACT_BNB)),
        ("greedy", lambda: ScenarioConfig(n_buildings=50, seed=7,
                                          buildings=BuildingParams(jitter=0.2))),
    ], ids=["exact-4x5", "greedy-50"])
    def test_loop_advances_to_each_results_prediction(self, monkeypatch, solver, make_config):
        # every realized temperature is the solver's predicted first column, to the bit
        cfg = make_config()
        solve, results = SOLVERS[solver], []

        def recording(problem, config):
            results.append(solve(problem, config))
            return results[-1]

        monkeypatch.setitem(SOLVERS, solver, recording)
        models, temps, dist, pv = build_simulation(cfg)
        noise = generate_noise_trace(cfg.dp, len(pv), pv.step_seconds)
        report = receding_horizon_run(models, temps, dist, compute_net_pv(pv, noise), cfg.mpc,
                                      solver, pv=pv, noise_kw=noise.values)
        assert len(results) == report.n_steps == 432
        for t, result in enumerate(results):
            assert result.temps.shape == (cfg.n_buildings, min(cfg.mpc.horizon_np, 432 - t))
            assert report.temps[:, t].tobytes() == result.temps[:, 0].tobytes(), t


def rules_closed_loop(models, init_temps, dist, raw_ref, config):
    """receding_horizon_run's greedy loop by the plain rules, as RunReport's
    fields and derived flags.

    Per step: the reference clamped to [0, capacity], the capacity a left
    fold from int 0; rules_greedy_schedule over the horizon (target count,
    ranking and its own advance), and the draw of its first column from
    scalar_reference; must-ON and free kW as left folds from int 0 over
    rules_classify's split of the realized state, which also flags the step
    infeasible; the realized advance by the first column, written out as
    a_d x + b_d u + g_t t_out + g_s q. The clamp and clip flags are plain
    comparisons with the bounds.
    """
    n_b, n_steps = len(models), len(raw_ref)
    p_rates = [m.p_rate for m in models]
    capacity = 0
    for rating in p_rates:
        capacity = capacity + rating
    reference = [0.0 if r < 0.0 else capacity if r > capacity else r for r in raw_ref]

    temps = list(init_temps)
    temp_cols, aggregate, n_on, must_on_kw, free_kw, infeasible_steps = [], [], [], [], [], []
    for t in range(n_steps):
        horizon = min(config.horizon_np, n_steps - t)
        problem = DispatchProblem(
            models=tuple(models),
            init_temps=tuple(temps),
            disturbance_forecast=DisturbanceTrace(
                t_out=dist.t_out[t : t + horizon], q_solar=dist.q_solar[t : t + horizon]
            ),
            reference=tuple(reference[t : t + horizon]),
        )
        u = rules_greedy_schedule(problem, config)
        draws, _, _ = scalar_reference(problem, Schedule(u=u), config)
        aggregate.append(float(draws[0]))
        n_on.append(sum(1 for j in range(n_b) if u[j, 0] == 1))

        t_out, q_sol = dist.t_out[t], dist.q_solar[t]
        must_on, _, free, infeasible = rules_classify(models, temps, (t_out, q_sol), config)
        forced = 0
        for j in must_on:
            forced = forced + p_rates[j]
        dispatchable = 0
        for j in free:
            dispatchable = dispatchable + p_rates[j]
        must_on_kw.append(forced)
        free_kw.append(dispatchable)
        if infeasible:
            infeasible_steps.append(t)

        temps = [
            m.a_d * x + m.b_d * int(u[j, 0]) + m.g_d_temp * t_out + m.g_d_solar * q_sol
            for j, (m, x) in enumerate(zip(models, temps))
        ]
        temp_cols.append(temps)

    return {
        "n_steps": n_steps,
        "reference_kw": tuple(reference),
        "unclamped_reference_kw": tuple(raw_ref),
        "aggregate_kw": tuple(aggregate),
        "temps": np.array(temp_cols).T,
        "n_on": tuple(n_on),
        "must_on_kw": tuple(must_on_kw),
        "free_kw": tuple(free_kw),
        "infeasible_steps": tuple(infeasible_steps),
        "residual_kw": tuple(a - r for a, r in zip(aggregate, reference)),
        "ref_clamped": tuple(r < 0.0 or r > capacity for r in raw_ref),
        "target_clipped": tuple(
            r < m or r > m + f for r, m, f in zip(reference, must_on_kw, free_kw)
        ),
        "clamp_count": sum(1 for r in raw_ref if r < 0.0 or r > capacity),
        "negative_reference_steps": sum(1 for r in raw_ref if r < 0.0),
    }


def exact_values(values):
    """Each value's type and repr: equal lists mean equal values to the bit,
    the sign of zero and int 0 against 0.0 included."""
    return [(type(v), repr(v)) for v in values]


class TestClosedLoopSpec:
    """receding_horizon_run's greedy report against rules_closed_loop."""

    @settings(max_examples=50, deadline=None)
    @given(
        ratings=st.lists(st.one_of(st.sampled_from([4.3, 5.1]), st.floats(1.0, 6.0)),
                         min_size=1, max_size=10),
        jitter=st.floats(0.0, 0.3),
        weather_mean=st.floats(20.0, 32.0),
        pv_per_building=st.floats(1.0, 15.0),
        epsilon=st.sampled_from([0.1, 1.0]),
        horizon=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_greedy_run_matches_the_rules(
        self, ratings, jitter, weather_mean, pv_per_building, epsilon, horizon, seed
    ):
        n_b = len(ratings)
        cfg = ScenarioConfig(
            n_buildings=n_b, seed=seed, dp=DPParams(epsilon=epsilon, seed=seed),
            mpc=MPCConfig(horizon_np=horizon), buildings=BuildingParams(jitter=jitter),
            traces=TraceSources(days=1, weather_mean_c=weather_mean,
                                pv_peak_kw=pv_per_building * n_b),
        )
        models, temps, dist, pv = build_simulation(cfg)
        models = [dataclasses.replace(m, p_rate=r) for m, r in zip(models, ratings)]
        noise = generate_noise_trace(cfg.dp, len(pv), cfg.traces.step_seconds)
        net = compute_net_pv(pv, noise)
        report = receding_horizon_run(
            models, temps, dist, net, cfg.mpc, "greedy", pv=pv, noise_kw=noise.values
        )
        spec = rules_closed_loop(models, temps, dist, net.values, cfg.mpc)

        assert report.step_seconds == net.step_seconds
        assert report.pv_kw == pv.values
        assert report.noise_kw == noise.values
        assert report.temps.shape == spec["temps"].shape
        assert report.temps.tobytes() == spec["temps"].tobytes()
        for name in ("n_steps", "clamp_count", "negative_reference_steps"):
            assert getattr(report, name) == spec[name], name
        for name in ("reference_kw", "unclamped_reference_kw", "aggregate_kw", "n_on",
                     "must_on_kw", "free_kw", "infeasible_steps", "residual_kw",
                     "ref_clamped", "target_clipped"):
            assert exact_values(getattr(report, name)) == exact_values(spec[name]), name
