"""Receding-horizon on/off dispatch of an HVAC fleet against a kW reference.

Two solvers share one problem statement:

* solve_exact -- depth-first branch-and-bound over the binary schedule with
  incumbent pruning. Globally optimal, guarded to small instances; serves as
  the oracle for the heuristic.
* solve_priority_heuristic -- per-step comfort classification (must-ON /
  must-OFF / free) followed by a rounded target count and a hottest-first
  priority pick. Scales to the full fleet.

Costs are accumulated with plain scalar arithmetic in a fixed order so that a
solver's reported cost is bit-identical to a recomputation via cost().
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dpdispatch.metrics import COMFORT_TOL, RunReport
from dpdispatch.thermal import (
    BuildingState,
    DiscreteThermalModel,
    DisturbanceTrace,
    predict_temp,
)
from dpdispatch.traces import Trace

EXACT_GUARD = 24  # max n_buildings * horizon for the exact solver


class SolverGuardError(RuntimeError):
    """Exact solver refused an instance too large to enumerate."""


@dataclass(frozen=True)
class MPCConfig:
    horizon_np: int = 6
    weight_q: float = 1.0
    weight_r: float = 10.0
    setpoint_xr: float = 23.0
    comfort_min: float = 22.5
    comfort_max: float = 23.5

    def __post_init__(self):
        if self.horizon_np < 1:
            raise ValueError("horizon_np must be at least 1")
        if self.weight_q < 0 or self.weight_r < 0:
            raise ValueError("weights must be nonnegative")
        if not (self.comfort_min < self.comfort_max):
            raise ValueError("comfort_min must be below comfort_max")
        if not (self.comfort_min <= self.setpoint_xr <= self.comfort_max):
            raise ValueError("setpoint must lie inside the comfort band")


@dataclass(frozen=True)
class DispatchProblem:
    models: tuple[DiscreteThermalModel, ...]
    init_states: tuple[BuildingState, ...]
    disturbance_forecast: DisturbanceTrace
    reference: tuple[float, ...]  # net PV reference, kW per step

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "init_states", tuple(self.init_states))
        object.__setattr__(self, "reference", tuple(float(r) for r in self.reference))
        if len(self.models) < 1:
            raise ValueError("need at least one building")
        if len(self.init_states) != len(self.models):
            raise ValueError("init_states count does not match models")
        if len(self.reference) < 1:
            raise ValueError("reference must be non-empty")
        if len(self.disturbance_forecast) < len(self.reference):
            raise ValueError("disturbance forecast shorter than reference")

    @property
    def n_buildings(self) -> int:
        return len(self.models)


@dataclass(frozen=True)
class Schedule:
    """Binary decision matrix, one row per building, one column per step."""

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=np.int8)
        if u.ndim != 2:
            raise ValueError("schedule must be a 2-D matrix")
        if not np.isin(u, (0, 1)).all():
            raise ValueError("schedule entries must be 0 or 1")
        object.__setattr__(self, "u", u)

    @property
    def n_buildings(self) -> int:
        return self.u.shape[0]

    @property
    def n_steps(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class DispatchResult:
    schedule: Schedule
    aggregate_kw: tuple[float, ...]
    cost: float
    per_building_error: np.ndarray  # e_i(k) = predicted temp - setpoint
    violations: tuple[tuple[int, int, float], ...]  # (building, step, overshoot degC)
    infeasible: bool = False  # simultaneous must-ON/must-OFF encountered


def _effective_horizon(problem: DispatchProblem, config: MPCConfig) -> int:
    return min(config.horizon_np, len(problem.reference))


def aggregate_power(schedule: Schedule, k: int, p_rates: Sequence[float]) -> float:
    """Fleet draw z(k) = sum_j u_j(k) * p_rate_j; p_rate = 1 gives the bare count."""
    if not (0 <= k < schedule.n_steps):
        raise IndexError(f"step {k} outside schedule with {schedule.n_steps} columns")
    # Float sums stay sequential left-to-right loops: np.dot, np.sum and
    # sum() (compensated from Python 3.12) may round differently, and the
    # outputs must stay bit-identical for any p_rate.
    col = schedule.u[:, k].tolist()
    z = 0.0
    for j in range(schedule.n_buildings):
        z += col[j] * p_rates[j]
    return z


def predict_trajectories(
    problem: DispatchProblem, schedule: Schedule, n_steps: int
) -> np.ndarray:
    """Predicted temperatures (n_buildings, n_steps) under a schedule."""
    u_rows = schedule.u.tolist()
    t_out = problem.disturbance_forecast.t_out
    q_solar = problem.disturbance_forecast.q_solar
    rows = []
    for j in range(problem.n_buildings):
        m = problem.models[j]
        u_j = u_rows[j]
        x = problem.init_states[j].temp
        row = []
        # indexing, not zip: too few columns or forecast steps raise IndexError
        for k in range(n_steps):
            x = predict_temp(m, x, u_j[k], t_out[k], q_solar[k])
            row.append(x)
        rows.append(row)
    return np.array(rows)


def cost(problem: DispatchProblem, schedule: Schedule, config: MPCConfig) -> float:
    """Tracking-plus-comfort objective.

    J = sum_k [ Q*(z(k) - ref(k))^2 + R * sum_i (x_i(k) - setpoint)^2 ]
    where x_i(k) is the predicted temperature after applying column k.
    """
    n_p = _effective_horizon(problem, config)
    if schedule.n_buildings != problem.n_buildings or schedule.n_steps < n_p:
        raise ValueError("schedule dimensions inconsistent with problem")
    p_rates = [m.p_rate for m in problem.models]
    temps_by_step = predict_trajectories(problem, schedule, n_p).T.tolist()
    j_total = 0.0
    for k in range(n_p):
        z = aggregate_power(schedule, k, p_rates)
        track = config.weight_q * (z - problem.reference[k]) ** 2
        e_sum = 0.0
        for t in temps_by_step[k]:
            e = t - config.setpoint_xr
            e_sum += e * e
        j_total += track + config.weight_r * e_sum
    return j_total


def _violations_from_temps(temps: np.ndarray, config: MPCConfig):
    """(building, step, overshoot) in row-major order, as np.nonzero walks."""
    over = temps > config.comfort_max + COMFORT_TOL
    under = temps < config.comfort_min - COMFORT_TOL
    js, ks = np.nonzero(over | under)
    overshoot = np.where(over, temps - config.comfort_max, config.comfort_min - temps)
    return tuple(zip(js.tolist(), ks.tolist(), overshoot[js, ks].tolist()))


def _result_from_schedule(
    problem: DispatchProblem, u: np.ndarray, config: MPCConfig, infeasible: bool = False
) -> DispatchResult:
    schedule = Schedule(u=u)
    n_p = schedule.n_steps
    p_rates = [m.p_rate for m in problem.models]
    temps = predict_trajectories(problem, schedule, n_p)
    return DispatchResult(
        schedule=schedule,
        aggregate_kw=tuple(aggregate_power(schedule, k, p_rates) for k in range(n_p)),
        cost=cost(problem, schedule, config),
        per_building_error=temps - config.setpoint_xr,
        violations=_violations_from_temps(temps, config),
        infeasible=infeasible,
    )


def solve_exact(problem: DispatchProblem, config: MPCConfig) -> DispatchResult:
    """Globally optimal schedule by branch-and-bound over binary columns.

    The comfort band is a hard constraint on predicted temperatures; among
    comfort-feasible schedules the one of minimal cost wins, ties broken by
    the lexicographically smallest row-major flattening. If no schedule is
    feasible the minimal-total-violation schedule is returned with its
    violations marked.
    """
    n_p = _effective_horizon(problem, config)
    n_b = problem.n_buildings
    if n_b * n_p > EXACT_GUARD:
        raise SolverGuardError(
            f"instance size {n_b}x{n_p} exceeds the exact-solver guard "
            f"({EXACT_GUARD} binaries); use the priority heuristic"
        )

    p_rates = [m.p_rate for m in problem.models]
    q_w, r_w, x_r = config.weight_q, config.weight_r, config.setpoint_xr
    c_lo, c_hi = config.comfort_min, config.comfort_max
    dist = problem.disturbance_forecast
    column_choices = list(itertools.product((0, 1), repeat=n_b))

    best: dict = {"viol": None, "cost": None, "key": None, "cols": None}

    def row_major_key(cols: list[tuple[int, ...]]) -> tuple[int, ...]:
        return tuple(cols[k][j] for j in range(n_b) for k in range(n_p))

    def worse_than_best(viol: float, cst: float) -> bool:
        if best["viol"] is None:
            return False
        if viol != best["viol"]:
            return viol > best["viol"]
        return cst > best["cost"]

    def recurse(k: int, temps: list[float], part_cost: float, part_viol: float, cols: list):
        if k == n_p:
            key = row_major_key(cols)
            if (
                best["viol"] is None
                or part_viol < best["viol"]
                or (part_viol == best["viol"] and part_cost < best["cost"])
                or (part_viol == best["viol"] and part_cost == best["cost"] and key < best["key"])
            ):
                best.update(viol=part_viol, cost=part_cost, key=key, cols=list(cols))
            return
        t_out, q_sol = dist.t_out[k], dist.q_solar[k]
        ref_k = problem.reference[k]
        for combo in column_choices:
            z = 0.0
            step_cost = 0.0
            step_viol = 0.0
            next_temps = []
            e_sum = 0.0
            for j in range(n_b):
                m = problem.models[j]
                x = predict_temp(m, temps[j], combo[j], t_out, q_sol)
                next_temps.append(x)
                e = x - x_r
                e_sum += e * e
                if x > c_hi + COMFORT_TOL:
                    step_viol += x - c_hi
                elif x < c_lo - COMFORT_TOL:
                    step_viol += c_lo - x
                z += combo[j] * p_rates[j]
            step_cost = q_w * (z - ref_k) ** 2 + r_w * e_sum
            new_cost = part_cost + step_cost
            new_viol = part_viol + step_viol
            # both accumulators are monotone, so a partial already worse than
            # the incumbent cannot recover; equal partials must continue for
            # the lexicographic tie-break
            if worse_than_best(new_viol, new_cost):
                continue
            cols.append(combo)
            recurse(k + 1, next_temps, new_cost, new_viol, cols)
            cols.pop()

    init_temps = [s.temp for s in problem.init_states]
    recurse(0, init_temps, 0.0, 0.0, [])

    u = np.array(best["cols"]).T  # columns were collected per step
    return _result_from_schedule(problem, u, config, infeasible=best["viol"] > 0)


def _comfort_classify(
    model: DiscreteThermalModel,
    temp: float,
    v: tuple[float, float],
    config: MPCConfig,
) -> tuple[int | None, bool]:
    """(forced mode or None if free, simultaneous-override flag)."""
    t_out, q_sol = v
    temp_off = predict_temp(model, temp, 0, t_out, q_sol)
    temp_on = predict_temp(model, temp, 1, t_out, q_sol)
    must_on = temp_off > config.comfort_max
    must_off = temp_on < config.comfort_min
    if must_on and must_off:
        # band narrower than the one-step swing: take the control landing
        # closer to the setpoint and flag the step infeasible
        pick = 0 if abs(temp_off - config.setpoint_xr) <= abs(temp_on - config.setpoint_xr) else 1
        return pick, True
    if must_on:
        return 1, False
    if must_off:
        return 0, False
    return None, False


def classify_step(
    models: Sequence[DiscreteThermalModel],
    temps: Sequence[float],
    v: tuple[float, float],
    config: MPCConfig,
):
    """Split the fleet into must-ON, must-OFF, and free units for one step."""
    must_on, must_off, free = [], [], []
    infeasible = False
    for j, m in enumerate(models):
        forced, simultaneous = _comfort_classify(m, temps[j], v, config)
        infeasible = infeasible or simultaneous
        if forced == 1:
            must_on.append(j)
        elif forced == 0:
            must_off.append(j)
        else:
            free.append(j)
    return must_on, must_off, free, infeasible


def solve_priority_heuristic(problem: DispatchProblem, config: MPCConfig) -> DispatchResult:
    """Greedy per-step dispatch scaling to the full fleet.

    At each step: comfort classification, target ON-count from the reference
    minus the must-ON draw (rounded at the mean free rating), then the free
    units with the most headroom above comfort_min switch ON, ties to the
    lowest index.
    """
    n_p = _effective_horizon(problem, config)
    n_b = problem.n_buildings
    models = problem.models
    p_rates = [m.p_rate for m in models]
    u = np.zeros((n_b, n_p), dtype=np.int8)
    temps = [s.temp for s in problem.init_states]
    any_infeasible = False

    for k in range(n_p):
        v = (problem.disturbance_forecast.t_out[k], problem.disturbance_forecast.q_solar[k])
        must_on, must_off, free, infeasible = classify_step(models, temps, v, config)
        any_infeasible = any_infeasible or infeasible
        forced_kw = sum(p_rates[j] for j in must_on)
        residual = problem.reference[k] - forced_kw
        if free:
            mean_rate = sum(p_rates[j] for j in free) / len(free)
            target = int(np.floor(residual / mean_rate + 0.5))  # round-half-up
            target = max(0, min(len(free), target))
        else:
            target = 0
        # hottest free units first: largest headroom above comfort_min
        ranked = sorted(free, key=lambda j: (-(temps[j] - config.comfort_min), j))
        on_set = set(must_on) | set(ranked[:target])
        col = [1 if j in on_set else 0 for j in range(n_b)]
        u[:, k] = col
        temps = [predict_temp(m, x, uj, v[0], v[1]) for m, x, uj in zip(models, temps, col)]

    return _result_from_schedule(problem, u, config, infeasible=any_infeasible)


SOLVERS = {
    "exact": solve_exact,
    "greedy": solve_priority_heuristic,
}


def receding_horizon_run(
    models: Sequence[DiscreteThermalModel],
    init_states: Sequence[BuildingState],
    disturbances: DisturbanceTrace,
    reference: Trace,
    config: MPCConfig,
    solver_choice: str = "greedy",
    pv: Trace | None = None,
    noise_kw: Sequence[float] | None = None,
) -> RunReport:
    """Closed loop: solve over the next horizon, apply the first column, advance.

    The reference is clamped to [0, fleet capacity] before dispatch; clamped
    steps are counted in the report. pv / noise_kw, when given, are carried
    into the report so privacy divergence can be measured downstream.
    """
    models = tuple(models)
    states = list(init_states)
    n_b = len(models)
    n_steps = len(reference)
    if len(disturbances) < n_steps:
        raise ValueError("disturbance trace shorter than the simulation")
    try:
        solver = SOLVERS[solver_choice]
    except KeyError:
        raise ValueError(f"unknown solver {solver_choice!r}; expected one of {sorted(SOLVERS)}")

    capacity = sum(m.p_rate for m in models)
    p_rates = [m.p_rate for m in models]
    raw_ref = reference.values
    clamped = [min(max(r, 0.0), capacity) for r in raw_ref]
    ref_clamped = tuple(c != r for c, r in zip(clamped, raw_ref))

    temps_hist = np.empty((n_b, n_steps))
    agg, n_on = [], []
    must_on_kw, free_kw, target_clipped = [], [], []
    infeasible_steps = []

    for t in range(n_steps):
        horizon = min(config.horizon_np, n_steps - t)
        problem = DispatchProblem(
            models=models,
            init_states=tuple(states),
            disturbance_forecast=DisturbanceTrace(
                t_out=disturbances.t_out[t : t + horizon],
                q_solar=disturbances.q_solar[t : t + horizon],
                step_seconds=disturbances.step_seconds,
            ),
            reference=tuple(clamped[t : t + horizon]),
        )
        result = solver(problem, config)

        # envelope bookkeeping on the true (realized) state, solver-agnostic
        v = (disturbances.t_out[t], disturbances.q_solar[t])
        cur_temps = [s.temp for s in states]
        must_on, _must_off, free, infeasible = classify_step(models, cur_temps, v, config)
        forced = sum(p_rates[j] for j in must_on)
        dispatchable = sum(p_rates[j] for j in free)
        must_on_kw.append(forced)
        free_kw.append(dispatchable)
        target_clipped.append(not (forced <= clamped[t] <= forced + dispatchable))
        if infeasible or result.infeasible:
            infeasible_steps.append(t)

        first_col = result.schedule.u[:, 0].tolist()
        z = 0.0
        for j in range(n_b):
            uj = first_col[j]
            states[j] = BuildingState(
                temp=predict_temp(models[j], states[j].temp, uj, v[0], v[1]), mode=uj
            )
            z += uj * p_rates[j]
        temps_hist[:, t] = [s.temp for s in states]
        agg.append(z)
        n_on.append(sum(first_col))

    if noise_kw is None:
        noise_kw = tuple(0.0 for _ in range(n_steps))
    pv_kw = pv.values if pv is not None else tuple(
        r + n for r, n in zip(raw_ref, noise_kw)
    )

    return RunReport(
        step_seconds=reference.step_seconds,
        pv_kw=tuple(pv_kw),
        noise_kw=tuple(noise_kw),
        reference_kw=tuple(clamped),
        unclamped_reference_kw=tuple(raw_ref),
        aggregate_kw=tuple(agg),
        temps=temps_hist,
        n_on=tuple(n_on),
        must_on_kw=tuple(must_on_kw),
        free_kw=tuple(free_kw),
        target_clipped=tuple(target_clipped),
        ref_clamped=ref_clamped,
        infeasible_steps=tuple(infeasible_steps),
    )
