"""Receding-horizon on/off dispatch of an HVAC fleet against a kW reference.

Two solvers share one problem statement:

* solve_exact -- depth-first branch-and-bound over the binary schedule.
  One thermal.prefix_temps call per solve gives every building's
  temperature after each of its own control prefixes; the e*e, overshoot
  and cost-to-go tables come from those arrays, stacked into one array per
  step, and a node expands all its children with one gather and one
  accumulate. The cost-to-go bound (comfort and violation are separable per
  building; only the tracking term couples them) prunes and orders the
  children. The incumbent is each building's leaf prefix, from which the
  schedule and temperatures are read back. Globally optimal, guarded to
  small instances; serves as the oracle for the heuristic.
* solve_priority_heuristic -- per-step comfort classification (must-ON /
  must-OFF / free) followed by a rounded target count and a hottest-first
  priority pick. Scales to the full fleet.

Both return the schedule with its draws, its cost and the temperatures it
predicts, with no plan flag; the closed loop flags infeasible steps from
classify_step on the realized state.

Every float sum is a left fold in a fixed order, so that outputs are
bit-identical across builds and Python versions and a solver's reported cost
equals a recomputation via cost() to the bit. Builtin sum() is avoided: from
Python 3.12 it compensates float sums and rounds differently. Every fleet
draw is one fold, np.add.accumulate over a float64 ratings vector in
building order. _fleet_draw folds a set of units (must-ON and free draw,
capacity) and gives int 0, not 0.0, for no units, so flags.csv writes an
empty set's draw as 0. _column_draws folds each column's u_j(k) * p_rate_j
for cost(), _result (whose first draw the closed loop applies) and
solve_exact's tracking table (joint columns in itertools.product order,
building 0 the most significant bit); an OFF unit adds +0.0, so a column's
draw is _fleet_draw of its ON units. cost()'s comfort sums and each exact
node's table sums accumulate the same way. Accumulate starts at the first
term where a fold starts at 0.0; no term is -0.0, so that changes no bit.
The tracking residual d is squared as d * d everywhere, never with **,
which CPython hands to the C library's pow.

Every control passed to predict_temp is the float 0.0 or 1.0: b_d * 1.0 and
b_d * 0.0 are the doubles b_d * 1 and b_d * 0 (-0.0 included), and the
float operand takes CPython's float-times-float path. A schedule stays an
int8 matrix, and n_on an int count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from dpdispatch.metrics import COMFORT_TOL, RunReport
from dpdispatch.thermal import (
    DiscreteThermalModel,
    DisturbanceTrace,
    fleet_coefficients,
    predict_temp,
    prefix_temps,
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
            raise ValueError(f"mpc.horizon_np must be at least 1, got {self.horizon_np}")
        for name, value in (("weight_q", self.weight_q), ("weight_r", self.weight_r)):
            if value < 0:
                raise ValueError(f"mpc.{name} must be nonnegative, got {value}")
        if not (self.comfort_min < self.comfort_max):
            raise ValueError("mpc.comfort_min must be below mpc.comfort_max")
        if not (self.comfort_min <= self.setpoint_xr <= self.comfort_max):
            raise ValueError("mpc.setpoint_xr must lie inside the comfort band")


@dataclass(frozen=True)
class DispatchProblem:
    models: tuple[DiscreteThermalModel, ...]
    init_temps: tuple[float, ...]  # start temperature of each building, degC
    disturbance_forecast: DisturbanceTrace
    reference: tuple[float, ...]  # net PV reference, kW per step

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        object.__setattr__(self, "init_temps", tuple(map(float, self.init_temps)))
        object.__setattr__(self, "reference", tuple(float(r) for r in self.reference))
        if len(self.models) < 1:
            raise ValueError("need at least one building")
        if len(self.init_temps) != len(self.models):
            raise ValueError("init_temps count does not match models")
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
        # check the values as given: casting first would turn 0.5 into 0
        # and 256 into 0
        u = np.asarray(self.u)
        if u.ndim != 2:
            raise ValueError("schedule must be a 2-D matrix")
        if not ((u == 0) | (u == 1)).all():
            raise ValueError("schedule entries must be 0 or 1")
        object.__setattr__(self, "u", u.astype(np.int8))

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
    temps: np.ndarray  # predicted temperature after each column, one row per building
    # no plan flag: the closed loop flags infeasible steps from classify_step


def _effective_horizon(problem: DispatchProblem, config: MPCConfig) -> int:
    return min(config.horizon_np, len(problem.reference))


def _fleet_draw(ratings: np.ndarray) -> float:
    """The ratings' left fold from int 0 (sum() up to Python 3.11) as a Python float."""
    drawn = np.add.accumulate(ratings)
    return drawn[-1].item() if drawn.size else 0


def _column_draws(u: np.ndarray, p_rates: Sequence[float]) -> np.ndarray:
    """Every column's draw sum_j u[j, c] * p_rates[j], one float per column.

    The products are added down the buildings in building order. With u in
    {0, 1} and every rating positive, an OFF unit adds +0.0, so each draw
    equals the left fold from 0.0 over its ON units' ratings to the bit,
    where np.dot, np.sum and sum() (compensated from Python 3.12) may round
    differently. Raises ValueError unless there is one rating per row.
    """
    p = np.asarray(p_rates, dtype=float)
    if p.shape != (len(u),):
        raise ValueError(f"{p.size} ratings for a schedule of {len(u)} rows")
    return np.add.accumulate(u * p[:, None], axis=0)[-1]


def predict_trajectories(
    problem: DispatchProblem, schedule: Schedule, n_steps: int
) -> np.ndarray:
    """Predicted temperatures (n_buildings, n_steps) under a schedule."""
    models = problem.models
    if schedule.n_buildings < len(models):
        raise IndexError(f"schedule has {schedule.n_buildings} rows for {len(models)} buildings")
    u_cols = schedule.u.T.astype(float).tolist()
    t_out = problem.disturbance_forecast.t_out
    q_solar = problem.disturbance_forecast.q_solar
    x = problem.init_temps
    cols = []
    # the fleet one step at a time; indexing the steps, not zip, so too few
    # columns or forecast steps raise IndexError
    for k in range(n_steps):
        u_k, t, q = u_cols[k], t_out[k], q_solar[k]
        x = [predict_temp(m, x_j, u_j, t, q) for m, x_j, u_j in zip(models, x, u_k)]
        cols.append(x)
    return np.array(cols).reshape(n_steps, len(x)).T


def cost(problem: DispatchProblem, schedule: Schedule, config: MPCConfig) -> float:
    """Tracking-plus-comfort objective.

    J = sum_k [ Q*(z(k) - ref(k))^2 + R * sum_i (x_i(k) - setpoint)^2 ]
    where x_i(k) is the predicted temperature after applying column k.
    """
    n_p = _effective_horizon(problem, config)
    if schedule.n_buildings != problem.n_buildings or schedule.n_steps < n_p:
        raise ValueError("schedule dimensions inconsistent with problem")
    z = _column_draws(schedule.u[:, :n_p], [m.p_rate for m in problem.models]).tolist()
    e = predict_trajectories(problem, schedule, n_p) - config.setpoint_xr
    # per step, sum_i e_i^2 added in building order; accumulate is sequential,
    # and its start at e_0^2 instead of 0.0 + e_0^2 changes no bit
    e_sums = np.add.accumulate(e * e, axis=0)[-1].tolist()
    j_total = 0.0
    for k in range(n_p):
        d = z[k] - problem.reference[k]
        track = config.weight_q * (d * d)
        j_total += track + config.weight_r * e_sums[k]
    return j_total


def _result(problem: DispatchProblem, schedule: Schedule, temps: np.ndarray,
            total: float) -> DispatchResult:
    """The DispatchResult of a schedule, its predicted temperatures and its cost."""
    return DispatchResult(
        schedule=schedule,
        aggregate_kw=tuple(_column_draws(schedule.u, [m.p_rate for m in problem.models]).tolist()),
        cost=total,
        temps=temps,
    )


def _result_from_schedule(
    problem: DispatchProblem, u: np.ndarray, config: MPCConfig
) -> DispatchResult:
    schedule = Schedule(u=u)
    temps = predict_trajectories(problem, schedule, schedule.n_steps)
    return _result(problem, schedule, temps, cost(problem, schedule, config))


# Relative slack on the bound prunes. A leaf's violation and cost and their
# bounds are float sums of at most 24 nonnegative terms, each within about
# 24 ulp (relative 3e-15) of its exact sum, so a bound and a leaf below it
# can be out of order by less than 1e-14 relative; with this margin a bound
# prune never discards a leaf that ties with or beats the incumbent.
_BOUND_MARGIN = 1e-12

# Largest table the exact solver builds, in entries: its prefix tree holds
# n_b * (2^(n_p+1) - 2) entries per table and a node gathers n_b * 2^n_b
# per table. EXACT_GUARD alone lets a single building through up to horizon
# 24 and 24 buildings at horizon 1, whose tables need gigabytes; this keeps
# 1x19 and 16x1 and refuses 1x20 and 17x1.
EXACT_TABLE_GUARD = 2**20


def _level_tables(
    problem: DispatchProblem, config: MPCConfig, n_p: int
) -> tuple[np.ndarray, list[slice], list[np.ndarray]]:
    """The prefix tree's temperatures and its four tables, one array per level.

    Level k of thermal.prefix_temps, flattened building-major, is
    tree[level[k]]: building j's prefix p of k + 1 controls sits at j *
    2^(k+1) + p there, so the entry at q has its children at 2q and 2q + 1
    of level k + 1, and building j's root is q = j. tables[k] is level k's
    (4, n_b, 2^(k+1)) stack, flattened the same way: the e*e and overshoot
    at each prefix and the cheapest e*e and overshoot its completions still
    add. Every table entry is +0.0 or positive, so a sum of entries may start
    at its first term instead of at 0.0.
    """
    dist = problem.disturbance_forecast
    levels = prefix_temps(
        fleet_coefficients(problem.models),
        np.array(problem.init_temps),
        dist.t_out[:n_p],
        dist.q_solar[:n_p],
    )
    n_b = len(problem.models)
    tree = np.concatenate(levels, axis=None)
    level = [slice(n_b * (2 ** (k + 1) - 2), n_b * (2 ** (k + 2) - 2)) for k in range(n_p)]
    stack = np.zeros((4, tree.size))
    e = tree - config.setpoint_xr
    np.multiply(e, e, out=stack[0])
    # degC outside the band, or 0.0 within COMFORT_TOL of it: an entry more
    # than COMFORT_TOL outside overshoots by more than COMFORT_TOL, so the
    # nonzero entries are exactly the violations
    c_lo, c_hi = config.comfort_min, config.comfort_max
    stack[1] = np.where(tree > c_hi + COMFORT_TOL, tree - c_hi,
                        np.where(tree < c_lo - COMFORT_TOL, c_lo - tree, 0.0))
    # per prefix, the cheapest e*e and overshoot its completions still add:
    # backward over the levels, the smaller of each pair of siblings
    terms, to_go = stack[:2], stack[2:]
    for k in range(n_p - 1, 0, -1):
        with_term = terms[:, level[k]] + to_go[:, level[k]]
        np.minimum(with_term[:, 0::2], with_term[:, 1::2], out=to_go[:, level[k - 1]])
    return tree, level, [np.ascontiguousarray(stack[:, lv]) for lv in level]


def solve_exact(problem: DispatchProblem, config: MPCConfig) -> DispatchResult:
    """Globally optimal schedule by branch-and-bound over binary columns.

    The comfort band is a hard constraint on predicted temperatures; among
    comfort-feasible schedules the one of minimal cost wins, ties broken by
    the lexicographically smallest row-major flattening. If no schedule is
    feasible the minimal-total-violation schedule is returned; its temps
    show where it leaves the band.

    A building's temperatures depend only on its own controls, so
    thermal.prefix_temps gives, once per solve, each building's temperature
    after every prefix of its own controls (2 + 4 + ... + 2^H entries, in
    predict_temp's arithmetic), and _level_tables stacks every e*e and
    overshoot the search can meet, with their cost-to-go, into one array per
    step; each step's tracking term is tabled once per joint column. A node
    expands all its children at once: the child prefixes 2*prefix + bits
    (bits: one row per building, one column per joint column in
    itertools.product order), one gather from the step's stack, and an
    accumulate down the building axis, which sums in building order as a
    direct evaluation does, so every leaf's violation and cost are
    bit-identical to it.

    Comfort and violation are separable per building and only the tracking
    term couples the buildings, so each building's cheapest completion of
    its own prefix (backward over its prefix tree) plus each remaining
    step's cheapest tracking term bounds every completion from below. A
    child is pruned when its partial (violation, cost) is already worse than
    the incumbent's, as both only grow; when its violation plus the
    violation bound exceeds the incumbent's violation; or when its partial
    violation is at least the incumbent's and its cost plus the cost bound
    exceeds the incumbent's cost. The bound prunes need an excess of more
    than _BOUND_MARGIN relative, far above the rounding of these sums, so no
    pruned subtree holds a leaf that ties with or beats the incumbent, and
    the result does not depend on the visiting order. Children are visited
    in order of (violation + bound, cost + bound, column index), so the
    first dive finds a strong incumbent, and the first child over the
    violation bound ends the node: every later child is over it too.

    The incumbent is (violation, cost, each building's leaf prefix); the
    schedule and temperatures are read back from the leaves' ancestors in
    the prefix tree, and the cost, accumulated in cost()'s order, is the
    incumbent's. Every field equals the one predict_trajectories and cost()
    would give, to the bit, without running them.

    Raises SolverGuardError, before any table is built, above EXACT_GUARD
    binaries or when the prefix tree or a node's gather would exceed
    EXACT_TABLE_GUARD entries.
    """
    n_p = _effective_horizon(problem, config)
    n_b = problem.n_buildings
    if n_b * n_p > EXACT_GUARD:
        raise SolverGuardError(
            f"instance size {n_b}x{n_p} exceeds the exact-solver guard "
            f"({EXACT_GUARD} binaries); use the priority heuristic"
        )
    tree_entries, node_entries = n_b * (2 ** (n_p + 1) - 2), n_b * 2**n_b
    if max(tree_entries, node_entries) > EXACT_TABLE_GUARD:
        raise SolverGuardError(
            f"instance size {n_b}x{n_p} needs tables of {tree_entries} prefix-tree "
            f"and {node_entries} per-node entries, over the exact-solver guard "
            f"({EXACT_TABLE_GUARD} entries); use the priority heuristic"
        )

    q_w, r_w = config.weight_q, config.weight_r
    # bits[j, c]: building j's control in joint column c, building 0 the
    # most significant bit of c, so the columns come in itertools.product
    # order and a lower c is a lexicographically smaller column
    bits = (np.arange(2**n_b) >> np.arange(n_b - 1, -1, -1)[:, None]) & 1
    tree, level, tables = _level_tables(problem, config, n_p)

    # per joint column the draw z; [k, c] the tracking term of column c at
    # step k, squared as cost() squares it; and the cheapest tracking still
    # to come after step k
    z = _column_draws(bits, [m.p_rate for m in problem.models])
    d = z - np.array(problem.reference[:n_p])[:, None]
    track = q_w * (d * d)
    track_min = track.min(axis=1).tolist()
    track_to_go = [0.0] * n_p
    for k in range(n_p - 2, -1, -1):
        track_to_go[k] = track_to_go[k + 1] + track_min[k + 1]

    # the incumbent: violation, cost and leaf prefixes, compared in that
    # order; the inf start loses to every leaf and trips no prune. Building
    # j's leaf is j * 2^n_p plus its schedule read as a binary number, first
    # control most significant; every leaf has the same offsets, so the
    # prefix tuples order leaves as their row-major schedules do
    best = [math.inf, math.inf, ()]
    slack = 1.0 + _BOUND_MARGIN

    def recurse(k: int, prefix: np.ndarray, part_cost: float, part_viol: float):
        if k == n_p:
            leaf = (part_viol, part_cost, tuple(prefix.tolist()))
            if leaf < tuple(best):
                best[:] = leaf
            return

        # children[j, c]: building j's child prefix in joint column c; per
        # column, the four tables summed over the buildings in building order
        children = 2 * prefix[:, None] + bits
        e_sum, viol_sum, e_go, viol_go = np.add.accumulate(
            tables[k].take(children, axis=1), axis=1)[:, -1]
        # step cost = tracking + r * e_sum, added to the partial: cost()'s order
        new_costs = part_cost + (track[k] + r_w * e_sum)
        new_viols = part_viol + viol_sum
        cost_bounds = new_costs + (track_to_go[k] + r_w * e_go)
        viol_bounds = new_viols + viol_go
        # lexsort is stable, so equal bounds keep column order
        order = np.lexsort((cost_bounds, viol_bounds)).tolist()
        new_costs, new_viols = new_costs.tolist(), new_viols.tolist()
        cost_bounds, viol_bounds = cost_bounds.tolist(), viol_bounds.tolist()
        for c in order:
            # the children come in violation-bound order and the incumbent's
            # violation only falls, so every later child fails this prune too
            if viol_bounds[c] > best[0] * slack:
                break
            new_cost, new_viol = new_costs[c], new_viols[c]
            # both accumulators are monotone, so a partial already worse than
            # the incumbent cannot recover; equal partials must continue for
            # the lexicographic tie-break
            if (new_viol, new_cost) > (best[0], best[1]):
                continue
            if new_viol >= best[0] and cost_bounds[c] > best[1] * slack:
                continue
            recurse(k + 1, children[:, c], new_cost, new_viol)

    recurse(0, np.arange(n_b), 0.0, 0.0)

    # read back from the leaf: each building's prefix at step k is its leaf
    # shifted right by n_p - 1 - k, whose last bit is its control at step k
    _, best_cost, leaf = best
    prefixes = np.array(leaf)[:, None] >> np.arange(n_p - 1, -1, -1)
    u = prefixes & 1
    temps = tree[prefixes + [lv.start for lv in level]]
    return _result(problem, Schedule(u=u), temps, best_cost)


def classify_step(
    models: Sequence[DiscreteThermalModel],
    temps: Sequence[float],
    v: tuple[float, float],
    config: MPCConfig,
):
    """Split the fleet into must-ON, must-OFF, and free units for one step.

    A unit is must-ON when OFF would end above comfort_max and must-OFF when
    ON would end below comfort_min. When both hold, the band is narrower
    than the one-step swing: the unit takes the control landing closer to
    the setpoint (OFF on a tie). The step is flagged infeasible when some
    unit has no control that lands in the band: the swing case, a must-ON
    unit whose ON ends above comfort_max, or a must-OFF unit whose OFF ends
    below comfort_min.
    """
    t_out, q_sol = v
    c_lo, c_hi, x_r = config.comfort_min, config.comfort_max, config.setpoint_xr
    must_on, must_off, free = [], [], []
    infeasible = False
    for j, m in enumerate(models):
        x = temps[j]
        temp_off = predict_temp(m, x, 0.0, t_out, q_sol)
        temp_on = predict_temp(m, x, 1.0, t_out, q_sol)
        if temp_off > c_hi:
            if temp_on < c_lo:
                infeasible = True
                if abs(temp_off - x_r) <= abs(temp_on - x_r):
                    must_off.append(j)
                else:
                    must_on.append(j)
            else:
                must_on.append(j)
                infeasible = infeasible or temp_on > c_hi
        elif temp_on < c_lo:
            must_off.append(j)
            infeasible = infeasible or temp_off < c_lo
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
    models = problem.models
    p = np.array([m.p_rate for m in models])
    dist = problem.disturbance_forecast
    u = np.zeros((len(models), n_p), dtype=np.int8)
    temps = problem.init_temps

    for k in range(n_p):
        t_out, q_sol = dist.t_out[k], dist.q_solar[k]
        must_on, _, free, _ = classify_step(models, temps, (t_out, q_sol), config)
        residual = problem.reference[k] - _fleet_draw(p[must_on])
        if free:
            mean_rate = _fleet_draw(p[free]) / len(free)
            target = int(np.floor(residual / mean_rate + 0.5))  # round-half-up
            target = max(0, min(len(free), target))
        else:
            target = 0
        # hottest free units first: smallest comfort_min - temp; the argsort is
        # stable and free is in index order, so ties go to the lowest index
        free = np.array(free, dtype=np.intp)
        headroom = config.comfort_min - np.array(temps)[free]
        u[must_on, k] = 1
        u[free[np.argsort(headroom, kind="stable")[:target]], k] = 1
        col = u[:, k].astype(float).tolist()
        temps = [predict_temp(m, x, uj, t_out, q_sol) for m, x, uj in zip(models, temps, col)]

    return _result_from_schedule(problem, u, config)


SOLVERS = {
    "exact": solve_exact,
    "greedy": solve_priority_heuristic,
}


def clamp_reference(raw: Sequence[float], capacity: float) -> list[float]:
    """Each step of `raw` clamped to [0, capacity], the fleet's draw range."""
    return [min(max(r, 0.0), capacity) for r in raw]


def receding_horizon_run(
    models: Sequence[DiscreteThermalModel],
    init_temps: Sequence[float],
    disturbances: DisturbanceTrace,
    reference: Trace,
    config: MPCConfig,
    solver_choice: str = "greedy",
    *,
    pv: Trace,
    noise_kw: Sequence[float],
) -> RunReport:
    """Closed loop: solve over the next horizon, apply the first column, advance.

    The reference is clamped to [0, fleet capacity] before dispatch; clamped
    steps are counted in the report. pv and noise_kw, the reference's sources,
    are carried into the report so privacy divergence can be measured. Inputs
    whose step sizes disagree, or a pv / noise_kw whose length differs from
    the reference's, are refused before the first step.
    """
    models = tuple(models)
    n_b = len(models)
    n_steps = len(reference)
    if len(disturbances) < n_steps:
        raise ValueError("disturbance trace shorter than the simulation")
    model_steps = {m.dt_seconds for m in models}
    if model_steps | {pv.step_seconds, disturbances.step_seconds} != {reference.step_seconds}:
        raise ValueError(
            f"step sizes disagree: reference {reference.step_seconds} s, disturbances "
            f"{disturbances.step_seconds} s, models {sorted(model_steps)} s, pv [{pv.step_seconds}] s"
        )
    for name, series in (("pv", pv), ("noise_kw", noise_kw)):
        if len(series) != n_steps:
            raise ValueError(f"{name} has {len(series)} steps, the reference {n_steps}")
    try:
        solver = SOLVERS[solver_choice]
    except KeyError:
        raise ValueError(f"unknown solver {solver_choice!r}; expected one of {sorted(SOLVERS)}")

    p = np.array([m.p_rate for m in models])
    raw_ref = reference.values
    clamped = clamp_reference(raw_ref, _fleet_draw(p))

    temps_hist = np.empty((n_b, n_steps))
    agg, n_on = [], []
    must_on_kw, free_kw = [], []
    infeasible_steps = []

    cur_temps = list(init_temps)
    for t in range(n_steps):
        horizon = min(config.horizon_np, n_steps - t)
        problem = DispatchProblem(
            models=models,
            init_temps=cur_temps,
            disturbance_forecast=DisturbanceTrace(
                t_out=disturbances.t_out[t : t + horizon],
                q_solar=disturbances.q_solar[t : t + horizon],
                step_seconds=disturbances.step_seconds,
            ),
            reference=tuple(clamped[t : t + horizon]),
        )
        result = solver(problem, config)

        # envelope bookkeeping on the true (realized) state, solver-agnostic
        t_out, q_sol = disturbances.t_out[t], disturbances.q_solar[t]
        must_on, _must_off, free, infeasible = classify_step(
            models, cur_temps, (t_out, q_sol), config
        )
        must_on_kw.append(_fleet_draw(p[must_on]))
        free_kw.append(_fleet_draw(p[free]))
        if infeasible:
            infeasible_steps.append(t)

        first_col = result.schedule.u[:, 0]
        controls = first_col.astype(float).tolist()
        cur_temps = [
            predict_temp(m, x, uj, t_out, q_sol) for m, x, uj in zip(models, cur_temps, controls)
        ]
        temps_hist[:, t] = cur_temps
        agg.append(result.aggregate_kw[0])  # the applied column's draw
        n_on.append(sum(first_col.tolist()))

    return RunReport(
        step_seconds=reference.step_seconds,
        pv_kw=pv.values,
        noise_kw=tuple(noise_kw),
        reference_kw=tuple(clamped),
        unclamped_reference_kw=tuple(raw_ref),
        aggregate_kw=tuple(agg),
        temps=temps_hist,
        n_on=tuple(n_on),
        must_on_kw=tuple(must_on_kw),
        free_kw=tuple(free_kw),
        infeasible_steps=tuple(infeasible_steps),
    )
