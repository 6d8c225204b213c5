"""Privacy-preserving PV load-following toolkit.

Carves a Laplace noise signal out of a solar PV trace, forms the net
reference, and dispatches a fleet of on/off HVAC loads with receding-horizon
mixed-integer optimization so the aggregate tracks the reference while every
indoor temperature stays inside the comfort band.
"""

from dpdispatch.privacy import (
    DPParams,
    compute_net_pv,
    density_ratio_bound_check,
    generate_noise_trace,
    laplace_scale,
    mechanism_expected_squared_error,
)
from dpdispatch.thermal import (
    BuildingState,
    ContinuousThermalModel,
    DiscreteThermalModel,
    DisturbanceTrace,
    discretize,
    steady_state_temp,
    step,
)
from dpdispatch.dispatch import (
    DispatchProblem,
    DispatchResult,
    MPCConfig,
    Schedule,
    SolverGuardError,
    cost,
    receding_horizon_run,
    solve_exact,
    solve_priority_heuristic,
)
from dpdispatch.traces import Trace, load_trace, save_trace
from dpdispatch.scenario import ScenarioConfig, build_simulation, synth_pv, synth_weather
from dpdispatch.metrics import (
    RunReport,
    comfort_violation_count,
    noise_histogram,
    residual_vs_intended_noise,
    tracking_rmse,
)

__version__ = "0.1.0"
