"""Path planning in uncertain flow fields.

Discrete grid MDPs with Gaussian cell transitions are solved exactly by
policy iteration, and approximately by recasting policy evaluation as a
drift-diffusion-reaction equation solved with P1 triangular finite elements
on (a subset of) the state grid. The continuous value function that falls
out drives a pointwise policy improvement and a trajectory simulator.
"""

from .errors import (
    ConfigError,
    DomainError,
    FieldFormatError,
    IterationLimitError,
    MeshError,
    NumericalError,
)
from .flowfield import (
    FlowField,
    GridSamples,
    GyreParams,
    NoiseParams,
    Point2,
    Velocity2,
    field_velocities,
    field_velocity,
    grid_field,
    gyre_field,
    load_grid_field,
)
from .mdp import (
    Action,
    MdpModel,
    StateSpace,
    build_model,
    classic_policy_iteration,
    compass_actions,
    policy_evaluation_exact,
)
from .moments import DriftDiffusion, PdeCoefficients, assemble_coefficients, transition_moments
from .fem import ContinuousValue, Mesh, SparseSystem, assemble, build_mesh, constrain_goal, solve
from .policy_iter import (
    ApiConfig,
    ApiResult,
    approximate_policy_iteration,
    improve_policy_continuous,
    value_mse,
)
from .simulator import (
    ContinuousPlanner,
    DiscretePlanner,
    GoalOrientedPlanner,
    SimOptions,
    Trajectory,
    TrialStats,
    goal_oriented_action,
    run_experiment,
    simulate_trial,
    simulate_trials,
    step,
)
from .config import ExperimentConfig, load_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
