import os
import subprocess
import sys
from pathlib import Path

import flowplan

# The package's public names. An export added or dropped shows up here, so
# a change to the public surface has to be made on purpose.
PUBLIC_NAMES = [
    "Action", "ApiConfig", "ApiResult", "ConfigError", "ContinuousPlanner", "ContinuousValue",
    "DiscretePlanner", "DomainError", "DriftDiffusion", "ExperimentConfig", "FieldFormatError",
    "FlowField", "GoalOrientedPlanner", "GridSamples", "GyreParams", "IterationLimitError",
    "MdpModel", "Mesh", "MeshError", "NoiseParams", "NumericalError", "PdeCoefficients", "Point2",
    "SimOptions", "SparseSystem", "StateSpace", "Trajectory", "TrialStats", "Velocity2",
    "approximate_policy_iteration", "assemble", "assemble_coefficients", "build_mesh",
    "build_model", "classic_policy_iteration", "compass_actions", "config", "constrain_goal",
    "errors", "fem", "field_velocities", "field_velocity", "flowfield", "goal_oriented_action",
    "grid_field", "gyre_field", "improve_policy_continuous", "load_config", "load_grid_field",
    "mdp", "moments", "parse_config", "policy_evaluation_exact", "policy_iter", "run_experiment",
    "simulate_trial", "simulate_trials", "simulator", "solve",
    "step", "transition_moments", "value_mse",
]  # fmt: skip


def test_the_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert flowplan.__all__ == PUBLIC_NAMES


def test_importing_the_cli_leaves_out_scipy_linalg_and_scipy_sparse():
    # The banded LU comes from scipy's LAPACK extension alone; the packages
    # around it would cost each process tens of MB and a quarter second.
    heavy = ("scipy.linalg", "scipy.sparse", "scipy._lib._util")
    code = f"import sys, flowplan.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(flowplan.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
