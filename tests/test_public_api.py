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
    "serialize_config", "simulate_trial", "simulate_trials", "simulator", "solve",
    "step", "transition_moments", "value_mse",
]  # fmt: skip


def test_the_public_names_are_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert flowplan.__all__ == PUBLIC_NAMES
