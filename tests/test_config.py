from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplan.config import (
    _KEYS,
    _PARSERS,
    ExperimentConfig,
    parse_config,
    serialize_config,
    validate_config,
)
from flowplan.errors import ConfigError

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_-./0123456789", min_size=1, max_size=12)


@st.composite
def valid_configs(draw) -> ExperimentConfig:
    nx, ny = draw(st.integers(3, 30)), draw(st.integers(3, 30))
    cell = draw(positive)
    ox, oy = draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0))
    width = ox + (nx - 1) * cell + draw(st.floats(0.0, 10.0))
    height = oy + (ny - 1) * cell + draw(st.floats(0.0, 10.0))
    goal = (draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1)))
    cells = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)), max_size=4))
    kind = draw(st.sampled_from(["gyre", "csv"]))
    return ExperimentConfig(
        field_kind=kind,
        field_strength_kmh=draw(finite),
        field_size_km=draw(positive),
        field_csv_path=draw(words) if kind == "csv" else draw(st.sampled_from(["", "f.csv"])),
        field_width_km=width,
        field_height_km=height,
        noise_sigma_kmh=draw(st.floats(0.0, 5.0)),
        grid_nx=nx,
        grid_ny=ny,
        grid_cell_km=cell,
        grid_origin_x_km=ox,
        grid_origin_y_km=oy,
        grid_obstacles=tuple(v for c in cells if c != goal for v in c),
        goal_i=goal[0],
        goal_j=goal[1],
        start_x_km=draw(st.floats(0.0, 1.0)) * width,
        start_y_km=draw(st.floats(0.0, 1.0)) * height,
        vehicle_v_max_kmh=draw(positive),
        mdp_dt_h=draw(positive),
        mdp_gamma=draw(st.floats(0.0, 0.999)),
        fem_k=draw(st.sampled_from([1, 2])),
        fem_moment_convention=draw(st.sampled_from(["displacement", "paper-literal"])),
        api_max_iterations=draw(st.integers(1, 500)),
        api_init_policy=draw(st.sampled_from(["goal-aimed", "uniform-n"])),
        sim_trials=draw(st.integers(1, 1000)),
        sim_budget_h=draw(positive),
        sim_dt_h=draw(positive),
        sim_goal_radius_km=draw(positive),
        sim_noise_resample=draw(st.sampled_from(["step", "trial"])),
        sim_noise_scaling=draw(st.sampled_from(["plain", "sqrt-dt"])),
        sim_seed=draw(st.integers(-(2**63), 2**63 - 1)),
        sweep_strengths=tuple(draw(st.lists(finite, max_size=4))),
        mse_grid_sizes=tuple(draw(st.lists(st.integers(4, 200), max_size=4))),
        output_raster_n=draw(st.integers(2, 400)),
    )


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_serialized_config_parses_back_to_itself(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize(
    "key, change",
    [
        ("field.kind", {"field_kind": "tidal"}),
        ("field.csv_path", {"field_kind": "csv", "field_csv_path": ""}),
        ("field.size_km", {"field_size_km": 0.0}),
        ("field.width_km", {"field_height_km": -1.0}),
        ("noise.sigma_kmh", {"noise_sigma_kmh": -0.1}),
        ("grid.nx", {"grid_ny": 1}),
        ("grid.cell_km", {"grid_cell_km": 0.0}),
        ("grid.obstacles", {"grid_obstacles": (1, 2, 3)}),
        ("grid.obstacles", {"grid_obstacles": (20, 0)}),
        ("goal.i", {"goal_j": 20}),
        ("goal.i", {"grid_obstacles": (17, 17)}),
        ("vehicle.v_max_kmh", {"vehicle_v_max_kmh": 0.0}),
        ("mdp.dt_h", {"mdp_dt_h": -1.0}),
        ("mdp.gamma", {"mdp_gamma": 1.0}),
        ("fem.k", {"fem_k": 3}),
        ("fem.k", {"fem_k": 2, "grid_nx": 2, "goal_i": 1}),
        ("fem.moment_convention", {"fem_moment_convention": "central"}),
        ("api.max_iterations", {"api_max_iterations": 0}),
        ("api.init_policy", {"api_init_policy": "random"}),
        ("sim.trials", {"sim_trials": 0}),
        ("sim.budget_h", {"sim_dt_h": 0.0}),
        ("sim.goal_radius_km", {"sim_goal_radius_km": 0.0}),
        ("sim.noise_resample", {"sim_noise_resample": "never"}),
        ("sim.noise_scaling", {"sim_noise_scaling": "dt"}),
        ("output.raster_n", {"output_raster_n": 1}),
        ("mse.grid_sizes", {"mse_grid_sizes": (10, 3)}),
        ("grid.nx", {"grid_nx": 21}),
        ("start.x_km", {"start_x_km": 40.5}),
        ("start.y_km", {"start_y_km": -0.5}),
        ("sim.dt_h", {"sim_dt_h": float("nan")}),
        ("sim.budget_h", {"sim_budget_h": float("inf")}),
        ("noise.sigma_kmh", {"noise_sigma_kmh": float("nan")}),
        ("vehicle.v_max_kmh", {"vehicle_v_max_kmh": float("inf")}),
        ("field.strength_kmh", {"field_strength_kmh": float("-inf")}),
        ("sweep.strengths", {"sweep_strengths": (0.5, float("nan"))}),
    ],
)
def test_each_validation_branch_names_its_key(key, change):
    validate_config(ExperimentConfig())
    with pytest.raises(ConfigError, match=rf"^{key}: "):
        validate_config(replace(ExperimentConfig(), **change))


@pytest.mark.parametrize(
    "text, message",
    [
        ("grid.nx 20", "expected 'key = value'"),
        ("grid.depth = 3", "unknown key 'grid.depth'"),
        ("grid.nx = 20\ngrid.nx = 21", "duplicate key 'grid.nx'"),
        ("grid.nx = twenty", "grid.nx"),
        ("mse.grid_sizes = 10, x", "mse.grid_sizes"),
    ],
)
def test_malformed_lines_are_config_errors(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


# The public key names, in serialization order. A renamed field shows up
# here as a changed key.
CONFIG_KEYS = [
    "field.kind", "field.strength_kmh", "field.size_km", "field.csv_path", "field.width_km",
    "field.height_km", "noise.sigma_kmh", "grid.nx", "grid.ny", "grid.cell_km", "grid.origin_x_km",
    "grid.origin_y_km", "grid.obstacles", "goal.i", "goal.j", "start.x_km", "start.y_km",
    "vehicle.v_max_kmh", "mdp.dt_h", "mdp.gamma", "fem.k", "fem.moment_convention",
    "api.max_iterations", "api.init_policy", "sim.trials", "sim.budget_h", "sim.dt_h",
    "sim.goal_radius_km", "sim.noise_resample", "sim.noise_scaling", "sim.seed",
    "sweep.strengths", "mse.grid_sizes", "output.raster_n",
]  # fmt: skip


def test_config_keys_are_the_field_names_with_a_dot():
    assert list(_KEYS) == CONFIG_KEYS
    assert [attr for attr, _ in _KEYS.values()] == [f.name for f in fields(ExperimentConfig)]
    assert [line.split(" = ")[0] for line in serialize_config(ExperimentConfig()).splitlines()] == CONFIG_KEYS


def test_every_field_annotation_has_a_parser():
    # A field of any other type (a bool, say) must fail here, not at parse time.
    assert {f.type for f in fields(ExperimentConfig)} <= set(_PARSERS)
    assert set(_PARSERS) == {"int", "float", "str", "tuple[int, ...]", "tuple[float, ...]"}
