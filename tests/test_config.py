from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplan.config import (
    _KEYS,
    _PARSERS,
    ExperimentConfig,
    build_field,
    build_mdp,
    parse_config,
    strength_tag,
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
        api_max_iterations=draw(st.integers(1, 500)),
        sim_trials=draw(st.integers(1, 1000)),
        sim_budget_h=draw(positive),
        sim_dt_h=draw(positive),
        sim_goal_radius_km=draw(positive),
        sim_seed=draw(st.integers(0, 2**63 - 1)),
        # A csv field has no strength to sweep.
        sweep_strengths=tuple(draw(st.lists(finite, max_size=4 if kind == "gyre" else 1, unique_by=strength_tag))),
        mse_grid_sizes=tuple(draw(st.lists(st.integers(4, 200), max_size=4))),
        output_raster_n=draw(st.integers(2, 400)),
    )


def _format_value(value) -> str:
    """The text of a value; ``str`` of a float is its shortest repr."""
    return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """The config as the text ``parse_config`` reads, one key per line in
    field order: the reference of the round trip."""
    lines = [f"{key} = {_format_value(getattr(cfg, attr))}" for key, (attr, _) in _KEYS.items()]
    return "\n".join(lines) + "\n"


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
        ("field.width_km", {"field_width_km": -1.0}),
        ("noise.sigma_kmh", {"noise_sigma_kmh": -0.1}),
        ("grid.nx", {"grid_nx": 0}),
        ("grid.cell_km", {"grid_cell_km": 0.0}),
        ("grid.obstacles", {"grid_obstacles": (1, 2, 3)}),
        ("grid.obstacles", {"grid_obstacles": (20, 0)}),
        ("goal.j", {"goal_j": 20}),
        ("goal.i", {"grid_obstacles": (17, 17)}),
        ("vehicle.v_max_kmh", {"vehicle_v_max_kmh": 0.0}),
        ("mdp.dt_h", {"mdp_dt_h": -1.0}),
        ("mdp.gamma", {"mdp_gamma": 1.0}),
        ("fem.k", {"fem_k": 3}),
        ("fem.k", {"fem_k": 2, "grid_nx": 2, "goal_i": 1}),
        ("fem.k", {"fem_k": 2, "grid_ny": 2, "goal_j": 1}),
        ("api.max_iterations", {"api_max_iterations": 0}),
        ("sim.budget_h", {"sim_budget_h": 0.0}),
        ("sim.trials", {"sim_trials": 0}),
        ("sim.dt_h", {"sim_dt_h": 0.0}),
        ("sim.goal_radius_km", {"sim_goal_radius_km": 0.0}),
        ("field.width_km", {"field_width_km": 0.0}),
        ("grid.nx", {"grid_nx": 1}),
        ("output.raster_n", {"output_raster_n": 1}),
        ("mse.grid_sizes", {"mse_grid_sizes": (10, 3)}),
        ("goal.i", {"goal_i": 20}),
        ("grid.obstacles", {"grid_obstacles": (-1, 0)}),
        ("sweep.strengths", {"sweep_strengths": (0.5, 0.5000001)}),
        ("sim.dt_h", {"sim_dt_h": float("nan")}),
        ("sim.budget_h", {"sim_budget_h": float("inf")}),
        ("noise.sigma_kmh", {"noise_sigma_kmh": float("nan")}),
        ("vehicle.v_max_kmh", {"vehicle_v_max_kmh": float("inf")}),
        ("field.strength_kmh", {"field_strength_kmh": float("-inf")}),
        ("sweep.strengths", {"sweep_strengths": (0.5, float("nan"))}),
        ("field.height_km", {"field_height_km": -1.0}),
        ("grid.ny", {"grid_ny": 1}),
        ("field.height_km", {"field_height_km": 0.0}),
        ("sweep.strengths", {"field_kind": "csv", "field_csv_path": "f.csv", "sweep_strengths": (0.25, 0.5)}),
        ("sim.seed", {"sim_seed": -1}),
    ],
)
def test_each_validation_branch_names_its_key(key, change):
    validate_config(ExperimentConfig())
    with pytest.raises(ConfigError, match=rf"^{key}: "):
        validate_config(replace(ExperimentConfig(), **change))


def _default_square_field(kind, tmp_path):
    """The default config's 40 km square domain, as its gyre or as a still CSV
    lattice of 4 km cells."""
    if kind == "gyre":
        return build_field(ExperimentConfig())
    rows = ["x_km,y_km,vx_kmh,vy_kmh"] + [f"{4 * i}.0,{4 * j}.0,0.0,0.0" for j in range(11) for i in range(11)]
    (tmp_path / "field.csv").write_text("\n".join(rows) + "\n")
    return build_field(replace(ExperimentConfig(), field_kind="csv", field_csv_path="field.csv"), tmp_path)


@pytest.mark.parametrize("kind", ["gyre", "csv"])
def test_build_mdp_accepts_the_default_grid_on_either_field(kind, tmp_path):
    field = _default_square_field(kind, tmp_path)
    assert field.origin == (0.0, 0.0) and field.extent == (40.0, 40.0)
    assert build_mdp(ExperimentConfig(), field=field).n_states == 400


@pytest.mark.parametrize("kind", ["gyre", "csv"])
@pytest.mark.parametrize(
    "key, change",
    [
        ("grid.origin_x_km", {"grid_origin_x_km": -1.0}),
        ("grid.nx", {"grid_nx": 21}),
        ("grid.origin_y_km", {"grid_origin_y_km": 40.5}),
        ("grid.ny", {"grid_ny": 21}),
        ("start.x_km", {"start_x_km": 40.5}),
        ("start.y_km", {"start_y_km": -0.5}),
        # With two faults the first in key order is named: x before y, and
        # the grid before the start.
        ("grid.nx", {"grid_nx": 21, "grid_origin_y_km": -1.0}),
        ("grid.ny", {"grid_ny": 21, "start_x_km": 40.5}),
    ],
)
def test_build_mdp_names_the_same_key_for_a_domain_fault_on_either_field(kind, key, change, tmp_path):
    cfg = replace(ExperimentConfig(), **change)
    validate_config(cfg)  # the config text alone is valid
    with pytest.raises(ConfigError, match=rf"^{key}: "):
        build_mdp(cfg, field=_default_square_field(kind, tmp_path))


@pytest.mark.parametrize(
    "text, message",
    [
        ("grid.nx 20", "expected 'key = value'"),
        ("grid.depth = 3", "unknown key 'grid.depth'"),
        ("grid.nx = 20\ngrid.nx = 21", "duplicate key 'grid.nx'"),
        ("grid.nx = twenty", "grid.nx"),
        ("mse.grid_sizes = 10, x", "mse.grid_sizes"),
        ("sim.seed = -3", "^sim.seed: must be non-negative$"),
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
    "vehicle.v_max_kmh", "mdp.dt_h", "mdp.gamma", "fem.k", "api.max_iterations", "sim.trials",
    "sim.budget_h", "sim.dt_h", "sim.goal_radius_km", "sim.seed", "sweep.strengths", "mse.grid_sizes",
    "output.raster_n",
]  # fmt: skip


def test_config_keys_are_the_field_names_with_a_dot():
    assert list(_KEYS) == CONFIG_KEYS
    assert [attr for attr, _ in _KEYS.values()] == [f.name for f in fields(ExperimentConfig)]
    assert [line.split(" = ")[0] for line in serialize_config(ExperimentConfig()).splitlines()] == CONFIG_KEYS


def test_every_field_annotation_has_a_parser():
    # A field of any other type (a bool, say) must fail here, not at parse time.
    assert {f.type for f in fields(ExperimentConfig)} <= set(_PARSERS)
    assert set(_PARSERS) == {"int", "float", "str", "tuple[int, ...]", "tuple[float, ...]"}
