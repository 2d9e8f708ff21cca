"""Experiment configuration: flat dotted-key text files and model builders.

One config file drives every command. The format is line-oriented
``section.key = value`` with ``#`` comments; values are decimal numbers,
bare strings, or comma-separated lists. Loading, serializing, and reloading
a config yields an identical value, which keeps sweep runs reproducible.

The schema is :class:`ExperimentConfig` itself: each field's key is its name
with the first underscore read as a dot (``grid_origin_x_km`` is
``grid.origin_x_km``), its annotation picks the parser, and the field order
is the order of the serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .flowfield import (
    FlowField,
    GyreParams,
    NoiseParams,
    Point2,
    gyre_field,
    load_grid_field,
)
from .mdp import MdpModel, StateSpace, build_model


# Smallest grid side the mse command solves; it meshes every size with k = 1
# and with k = 2.
MSE_MIN_GRID = 4


@dataclass(frozen=True)
class ExperimentConfig:
    field_kind: str = "gyre"
    field_strength_kmh: float = 0.5
    field_size_km: float = 20.0
    field_csv_path: str = ""
    field_width_km: float = 40.0
    field_height_km: float = 40.0
    noise_sigma_kmh: float = 1.0
    grid_nx: int = 20
    grid_ny: int = 20
    grid_cell_km: float = 2.0
    grid_origin_x_km: float = 1.0
    grid_origin_y_km: float = 1.0
    grid_obstacles: tuple[int, ...] = ()  # flat (i, j) pairs
    goal_i: int = 17
    goal_j: int = 17
    start_x_km: float = 1.0
    start_y_km: float = 1.0
    vehicle_v_max_kmh: float = 3.0
    mdp_dt_h: float = 1.0
    mdp_gamma: float = 0.95
    fem_k: int = 1
    fem_moment_convention: str = "displacement"
    api_max_iterations: int = 50
    api_init_policy: str = "goal-aimed"
    sim_trials: int = 10
    sim_budget_h: float = 30.0
    sim_dt_h: float = 0.1
    sim_goal_radius_km: float = 1.0
    sim_noise_resample: str = "step"
    sim_noise_scaling: str = "plain"
    sim_seed: int = 1234
    sweep_strengths: tuple[float, ...] = ()
    mse_grid_sizes: tuple[int, ...] = ()
    output_raster_n: int = 41


def _tuple_of(parse):
    return lambda raw: tuple(parse(piece.strip()) for piece in raw.split(",") if piece.strip())


# Field annotation -> parser of the value text.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": _tuple_of(int),
    "tuple[float, ...]": _tuple_of(float),
}

# key -> (attribute, annotation), in field order.
_KEYS: dict[str, tuple[str, str]] = {
    f.name.replace("_", ".", 1): (f.name, f.type) for f in fields(ExperimentConfig)
}


def parse_config(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, kind = _KEYS[key]
        if attr in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[attr] = _PARSERS[kind](raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
    cfg = ExperimentConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def _format_value(value) -> str:
    """The text of a value; ``str`` of a float is its shortest repr."""
    return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = [f"{key} = {_format_value(getattr(cfg, attr))}" for key, (attr, _) in _KEYS.items()]
    return "\n".join(lines) + "\n"


def obstacle_cells(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    pairs = cfg.grid_obstacles
    return [(pairs[k], pairs[k + 1]) for k in range(0, len(pairs), 2)]


def validate_config(cfg: ExperimentConfig) -> None:
    def fail(key: str, message: str):
        raise ConfigError(f"{key}: {message}")

    for key, (attr, kind) in _KEYS.items():
        values = getattr(cfg, attr)
        if kind == "float":
            values = (values,)
        if kind in ("float", "tuple[float, ...]") and not all(map(math.isfinite, values)):
            fail(key, "must be finite")
    if cfg.field_kind not in ("gyre", "csv"):
        fail("field.kind", f"must be 'gyre' or 'csv' (got {cfg.field_kind!r})")
    if cfg.field_kind == "csv" and not cfg.field_csv_path:
        fail("field.csv_path", "required when field.kind = csv")
    if cfg.field_kind == "gyre" and cfg.field_size_km <= 0:
        fail("field.size_km", "must be positive")
    if cfg.field_width_km <= 0 or cfg.field_height_km <= 0:
        fail("field.width_km", "domain extent must be positive")
    if cfg.noise_sigma_kmh < 0:
        fail("noise.sigma_kmh", "must be non-negative")
    if cfg.grid_nx < 2 or cfg.grid_ny < 2:
        fail("grid.nx", "grid must be at least 2x2")
    if cfg.grid_cell_km <= 0:
        fail("grid.cell_km", "must be positive")
    if len(cfg.grid_obstacles) % 2 != 0:
        fail("grid.obstacles", "must hold (i, j) pairs, got an odd count")
    for i, j in obstacle_cells(cfg):
        if not (0 <= i < cfg.grid_nx and 0 <= j < cfg.grid_ny):
            fail("grid.obstacles", f"cell ({i}, {j}) outside the grid")
    if not (0 <= cfg.goal_i < cfg.grid_nx and 0 <= cfg.goal_j < cfg.grid_ny):
        fail("goal.i", "goal cell outside the grid")
    if (cfg.goal_i, cfg.goal_j) in obstacle_cells(cfg):
        fail("goal.i", "goal cell cannot be an obstacle")
    if cfg.vehicle_v_max_kmh <= 0:
        fail("vehicle.v_max_kmh", "must be positive")
    if cfg.mdp_dt_h <= 0:
        fail("mdp.dt_h", "must be positive")
    if not 0.0 <= cfg.mdp_gamma < 1.0:
        fail("mdp.gamma", "must lie in [0, 1)")
    if cfg.fem_k not in (1, 2):
        fail("fem.k", f"must be 1 or 2 (got {cfg.fem_k})")
    if cfg.fem_k == 2 and (cfg.grid_nx < 3 or cfg.grid_ny < 3):
        fail("fem.k", "k = 2 needs a grid of at least 3x3 states")
    if cfg.fem_moment_convention not in ("displacement", "paper-literal"):
        fail("fem.moment_convention", f"unknown convention {cfg.fem_moment_convention!r}")
    if cfg.api_max_iterations < 1:
        fail("api.max_iterations", "must be at least 1")
    if cfg.api_init_policy not in ("goal-aimed", "uniform-n"):
        fail("api.init_policy", f"unknown initial policy {cfg.api_init_policy!r}")
    if cfg.sim_trials < 1:
        fail("sim.trials", "must be at least 1")
    if cfg.sim_budget_h <= 0 or cfg.sim_dt_h <= 0:
        fail("sim.budget_h", "budget and step must be positive")
    if cfg.sim_goal_radius_km <= 0:
        fail("sim.goal_radius_km", "must be positive")
    if cfg.sim_noise_resample not in ("step", "trial"):
        fail("sim.noise_resample", f"must be 'step' or 'trial' (got {cfg.sim_noise_resample!r})")
    if cfg.sim_noise_scaling not in ("plain", "sqrt-dt"):
        fail("sim.noise_scaling", f"must be 'plain' or 'sqrt-dt' (got {cfg.sim_noise_scaling!r})")
    if cfg.output_raster_n < 2:
        fail("output.raster_n", "must be at least 2")
    for n in cfg.mse_grid_sizes:
        if n < MSE_MIN_GRID:
            fail("mse.grid_sizes", f"grid size {n} too small")
    # Grid must sit inside the field domain so every state center is queryable.
    max_x = cfg.grid_origin_x_km + (cfg.grid_nx - 1) * cfg.grid_cell_km
    max_y = cfg.grid_origin_y_km + (cfg.grid_ny - 1) * cfg.grid_cell_km
    if cfg.field_kind == "gyre" and (max_x > cfg.field_width_km + 1e-9 or max_y > cfg.field_height_km + 1e-9):
        fail("grid.nx", "state grid extends beyond the field domain")
    # A gyre's domain is [0, width] x [0, height]; a CSV field's is known only
    # once loaded, so build_mdp checks the start there.
    if cfg.field_kind == "gyre":
        for key, value, extent in (
            ("start.x_km", cfg.start_x_km, cfg.field_width_km),
            ("start.y_km", cfg.start_y_km, cfg.field_height_km),
        ):
            if not -1e-9 <= value <= extent + 1e-9:
                fail(key, "start lies outside the field domain")


def build_field(cfg: ExperimentConfig, base_dir: str | Path = ".") -> FlowField:
    noise = NoiseParams.isotropic(cfg.noise_sigma_kmh)
    if cfg.field_kind == "gyre":
        params = GyreParams(cfg.field_strength_kmh, cfg.field_size_km)
        return gyre_field(params, noise, (cfg.field_width_km, cfg.field_height_km))
    path = Path(cfg.field_csv_path)
    if not path.is_absolute():
        path = Path(base_dir) / path
    return load_grid_field(path, noise)


def build_states(cfg: ExperimentConfig) -> StateSpace:
    return StateSpace.regular(
        cfg.grid_nx,
        cfg.grid_ny,
        cfg.grid_cell_km,
        (cfg.goal_i, cfg.goal_j),
        origin=Point2(cfg.grid_origin_x_km, cfg.grid_origin_y_km),
        obstacle_cells=obstacle_cells(cfg),
    )


def build_mdp(cfg: ExperimentConfig, field: FlowField | None = None, base_dir: str | Path = ".") -> MdpModel:
    """The grid MDP of a config; ConfigError when a state centre or the start
    lies outside the field's domain (a CSV lattice too small, or a grid
    origin outside)."""
    if field is None:
        field = build_field(cfg, base_dir)
    if not field.contains(Point2(cfg.start_x_km, cfg.start_y_km)):
        raise ConfigError("start: the start lies outside the field domain")
    states = build_states(cfg)
    centres = states.positions()  # FlowField.contains at every centre, 1e-9 km tolerance too
    lo, hi = np.subtract(field.origin, 1e-9), np.add(field.origin, field.extent) + 1e-9
    outside = np.flatnonzero(~((lo <= centres) & (centres <= hi)).all(axis=1))
    if len(outside):
        i, j = states.coords(int(outside[0]))
        raise ConfigError(f"grid: state ({i}, {j}) lies outside the field domain")
    return build_model(field, states, cfg.mdp_dt_h, cfg.vehicle_v_max_kmh, cfg.mdp_gamma)
