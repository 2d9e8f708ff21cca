"""Experiment configuration: flat dotted-key text files and model builders.

One config file drives every command. The format is line-oriented
``section.key = value`` with ``#`` comments; values are decimal numbers,
bare strings, or comma-separated lists.

The schema is :class:`ExperimentConfig` itself: each field's key is its name
with the first underscore read as a dot (``grid_origin_x_km`` is
``grid.origin_x_km``), and its annotation picks the parser.
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
    api_max_iterations: int = 50
    sim_trials: int = 10
    sim_budget_h: float = 30.0
    sim_dt_h: float = 0.1
    sim_goal_radius_km: float = 1.0
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def obstacle_cells(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    pairs = cfg.grid_obstacles
    return [(pairs[k], pairs[k + 1]) for k in range(0, len(pairs), 2)]


def strength_tag(strength: float) -> str:
    """The file-name tag of a current strength in a sweep: ``A`` and its
    ``:g`` text, with the decimal point spelled ``p``."""
    return f"A{strength:g}".replace(".", "p")


def validate_config(cfg: ExperimentConfig) -> None:
    """ConfigError, naming the key, for what the config text alone decides;
    ``build_mdp`` checks the grid and the start against the built field."""
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
    if cfg.field_width_km <= 0:
        fail("field.width_km", "domain extent must be positive")
    if cfg.field_height_km <= 0:
        fail("field.height_km", "domain extent must be positive")
    if cfg.noise_sigma_kmh < 0:
        fail("noise.sigma_kmh", "must be non-negative")
    if cfg.grid_nx < 2:
        fail("grid.nx", "grid must be at least 2x2")
    if cfg.grid_ny < 2:
        fail("grid.ny", "grid must be at least 2x2")
    if cfg.grid_cell_km <= 0:
        fail("grid.cell_km", "must be positive")
    if len(cfg.grid_obstacles) % 2 != 0:
        fail("grid.obstacles", "must hold (i, j) pairs, got an odd count")
    for i, j in obstacle_cells(cfg):
        if not (0 <= i < cfg.grid_nx and 0 <= j < cfg.grid_ny):
            fail("grid.obstacles", f"cell ({i}, {j}) outside the grid")
    if not 0 <= cfg.goal_i < cfg.grid_nx:
        fail("goal.i", "goal cell outside the grid")
    if not 0 <= cfg.goal_j < cfg.grid_ny:
        fail("goal.j", "goal cell outside the grid")
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
    if cfg.api_max_iterations < 1:
        fail("api.max_iterations", "must be at least 1")
    if cfg.sim_trials < 1:
        fail("sim.trials", "must be at least 1")
    if cfg.sim_budget_h <= 0:
        fail("sim.budget_h", "must be positive")
    if cfg.sim_dt_h <= 0:
        fail("sim.dt_h", "must be positive")
    if cfg.sim_goal_radius_km <= 0:
        fail("sim.goal_radius_km", "must be positive")
    if cfg.sim_seed < 0:
        fail("sim.seed", "must be non-negative")
    if cfg.output_raster_n < 2:
        fail("output.raster_n", "must be at least 2")
    for n in cfg.mse_grid_sizes:
        if n < MSE_MIN_GRID:
            fail("mse.grid_sizes", f"grid size {n} too small")
    tagged: dict[str, float] = {}
    for strength in cfg.sweep_strengths:  # each strength writes files named by its tag
        tag = strength_tag(strength)
        if tag in tagged:
            fail("sweep.strengths", f"{tagged[tag]!r} and {strength!r} share the file tag {tag}")
        tagged[tag] = strength
    if cfg.field_kind == "csv" and len(cfg.sweep_strengths) > 1:
        fail("sweep.strengths", "a csv field ignores field.strength_kmh, so it takes at most one strength")


def build_field(cfg: ExperimentConfig, base_dir: str | Path = ".") -> FlowField:
    noise = NoiseParams.isotropic(cfg.noise_sigma_kmh)
    if cfg.field_kind == "gyre":
        params = GyreParams(cfg.field_strength_kmh, cfg.field_size_km)
        return gyre_field(params, noise, (cfg.field_width_km, cfg.field_height_km))
    path = Path(cfg.field_csv_path)
    if not path.is_absolute():
        path = Path(base_dir) / path
    try:
        return load_grid_field(path, noise)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"field.csv_path: cannot read {path}: {exc}") from exc


def require_in_domain(field: FlowField, checks: list[tuple[str, int, float, str]]) -> None:
    """ConfigError ``key: message`` for the first (key, axis, value, message)
    whose value lies outside the field's domain on that axis. One
    ``FlowField.contains`` call tests all, each at the field's origin on its other axis."""
    points = np.tile(np.array(field.origin, dtype=float), (len(checks), 1))
    points[np.arange(len(checks)), [c[1] for c in checks]] = [c[2] for c in checks]
    outside = np.flatnonzero(~field.contains(points))
    if len(outside):
        key, _, _, message = checks[outside[0]]
        raise ConfigError(f"{key}: {message}")


def build_mdp(cfg: ExperimentConfig, field: FlowField | None = None, base_dir: str | Path = ".") -> MdpModel:
    """The grid MDP of a config; on a gyre or a CSV field alike, ConfigError
    naming the first of grid.origin_x_km (lower corner), grid.nx (last centre),
    grid.origin_y_km, grid.ny, start.x_km and start.y_km outside the domain."""
    if field is None:
        field = build_field(cfg, base_dir)
    x0, y0, cell = cfg.grid_origin_x_km, cfg.grid_origin_y_km, cfg.grid_cell_km
    corner = "the grid's lower corner lies outside the field domain"
    beyond = "state grid extends beyond the field domain"
    start = "start lies outside the field domain"
    require_in_domain(
        field,
        [
            ("grid.origin_x_km", 0, x0, corner),
            ("grid.nx", 0, x0 + (cfg.grid_nx - 1) * cell, beyond),  # the last centre, as StateSpace.positions
            ("grid.origin_y_km", 1, y0, corner),
            ("grid.ny", 1, y0 + (cfg.grid_ny - 1) * cell, beyond),
            ("start.x_km", 0, cfg.start_x_km, start),
            ("start.y_km", 1, cfg.start_y_km, start),
        ],
    )
    states = StateSpace.regular(
        cfg.grid_nx, cfg.grid_ny, cell, (cfg.goal_i, cfg.goal_j), Point2(x0, y0), obstacle_cells(cfg)
    )
    return build_model(field, states, cfg.mdp_dt_h, cfg.vehicle_v_max_kmh, cfg.mdp_gamma)
