"""Batch front-end: solve, simulate, and approximation-error commands.

Every command is driven by one config file and emits data artifacts only
(CSV tables, line-delimited JSON diagnostics); plotting is left to external
tools. Flags select the command, override the master seed, and choose the
output directory. Exit codes: 0 success, 2 config error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import fem, mdp, moments, simulator
from .config import (
    MSE_MIN_GRID,
    ExperimentConfig,
    build_field,
    build_mdp,
    build_states,
    load_config,
)
from .errors import (
    ConfigError,
    DomainError,
    FieldFormatError,
    IterationLimitError,
    MeshError,
    NumericalError,
)
from .flowfield import Point2, write_table
from .policy_iter import ApiConfig, approximate_policy_iteration, value_mse


def _api_config(cfg: ExperimentConfig, k: int | None = None) -> ApiConfig:
    return ApiConfig(
        k=cfg.fem_k if k is None else k,
        max_iterations=cfg.api_max_iterations,
        convention=cfg.fem_moment_convention,  # type: ignore[arg-type]
        init_policy=cfg.api_init_policy,
    )


def _solve_both(cfg: ExperimentConfig, base_dir: Path):
    model = build_mdp(cfg, base_dir=base_dir)
    pi_res = mdp.classic_policy_iteration(model)
    api_res = approximate_policy_iteration(model, _api_config(cfg))
    return model, pi_res, api_res


def cmd_solve(cfg: ExperimentConfig, out: Path, base_dir: Path) -> int:
    model, pi_res, api_res = _solve_both(cfg, base_dir)
    states = model.states
    mdp.write_value_csv(out / "values_pi.csv", states, pi_res.values)
    mdp.write_policy_csv(out / "policy_pi.csv", pi_res.policy)
    mdp.write_policy_csv(out / "policy_api.csv", api_res.policy)
    mesh = api_res.value.mesh
    fem.write_mesh_csv(out / "mesh_nodes.csv", out / "mesh_triangles.csv", mesh)
    field = model.field
    bounds = (
        field.origin.x,
        field.origin.x + field.extent[0],
        field.origin.y,
        field.origin.y + field.extent[1],
    )
    fem.write_raster_csv(out / "value_raster.csv", api_res.value, bounds, cfg.output_raster_n)
    coeffs = moments.assemble_coefficients(
        model, api_res.policy, mesh.node_state, mesh.goal_node, cfg.fem_moment_convention
    )
    moments.write_coefficients_csv(out / "coefficients.csv", mesh.nodes, coeffs)
    with open(out / "diagnostics.jsonl", "w") as fh:
        for record in api_res.diagnostics:
            fh.write(json.dumps(record) + "\n")
    peclet = float(fem.element_peclet(mesh, coeffs).max())
    print(f"classic policy iteration: {pi_res.iterations} iterations")
    print(
        f"approximate policy iteration (k={cfg.fem_k}): {api_res.iterations} iterations, "
        f"converged={api_res.converged}, max element peclet {peclet:.2f}"
    )
    return 0


def _planners(cfg: ExperimentConfig, model, pi_res, api_res):
    goal = model.states.position(model.states.goal)
    return {
        "classic-pi": simulator.DiscretePlanner(pi_res.policy, model.states, model.actions),
        f"api-k{cfg.fem_k}": simulator.ContinuousPlanner(
            model, api_res.value, cfg.fem_moment_convention
        ),
        "goal-oriented": simulator.GoalOrientedPlanner(goal, cfg.vehicle_v_max_kmh),
    }


def cmd_simulate(cfg: ExperimentConfig, out: Path, base_dir: Path) -> int:
    strengths = cfg.sweep_strengths or (cfg.field_strength_kmh,)
    opts = simulator.SimOptions(
        dt_h=cfg.sim_dt_h,
        goal_radius_km=cfg.sim_goal_radius_km,
        budget_h=cfg.sim_budget_h,
        noise_resample=cfg.sim_noise_resample,
        noise_scaling=cfg.sim_noise_scaling,
    )
    start = Point2(cfg.start_x_km, cfg.start_y_km)
    rows = []
    for strength in strengths:
        cfg_a = replace(cfg, field_strength_kmh=float(strength))
        model, pi_res, api_res = _solve_both(cfg_a, base_dir)
        goal = model.states.position(model.states.goal)
        planners = _planners(cfg_a, model, pi_res, api_res)
        stats, trajectories = simulator.run_experiment(
            model.field,
            planners,
            start,
            goal,
            opts,
            cfg.sim_trials,
            cfg.sim_seed,
            states=model.states,
            requery_dt_h=cfg.mdp_dt_h,
        )
        for name in planners:
            rows.append((name, float(strength), cfg.noise_sigma_kmh, stats[name]))
            tag = f"{name}_A{strength:g}".replace(".", "p")
            simulator.write_trajectories_csv(out / f"trajectories_{tag}.csv", trajectories[name])
            st = stats[name]
            ends = Counter(run.end_reason for run in trajectories[name])
            print(
                f"A={strength:g} {name}: reached {st.reached}/{st.trials}, "
                f"time {st.mean_time_h:.2f} h, length {st.mean_length_km:.2f} km, ends "
                + ", ".join(f"{reason} {ends[reason]}" for reason in simulator.END_REASONS)
            )
    simulator.write_stats_csv(out / "stats.csv", rows)
    return 0


def cmd_mse(cfg: ExperimentConfig, out: Path, base_dir: Path) -> int:
    sizes = cfg.mse_grid_sizes or (cfg.grid_nx,)
    if not cfg.mse_grid_sizes and cfg.grid_nx < MSE_MIN_GRID:  # validate_config checks the listed sizes
        raise ConfigError(f"grid.nx: grid size {cfg.grid_nx} too small for mse (set mse.grid_sizes)")
    goal_x = cfg.grid_origin_x_km + cfg.goal_i * cfg.grid_cell_km
    goal_y = cfg.grid_origin_y_km + cfg.goal_j * cfg.grid_cell_km
    for key, value, extent in (
        ("goal.i", goal_x, cfg.field_width_km),
        ("goal.j", goal_y, cfg.field_height_km),
    ):
        if not -1e-9 <= value <= extent + 1e-9:
            raise ConfigError(f"{key}: the goal centre lies outside the field domain")
    records = []
    for n in sizes:
        cell = cfg.field_width_km / n
        cfg_n = replace(
            cfg,
            grid_nx=int(n),
            grid_ny=int(n),
            grid_cell_km=cell,
            grid_origin_x_km=cell / 2,
            grid_origin_y_km=cell / 2,
            grid_obstacles=(),
            goal_i=min(int(round((goal_x - cell / 2) / cell)), int(n) - 1),
            goal_j=min(int(round((goal_y - cell / 2) / cell)), int(n) - 1),
        )
        model = build_mdp(cfg_n, base_dir=base_dir)
        pi_res = mdp.classic_policy_iteration(model)
        max_abs = float(np.max(np.abs(pi_res.values)))
        for k in (1, 2):
            api_res = approximate_policy_iteration(model, _api_config(cfg_n, k=k))
            err = value_mse(api_res.value, pi_res.values, model.states)
            records.append((int(n), k, err, max_abs))
            print(f"grid {n}x{n} k={k}: mse {err:.3e}, max |value| {max_abs:.3f}")
    write_table(out / "mse.csv", ["grid_n", "k", "mse", "max_abs_value"], records)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowplan", description="Flow-field planning experiments (data-only output)."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run both solvers and write policies, values, mesh, and diagnostics"),
        ("simulate", "run trajectory trials for all planners and write stats"),
        ("mse", "compare the continuous value against the exact table over grid sizes"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the experiment config")
        cmd.add_argument("--seed", type=int, default=None, help="override sim.seed")
        cmd.add_argument("--out", default="out", help="output directory (created if missing)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, sim_seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        base_dir = Path(args.config).resolve().parent
        if args.command == "solve":
            return cmd_solve(cfg, out, base_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, base_dir)
        return cmd_mse(cfg, out, base_dir)
    except (ConfigError, FieldFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, IterationLimitError, MeshError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
