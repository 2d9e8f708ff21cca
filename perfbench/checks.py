"""Output checks and quality figures computed from the CLI's artifacts.

Each check returns a list of problems (empty when the artifacts are right);
the runner counts an operation as failed when its list is not empty and
carries on. Nothing here runs inside a timed region.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flowplan import mdp
from flowplan.errors import NumericalError
from flowplan.flowfield import Point2

REGRET_FLOOR = -1e-9
PLANNERS_PER_STRENGTH = 3


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def hash_dir(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _expect_table(problems: list[str], path: Path, header: list[str], n_rows: int | None):
    if not path.is_file():
        problems.append(f"{path.name}: missing")
        return []
    got_header, rows = read_csv(path)
    if got_header != header:
        problems.append(f"{path.name}: header {got_header} != {header}")
    if n_rows is not None and len(rows) != n_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {n_rows}")
    return rows


def _finite(problems: list[str], name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        problems.append(f"{name}: non-finite values")


def non_terminal(states: mdp.StateSpace) -> np.ndarray:
    keep = ~states.obstacles
    keep[states.goal] = False
    return keep


def regret(model: mdp.MdpModel, pi_values: np.ndarray, policy: np.ndarray) -> np.ndarray:
    """V_PI - V_policy over non-terminal states, by exact evaluation."""
    values = mdp.policy_evaluation_exact(model, policy)
    keep = non_terminal(model.states)
    return pi_values[keep] - values[keep]


def check_regret(problems: list[str], gap: np.ndarray) -> None:
    if not np.all(np.isfinite(gap)):
        problems.append("regret: non-finite")
    elif gap.min() < REGRET_FLOOR:
        problems.append(f"regret: {gap.min():.3e} below {REGRET_FLOOR}")


@dataclass
class SolveOutput:
    api_policy: np.ndarray
    diagnostics: list[dict]


def check_solve(out: Path, cfg, model, mesh, pi) -> tuple[list[str], SolveOutput | None]:
    """Headers, row counts and values of every ``solve`` artifact.

    ``pi`` is the benchmark's own classic policy iteration on the same model;
    the written PI values must match it and pass the exact-evaluation
    residual gate."""
    problems: list[str] = []
    n = model.n_states
    n_actions = model.n_actions
    values_rows = _expect_table(problems, out / "values_pi.csv",
                                ["state_id", "i", "j", "x_km", "y_km", "value"], n)
    policies = {}
    for name in ("policy_pi.csv", "policy_api.csv"):
        rows = _expect_table(problems, out / name, ["state_id", "action"], n)
        pol = np.array([int(r[1]) for r in rows], dtype=np.int64)
        if len(pol) == n and not (np.all(pol >= 0) and np.all(pol < n_actions)):
            problems.append(f"{name}: action out of range")
        policies[name] = pol
    _expect_table(problems, out / "mesh_nodes.csv", ["node_id", "state_id", "x_km", "y_km"], mesh.n_nodes)
    _expect_table(problems, out / "mesh_triangles.csv", ["tri_id", "n0", "n1", "n2"], len(mesh.triangles))
    raster = _expect_table(problems, out / "value_raster.csv", ["x_km", "y_km", "value"],
                           cfg.output_raster_n**2)
    _finite(problems, "value_raster.csv", np.array([float(r[2]) for r in raster]))
    coeffs = _expect_table(problems, out / "coefficients.csv",
                           ["node_id", "x_km", "y_km", "mu_x", "mu_y", "sxx", "sxy", "syy", "source"],
                           mesh.n_nodes)
    _finite(problems, "coefficients.csv", np.array([[float(c) for c in r[3:]] for r in coeffs]))

    diagnostics: list[dict] = []
    diag_path = out / "diagnostics.jsonl"
    if diag_path.is_file():
        diagnostics = [json.loads(line) for line in diag_path.read_text().splitlines() if line]
    if not diagnostics:
        problems.append("diagnostics.jsonl: missing or empty")
    elif diagnostics[-1].get("policy_changes") != 0:
        problems.append("diagnostics.jsonl: last record has policy_changes != 0 (API did not converge)")

    if len(values_rows) == n and len(policies.get("policy_pi.csv", ())) == n:
        written = np.array([float(r[5]) for r in values_rows])
        try:
            exact = mdp.policy_evaluation_exact(model, policies["policy_pi.csv"])
        except NumericalError as exc:
            problems.append(f"values_pi.csv: {exc}")
        else:
            scale = max(1.0, float(np.max(np.abs(exact))))
            if np.max(np.abs(exact - written)) > 1e-9 * scale:
                problems.append("values_pi.csv: does not match exact evaluation of policy_pi.csv")
            if np.max(np.abs(pi.values - written)) > 1e-9 * scale:
                problems.append("values_pi.csv: does not match classic policy iteration")
    if problems or len(policies["policy_api.csv"]) != n:
        return problems, None
    return problems, SolveOutput(policies["policy_api.csv"], diagnostics)


@dataclass
class SimSummary:
    steps: int
    trials: int
    api_reached: int
    api_trials: int
    api_time_cost_h: float
    collisions: int


def check_simulate(out: Path, cfg, model) -> tuple[list[str], SimSummary | None]:
    """``stats.csv`` has one row per planner x strength; every trajectory file
    holds each trial, finite and inside the domain. The API planner's reach
    count inferred from the trajectories must match ``stats.csv``."""
    problems: list[str] = []
    strengths = cfg.sweep_strengths or (cfg.field_strength_kmh,)
    stats = _expect_table(problems, out / "stats.csv",
                          ["planner", "A", "sigma", "mean_time_h", "std_time_h", "mean_len_km",
                           "std_len_km", "reached"], PLANNERS_PER_STRENGTH * len(strengths))
    states = model.states
    field = model.field
    lo = np.array([field.origin.x, field.origin.y]) - 1e-9
    hi = lo + np.array(field.extent) + 2e-9
    goal = np.array(states.position(states.goal))
    summary = SimSummary(0, 0, 0, 0, 0.0, 0)
    api_costs: list[float] = []
    for row in stats:
        planner, strength, reached = row[0], float(row[1]), int(row[7])
        tag = f"{planner}_A{strength:g}".replace(".", "p")
        rows = _expect_table(problems, out / f"trajectories_{tag}.csv",
                             ["trial", "t_h", "x_km", "y_km", "psi_rad"], None)
        if not rows:
            continue
        data = np.array([[float(c) for c in r] for r in rows])
        _finite(problems, f"trajectories_{tag}.csv", data)
        if np.any(data[:, 2:4] < lo) or np.any(data[:, 2:4] > hi):
            problems.append(f"trajectories_{tag}.csv: point outside the domain")
        trial_ids = data[:, 0].astype(int)
        if sorted(set(trial_ids.tolist())) != list(range(cfg.sim_trials)):
            problems.append(f"trajectories_{tag}.csv: trials {sorted(set(trial_ids.tolist()))}")
            continue
        summary.steps += len(data) - cfg.sim_trials
        summary.trials += cfg.sim_trials
        api_reached = 0
        for t in range(cfg.sim_trials):
            last = data[trial_ids == t][-1]
            hit = float(np.hypot(*(last[2:4] - goal))) <= cfg.sim_goal_radius_km
            if states.obstacles[states.state_at(Point2(last[2], last[3]))]:
                summary.collisions += 1
            if planner.startswith("api-"):
                api_reached += hit
                api_costs.append(last[1] if hit else cfg.sim_budget_h)
        if planner.startswith("api-"):
            if api_reached != reached:
                problems.append(f"stats.csv: {planner} reached {reached}, trajectories show {api_reached}")
            summary.api_reached += api_reached
            summary.api_trials += cfg.sim_trials
    if summary.api_trials == 0:
        problems.append("no API planner trajectories")
    if problems:
        return problems, None
    summary.api_time_cost_h = float(np.mean(api_costs))
    return problems, summary
