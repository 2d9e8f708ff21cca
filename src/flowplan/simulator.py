"""Vehicle trajectory simulation under noisy flow fields.

The vehicle integrates forward-Euler at a fine step: net velocity is the
freshly sampled disturbed current plus the commanded (heading, speed) pair.
Three planner kinds are supported: a discrete grid policy that is re-queried
on cell change or every action interval, a continuous planner that re-scores
the compass actions against a finite-element value function every step, and
a goal-oriented baseline that always heads straight for the goal at full
speed. Trials stop on entering the goal radius, on hitting an obstacle cell
(counted as a failure), or when the time budget runs out.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .flowfield import FlowField, Point2, field_velocity
from .mdp import Action, MdpModel, StateSpace
from .moments import Convention
from .policy_iter import _state_scores, best_action


@dataclass(frozen=True)
class SimOptions:
    """Integration and trial-accounting settings.

    ``noise_resample`` draws disturbance noise every step ("step") or once
    per trial ("trial"); ``noise_scaling`` optionally multiplies the drawn
    noise by sqrt(dt) for Brownian-style sensitivity runs ("sqrt-dt").
    """

    dt_h: float = 0.1
    goal_radius_km: float = 1.0
    budget_h: float = 30.0
    noise_resample: str = "step"
    noise_scaling: str = "plain"

    def __post_init__(self) -> None:
        if self.dt_h <= 0 or self.budget_h <= 0 or self.goal_radius_km <= 0:
            raise ValueError("dt, budget, and goal radius must be positive")
        if self.noise_resample not in ("step", "trial"):
            raise ValueError(f"unknown noise_resample {self.noise_resample!r}")
        if self.noise_scaling not in ("plain", "sqrt-dt"):
            raise ValueError(f"unknown noise_scaling {self.noise_scaling!r}")


def goal_oriented_action(p: Point2, goal: Point2, v_max: float) -> tuple[float, float]:
    """Head straight at the goal at full speed; zero command at the goal."""
    dx, dy = goal[0] - p[0], goal[1] - p[1]
    if dx == 0.0 and dy == 0.0:
        return 0.0, 0.0
    return math.atan2(dy, dx), v_max


class GoalOrientedPlanner:
    """Maximum-speed, goal-pointing baseline; re-queried every step."""

    requery_every_step = True

    def __init__(self, goal: Point2, v_max: float):
        self.goal = goal
        self.v_max = v_max

    def command(self, p: Point2) -> tuple[float, float]:
        return goal_oriented_action(p, self.goal, self.v_max)


class DiscretePlanner:
    """Tabular policy lookup on the containing grid cell.

    The goal state is absorbing, so its stored action is arbitrary; inside
    the goal cell the planner steers for the goal point instead (the cell is
    wider than the arrival radius, so some in-cell homing is required).
    """

    requery_every_step = False

    def __init__(self, policy: np.ndarray, states: StateSpace, actions: tuple[Action, ...]):
        self.policy = policy
        self.states = states
        self.actions = actions

    def command(self, p: Point2) -> tuple[float, float]:
        s = self.states.state_at(p)
        if s == self.states.goal:
            return goal_oriented_action(p, self.states.position(s), self.actions[0].speed)
        act = self.actions[int(self.policy[s])]
        return act.heading, act.speed


class ContinuousPlanner:
    """Re-scores the compass actions against a continuous value function.

    Uses the model's per-state transition moments at the containing cell but
    the value, gradient, and recovered curvature at the vehicle's actual
    position (projected onto the mesh cover when just outside it).
    """

    requery_every_step = True

    def __init__(
        self,
        model: MdpModel,
        value: fem.ContinuousValue,
        convention: Convention = "displacement",
    ):
        self.model = model
        self.value = value
        self.convention = convention

    def command(self, p: Point2) -> tuple[float, float]:
        s = self.model.states.state_at(p)
        if s == self.model.states.goal:
            return goal_oriented_action(
                p, self.model.states.position(s), self.model.actions[0].speed
            )
        v, grad, hess = self.value.expansion(np.array([p], dtype=float), clamp=True)
        scores = _state_scores(self.model, s, v[0], grad[0], hess[0], self.convention)
        act = self.model.actions[best_action(scores)]
        return act.heading, act.speed


def step(
    field: FlowField,
    p: Point2,
    command: tuple[float, float],
    dt_h: float,
    rng: np.random.Generator,
    disturbance: tuple[float, float] | None = None,
    noise_scaling: str = "plain",
) -> Point2:
    """One Euler step of the net motion, clamped to the domain.

    A fixed ``disturbance`` (vx, vy) replaces fresh noise sampling for
    per-trial noise mode; it is added to the noise-free current.
    """
    heading, speed = command
    if disturbance is None:
        scale = math.sqrt(dt_h) if noise_scaling == "sqrt-dt" else 1.0
        base = field_velocity(field, p)
        current = (
            base.vx + scale * rng.normal(0.0, field.noise.sigma_x),
            base.vy + scale * rng.normal(0.0, field.noise.sigma_y),
        )
    else:
        base = field_velocity(field, p)
        current = (base.vx + disturbance[0], base.vy + disturbance[1])
    nx = p[0] + (current[0] + speed * math.cos(heading)) * dt_h
    ny = p[1] + (current[1] + speed * math.sin(heading)) * dt_h
    return field.clamp(Point2(nx, ny))


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray  # hours, one per sample
    points: np.ndarray  # (n, 2) km
    headings: np.ndarray  # commanded heading per sample
    reached: bool
    time_cost: float  # hours; equals the budget when the goal was not reached
    length: float  # km, polyline length

    def __len__(self) -> int:
        return len(self.times)


def simulate_trial(
    field: FlowField,
    planner,
    start: Point2,
    goal: Point2,
    opts: SimOptions,
    rng: np.random.Generator,
    states: StateSpace | None = None,
    requery_dt_h: float = 1.0,
) -> Trajectory:
    """Run one trial until goal entry, obstacle hit, or budget exhaustion.

    Discrete planners are re-queried when the containing cell changes or
    ``requery_dt_h`` elapses, whichever comes first; other planners every
    step. A trial that ends without reaching the goal reports the full
    budget as its time cost.
    """
    p = Point2(*start)
    trial_noise: tuple[float, float] | None = None
    if opts.noise_resample == "trial":
        trial_noise = (
            rng.normal(0.0, field.noise.sigma_x),
            rng.normal(0.0, field.noise.sigma_y),
        )

    heading, speed = planner.command(p)
    times = [0.0]
    pts = [tuple(p)]
    headings = [heading]
    reached = math.dist(p, goal) <= opts.goal_radius_km
    time_cost = 0.0
    cell = states.state_at(p) if states is not None else None
    since_query = 0.0
    n_steps = int(opts.budget_h / opts.dt_h + 1e-9)  # stay within the budget

    if not reached:
        for k in range(1, n_steps + 1):
            p = step(
                field,
                p,
                (heading, speed),
                opts.dt_h,
                rng,
                disturbance=trial_noise,
                noise_scaling=opts.noise_scaling,
            )
            t = k * opts.dt_h
            since_query += opts.dt_h
            times.append(t)
            pts.append(tuple(p))
            headings.append(heading)
            if math.dist(p, goal) <= opts.goal_radius_km:
                reached = True
                time_cost = t
                break
            if states is not None:
                s = states.state_at(p)
                if states.obstacles[s]:
                    break  # collision ends the trial as a failure
                cell_changed = s != cell
                cell = s
            else:
                cell_changed = False
            if planner.requery_every_step or cell_changed or since_query >= requery_dt_h - 1e-12:
                heading, speed = planner.command(p)
                since_query = 0.0
            headings[-1] = heading

    if not reached:
        time_cost = opts.budget_h
    pts_arr = np.asarray(pts)
    seg = np.diff(pts_arr, axis=0)
    length = float(np.sqrt((seg**2).sum(axis=1)).sum())
    return Trajectory(np.asarray(times), pts_arr, np.asarray(headings), reached, time_cost, length)


@dataclass(frozen=True)
class TrialStats:
    """Aggregates over the reached trials of one planner (n-1 normalization)."""

    mean_time_h: float
    std_time_h: float
    mean_length_km: float
    std_length_km: float
    reached: int
    trials: int


def _stats(values: list[float]) -> tuple[float, float]:
    if not values:
        return float("nan"), float("nan")
    arr = np.asarray(values)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std


def run_experiment(
    field: FlowField,
    planners: dict[str, object],
    start: Point2,
    goal: Point2,
    opts: SimOptions,
    trials: int,
    master_seed: int,
    states: StateSpace | None = None,
    requery_dt_h: float = 1.0,
) -> tuple[dict[str, TrialStats], dict[str, list[Trajectory]]]:
    """Paired trials per planner with streams derived from (seed, trial)."""
    stats: dict[str, TrialStats] = {}
    trajectories: dict[str, list[Trajectory]] = {}
    for name, planner in planners.items():
        runs = []
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([master_seed, trial]))
            runs.append(
                simulate_trial(field, planner, start, goal, opts, rng, states, requery_dt_h)
            )
        done = [r for r in runs if r.reached]
        mean_t, std_t = _stats([r.time_cost for r in done])
        mean_l, std_l = _stats([r.length for r in done])
        stats[name] = TrialStats(mean_t, std_t, mean_l, std_l, len(done), trials)
        trajectories[name] = runs
    return stats, trajectories


def write_trajectories_csv(path, runs: list[Trajectory]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "t_h", "x_km", "y_km", "psi_rad"])
        for trial, run in enumerate(runs):
            for t, (x, y), psi in zip(run.times, run.points, run.headings):
                writer.writerow([trial, repr(float(t)), repr(float(x)), repr(float(y)), repr(float(psi))])


def write_stats_csv(path, rows: list[tuple[str, float, float, TrialStats]]) -> None:
    """Rows are (planner, current strength, noise sigma, stats)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "planner",
                "A",
                "sigma",
                "mean_time_h",
                "std_time_h",
                "mean_len_km",
                "std_len_km",
                "reached",
            ]
        )
        for planner, strength, sigma, st in rows:
            writer.writerow(
                [
                    planner,
                    repr(float(strength)),
                    repr(float(sigma)),
                    repr(st.mean_time_h),
                    repr(st.std_time_h),
                    repr(st.mean_length_km),
                    repr(st.std_length_km),
                    st.reached,
                ]
            )
