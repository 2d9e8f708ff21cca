"""Vehicle trajectory simulation under noisy flow fields.

The vehicle integrates forward-Euler at a fine step: net velocity is the
freshly sampled disturbed current plus the commanded (heading, speed) pair.
All trials of one planner advance in lockstep as the rows of a (trials, 2)
array: each step moves every live trial, and the trials that need a new
command get it from one batched planner call. Every trial draws its noise
from its own generator, so its path does not depend on the other trials.
Three planner kinds are supported: a discrete grid policy that is re-queried
on cell change or every action interval, a continuous planner that re-scores
the compass actions against a finite-element value function every step, and
a goal-oriented baseline that always heads straight for the goal at full
speed. Trials stop on entering the goal radius, on hitting an obstacle cell
(counted as a failure), or when the time budget runs out; each trajectory
records which. Headings, motion and goal distances use ``math``, not
numpy, row by row: ``np.arctan2`` and ``np.hypot`` round differently from
``math.atan2`` and ``math.dist`` on some arguments, and numpy's sin and cos
may as well.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import fem
from .flowfield import FlowField, Point2, field_velocity, sample_noise
from .mdp import Action, MdpModel, StateSpace
from .moments import Convention
from .policy_iter import _state_scores, best_action

END_REASONS = ("goal", "collision", "budget")


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


def _as_rows(p: Point2 | np.ndarray) -> tuple[np.ndarray, bool]:
    """``p`` as an (n, 2) array of points, and whether it was one point."""
    rows = np.asarray(p, dtype=float)
    return rows.reshape(-1, 2), rows.ndim == 1


def _commands(heading: np.ndarray, speed: np.ndarray, single: bool):
    return (float(heading[0]), float(speed[0])) if single else (heading, speed)


def goal_oriented_action(p: Point2 | np.ndarray, goal: Point2, v_max: float):
    """Head straight at the goal at full speed; zero command at the goal.

    ``p`` is one point, giving one (heading, speed) pair, or an (n, 2) array
    of points, giving a heading array and a speed array.
    """
    rows, single = _as_rows(p)
    cmds = [
        (0.0, 0.0) if dx == 0.0 and dy == 0.0 else (math.atan2(dy, dx), v_max)
        for dx, dy in (np.asarray(goal, dtype=float) - rows).tolist()
    ]
    heading, speed = np.array(cmds, dtype=float).reshape(-1, 2).T
    return _commands(heading, speed, single)


class GoalOrientedPlanner:
    """Maximum-speed, goal-pointing baseline; re-queried every step."""

    requery_every_step = True

    def __init__(self, goal: Point2, v_max: float):
        self.goal = goal
        self.v_max = v_max

    def command(self, p: Point2 | np.ndarray):
        """Heading and speed at one point, or heading and speed arrays at
        rows of points."""
        return goal_oriented_action(p, self.goal, self.v_max)


class _CompassPlanner:
    """Commands one compass action per point; inside the goal cell it steers
    for the goal point instead (the goal state is absorbing, so its stored
    action is arbitrary, and the cell is wider than the arrival radius, so
    some in-cell homing is required)."""

    def __init__(self, states: StateSpace, actions: tuple[Action, ...]):
        self.states = states
        self.actions = actions
        self._headings = np.array([a.heading for a in actions])
        self._speeds = np.array([a.speed for a in actions])

    def _choose(self, rows: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Action index for each row of points outside the goal cell."""
        raise NotImplementedError

    def _command(self, p: Point2 | np.ndarray):
        rows, single = _as_rows(p)
        s = self.states.state_at(rows)
        act = np.zeros(len(rows), dtype=np.int64)
        away = s != self.states.goal
        if away.any():
            act[away] = self._choose(rows[away], s[away])
        heading, speed = self._headings[act], self._speeds[act]
        if not away.all():
            home = ~away
            goal = self.states.position(self.states.goal)
            heading[home], speed[home] = goal_oriented_action(rows[home], goal, self.actions[0].speed)
        return _commands(heading, speed, single)


class DiscretePlanner(_CompassPlanner):
    """Tabular policy lookup on the containing grid cell."""

    requery_every_step = False

    def __init__(self, policy: np.ndarray, states: StateSpace, actions: tuple[Action, ...]):
        super().__init__(states, actions)
        self.policy = policy

    def _choose(self, rows: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self.policy[s]

    def command(self, p: Point2 | np.ndarray):
        """Heading and speed at one point, or heading and speed arrays at
        rows of points."""
        return self._command(p)


class ContinuousPlanner(_CompassPlanner):
    """Re-scores the compass actions against a continuous value function.

    Uses the model's per-state transition moments at the containing cell but
    the value, gradient, and recovered curvature at the vehicle's actual
    position (projected onto the mesh cover when just outside it). Rows of
    points are scored in one pass over ``ContinuousValue.expansion``.
    """

    requery_every_step = True

    def __init__(
        self,
        model: MdpModel,
        value: fem.ContinuousValue,
        convention: Convention = "displacement",
    ):
        super().__init__(model.states, model.actions)
        self.model = model
        self.value = value
        self.convention = convention

    def _choose(self, rows: np.ndarray, s: np.ndarray) -> np.ndarray:
        v, grad, hess = self.value.expansion(rows, clamp=True)
        return best_action(_state_scores(self.model, s, v, grad, hess, self.convention))

    def command(self, p: Point2 | np.ndarray):
        """Heading and speed at one point, or heading and speed arrays at
        rows of points."""
        return self._command(p)


def step(
    field: FlowField,
    points: np.ndarray,
    command: tuple[np.ndarray, np.ndarray],
    dt_h: float,
    rngs: Sequence[np.random.Generator],
    disturbance: np.ndarray | None = None,
    noise_scaling: str = "plain",
) -> np.ndarray:
    """One Euler step of the net motion of each row of ``points``, clamped to
    the domain; DomainError when a row lies outside it.

    ``command`` holds the rows' heading and speed arrays, and ``rngs`` one
    generator per row, from which that row's noise is drawn. A fixed
    ``disturbance`` (rows of (vx, vy)) replaces fresh noise sampling for
    per-trial noise mode; it is added to the noise-free current.
    """
    heading, speed = command
    if disturbance is None:
        scale = math.sqrt(dt_h) if noise_scaling == "sqrt-dt" else 1.0
        noise = [sample_noise(field.noise, rng, scale) for rng in rngs]
    else:
        noise = disturbance.tolist()
    # Row by row in Python floats: on a few dozen rows this is faster than
    # numpy, and the velocity and the noise are per-row calls anyway.
    moved = []
    for (x, y), (wx, wy), h, v in zip(points.tolist(), noise, heading.tolist(), speed.tolist()):
        base = field_velocity(field, (x, y))
        moved.append(
            (x + (base.vx + wx + v * math.cos(h)) * dt_h, y + (base.vy + wy + v * math.sin(h)) * dt_h)
        )
    return field.clamp(np.array(moved).reshape(-1, 2))


@dataclass(eq=False)
class Trajectory:
    times: np.ndarray  # hours, one per sample
    points: np.ndarray  # (n, 2) km
    headings: np.ndarray  # commanded heading per sample
    end_reason: str  # one of END_REASONS
    time_cost: float  # hours; equals the budget when the goal was not reached
    length: float  # km, polyline length

    @property
    def reached(self) -> bool:
        return self.end_reason == "goal"

    def __len__(self) -> int:
        return len(self.times)


def _in_goal(points: np.ndarray, goal: Point2, radius_km: float) -> np.ndarray:
    return np.array([math.dist(q, goal) <= radius_km for q in points.tolist()], dtype=bool)


def simulate_trials(
    field: FlowField,
    planner,
    start: Point2,
    goal: Point2,
    opts: SimOptions,
    rngs: Sequence[np.random.Generator],
    states: StateSpace | None = None,
    requery_dt_h: float = 1.0,
) -> list[Trajectory]:
    """Run one trial per generator in ``rngs``, all in lockstep, each until
    goal entry, obstacle hit, or budget exhaustion.

    Each step moves the live trials as rows of one array, then sends the
    rows that need a new command to the planner in one call. Discrete
    planners are re-queried when the containing cell changes or
    ``requery_dt_h`` elapses, whichever comes first; other planners every
    step. A trial that ends without reaching the goal reports the full
    budget as its time cost. Trial ``r`` draws its noise from ``rngs[r]``
    alone, so it follows the same path alone as in any batch.
    """
    n = len(rngs)
    p = np.tile(np.asarray(start, dtype=float), (n, 1))
    trial_noise = None
    if opts.noise_resample == "trial":
        trial_noise = np.array([sample_noise(field.noise, rng) for rng in rngs])
    heading, speed = map(np.array, planner.command(p))  # copies: the loop writes into them
    points, headings = [p.copy()], [heading.copy()]
    reason = np.full(n, "budget", dtype=object)
    end = np.zeros(n, dtype=np.int64)  # step of each trial's last sample
    reason[_in_goal(p, goal, opts.goal_radius_km)] = "goal"
    cell = states.state_at(p) if states is not None else None
    since_query = np.zeros(n)
    live = np.flatnonzero(reason == "budget")
    n_steps = int(opts.budget_h / opts.dt_h + 1e-9)  # stay within the budget

    for k in range(1, n_steps + 1):
        if not live.size:
            break
        moved = step(
            field,
            p[live],
            (heading[live], speed[live]),
            opts.dt_h,
            [rngs[r] for r in live.tolist()],
            disturbance=None if trial_noise is None else trial_noise[live],
            noise_scaling=opts.noise_scaling,
        )
        p[live] = moved
        since_query[live] += opts.dt_h
        end[live] = k
        arrived = _in_goal(moved, goal, opts.goal_radius_km)
        if arrived.any():
            reason[live[arrived]] = "goal"
            live, moved = live[~arrived], moved[~arrived]
        requery = (since_query[live] >= requery_dt_h - 1e-12) | planner.requery_every_step
        if states is not None:
            s = states.state_at(moved)
            crashed = states.obstacles[s]  # a collision ends the trial as a failure
            if crashed.any():
                reason[live[crashed]] = "collision"
                live, s, requery = live[~crashed], s[~crashed], requery[~crashed]
            requery |= s != cell[live]
            cell[live] = s
        ask = live[requery]
        if ask.size:
            heading[ask], speed[ask] = planner.command(p[ask])
            since_query[ask] = 0.0
        points.append(p.copy())
        headings.append(heading.copy())

    all_points, all_headings = np.stack(points), np.stack(headings)
    runs = []
    for r in range(n):
        last = int(end[r])
        pts = all_points[: last + 1, r].copy()
        seg = np.diff(pts, axis=0)
        length = float(np.sqrt((seg**2).sum(axis=1)).sum())
        time_cost = last * opts.dt_h if reason[r] == "goal" else opts.budget_h
        times = np.arange(last + 1) * opts.dt_h
        runs.append(Trajectory(times, pts, all_headings[: last + 1, r].copy(), reason[r], time_cost, length))
    return runs


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
    """One trial: :func:`simulate_trials` with a batch of one generator."""
    return simulate_trials(field, planner, start, goal, opts, [rng], states, requery_dt_h)[0]


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
    """Paired trials per planner with streams derived from (seed, trial).

    The trials of one planner step in lockstep (see :func:`simulate_trials`);
    trial ``t`` draws from ``SeedSequence([master_seed, t])`` for every
    planner, so the planners meet the same noise.
    """
    stats: dict[str, TrialStats] = {}
    trajectories: dict[str, list[Trajectory]] = {}
    for name, planner in planners.items():
        rngs = [np.random.default_rng(np.random.SeedSequence([master_seed, t])) for t in range(trials)]
        runs = simulate_trials(field, planner, start, goal, opts, rngs, states, requery_dt_h)
        done = [r for r in runs if r.reached]
        mean_t, std_t = _stats([r.time_cost for r in done])
        mean_l, std_l = _stats([r.length for r in done])
        stats[name] = TrialStats(mean_t, std_t, mean_l, std_l, len(done), trials)
        trajectories[name] = runs
    return stats, trajectories


def write_trajectories_csv(path, runs: list[Trajectory]) -> None:
    """One row per sample, floats as repr, in the csv module's dialect (CRLF)."""
    with open(path, "w", newline="") as fh:
        fh.write("trial,t_h,x_km,y_km,psi_rad\r\n")
        for trial, run in enumerate(runs):
            rows = zip(run.times.tolist(), run.points.tolist(), run.headings.tolist())
            fh.writelines(f"{trial},{t!r},{x!r},{y!r},{psi!r}\r\n" for t, (x, y), psi in rows)


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
