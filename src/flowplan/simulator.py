"""Vehicle trajectory simulation under noisy flow fields.

The vehicle integrates forward-Euler at a fine step: net velocity is the
freshly sampled disturbed current plus the commanded (heading, speed) pair.
All trials of all planners advance in lockstep as the rows of one
(planners x trials, 2) array, planner-major: each step moves every live row,
checks goal entry and locates the containing cell once for all of them, and
each planner gets one batched command call for its own live rows, with
their cells. The live rows are kept compact, so each planner's are one slice.
Trial ``t`` has one generator, shared by every planner's copy of the trial:
the same seed gives each planner the same draws, so one stream serves them
all. Per-step noise is drawn in blocks of a fixed number of steps, once per
trial while any planner's copy of it is live, so a path does not depend on
the other trials or planners. Positions and headings are recorded in blocks
of the same number of steps, and trajectories cut from one transposed copy.
Every planner is asked for a new command at every step. Three planner kinds
are supported: a discrete grid policy that looks up the containing cell's
action, a continuous planner that re-scores the compass actions against a
finite-element value function, and a goal-oriented baseline that always
heads straight for the goal at full speed. Trials stop on entering the goal
radius, on hitting an obstacle cell (counted as a failure), or when the time
budget runs out; each trajectory records which. A step is whole-batch numpy:
the gyre current, the course (``np.cos`` and ``np.sin`` of the headings),
the Euler update, the clamp and the goal test, which compares squared
distances and asks ``math.dist`` only for rows within 1e-9 (relative) of the
radius. The current is ``field_velocities``: the gyre, or the bilinear
interpolation of a sampled field in one array kernel. Numpy's float64 sin
and cos round as ``math``'s do, and the bilinear sum keeps the one-row order
(the tests check both bit for bit), so the paths are those of the one-point
scalar formulas. One part stays scalar: the goal-oriented heading is one
``map`` of ``math.atan2`` over the rows' offsets, as ``np.arctan2`` rounds
apart from it on some arguments. The trajectory table is written a trial at
a time, each trial's rows joined into one string.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass

import numpy as np

from . import fem
from .flowfield import FlowField, Point2, field_velocities, write_keyed_table, write_table
from .mdp import Action, MdpModel, StateSpace, best_action
from .policy_iter import _state_scores

END_REASONS = ("goal", "collision", "budget")

# Steps of per-step noise drawn at once per trial: one block call costs about
# a tenth of the scalar draws it replaces per pair, and the block size bounds
# the buffer on long budgets. The history is recorded in blocks of as many
# steps.
_NOISE_BLOCK = 64


@dataclass(frozen=True)
class SimOptions:
    """Integration and trial-accounting settings.

    Each step draws fresh disturbance noise w ~ N(0, sigma^2) per axis and
    moves a vehicle by w * dt, so per hour the noise adds a variance of
    sigma^2 * dt (0.1 sigma^2 at dt = 0.1 h). That vanishes as dt shrinks and
    is not the sigma^2 per hour of the MDP's law (``mdp.build_model``).
    """

    dt_h: float = 0.1
    goal_radius_km: float = 1.0
    budget_h: float = 30.0

    def __post_init__(self) -> None:
        if self.dt_h <= 0 or self.budget_h <= 0 or self.goal_radius_km <= 0:
            raise ValueError("dt, budget, and goal radius must be positive")


def goal_oriented_action(points: np.ndarray, goal: Point2, v_max: float):
    """Heading and speed arrays that head each row of ``points`` straight at
    the goal at full speed (``math.atan2`` headings); zero command at the goal."""
    dx, dy = (np.asarray(goal, dtype=float) - points).T
    heading = np.array(list(map(math.atan2, dy.tolist(), dx.tolist())), dtype=float)
    speed = np.full(len(heading), float(v_max))
    home = (dx == 0.0) & (dy == 0.0)  # either sign of zero
    heading[home] = speed[home] = 0.0
    return heading, speed


class GoalOrientedPlanner:
    """Maximum-speed, goal-pointing baseline."""

    def __init__(self, goal: Point2, v_max: float):
        self.goal = goal
        self.v_max = v_max

    def command(self, points: np.ndarray, cells: np.ndarray):
        """Heading and speed arrays at rows of points; ``cells`` is ignored."""
        return goal_oriented_action(points, self.goal, self.v_max)


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
        """Action index for each row of points, each row scored on its own."""
        raise NotImplementedError

    def _command(self, points: np.ndarray, cells: np.ndarray):
        # Goal-cell rows are chosen for too, then home straight at the goal.
        act = self._choose(points, cells)
        heading, speed = self._headings[act], self._speeds[act]
        home = cells == self.states.goal
        if home.any():
            goal = self.states.position(self.states.goal)
            heading[home], speed[home] = goal_oriented_action(points[home], goal, self.actions[0].speed)
        return heading, speed


class DiscretePlanner(_CompassPlanner):
    """Tabular policy lookup on the containing grid cell: outside the goal
    cell, one command for every point of a cell."""

    def __init__(self, policy: np.ndarray, states: StateSpace, actions: tuple[Action, ...]):
        super().__init__(states, actions)
        self.policy = policy

    def _choose(self, rows: np.ndarray, s: np.ndarray) -> np.ndarray:
        return self.policy[s]

    def command(self, points: np.ndarray, cells: np.ndarray):
        """Heading and speed arrays at rows of points and their cells."""
        return self._command(points, cells)


class ContinuousPlanner(_CompassPlanner):
    """Re-scores the compass actions against a continuous value function.

    Uses the model's per-state transition moments at the containing cell but
    the value, gradient, and recovered curvature at the vehicle's actual
    position (projected onto the mesh cover when just outside it). Rows of
    points are scored in one pass: ``ContinuousValue.expansion`` interpolates
    the value's expansion table at all of them into one (7, rows) block, and
    ``_state_scores`` scores it against their cells' rows of the model's
    moment table, the kernel of ``improve_policy_continuous``. The value's
    mesh must be built on the model's states; ValueError otherwise.
    """

    def __init__(self, model: MdpModel, value: fem.ContinuousValue):
        if value.mesh.states is not model.states:
            raise ValueError("the value's mesh is not built on the model's states")
        super().__init__(model.states, model.actions)
        self.model = model
        self.value = value

    def _choose(self, rows: np.ndarray, s: np.ndarray) -> np.ndarray:
        return best_action(_state_scores(self.model, s, self.value.expansion(rows, cells=s)))

    def command(self, points: np.ndarray, cells: np.ndarray):
        """Heading and speed arrays at rows of points and their cells."""
        return self._command(points, cells)


def step(
    field: FlowField,
    points: np.ndarray,
    command: tuple[np.ndarray, np.ndarray],
    dt_h: float,
    noise: np.ndarray,
) -> np.ndarray:
    """One Euler step of the net motion of each row of ``points``, clamped to
    the domain; DomainError when a row lies outside it.

    ``command`` holds the rows' heading and speed arrays, and ``noise`` the
    rows' (wx, wy) disturbance, added to the noise-free current. The course
    is ``np.cos`` and ``np.sin`` of the headings, which round as ``math.cos``
    and ``math.sin`` do, and the update is array arithmetic in the order of
    the one-row formula, so every row moves as it would alone.
    """
    heading, speed = command
    velocity = field_velocities(field, points) + noise
    velocity[:, 0] += speed * np.cos(heading)
    velocity[:, 1] += speed * np.sin(heading)
    return field.clamp(points + velocity * dt_h)


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


# Relative gap between a squared distance and the squared radius beyond which
# their comparison decides goal entry as ``math.dist`` does; the absolute floor
# covers squares that underflow.
_GOAL_TEST_REL = 1e-9
_GOAL_TEST_FLOOR = 1e-300


def _in_goal(points: np.ndarray, goal: Point2, radius_km: float) -> np.ndarray:
    """``math.dist(q, goal) <= radius_km`` for each row ``q`` of ``points``.

    The squared distance of a row is within a few ulps of the exact square of
    the norm that ``math.dist`` rounds, so outside a band of 1e-9 (relative)
    around the squared radius comparing the squares decides alike. Rows in
    the band, or whose gap is NaN, take ``math.dist`` itself."""
    d = points - np.asarray(goal, dtype=float)
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    r2 = radius_km * radius_km
    inside = d2 <= r2
    near = np.flatnonzero(~(np.abs(d2 - r2) > _GOAL_TEST_REL * r2 + _GOAL_TEST_FLOOR))
    for i in near.tolist():
        inside[i] = math.dist(points[i].tolist(), goal) <= radius_km
    return inside


def simulate_trials(
    field: FlowField,
    planners: Sequence,
    start: Point2,
    goal: Point2,
    opts: SimOptions,
    rngs: Sequence[np.random.Generator],
    states: StateSpace,
) -> list[list[Trajectory]]:
    """Run every planner on one trial per generator in ``rngs``, all in one
    lockstep batch, each until goal entry, obstacle hit, or budget
    exhaustion; one list of trajectories per planner, in trial order.

    The rows of the batch are planner-major, with the trials in order, and
    the live rows are kept compact in that order, so each planner's are one
    slice. Each step moves every live row in one :func:`step`, then checks
    goal entry and locates the containing cells of all of them at once. Each
    planner then gets its slice, in trial order, in one call, with their
    cells, and gives each a new command; rows that end leave through one
    order-keeping mask. A planner whose ``states`` is not ``states`` is a
    ValueError. A trial that ends without reaching the goal reports the full
    budget as its time cost.

    Every planner's trial ``r`` draws its noise from ``rngs[r]`` alone, a
    block of steps at a time, while any planner's copy of the trial is live.
    A planner's copy is live at a block boundary only if it was at every
    earlier one, so it meets the same draws as on a fresh generator of its
    own, and a path is the same alone as in any batch. A generator may end
    up advanced past its trial's last step. Positions and headings are
    recorded a block of steps at a time; at the end the blocks are joined
    once into one transposed copy, a contiguous run of samples per row, and
    each trajectory's arrays (copies) and length are cut from it.
    """
    if any(getattr(pl, "states", states) is not states for pl in planners):
        raise ValueError("a grid planner plans on another StateSpace than the simulator's")
    n_trials = len(rngs)
    n = len(planners) * n_trials
    bounds = np.arange(len(planners) + 1) * n_trials  # each planner's first row, then n
    p = np.tile(np.asarray(start, dtype=float), (n, 1))
    n_steps = int(opts.budget_h / opts.dt_h + 1e-9)  # stay within the budget
    sigma = (field.noise.sigma_x, field.noise.sigma_y)
    blocks = np.empty((n_trials, min(_NOISE_BLOCK, n_steps), 2))
    # The live rows, compact and planner-major; planner j's are cut[j]:cut[j + 1].
    live, q, cell, trial = np.arange(n), p.copy(), states.state_at(p), np.tile(np.arange(n_trials), len(planners))
    cut = bounds.tolist()
    psi, speed = np.empty(n), np.empty(n)
    reason = np.full(n, "budget", dtype=object)
    end = np.full(n, n_steps)  # step of each row's last sample

    def command() -> None:
        """New commands for the live rows: one call per planner's slice."""
        for planner, a, b in zip(planners, cut, cut[1:]):
            if a < b:
                psi[a:b], speed[a:b] = planner.command(q[a:b], cell[a:b])

    def leave(gone: np.ndarray, last: int) -> None:
        """The rows of ``gone`` end at step ``last`` and leave, in order."""
        nonlocal live, q, cell, trial, cut
        end[live[gone]] = last
        live, q, cell, trial = (a[~gone] for a in (live, q, cell, trial))
        cut = np.searchsorted(live, bounds).tolist()

    command()
    heading = psi.copy()
    history_p, history_h = [], []  # blocks of _NOISE_BLOCK samples: points, headings
    home = _in_goal(p, goal, opts.goal_radius_km)
    reason[home] = "goal"
    leave(home, 0)

    for k in range(n_steps + 1):
        at = k % _NOISE_BLOCK
        if at == 0:
            history_p.append(np.empty((_NOISE_BLOCK, n, 2)))
            history_h.append(np.empty((_NOISE_BLOCK, n)))
        history_p[-1][at], history_h[-1][at] = p, heading
        if k == n_steps or not live.size:
            break
        if at == 0:
            m = min(_NOISE_BLOCK, n_steps - k)
            for t in np.unique(trial).tolist():
                blocks[t, :m] = rngs[t].normal(0.0, sigma, size=(m, 2))
        q = step(field, q, (psi[: len(q)], speed[: len(q)]), opts.dt_h, blocks[trial, at])
        p[live] = q
        cell = states.state_at(q)
        arrived = _in_goal(q, goal, opts.goal_radius_km)
        crashed = states.obstacles[cell] & ~arrived  # a collision ends the trial as a failure
        gone = arrived | crashed
        if gone.any():
            reason[live[arrived]] = "goal"
            reason[live[crashed]] = "collision"
            leave(gone, k + 1)
        command()
        heading[live] = psi[: len(live)]

    count = int(end.max(initial=0)) + 1  # samples of the longest row
    history_p = np.concatenate([b.transpose(1, 0, 2) for b in history_p], axis=1)[:, :count]
    history_h = np.concatenate([b.T for b in history_h], axis=1)[:, :count]
    seg_length = np.diff(history_p, axis=1)  # in place where it can be: the copies come next
    seg_length = np.square(seg_length, out=seg_length).sum(axis=-1)
    np.sqrt(seg_length, out=seg_length)
    clock = np.arange(n_steps + 1) * opts.dt_h
    runs = []
    for r, last in enumerate(end.tolist()):
        pts, headings = history_p[r, : last + 1].copy(), history_h[r, : last + 1].copy()
        length = float(seg_length[r, :last].sum())  # a 1-D contiguous sum, as of a lone trial's segments
        time_cost = last * opts.dt_h if reason[r] == "goal" else opts.budget_h
        runs.append(Trajectory(clock[: last + 1].copy(), pts, headings, reason[r], time_cost, length))
    return [runs[j * n_trials : (j + 1) * n_trials] for j in range(len(planners))]


def simulate_trial(
    field: FlowField,
    planner,
    start: Point2,
    goal: Point2,
    opts: SimOptions,
    rng: np.random.Generator,
    states: StateSpace,
) -> Trajectory:
    """One trial of one planner: :func:`simulate_trials` with a batch of one."""
    return simulate_trials(field, [planner], start, goal, opts, [rng], states)[0][0]


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
    states: StateSpace,
) -> tuple[dict[str, TrialStats], dict[str, list[Trajectory]]]:
    """Paired trials per planner with streams derived from (seed, trial).

    Every planner's trials step in one lockstep batch, each planner asked
    for its live rows' commands at every step (see :func:`simulate_trials`).
    Trial ``t`` has one generator, seeded by ``SeedSequence([master_seed,
    t])`` and shared by every planner, so the planners meet the same noise,
    and each trajectory is the one that planner's trial would follow alone.
    """
    stats: dict[str, TrialStats] = {}
    trajectories: dict[str, list[Trajectory]] = {}
    rngs = [np.random.default_rng(np.random.SeedSequence([master_seed, t])) for t in range(trials)]
    batch = simulate_trials(field, list(planners.values()), start, goal, opts, rngs, states)
    for name, runs in zip(planners, batch):
        done = [r for r in runs if r.reached]
        mean_t, std_t = _stats([r.time_cost for r in done])
        mean_l, std_l = _stats([r.length for r in done])
        stats[name] = TrialStats(mean_t, std_t, mean_l, std_l, len(done), trials)
        trajectories[name] = runs
    return stats, trajectories


def write_trajectories_csv(path, runs: list[Trajectory]) -> None:
    """One row per sample, written one trial at a time through
    ``write_keyed_table``, which joins a trial's rows behind its trial number.

    Repeated cells are formatted once. A simulated trial's times are the
    first samples of the longest trial's (``arange(k) * dt``), so they are
    formatted once per file; a run whose times differ from that prefix in any
    bit gets its own. A trial's heading strings are memoised when its
    headings repeat, as the compass planners' eight values do, except at
    zero: 0.0 and -0.0 are one key but print apart. Every x, y and distinct
    heading is formatted once, by ``str``.
    """
    longest = max(runs, key=len).times if runs else np.empty(0)
    times = list(map(str, longest.tolist()))
    names: dict[float, str] = {}

    def trial_rows(run: Trajectory):
        n = len(run)
        same = run.times.dtype == longest.dtype and run.times.tobytes() == longest[:n].tobytes()
        headings = run.headings.tolist()
        distinct = set(headings)
        if 2 * len(distinct) <= n:
            names.update((h, str(h)) for h in distinct.difference(names))
            psi = [names[h] if h else str(h) for h in headings]
        else:
            psi = map(str, headings)
        x, y = run.points.T.tolist()
        return zip(
            times[:n] if same else list(map(str, run.times.tolist())),
            map(str, x),
            map(str, y),
            psi,
        )

    trials = ((trial, trial_rows(run)) for trial, run in enumerate(runs))
    write_keyed_table(path, ["trial", "t_h", "x_km", "y_km", "psi_rad"], trials)


def write_stats_csv(path, rows: list[tuple[str, float, float, TrialStats]]) -> None:
    """Rows are (planner, current strength, noise sigma, stats); the stats
    columns are the TrialStats fields up to ``reached``."""
    header = ["planner", "A", "sigma", "mean_time_h", "std_time_h", "mean_len_km", "std_len_km", "reached"]
    cells = ((planner, float(a), float(sigma), *astuple(st)[:5]) for planner, a, sigma, st in rows)
    write_table(path, header, cells)
