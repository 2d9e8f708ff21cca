import itertools
import math

import numpy as np
import pytest

from flowplan import fem
from flowplan.config import build_mdp, parse_config
from flowplan.errors import DomainError
from flowplan.flowfield import GyreParams, NoiseParams, Point2, field_velocity, gyre_field
from flowplan.mdp import StateSpace, build_model, classic_policy_iteration, compass_actions
from flowplan.policy_iter import ApiConfig, _state_scores, approximate_policy_iteration, best_action
from flowplan.simulator import (
    END_REASONS,
    _NOISE_BLOCK,
    ContinuousPlanner,
    DiscretePlanner,
    GoalOrientedPlanner,
    SimOptions,
    _in_goal,
    goal_oriented_action,
    run_experiment,
    simulate_trial,
    step,
)

from conftest import state_index


@pytest.fixture
def gyre():
    field = gyre_field(GyreParams(0.5, 10.0), NoiseParams.isotropic(1.0), extent=(20.0, 20.0))
    states = StateSpace.regular(10, 10, 2.0, (7, 7))
    return field, states


def _trial(field, planner, start, goal, opts, seed, trial, states):
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
    return simulate_trial(field, planner, start, goal, opts, rng, states)


def _command(planner, p, states):
    """One planner command at one point, as a batch of one row."""
    rows = np.array([p], dtype=float)
    heading, speed = planner.command(rows, states.state_at(rows))
    return float(heading[0]), float(speed[0])


def test_same_seed_and_trial_give_identical_trajectories(gyre):
    field, states = gyre
    goal = states.position(states.goal)
    planners = {"goal": GoalOrientedPlanner(goal, 3.0)}
    opts = SimOptions(budget_h=8.0)
    _, first = run_experiment(field, planners, Point2(1.0, 1.0), goal, opts, 3, 77, states)
    _, again = run_experiment(field, planners, Point2(1.0, 1.0), goal, opts, 3, 77, states)
    _, other = run_experiment(field, planners, Point2(1.0, 1.0), goal, opts, 3, 78, states)
    for trial, (a, b) in enumerate(zip(first["goal"], again["goal"])):
        for name in ("times", "points", "headings"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (a.reached, a.time_cost, a.length) == (b.reached, b.time_cost, b.length)
        # Each trial's stream depends on (seed, trial) alone.
        alone = _trial(field, planners["goal"], Point2(1.0, 1.0), goal, opts, 77, trial, states)
        assert np.array_equal(alone.points, a.points)
    assert not np.array_equal(first["goal"][0].points, other["goal"][0].points)
    assert not np.array_equal(first["goal"][0].points, first["goal"][1].points)


def test_trial_stops_on_entering_the_goal_radius(gyre):
    field, states = gyre
    goal = states.position(states.goal)
    opts = SimOptions(goal_radius_km=1.0, budget_h=30.0)
    run = _trial(field, GoalOrientedPlanner(goal, 3.0), Point2(1.0, 1.0), goal, opts, 5, 0, states)
    assert run.reached
    dist = np.hypot(*(run.points - np.asarray(goal)).T)
    assert dist[-1] <= 1.0
    assert (dist[:-1] > 1.0).all()
    assert run.time_cost == pytest.approx(run.times[-1])
    assert run.time_cost < opts.budget_h


def test_start_inside_the_goal_radius_ends_at_once(gyre):
    field, states = gyre
    goal = states.position(states.goal)
    start = Point2(goal.x + 0.5, goal.y)
    run = _trial(field, GoalOrientedPlanner(goal, 3.0), start, goal, SimOptions(), 5, 0, states)
    assert run.reached and run.time_cost == 0.0 and len(run) == 1


def test_unreached_goal_costs_the_whole_budget(gyre):
    field, states = gyre
    goal = states.position(states.goal)
    opts = SimOptions(budget_h=2.0)  # 6 km at most from the start, 17 km away
    run = _trial(field, GoalOrientedPlanner(goal, 3.0), Point2(1.0, 1.0), goal, opts, 5, 0, states)
    assert not run.reached
    assert run.time_cost == opts.budget_h
    assert run.times[-1] == pytest.approx(opts.budget_h)


def test_continuous_planner_takes_lowest_action_on_exact_ties():
    # The zero-noise tie of the continuous improvement: E, NE and SE move
    # +2 km in x alike, so against v = x the planner must pick NE, and
    # against v = -x it must pick SW of SW, W and NW.
    field = gyre_field(GyreParams(0.0, 20.0), NoiseParams.isotropic(0.0), extent=(10.0, 10.0))
    states = StateSpace.regular(5, 5, 2.0, (4, 4))
    model = build_model(field, states, 1.0, 3.0, 0.95)
    model.rewards[:] = -0.1
    mesh = fem.build_mesh(states, 1)
    p = states.position(state_index(states, 2, 2))
    headings = {a.compass: a.heading for a in model.actions}
    for sign, compass in ((1.0, "NE"), (-1.0, "SW")):
        planner = ContinuousPlanner(model, fem.ContinuousValue(mesh, sign * mesh.nodes[:, 0]))
        heading, speed = _command(planner, p, states)
        assert heading == headings[compass]
        assert speed == 3.0


def test_a_grid_planner_on_an_equal_but_distinct_state_space_is_a_value_error(gyre):
    # The simulator hands each grid planner the cells of its own lattice, so
    # the planner must plan on that very StateSpace, not on a copy of it.
    field, states = gyre
    twin = StateSpace.regular(10, 10, 2.0, (7, 7))
    assert twin is not states and np.array_equal(twin.positions(), states.positions())
    model = build_model(field, twin, 1.0, 3.0, 0.95)
    planners = {"twin": DiscretePlanner(np.zeros(twin.n, dtype=np.int64), twin, model.actions)}
    goal = states.position(states.goal)
    with pytest.raises(ValueError, match="StateSpace"):
        run_experiment(field, planners, Point2(1.0, 1.0), goal, SimOptions(budget_h=1.0), 2, 3, states)


def test_a_continuous_planner_on_a_mesh_of_another_state_space_is_a_value_error(gyre):
    field, states = gyre
    model = build_model(field, states, 1.0, 3.0, 0.95)
    mesh = fem.build_mesh(StateSpace.regular(10, 10, 2.0, (7, 7)), 1)
    with pytest.raises(ValueError, match="model's states"):
        ContinuousPlanner(model, fem.ContinuousValue(mesh, np.zeros(mesh.n_nodes)))


def _reference_trial(field, planner, start, goal, opts, rng, states):
    """The one-trial-at-a-time loop and scalar Euler step that the lockstep
    simulator replaced, kept as its reference: the planner is asked for a
    new command at every step. Returns the trajectory's (times, points,
    headings, end reason, time cost, length)."""
    p = Point2(*start)
    heading, speed = _command(planner, p, states)
    times, pts, headings = [0.0], [tuple(p)], [heading]
    reason = "goal" if math.dist(p, goal) <= opts.goal_radius_km else "budget"
    time_cost = 0.0
    n_steps = int(opts.budget_h / opts.dt_h + 1e-9)
    if reason != "goal":
        for k in range(1, n_steps + 1):
            base = field_velocity(field, p)
            current = (
                base.vx + rng.normal(0.0, field.noise.sigma_x),
                base.vy + rng.normal(0.0, field.noise.sigma_y),
            )
            nx = p[0] + (current[0] + speed * math.cos(heading)) * opts.dt_h
            ny = p[1] + (current[1] + speed * math.sin(heading)) * opts.dt_h
            p = Point2(
                min(max(nx, field.origin.x), field.origin.x + field.extent[0]),
                min(max(ny, field.origin.y), field.origin.y + field.extent[1]),
            )
            t = k * opts.dt_h
            times.append(t)
            pts.append(tuple(p))
            headings.append(heading)
            if math.dist(p, goal) <= opts.goal_radius_km:
                reason, time_cost = "goal", t
                break
            if states.obstacles[states.state_at(p)]:
                reason = "collision"
                break
            heading, speed = _command(planner, p, states)
            headings[-1] = heading
    if reason != "goal":
        time_cost = opts.budget_h
    pts_arr = np.asarray(pts)
    seg = np.diff(pts_arr, axis=0)
    length = float(np.sqrt((seg**2).sum(axis=1)).sum())
    return np.asarray(times), pts_arr, np.asarray(headings), reason, time_cost, length


WALL = tuple((4, j) for j in range(2, 8))  # across the straight line from (1, 1) to the goal


@pytest.fixture(scope="module", params=[(), WALL], ids=["open", "wall"])
def solved(request):
    """A 10x10 gyre problem, open or with a wall, and its three planners."""
    field = gyre_field(GyreParams(0.5, 10.0), NoiseParams.isotropic(1.0), extent=(20.0, 20.0))
    states = StateSpace.regular(10, 10, 2.0, (7, 7), obstacle_cells=request.param)
    model = build_model(field, states, 1.0, 3.0, 0.95)
    pi = classic_policy_iteration(model)
    api = approximate_policy_iteration(model, ApiConfig(k=1))
    goal = states.position(states.goal)
    planners = {
        "classic-pi": DiscretePlanner(pi.policy, states, model.actions),
        "api": ContinuousPlanner(model, api.value),
        "goal-oriented": GoalOrientedPlanner(goal, 3.0),
    }
    return field, states, model, planners


# "step": fresh noise at every step, the simulator's one noise law.
@pytest.mark.parametrize("opts", [SimOptions(budget_h=8.0)], ids=["step"])
def test_lockstep_trials_equal_the_one_trial_reference(solved, opts):
    field, states, _, planners = solved
    goal = states.position(states.goal)
    start = Point2(1.0, 1.0)
    _, runs = run_experiment(field, planners, start, goal, opts, 8, 3, states)
    for name, planner in planners.items():
        for trial, run in enumerate(runs[name]):
            rng = np.random.default_rng(np.random.SeedSequence([3, trial]))
            times, points, headings, reason, time_cost, length = _reference_trial(
                field, planner, start, goal, opts, rng, states
            )
            assert np.array_equal(run.times, times)
            assert np.array_equal(run.points, points)
            assert np.array_equal(run.headings, headings)
            assert (run.end_reason, run.reached) == (reason, reason == "goal")
            assert (run.time_cost, run.length) == (time_cost, length)
    if states.obstacles.any():
        # Every end reason occurs, and trials collide at different steps, so
        # rows leave the lockstep batch while others go on.
        assert {run.end_reason for name in runs for run in runs[name]} == set(END_REASONS)
        assert len({len(run) for run in runs["goal-oriented"] if run.end_reason == "collision"}) > 1
        # Some trials outlast one block of per-step noise, so a second,
        # shorter block is drawn mid-trial.
        assert max(len(run) for name in runs for run in runs[name]) > _NOISE_BLOCK + 1


def _assert_reference_runs(runs, planners, field, states, start, goal, opts, seed):
    """Every planner's trial ``t`` is the one-trial reference on a fresh
    generator seeded by ``(seed, t)``."""
    for name, planner in planners.items():
        for trial, run in enumerate(runs[name]):
            rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
            times, points, headings, reason, time_cost, length = _reference_trial(
                field, planner, start, goal, opts, rng, states
            )
            assert np.array_equal(run.times, times), (name, trial)
            assert np.array_equal(run.points, points), (name, trial)
            assert np.array_equal(run.headings, headings), (name, trial)
            assert (run.end_reason, run.time_cost, run.length) == (reason, time_cost, length), (name, trial)


def test_a_trial_drawn_past_a_noise_block_by_one_planner_only_equals_the_reference(solved):
    # The fast planner's copy of a trial ends before the second block of
    # per-step noise is due; another planner's copy runs past it, so the
    # trial's shared generator draws that block for it alone. The fast
    # planner comes first: the block is owed to the trial, not to the rows of
    # the first planner.
    field, states, _, planners = solved
    goal = states.position(states.goal)
    start = Point2(1.0, 1.0)
    opts = SimOptions(budget_h=12.0)
    assert opts.budget_h / opts.dt_h > _NOISE_BLOCK + 1
    ordered = {"fast": planners["goal-oriented"], "slow": GoalOrientedPlanner(goal, 1.5), **planners}
    _, runs = run_experiment(field, ordered, start, goal, opts, 6, 9, states)
    longest = [max(len(runs[name][trial]) for name in ordered) for trial in range(6)]
    assert any(
        len(fast) <= _NOISE_BLOCK and longest[trial] > _NOISE_BLOCK + 1 for trial, fast in enumerate(runs["fast"])
    )
    _assert_reference_runs(runs, ordered, field, states, start, goal, opts, 9)


def test_the_order_of_the_planners_changes_no_trajectory(solved):
    field, states, _, planners = solved
    goal = states.position(states.goal)
    start, opts = Point2(1.0, 1.0), SimOptions(budget_h=8.0)
    _, runs = run_experiment(field, planners, start, goal, opts, 5, 4, states)
    for order in itertools.permutations(planners):
        _, again = run_experiment(field, {n: planners[n] for n in order}, start, goal, opts, 5, 4, states)
        assert list(again) == list(order)
        for name in planners:
            for a, b in zip(runs[name], again[name], strict=True):
                for field_name in ("times", "points", "headings"):
                    assert np.array_equal(getattr(a, field_name), getattr(b, field_name))
                assert (a.end_reason, a.time_cost, a.length) == (b.end_reason, b.time_cost, b.length)


@pytest.mark.parametrize("opts", [SimOptions(budget_h=8.0)], ids=["step"])
def test_an_experiment_of_one_trial_equals_the_reference(solved, opts):
    field, states, _, planners = solved
    goal = states.position(states.goal)
    start = Point2(1.0, 1.0)
    stats, runs = run_experiment(field, planners, start, goal, opts, 1, 21, states)
    assert all(len(runs[name]) == 1 and stats[name].trials == 1 for name in planners)
    _assert_reference_runs(runs, planners, field, states, start, goal, opts, 21)


class _StillPlanner:
    """Commands zero speed everywhere: the vehicle drifts with the noise."""

    def command(self, points, cells):
        return np.zeros(len(points)), np.zeros(len(points))


class _ForkPlanner:
    """Full speed along the diagonal y = x while on it, north above it and
    east below it: the first noise draw sends each trial one way or the other."""

    def command(self, points, cells):
        side = points[:, 1] - points[:, 0]
        heading = np.where(side > 0, 0.5 * math.pi, np.where(side < 0, 0.0, 0.25 * math.pi))
        return heading, np.full(len(points), 3.0)


def test_a_planner_whose_rows_all_end_between_two_that_go_on_equals_the_reference():
    # In still water and faint noise, the fork planner's trials split at the
    # first step: those heading north enter the goal and those heading east
    # hit an obstacle, all at one step, while the planners before and after it
    # go on; so an empty slice of rows lies between two that are not.
    field = gyre_field(GyreParams(0.0, 20.0), NoiseParams.isotropic(0.01), extent=(20.0, 20.0))
    states = StateSpace.regular(10, 10, 2.0, (2, 6), obstacle_cells=[(6, 2)])
    goal, start, opts = states.position(states.goal), Point2(5.0, 5.0), SimOptions(budget_h=10.0)
    planners = {"slow": GoalOrientedPlanner(goal, 1.0), "fork": _ForkPlanner(), "still": _StillPlanner()}
    _, runs = run_experiment(field, planners, start, goal, opts, 6, 3, states)
    assert {run.end_reason for run in runs["fork"]} == {"goal", "collision"}
    assert {len(run) for run in runs["fork"]} == {25}
    assert min(len(run) for name in ("slow", "still") for run in runs[name]) > _NOISE_BLOCK + 1
    _assert_reference_runs(runs, planners, field, states, start, goal, opts, 3)


def test_the_noise_law_adds_sigma_squared_dt_per_hour():
    """A step moves a vehicle by w * dt with fresh w ~ N(0, sigma^2) per
    axis, so in still water an hour of ten 0.1 h steps spreads it by a
    variance of 10 * sigma^2 * dt^2 = sigma^2 * dt = 0.1 per axis. This is
    not the sigma^2 per hour of the MDP's transition law (``build_model``):
    a simulator made consistent with that law must change this figure."""
    field = gyre_field(GyreParams(0.0, 20.0), NoiseParams.isotropic(1.0))
    states = StateSpace.regular(20, 20, 2.0, (17, 17))
    start, goal, opts = Point2(20.0, 20.0), states.position(states.goal), SimOptions(budget_h=1.0)
    _, runs = run_experiment(field, {"still": _StillPlanner()}, start, goal, opts, 2000, 5, states)
    assert all(run.end_reason == "budget" and len(run) == 11 for run in runs["still"])
    moved = np.array([run.points[-1] for run in runs["still"]]) - start
    assert moved.var(axis=0, ddof=1) == pytest.approx([0.1, 0.1], rel=0.1)


@pytest.mark.parametrize("offset", [(-0.3, 0.4), (1.0, 0.0)], ids=["inside", "on-the-radius"])
def test_start_inside_the_goal_radius_ends_every_planner_at_once(solved, offset):
    field, states, _, planners = solved
    goal = states.position(states.goal)
    start = Point2(goal.x + offset[0], goal.y + offset[1])
    _, runs = run_experiment(field, planners, start, goal, SimOptions(), 3, 5, states)
    for name, planner in planners.items():
        for trial, run in enumerate(runs[name]):
            rng = np.random.default_rng(np.random.SeedSequence([5, trial]))
            times, points, headings, *rest = _reference_trial(
                field, planner, start, goal, SimOptions(), rng, states
            )
            assert np.array_equal(run.points, points) and np.array_equal(run.headings, headings)
            assert (run.end_reason, run.time_cost, run.length, len(run)) == ("goal", 0.0, 0.0, 1)


def _toward(p, goal, v_max):
    """The goal-oriented command at one point, as one (dx, dy) offset."""
    dx, dy = goal[0] - p[0], goal[1] - p[1]
    return (0.0, 0.0) if dx == 0.0 and dy == 0.0 else (math.atan2(dy, dx), v_max)


def _reference_command(planner, p):
    """One planner command at one point, as the planners gave it before they
    took rows: the continuous planner scores the point's state alone."""
    if isinstance(planner, GoalOrientedPlanner):
        return _toward(p, planner.goal, planner.v_max)
    s = planner.states.state_at(p)
    if s == planner.states.goal:
        return _toward(p, planner.states.position(s), planner.actions[0].speed)
    if isinstance(planner, DiscretePlanner):
        act = planner.actions[int(planner.policy[s])]
    else:
        scores = _state_scores(planner.model, np.array([s]), planner.value.expansion(np.array([p])))[0]
        act = planner.actions[best_action(scores)]
    return act.heading, act.speed


def test_row_commands_equal_one_point_commands(solved):
    _, states, _, planners = solved
    rng = np.random.default_rng(11)
    goal = np.asarray(states.position(states.goal))
    rows = np.vstack(
        [
            rng.uniform(0.0, 20.0, size=(40, 2)),
            goal + rng.uniform(-0.9, 0.9, size=(6, 2)),  # in the goal cell
            [goal, [0.0, 0.0], [0.3, 7.0], [19.8, 19.9], [20.0, 4.0], [5.5, 0.2]],
            states.positions()[::7],
        ]
    )
    assert not all(planners["api"].value.mesh.covers(Point2(*q)) for q in rows)
    in_goal_cell = states.state_at(rows) == states.goal
    assert in_goal_cell.sum() >= 7
    # The whole batch, and the batch without its goal-cell rows, which homes
    # no row.
    for batch in (rows, rows[~in_goal_cell]):
        for name, planner in planners.items():
            heading, speed = planner.command(batch, states.state_at(batch))
            for q, h, v in zip(batch, heading, speed):
                p = Point2(*q)
                assert (h, v) == _reference_command(planner, p), (name, q)
    # At the goal point itself every planner stops.
    for planner in planners.values():
        assert _command(planner, goal, states) == (0.0, 0.0)


def test_the_discrete_planner_gives_one_command_everywhere_in_a_non_goal_cell(solved):
    # The simulator asks every planner at every step; for the grid policy
    # that is a lookup of the containing cell, so asking again inside a cell
    # other than the goal's gives the command it already holds.
    _, states, model, planners = solved
    planner = planners["classic-pi"]
    rng = np.random.default_rng(29)
    rows = np.vstack([rng.uniform(0.0, 20.0, size=(4000, 2)), states.positions() + 0.999, states.positions() - 0.999])
    rows = np.clip(rows, 0.0, 20.0)
    cells = states.state_at(rows)
    heading, speed = planner.command(rows, cells)
    away = cells != states.goal
    assert set(cells[away].tolist()) == set(range(states.n)) - {states.goal}
    act = planner.policy[cells[away]]
    assert np.array_equal(heading[away], [model.actions[a].heading for a in act])
    assert np.array_equal(speed[away], [model.actions[a].speed for a in act])


@pytest.mark.parametrize("goal", [(-0.0, -0.0), (0.0, 0.0), (7.0, -3.5)], ids=["negative-zero", "zero", "off-origin"])
def test_goal_oriented_headings_equal_math_atan2_row_by_row(goal):
    gx, gy = goal
    rng = np.random.default_rng(17)
    # At the goal (-0.0, -0.0) these rows give each sign pair of a zero offset.
    zeros = [[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]]
    axes = [[gx, gy + 2.0], [gx, gy - 2.0], [gx + 2.0, gy], [gx - 2.0, gy]]
    rows = np.vstack([zeros, [goal], axes, rng.normal(size=(40, 2)) * 5.0, [[float("nan"), 1.0]]])
    heading, speed = goal_oriented_action(rows, Point2(*goal), 3.0)
    want_heading, want_speed = np.array([_toward(q, goal, 3.0) for q in rows.tolist()]).T
    assert heading.tobytes() == want_heading.tobytes()
    assert speed.tobytes() == want_speed.tobytes()
    assert (speed == 0.0).sum() == (5 if goal[0] == 0.0 else 1)
    heading, speed = goal_oriented_action(np.empty((0, 2)), Point2(*goal), 3.0)
    assert heading.shape == speed.shape == (0,)
    assert heading.dtype == speed.dtype == np.float64


def test_step_rejects_a_row_outside_the_field(gyre):
    field, _ = gyre
    points = np.array([[5.0, 5.0], [5.0, -0.5]])
    command = (np.zeros(2), np.full(2, 3.0))
    with pytest.raises(DomainError):
        step(field, points, command, 0.1, np.zeros((2, 2)))


def test_the_step_course_equals_math_cos_and_sin_bit_for_bit():
    # In still water at the origin, a one-hour step at unit speed moves a row
    # by its course alone: the compass headings of the grid planners and the
    # atan2 headings of the goal-oriented one.
    field = gyre_field(GyreParams(0.0, 20.0), NoiseParams.isotropic(0.0), extent=(4.0, 4.0), origin=Point2(-2.0, -2.0))
    rng = np.random.default_rng(23)
    dx, dy = rng.normal(size=(2, 20_000)).tolist()
    headings = np.array([a.heading for a in compass_actions(3.0)] + list(map(math.atan2, dy, dx)))
    n = len(headings)
    moved = step(field, np.zeros((n, 2)), (headings, np.ones(n)), 1.0, np.zeros((n, 2)))
    want = np.array([(math.cos(h), math.sin(h)) for h in headings.tolist()])
    differ = int((moved.view(np.int64) != want.view(np.int64)).sum())
    assert differ == 0, (
        f"{differ} of {want.size} course components differ from math.cos/math.sin: step's course relies on "
        "numpy's float64 sin/cos rounding as libm's do, which this host's numpy does not"
    )


@pytest.mark.parametrize(
    "goal, radius",
    [((35.0, 35.0), 1.0), ((35.0, 35.0), 5.0), ((0.1, 0.7), 0.3), ((12.345, -6.789), 2.5), ((0.0, 0.0), 1e-3)],
)
def test_the_goal_test_decides_as_math_dist_on_and_near_the_radius(goal, radius):
    g = np.asarray(goal)
    rng = np.random.default_rng(np.random.SeedSequence([31, int(radius * 1000)]))
    # On the radius: axis points, and a 3-4-5 triangle when the radius is 5.
    unit = np.array([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], [0.0, 1.0], [0.6, 0.8], [-0.8, -0.6]])
    exact = g + radius * unit
    # 1 to 4 ulps inside and outside points of the circle, axis by axis,
    # along several directions.
    theta = rng.uniform(0.0, 2.0 * np.pi, 300)
    ring = g + radius * np.column_stack([np.cos(theta), np.sin(theta)])
    near = [ring]
    for outward in (True, False):
        q = ring
        for _ in range(4):
            q = np.nextafter(q, np.where((q > g) == outward, np.inf, -np.inf))
            near.append(q)
    spread = g + radius * rng.uniform(-3.0, 3.0, size=(2000, 2))
    rows = np.vstack([exact, *near, g[None], spread])
    want = np.array([math.dist(q, goal) <= radius for q in rows.tolist()])
    assert np.array_equal(_in_goal(rows, goal, radius), want)
    if radius in (1.0, 5.0):  # the goal and the radius are exact in binary
        on = exact if radius == 5.0 else exact[:4]
        assert [math.dist(q, goal) for q in on.tolist()] == [radius] * len(on)
        assert _in_goal(on, goal, radius).all()
    assert want[-len(spread) - 1] and 0 < want.sum() < len(rows)  # the goal itself is inside


def test_the_goal_test_is_not_a_comparison_of_squares_alone():
    # Near the radius, the rounded squared distance and the squared radius
    # decide some rows otherwise than math.dist does; the kernel must not.
    goal, radius = (0.1, 0.7), 0.3
    g = np.asarray(goal)
    theta = np.random.default_rng(37).uniform(0.0, 2.0 * np.pi, 2000)
    rows = g + radius * np.column_stack([np.cos(theta), np.sin(theta)])
    want = np.array([math.dist(q, goal) <= radius for q in rows.tolist()])
    d = rows - g
    assert ((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] <= radius * radius) != want).any()
    assert np.array_equal(_in_goal(rows, goal, radius), want)


def _turning(headings):
    """Total absolute change of the commanded heading, each step wrapped to [-pi, pi)."""
    return float(np.abs((np.diff(headings) + np.pi) % (2.0 * np.pi) - np.pi).sum())


def test_the_api_planner_turns_no_more_than_classic_pi_along_a_wall():
    # The csv-wall-k2 geometry on the paper's gyre: a 24x24 grid of 40/24 km
    # cells, a 12-cell wall between the start and an odd-parity goal, a k=2
    # mesh. A value expansion that jumps at element edges makes the
    # continuous planner's commands chatter along the wall; its mean turning
    # per trial must not exceed that of the grid policy it approximates.
    cell = 40.0 / 24
    text = (
        f"noise.sigma_kmh = 0.3\ngrid.nx = 24\ngrid.ny = 24\ngrid.cell_km = {cell!r}\n"
        f"grid.origin_x_km = {cell / 2!r}\ngrid.origin_y_km = {cell / 2!r}\n"
        f"grid.obstacles = {', '.join(f'12, {j}' for j in range(6, 18))}\n"
        "goal.i = 18\ngoal.j = 17\nfem.k = 2\n"
    )
    cfg = parse_config(text)
    model = build_mdp(cfg)
    states = model.states
    goal = states.position(states.goal)
    planners = {
        "classic-pi": DiscretePlanner(classic_policy_iteration(model).policy, states, model.actions),
        "api": ContinuousPlanner(model, approximate_policy_iteration(model, ApiConfig(k=2)).value),
    }
    _, runs = run_experiment(model.field, planners, Point2(1.0, 1.0), goal, SimOptions(), 10, 7, states=states)
    turning = {name: np.mean([_turning(run.headings) for run in trials]) for name, trials in runs.items()}
    assert turning["api"] <= turning["classic-pi"]
