import numpy as np
import pytest

from flowplan import fem
from flowplan.flowfield import GyreParams, NoiseParams, Point2, gyre_field
from flowplan.mdp import StateSpace, build_model
from flowplan.simulator import (
    ContinuousPlanner,
    GoalOrientedPlanner,
    SimOptions,
    run_experiment,
    simulate_trial,
)


@pytest.fixture
def gyre():
    field = gyre_field(GyreParams(0.5, 10.0), NoiseParams.isotropic(1.0), extent=(20.0, 20.0))
    states = StateSpace.regular(10, 10, 2.0, (7, 7))
    return field, states


def _trial(field, planner, start, goal, opts, seed, trial, states=None):
    rng = np.random.default_rng(np.random.SeedSequence([seed, trial]))
    return simulate_trial(field, planner, start, goal, opts, rng, states)


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
    run = _trial(field, GoalOrientedPlanner(goal, 3.0), Point2(1.0, 1.0), goal, opts, 5, 0)
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
    run = _trial(field, GoalOrientedPlanner(goal, 3.0), start, goal, SimOptions(), 5, 0)
    assert run.reached and run.time_cost == 0.0 and len(run) == 1


def test_unreached_goal_costs_the_whole_budget(gyre):
    field, states = gyre
    goal = states.position(states.goal)
    opts = SimOptions(budget_h=2.0)  # 6 km at most from the start, 17 km away
    run = _trial(field, GoalOrientedPlanner(goal, 3.0), Point2(1.0, 1.0), goal, opts, 5, 0)
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
    p = states.position(states.index(2, 2))
    headings = {a.compass: a.heading for a in model.actions}
    for sign, compass in ((1.0, "NE"), (-1.0, "SW")):
        planner = ContinuousPlanner(model, fem.ContinuousValue(mesh, sign * mesh.nodes[:, 0]))
        heading, speed = planner.command(p)
        assert heading == headings[compass]
        assert speed == 3.0
