import math

import numpy as np
import pytest
from scipy.stats import norm

from flowplan.flowfield import GyreParams, NoiseParams, Point2, field_velocity, gyre_field
from flowplan.mdp import (
    COMPASS_ORDER,
    StateSpace,
    action_values,
    build_model,
    classic_policy_iteration,
    compass_actions,
    policy_evaluation_exact,
    policy_improvement_discrete,
    value_iteration,
)

GAMMA = 0.95


def _zero_field(extent=(40.0, 40.0), sigma=1.0):
    return gyre_field(GyreParams(0.0, 20.0), NoiseParams.isotropic(sigma), extent=extent)


def oracle_row(model, s, a):
    """Independent transition-row reconstruction: per-axis Gaussian densities
    at the neighborhood centers (scipy.stats), then normalization."""
    states = model.states
    i, j = states.coords(s)
    pos = states.position(s)
    drift = field_velocity(model.field, pos)
    act = model.actions[a]
    mean = (
        pos.x + (drift.vx + act.speed * math.cos(act.heading)) * model.dt_h,
        pos.y + (drift.vy + act.speed * math.sin(act.heading)) * model.dt_h,
    )
    sx = model.noise.sigma_x * math.sqrt(model.dt_h)
    sy = model.noise.sigma_y * math.sqrt(model.dt_h)
    weights = {}
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            if 0 <= i + di < states.nx and 0 <= j + dj < states.ny:
                succ = states.index(i + di, j + dj)
                c = states.position(succ)
                weights[succ] = norm.pdf(c.x, mean[0], sx) * norm.pdf(c.y, mean[1], sy)
    total = sum(weights.values())
    return {k: v / total for k, v in weights.items()}


def test_action_headings_are_compass_multiples():
    actions = compass_actions(3.0)
    assert [a.compass for a in actions] == list(COMPASS_ORDER)
    for a in actions:
        assert a.speed == 3.0
        assert (a.heading / (math.pi / 4)) == pytest.approx(round(a.heading / (math.pi / 4)))
    north = actions[0]
    assert math.sin(north.heading) == pytest.approx(1.0)


def test_zero_noise_limit_lands_on_east_neighbor():
    # action E with dt tuned so the mean displacement is exactly one cell
    field = _zero_field(sigma=0.0)
    states = StateSpace.regular(5, 5, 2.0, (4, 4))
    model = build_model(field, states, dt_h=2.0 / 3.0, v_max=3.0, gamma=GAMMA)
    s = states.index(2, 2)
    a = COMPASS_ORDER.index("E")
    ids, probs = model.transition_row(s, a)
    assert list(ids) == [states.index(3, 2)]
    assert probs[0] == 1.0


def test_gaussian_symmetry_about_drift_axis(zero_field_model):
    model = zero_field_model
    states = model.states
    s = states.index(2, 1)
    a = COMPASS_ORDER.index("N")
    ids, probs = model.transition_row(s, a)
    row = dict(zip(ids.tolist(), probs.tolist()))
    ne = row[states.index(3, 2)]
    nw = row[states.index(1, 2)]
    assert ne == nw  # bit-for-bit, by mirrored per-axis weights


def test_transition_row_matches_density_oracle(gyre_benchmark):
    model, _ = gyre_benchmark
    rng = np.random.default_rng(3)
    for s in rng.integers(0, model.n_states, size=12):
        s = int(s)
        if model.states.is_terminal(s):
            continue
        for a in range(model.n_actions):
            ids, probs = model.transition_row(s, a)
            want = oracle_row(model, s, a)
            assert set(ids.tolist()) == set(want)
            for k, p in zip(ids.tolist(), probs.tolist()):
                assert p == pytest.approx(want[k], abs=1e-12)


def test_rows_normalized_and_nonnegative(gyre_benchmark):
    model, _ = gyre_benchmark
    assert (model.prob >= 0.0).all()
    sums = model.prob.sum(axis=2)
    assert np.abs(sums - 1.0).max() < 1e-12


def test_goal_and_obstacles_absorb():
    field = _zero_field()
    states = StateSpace.regular(5, 5, 2.0, (2, 2), obstacle_cells=[(0, 0), (4, 1)])
    model = build_model(field, states, 1.0, 3.0, GAMMA)
    for s in [states.goal, states.index(0, 0), states.index(4, 1)]:
        for a in range(8):
            ids, probs = model.transition_row(s, a)
            assert list(ids) == [s] and probs[0] == 1.0
            assert model.rewards[s, a] == 0.0


def test_expected_reward_interior_is_step_cost(zero_field_model):
    model = zero_field_model
    s = model.states.index(0, 0)  # far from goal (2,2), no obstacles
    assert model.rewards[s, 0] == pytest.approx(-0.1, abs=1e-12)


def test_expected_reward_near_obstacle_mixes_penalty():
    field = _zero_field()
    states = StateSpace.regular(5, 5, 2.0, (4, 4), obstacle_cells=[(2, 3)])
    model = build_model(field, states, 1.0, 3.0, GAMMA)
    s = states.index(2, 2)
    a = COMPASS_ORDER.index("N")
    ids, probs = model.transition_row(s, a)
    p_obs = sum(p for k, p in zip(ids.tolist(), probs.tolist()) if states.obstacles[k])
    assert model.rewards[s, a] == pytest.approx(-1.0 * p_obs - 0.1 * (1 - p_obs), abs=1e-12)


def test_evaluation_zero_rewards_gives_zero(zero_field_model):
    model = zero_field_model
    model.rewards[:] = 0.0
    values = policy_evaluation_exact(model, np.zeros(model.n_states, dtype=np.int64))
    assert np.abs(values).max() < 1e-12


def test_evaluation_absorbing_geometric_series(zero_field_model):
    # give the absorbing goal a -0.1 self-reward: v = -0.1 / (1 - gamma)
    model = zero_field_model
    g = model.states.goal
    model.rewards[g, :] = -0.1
    values = policy_evaluation_exact(model, np.zeros(model.n_states, dtype=np.int64))
    assert values[g] == pytest.approx(-0.1 / (1 - model.gamma), rel=1e-12)
    model.rewards[g, :] = 0.0


def test_evaluation_matches_policy_restricted_value_iteration():
    field = _zero_field(extent=(6.0, 6.0))
    states = StateSpace.regular(3, 3, 2.0, (1, 1))
    model = build_model(field, states, 1.0, 3.0, GAMMA)
    policy = np.full(states.n, COMPASS_ORDER.index("NE"), dtype=np.int64)
    got = policy_evaluation_exact(model, policy)
    v = np.zeros(states.n)
    for _ in range(20000):
        idx = np.arange(states.n)
        expected = (model.prob[policy, idx] * v[model.succ[policy, idx]]).sum(axis=1)
        nxt = model.rewards[idx, policy] + model.gamma * expected
        if np.abs(nxt - v).max() < 1e-14:
            break
        v = nxt
    assert np.abs(got - v).max() < 1e-10


def test_improvement_tie_breaks_to_first_action(zero_field_model):
    model = zero_field_model
    model.rewards[:] = -0.1
    policy = policy_improvement_discrete(model, np.zeros(model.n_states))
    assert (policy == 0).all()


def test_improvement_prefers_high_value_neighbor():
    field = _zero_field(sigma=0.0)
    states = StateSpace.regular(5, 5, 2.0, (4, 4))
    model = build_model(field, states, 2.0 / 3.0, 3.0, GAMMA)
    s = states.index(2, 2)
    values = np.zeros(states.n)
    values[states.index(3, 2)] = 5.0
    policy = policy_improvement_discrete(model, values)
    assert COMPASS_ORDER[policy[s]] == "E"


def test_improvement_invariant_to_reward_shift(gyre_benchmark):
    model, exact = gyre_benchmark
    base = policy_improvement_discrete(model, exact.values)
    shifted_rewards = model.rewards + 0.37
    q = shifted_rewards + model.gamma * np.einsum(
        "asn,asn->as", model.prob, exact.values[model.succ]
    ).T
    assert np.array_equal(np.argmax(q, axis=1), base)


def test_evaluation_shift_by_constant_over_one_minus_gamma(zero_field_model):
    model = zero_field_model
    policy = np.zeros(model.n_states, dtype=np.int64)
    before = policy_evaluation_exact(model, policy)
    model.rewards += 0.25
    after = policy_evaluation_exact(model, policy)
    model.rewards -= 0.25
    np.testing.assert_allclose(after - before, 0.25 / (1 - model.gamma), atol=1e-9)


def test_policy_iteration_trivial_on_zero_rewards(zero_field_model):
    model = zero_field_model
    model.rewards[:] = 0.0
    res = classic_policy_iteration(model)
    assert res.iterations == 1
    assert np.abs(res.values).max() < 1e-12


def test_policy_iteration_deterministic_chain_geometric_values():
    # zero field, zero noise, dt tuned for exact single-cell eastward steps;
    # a 6x1 strip is a true chain (vertical motion clamps away)
    field = _zero_field(sigma=0.0, extent=(12.0, 12.0))
    states = StateSpace.regular(6, 1, 2.0, (5, 0))
    model = build_model(field, states, 2.0 / 3.0, 3.0, GAMMA)
    res = classic_policy_iteration(model)
    for i in range(5):
        d = 5 - i
        want = -0.1 * (1 - GAMMA ** (d - 1)) / (1 - GAMMA)
        assert res.values[states.index(i, 0)] == pytest.approx(want, abs=1e-10)
        # co-optimal eastward headings; the greedy policy points at the goal
        assert COMPASS_ORDER[res.policy[states.index(i, 0)]] in ("NE", "E", "SE")


def test_policy_iteration_matches_value_iteration_5x5():
    field = gyre_field(GyreParams(0.4, 10.0), NoiseParams.isotropic(1.5), extent=(10.0, 10.0))
    states = StateSpace.regular(5, 5, 2.0, (3, 3))
    model = build_model(field, states, 1.0, 3.0, GAMMA)
    res = classic_policy_iteration(model)
    vi = value_iteration(model, tol=1e-13)
    assert np.abs(res.values - vi).max() < 1e-8


def test_policy_iteration_monotone_and_bounded(gyre_benchmark):
    model, exact = gyre_benchmark
    res = classic_policy_iteration(model, record_history=True)
    assert res.iterations <= 500
    for prev, curr in zip(res.value_history, res.value_history[1:]):
        assert (curr >= prev - 1e-9).all()
    assert res.values[model.states.goal] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(res.values, exact.values, atol=1e-12)


def test_mirror_symmetric_configuration():
    # goal on the center column of a 5x5 zero-current grid
    field = _zero_field(extent=(10.0, 10.0))
    states = StateSpace.regular(5, 5, 2.0, (2, 1))
    model = build_model(field, states, 1.0, 3.0, GAMMA)
    values = classic_policy_iteration(model).values.reshape(5, 5)
    np.testing.assert_allclose(values, values[:, ::-1], atol=1e-8)


def test_state_space_validation():
    with pytest.raises(ValueError):
        StateSpace.regular(1, 2, 2.0, (0, 0))
    with pytest.raises(ValueError):
        StateSpace.regular(3, 3, 2.0, (1, 1), obstacle_cells=[(1, 1)])


def test_state_at_clamps_to_grid():
    states = StateSpace.regular(4, 4, 2.0, (3, 3))
    assert states.state_at(Point2(-5.0, -5.0)) == states.index(0, 0)
    assert states.state_at(Point2(100.0, 3.2)) == states.index(3, 1)
    assert states.state_at(Point2(3.0, 5.0)) == states.index(1, 2)


def test_state_at_rows_equal_the_per_point_cells():
    # Rows on the cell boundaries (x = 2, 4, ... with 2 km cells from 1 km)
    # round half up, as the per-point floor(u + 0.5) does.
    states = StateSpace.regular(4, 4, 2.0, (3, 3))
    rng = np.random.default_rng(3)
    rows = np.vstack([rng.uniform(-2.0, 10.0, size=(50, 2)), [[2.0, 4.0], [6.0, 0.0], [8.0, 8.0]]])
    cells = states.state_at(rows)
    for (x, y), s in zip(rows, cells):
        i = min(max(math.floor((x - 1.0) / 2.0 + 0.5), 0), 3)
        j = min(max(math.floor((y - 1.0) / 2.0 + 0.5), 0), 3)
        assert s == states.index(i, j) == states.state_at(Point2(x, y))
    assert states.state_at(Point2(2.0, 4.0)) == states.index(1, 2)


def test_value_and_policy_csv_schema(tmp_path, zero_field_model):
    from flowplan.mdp import write_policy_csv, write_value_csv

    model = zero_field_model
    res = classic_policy_iteration(model)
    vpath = tmp_path / "values.csv"
    ppath = tmp_path / "policy.csv"
    write_value_csv(vpath, model.states, res.values)
    write_policy_csv(ppath, res.policy)
    assert vpath.read_text().splitlines()[0] == "state_id,i,j,x_km,y_km,value"
    assert ppath.read_text().splitlines()[0] == "state_id,action"
    assert len(vpath.read_text().splitlines()) == model.n_states + 1
