import math
import re
import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbsv as scipy_dgbsv
from scipy.stats import norm

from flowplan import mdp
from flowplan.errors import NumericalError
from flowplan.fem import build_mesh
from flowplan.flowfield import (
    GridSamples,
    GyreParams,
    NoiseParams,
    Point2,
    field_velocity,
    grid_field,
    gyre_field,
)
from flowplan.mdp import (
    COMPASS_ORDER,
    COMPASS_VECTORS,
    OBSTACLE_REWARD,
    STEP_REWARD,
    StateSpace,
    action_values,
    build_model,
    classic_policy_iteration,
    compass_actions,
    MdpModel,
    _band_solve,
    policy_evaluation_exact,
)
from flowplan.moments import transition_moments
from flowplan.policy_iter import evaluate_policy_fem

from conftest import is_terminal, policy_improvement_discrete, state_index, transition_row, value_iteration

GAMMA = 0.95


def _solve_banded(matrix, rhs):
    """``_band_solve`` over the stored entries of a scipy sparse matrix:
    duplicates are added, and a stored zero reaches the band and counts
    towards its width."""
    a = matrix.tocoo()
    return _band_solve(a.row, a.col, a.data, rhs)


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
    sx = model.field.noise.sigma_x * math.sqrt(model.dt_h)
    sy = model.field.noise.sigma_y * math.sqrt(model.dt_h)
    weights = {}
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            if 0 <= i + di < states.nx and 0 <= j + dj < states.ny:
                succ = state_index(states, i + di, j + dj)
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
    s = state_index(states, 2, 2)
    a = COMPASS_ORDER.index("E")
    ids, probs = transition_row(model, s, a)
    assert list(ids) == [state_index(states, 3, 2)]
    assert probs[0] == 1.0


def test_gaussian_symmetry_about_drift_axis(zero_field_model):
    model = zero_field_model
    states = model.states
    s = state_index(states, 2, 1)
    a = COMPASS_ORDER.index("N")
    ids, probs = transition_row(model, s, a)
    row = dict(zip(ids.tolist(), probs.tolist()))
    ne = row[state_index(states, 3, 2)]
    nw = row[state_index(states, 1, 2)]
    assert ne == nw  # bit-for-bit, by mirrored per-axis weights


def test_transition_row_matches_density_oracle(gyre_benchmark):
    model, _ = gyre_benchmark
    rng = np.random.default_rng(3)
    for s in rng.integers(0, model.n_states, size=12):
        s = int(s)
        if is_terminal(model.states, s):
            continue
        for a in range(model.n_actions):
            ids, probs = transition_row(model, s, a)
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
    for s in [states.goal, state_index(states, 0, 0), state_index(states, 4, 1)]:
        for a in range(8):
            ids, probs = transition_row(model, s, a)
            assert list(ids) == [s] and probs[0] == 1.0
            assert model.rewards[s, a] == 0.0


def test_expected_reward_interior_is_step_cost(zero_field_model):
    model = zero_field_model
    s = state_index(model.states, 0, 0)  # far from goal (2,2), no obstacles
    assert model.rewards[s, 0] == pytest.approx(-0.1, abs=1e-12)


def test_expected_reward_near_obstacle_mixes_penalty():
    field = _zero_field()
    states = StateSpace.regular(5, 5, 2.0, (4, 4), obstacle_cells=[(2, 3)])
    model = build_model(field, states, 1.0, 3.0, GAMMA)
    s = state_index(states, 2, 2)
    a = COMPASS_ORDER.index("N")
    ids, probs = transition_row(model, s, a)
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
        expected = (model.prob[idx, policy] * v[model.succ]).sum(axis=1)
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
    s = state_index(states, 2, 2)
    values = np.zeros(states.n)
    values[state_index(states, 3, 2)] = 5.0
    policy = policy_improvement_discrete(model, values)
    assert COMPASS_ORDER[policy[s]] == "E"


def test_improvement_invariant_to_reward_shift(gyre_benchmark):
    model, exact = gyre_benchmark
    base = policy_improvement_discrete(model, exact.values)
    shifted_rewards = model.rewards + 0.37
    q = shifted_rewards + model.gamma * np.einsum("san,sn->sa", model.prob, exact.values[model.succ])
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
    # Every Q ties at 0, so the goal-aimed start moves to action 0 at every
    # state, and the second evaluation confirms it.
    model = zero_field_model
    model.rewards[:] = 0.0
    res = classic_policy_iteration(model)
    assert res.iterations == 2
    assert (res.policy == 0).all()
    assert (res.values == 0.0).all()


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
        assert res.values[state_index(states, i, 0)] == pytest.approx(want, abs=1e-10)
        # co-optimal eastward headings; the greedy policy points at the goal
        assert COMPASS_ORDER[res.policy[state_index(states, i, 0)]] in ("NE", "E", "SE")


def test_policy_iteration_matches_value_iteration_5x5():
    field = gyre_field(GyreParams(0.4, 10.0), NoiseParams.isotropic(1.5), extent=(10.0, 10.0))
    states = StateSpace.regular(5, 5, 2.0, (3, 3))
    model = build_model(field, states, 1.0, 3.0, GAMMA)
    res = classic_policy_iteration(model)
    vi = value_iteration(model, tol=1e-13)
    assert np.abs(res.values - vi).max() < 1e-8


def test_policy_iteration_monotone_and_bounded(gyre_benchmark, monkeypatch):
    model, exact = gyre_benchmark
    evaluate = mdp.policy_evaluation_exact
    history = []

    def recording(model, policy):
        history.append(evaluate(model, policy))
        return history[-1]

    monkeypatch.setattr(mdp, "policy_evaluation_exact", recording)
    res = classic_policy_iteration(model)
    assert res.iterations <= 500 and len(history) == res.iterations
    for prev, curr in zip(history, history[1:]):
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


@pytest.mark.parametrize(
    "goal, obstacles",
    [((4, 0), []), ((0, -1), []), ((0, 0), [(-1, 0)]), ((0, 0), [(4, 1)]), ((0, 0), [(1, 4)])],
)
def test_cells_outside_the_grid_are_rejected_not_wrapped(goal, obstacles):
    # On a 4x4 grid a flat index would wrap (4, 0) onto (0, 1), (-1, 0) onto
    # (3, 3) and (4, 1) onto (0, 2).
    with pytest.raises(ValueError, match="outside the 4x4 grid"):
        StateSpace.regular(4, 4, 2.0, goal, obstacle_cells=obstacles)


def test_state_at_clamps_to_grid():
    states = StateSpace.regular(4, 4, 2.0, (3, 3))
    assert states.state_at(Point2(-5.0, -5.0)) == state_index(states, 0, 0)
    assert states.state_at(Point2(100.0, 3.2)) == state_index(states, 3, 1)
    assert states.state_at(Point2(3.0, 5.0)) == state_index(states, 1, 2)


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
        assert s == state_index(states, i, j) == states.state_at(Point2(x, y))
    assert states.state_at(Point2(2.0, 4.0)) == state_index(states, 1, 2)


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


def _reference_axis_log_weights(deltas, variance):
    if variance <= 0.0:
        d = np.abs(deltas)
        return np.where(d <= d.min() + 1e-12, 0.0, -np.inf)
    w = -(deltas**2) / (2.0 * variance)
    return w - w.max()


def _reference_transition_weights(dxs, dys, mean_dx, mean_dy, var_x, var_y):
    lwx = _reference_axis_log_weights(dxs - mean_dx, var_x)
    lwy = _reference_axis_log_weights(dys - mean_dy, var_y)
    w = np.exp(lwx[:, None] + lwy[None, :])
    return w / w.sum()


def _reference_reward_kernel(states, s, succ):
    if is_terminal(states, s):
        return np.zeros(len(succ))
    r = np.full(len(succ), STEP_REWARD)
    r[states.obstacles[succ]] = OBSTACLE_REWARD
    r[succ == states.goal] = 0.0
    return r


def _reference_build_model(field, states, dt_h, v_max, gamma):
    """The state x action loop that built the model before the stencil
    arrays: one 3x3 (or smaller, at the grid edge) weight table per row."""
    actions = compass_actions(v_max)
    n = states.n
    n_a = len(actions)
    succ = np.empty((n, 9), dtype=np.int64)
    prob = np.zeros((n, n_a, 9))
    rewards = np.zeros((n, n_a))
    var_x = field.noise.sigma_x**2 * dt_h
    var_y = field.noise.sigma_y**2 * dt_h
    cell = states.cell_km
    for s in range(n):
        i, j = states.coords(s)
        pos = states.position(s)
        if is_terminal(states, s):
            succ[s, :] = s
            prob[s, :, 0] = 1.0
            continue
        dis = np.array([di for di in (-1, 0, 1) if 0 <= i + di < states.nx])
        djs = np.array([dj for dj in (-1, 0, 1) if 0 <= j + dj < states.ny])
        ids = np.array([[state_index(states, i + di, j + dj) for dj in djs] for di in dis]).ravel()
        succ[s, : len(ids)] = ids
        succ[s, len(ids) :] = s
        drift = field_velocity(field, pos)
        for a, act in enumerate(actions):
            ux, uy = COMPASS_VECTORS[act.compass]
            mean_dx = (drift.vx + act.speed * ux) * dt_h
            mean_dy = (drift.vy + act.speed * uy) * dt_h
            w = _reference_transition_weights(dis * cell, djs * cell, mean_dx, mean_dy, var_x, var_y)
            probs = w.ravel()
            prob[s, a, : len(ids)] = probs
            rewards[s, a] = sum((p * r for p, r in zip(probs, _reference_reward_kernel(states, s, ids))), 0.0)
    return MdpModel(states, actions, dt_h, gamma, field, succ, prob, rewards)


def _paper_case(nx, ny, sigma, strength):
    """The paper gyre over a 40 km square, goal at 0.85 n, one obstacle."""
    cell = 40.0 / max(nx, ny)
    field = gyre_field(GyreParams(strength, 20.0), NoiseParams(*sigma))
    goal = (nx * 17 // 20, ny * 17 // 20)
    states = StateSpace.regular(nx, ny, cell, goal, obstacle_cells=[(nx // 3, ny // 3)])
    return field, states, 1.0


def _csv_case():
    """A bilinear field, dt != 1, an obstacle beside the goal."""
    rng = np.random.default_rng(5)
    samples = GridSamples(Point2(0.0, 0.0), 1.5, 9, 8, rng.normal(size=(8, 9)), rng.normal(size=(8, 9)))
    field = grid_field(samples, NoiseParams(0.3, 0.8))
    states = StateSpace.regular(9, 7, 1.4, (5, 4), Point2(0.5, 0.7), [(6, 4), (2, 2)])
    return field, states, 0.7


def _corner_case(goal):
    field = gyre_field(GyreParams(1.0, 20.0), NoiseParams(0.5, 0.2))
    states = StateSpace.regular(6, 5, 4.0, goal, obstacle_cells=[(1, 1), (4, 3)])
    return field, states, 1.3


def _near_tie_case():
    """No noise or current; a diagonal action's mean lands 2e-16 km past half
    a 2 km cell, so two offsets are nearest within the 1e-12 km tie rule."""
    field = gyre_field(GyreParams(0.0, 20.0), NoiseParams(0.0, 0.0), extent=(10.0, 10.0))
    return field, StateSpace.regular(5, 5, 2.0, (4, 4)), 0.47140452079103173


def _csv_wall_case():
    """The CSV case with a wall of five cells between start and goal."""
    field, states, dt_h = _csv_case()
    wall = [(3, j) for j in range(1, 6)]
    return field, StateSpace.regular(9, 7, 1.4, (5, 4), Point2(0.5, 0.7), wall), dt_h


def _reference_moment_table(model):
    """The einsum table of every (state, action) row's displacement moments."""
    positions = model.states.positions()
    disp = positions[model.succ] - positions[:, None, :]
    drift = np.einsum("saj,sjd->sad", model.prob, disp)
    second = np.einsum("saj,sjd,sje->sade", model.prob, disp, disp)
    return drift, second


@pytest.mark.parametrize(
    "make, args",
    [
        (_paper_case, (20, 20, (1.0, 1.0), 0.5)),
        (_csv_wall_case, ()),
        (_paper_case, (20, 20, (0.0, 0.0), 0.5)),
        (_corner_case, ((0, 0),)),
        (_corner_case, ((5, 4),)),
    ],
    ids=["paper", "csv-wall", "noise-free", "goal-sw-corner", "goal-ne-corner"],
)
def test_moment_table_equals_the_einsum_reference_bit_for_bit(make, args):
    field, states, dt_h = make(*args)
    model = build_model(field, states, dt_h, 3.0, GAMMA)
    for got, want in zip(transition_moments(model, slice(None), slice(None)), _reference_moment_table(model)):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))  # sign bits too


@pytest.mark.parametrize(
    "case",
    [
        pytest.param((_paper_case, (nx, ny, sigma, strength)), id=f"{nx}x{ny}-s{sigma}-A{strength}")
        for nx, ny in [(1, 4), (4, 1), (2, 2), (3, 5), (7, 4), (20, 20), (80, 80)]
        for sigma in [(1.0, 1.0), (0.0, 0.0), (0.0, 0.3), (0.3, 1.0)]
        for strength in [0.0, 0.5, 2.0]
    ]
    + [
        pytest.param((_csv_case, ()), id="csv"),
        pytest.param((_corner_case, ((0, 0),)), id="goal-sw-corner"),
        pytest.param((_corner_case, ((5, 4),)), id="goal-ne-corner"),
        pytest.param((_near_tie_case, ()), id="near-tie"),
    ],
)
def test_build_model_matches_the_state_loop_reference(case):
    make, args = case
    field, states, dt_h = make(*args)
    got = build_model(field, states, dt_h, 3.0, GAMMA)
    want = _reference_build_model(field, states, dt_h, 3.0, GAMMA)
    assert got.succ.dtype == want.succ.dtype
    assert got.succ.shape == (states.n, 9)
    assert got.prob.shape == (states.n, 8, 9)
    assert got.rewards.shape == (states.n, 8)
    assert np.array_equal(got.succ, want.succ)
    assert np.array_equal(got.prob, want.prob)
    assert np.array_equal(got.rewards, want.rewards)
    assert all(a.flags.c_contiguous for a in (got.succ, got.prob, got.rewards))


# ------------------------------------------------------------ banded solve


def _policy_matrix(model, policy, floor=0.0):
    """P_pi as a CSR matrix of the padded transition rows, duplicates added,
    with the entries whose gamma p lies below ``floor`` set to 0: with
    ``mdp._COUPLING_FLOOR``, the reference for the band that
    policy_evaluation_exact fills directly."""
    n = model.n_states
    idx = np.arange(n)
    cols = model.succ.ravel()
    data = model.prob[idx, policy].ravel()
    data = np.where(model.gamma * data < floor, 0.0, data)
    rows = np.repeat(idx, model.succ.shape[1])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def _spsolve_reference(matrix, rhs):
    """SuperLU's general sparse solve, the solver the banded LU replaced."""
    return spla.spsolve(sp.csc_matrix(matrix), rhs)


def _bandwidths(matrix):
    a = matrix.tocoo()
    offset = a.row.astype(np.int64) - a.col
    return int(offset.max(initial=0)), -int(offset.min(initial=0))


def _assert_agrees(got, want):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


_SOLVE_CASES = [
    pytest.param((_paper_case, (nx, ny, sigma, 0.5)), id=f"{nx}x{ny}-s{sigma}")
    for nx, ny in [(1, 4), (4, 1), (3, 5), (7, 4), (20, 20)]
    for sigma in [(1.0, 1.0), (0.0, 0.0), (0.0, 0.3)]
] + [
    pytest.param((_csv_case, ()), id="csv"),
    pytest.param((_corner_case, ((0, 0),)), id="goal-sw-corner"),
    pytest.param((_near_tie_case, ()), id="near-tie"),
]


@pytest.mark.parametrize("case", _SOLVE_CASES)
def test_exact_evaluation_agrees_with_the_general_sparse_solve(case):
    # Every case has absorbing rows (the goal and an obstacle), and the
    # sigma = 0 cases have deterministic rows.
    make, args = case
    field, states, dt_h = make(*args)
    model = build_model(field, states, dt_h, 3.0, GAMMA)
    rng = np.random.default_rng(states.n)
    idx = np.arange(states.n)
    for policy in (np.zeros(states.n, dtype=np.int64), rng.integers(0, 8, size=states.n)):
        system = sp.eye(states.n, format="csr") - GAMMA * _policy_matrix(model, policy)
        # The 3x3 stencil keeps every coupling within one grid row.
        assert max(_bandwidths(system)) <= states.nx + 1
        want = _spsolve_reference(system, model.rewards[idx, policy])
        _assert_agrees(policy_evaluation_exact(model, policy), want)


def _zero_random_and_visited_policies(model, monkeypatch):
    """The zero policy, a seeded random one and every policy that classic PI
    evaluates on ``model``."""
    evaluate = mdp.policy_evaluation_exact
    visited = []

    def recording(model, policy):
        visited.append(policy.copy())
        return evaluate(model, policy)

    monkeypatch.setattr(mdp, "policy_evaluation_exact", recording)
    classic_policy_iteration(model)
    monkeypatch.setattr(mdp, "policy_evaluation_exact", evaluate)
    assert visited
    n = model.n_states
    return [np.zeros(n, dtype=np.int64), np.random.default_rng(n).integers(0, 8, size=n), *visited]


@pytest.mark.parametrize("case", _SOLVE_CASES)
def test_exact_evaluation_is_bit_identical_to_the_sparse_construction(case, monkeypatch):
    # The band filled from the transition rows must give the very values of
    # the sparse I - gamma P_pi (its entries below the coupling floor pruned)
    # through _solve_banded: for the zero policy, a random one and every
    # policy PI evaluates.
    make, args = case
    field, states, dt_h = make(*args)
    model = build_model(field, states, dt_h, 3.0, GAMMA)
    evaluate = mdp.policy_evaluation_exact
    idx = np.arange(states.n)
    for policy in _zero_random_and_visited_policies(model, monkeypatch):
        floored = _policy_matrix(model, policy, mdp._COUPLING_FLOOR)
        system = sp.eye(states.n, format="csr") - GAMMA * floored
        want = _solve_banded(system, model.rewards[idx, policy])
        assert np.array_equal(evaluate(model, policy).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("case", _SOLVE_CASES)
def test_the_loaded_dgbsv_solves_like_scipy_linalg_lapack(case, monkeypatch):
    # mdp loads scipy's LAPACK extension from its file; every banded LU of
    # exact PI, and of the FEM evaluation on each mesh the grid admits, must
    # give scipy.linalg.lapack.dgbsv's factors, pivots, solution and status.
    loaded, solves = mdp.dgbsv, []

    def both(lower, upper, band, rhs, overwrite_ab):
        want = scipy_dgbsv(lower, upper, band.copy(), rhs.copy())
        got = loaded(lower, upper, band, rhs, overwrite_ab=overwrite_ab)
        for a, b in zip(map(np.asarray, got), map(np.asarray, want)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        solves.append(len(rhs))
        return got

    monkeypatch.setattr(mdp, "dgbsv", both)
    make, args = case
    field, states, dt_h = make(*args)
    model = build_model(field, states, dt_h, 3.0, GAMMA)
    pi = classic_policy_iteration(model)
    ks = [k for k in (1, 2) if min(states.nx, states.ny) > k]
    for k in ks:
        evaluate_policy_fem(model, pi.policy, build_mesh(states, k))
    assert len(solves) == pi.iterations + len(ks)


def test_a_scipy_without_its_lapack_extension_is_an_import_error(tmp_path, monkeypatch):
    (tmp_path / "linalg").mkdir()
    monkeypatch.setattr(mdp, "scipy", types.SimpleNamespace(__file__=str(tmp_path / "__init__.py")))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        mdp._load_flapack()


@pytest.mark.parametrize("case", _SOLVE_CASES)
def test_the_coupling_floor_moves_no_value_beyond_its_bound(case, monkeypatch):
    # Against the band of every coupling, nothing dropped, for the zero
    # policy, a random one and every policy PI evaluates.
    make, args = case
    field, states, dt_h = make(*args)
    model = build_model(field, states, dt_h, 3.0, GAMMA)
    evaluate = mdp.policy_evaluation_exact
    n, idx = states.n, np.arange(states.n)
    for policy in _zero_random_and_visited_policies(model, monkeypatch):
        row = np.concatenate([idx, np.repeat(idx, 9)])
        col = np.concatenate([idx, model.succ.ravel()])
        data = np.concatenate([np.ones(n), -GAMMA * model.prob[idx, policy].ravel()])
        want = _band_solve(row, col, data, model.rewards[idx, policy])
        got = evaluate(model, policy)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize(
    "make, args",
    [(_csv_case, ()), (_paper_case, (20, 20, (1.0, 1.0), 0.5)), (_paper_case, (20, 20, (0.0, 0.0), 0.5))],
    ids=["csv", "paper", "paper-noise-free"],
)
def test_policy_iteration_reaches_one_answer_from_any_start(make, args, monkeypatch):
    # The noise-free paper case has exact Q ties at hundreds of states.
    field, states, dt_h = make(*args)
    model = build_model(field, states, dt_h, 3.0, GAMMA)
    want = classic_policy_iteration(model)
    starts = {
        "zero": np.zeros(states.n, dtype=np.int64),
        "random": np.random.default_rng(9).integers(0, 8, size=states.n),
    }
    for start in starts.values():
        monkeypatch.setattr(mdp, "initial_policy", lambda model, start=start: start.copy())
        got = classic_policy_iteration(model)
        assert np.array_equal(got.policy, want.policy)
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))


@pytest.mark.parametrize("case", _SOLVE_CASES)
def test_policy_iteration_stops_at_an_optimal_policy(case):
    make, args = case
    field, states, dt_h = make(*args)
    model = build_model(field, states, dt_h, 3.0, GAMMA)
    res = classic_policy_iteration(model)
    q = action_values(model, res.values)
    assert (q.max(axis=1) - q[np.arange(states.n), res.policy]).max() <= 1e-12
    np.testing.assert_allclose(res.values, value_iteration(model, tol=1e-13), rtol=0, atol=1e-9)


def test_banded_solve_of_a_permuted_system_with_a_full_band():
    field, states, dt_h = _paper_case(7, 6, (0.3, 1.0), 0.5)
    model = build_model(field, states, dt_h, 3.0, GAMMA)
    policy = np.random.default_rng(2).integers(0, 8, size=states.n)
    system = sp.eye(states.n, format="csr") - GAMMA * _policy_matrix(model, policy)
    rhs = model.rewards[np.arange(states.n), policy]
    # States 0 and 1 are neighbours; numbered first and last, they widen the
    # band to the whole matrix.
    n = states.n
    perm = np.concatenate([[0], np.random.default_rng(3).permutation(np.arange(2, n)), [1]])
    permuted = system[perm][:, perm].tocsr()
    assert _bandwidths(permuted) == (n - 1, n - 1)
    got = _solve_banded(permuted, rhs[perm])
    _assert_agrees(got, _spsolve_reference(permuted, rhs[perm]))
    _assert_agrees(got, _spsolve_reference(system, rhs)[perm])


def test_banded_solve_adds_duplicate_entries():
    # The padded transition rows repeat the state itself at probability zero;
    # stored as they are, next to the identity, the diagonal of each row
    # appears several times and every copy must count.
    field, states, dt_h = _csv_case()
    model = build_model(field, states, dt_h, 3.0, GAMMA)
    policy = np.random.default_rng(4).integers(0, 8, size=states.n)
    n, idx = states.n, np.arange(states.n)
    cols = np.column_stack([idx, model.succ])
    data = np.column_stack([np.ones(n), -GAMMA * model.prob[idx, policy]])
    duplicated = sp.csr_matrix((data.ravel(), cols.ravel(), np.arange(0, 10 * n + 1, 10)), shape=(n, n))
    assert not duplicated.has_canonical_format
    rhs = model.rewards[idx, policy]
    want = np.linalg.solve(duplicated.toarray(), rhs)  # toarray adds duplicates
    _assert_agrees(_solve_banded(duplicated, rhs), want)
    _assert_agrees(policy_evaluation_exact(model, policy), want)


def test_exact_evaluation_of_a_singular_system_is_a_numerical_error(zero_field_model):
    # With gamma = 1 the goal's absorbing row of I - P is all zero.
    model = zero_field_model
    model.gamma = 1.0
    with pytest.raises(NumericalError, match="zero pivot"):
        policy_evaluation_exact(model, np.zeros(model.n_states, dtype=np.int64))


@pytest.mark.parametrize("table", ["rewards", "prob"])
def test_exact_evaluation_of_non_finite_input_is_a_numerical_error(zero_field_model, table):
    model = zero_field_model
    s = state_index(model.states, 0, 0)
    if table == "rewards":
        model.rewards[s, :] = np.nan
    else:
        model.prob[s, 0, 0] = np.nan
    with pytest.raises(NumericalError):
        policy_evaluation_exact(model, np.zeros(model.n_states, dtype=np.int64))
