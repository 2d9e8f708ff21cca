import numpy as np
import pytest

from flowplan import fem
from flowplan.errors import DomainError
from flowplan.flowfield import GyreParams, NoiseParams, gyre_field
from flowplan.moments import assemble_coefficients
from flowplan.mdp import COMPASS_ORDER, StateSpace, build_model
from flowplan.policy_iter import (
    ApiConfig,
    approximate_policy_iteration,
    best_action,
    evaluate_policy_fem,
    improve_policy_continuous,
    initial_policy,
    policy_coefficients,
    project_wall_tangential,
    value_mse,
    _state_scores,
)

from conftest import expansion_block, policy_improvement_discrete, state_index


@pytest.fixture(scope="module")
def gyre_api(gyre_benchmark):
    """Approximate PI runs on the benchmark config, both mesh factors."""
    model, _ = gyre_benchmark
    return {k: approximate_policy_iteration(model, ApiConfig(k=k)) for k in (1, 2)}


def _hull_loop_wall_projection(coeffs, mesh, model):
    """Reference: the projection node by node over the hull, the nodes of the
    edges that belong to one triangle."""
    edges = {}
    for a, b, c in mesh.triangles.tolist():
        for u, v in ((a, b), (b, c), (c, a)):
            edges[(min(u, v), max(u, v))] = edges.get((min(u, v), max(u, v)), 0) + 1
    st = model.states
    x_lo, y_lo = st.origin
    x_hi = st.origin.x + (st.nx - 1) * st.cell_km
    y_hi = st.origin.y + (st.ny - 1) * st.cell_km
    for node in sorted({n for edge, count in edges.items() if count == 1 for n in edge}):
        x, y = mesh.nodes[node]
        sig = coeffs.diffusion[node]
        if abs(x - x_lo) < 1e-9 or abs(x - x_hi) < 1e-9:
            sig[0, 0] = sig[0, 1] = sig[1, 0] = 0.0
        if abs(y - y_lo) < 1e-9 or abs(y - y_hi) < 1e-9:
            sig[1, 1] = sig[0, 1] = sig[1, 0] = 0.0


@pytest.mark.parametrize(
    "n, k, goal",
    [(7, 1, (3, 2)), (8, 2, (3, 3)), (8, 2, (3, 4)), (8, 2, (7, 0)), (8, 2, (0, 3))],
)
def test_wall_projection_matches_the_hull_node_loop(n, k, goal):
    # Every wall node of the grid meshes lies on the hull, the inserted
    # odd-parity goal included (inside, on a cut corner, on a wall).
    field = gyre_field(GyreParams(0.5, 8.0), NoiseParams.isotropic(1.0), extent=(16.0, 16.0))
    model = build_model(field, StateSpace.regular(n, n, 2.0, goal), 1.0, 3.0, 0.9)
    mesh = fem.build_mesh(model.states, k)
    policy = np.random.default_rng(n + k).integers(0, 8, size=model.n_states)
    raw, got, want = (
        assemble_coefficients(model, policy, mesh.node_state) for _ in range(3)
    )
    project_wall_tangential(got, mesh, model)
    _hull_loop_wall_projection(want, mesh, model)
    assert np.array_equal(got.diffusion, want.diffusion)
    assert not np.array_equal(got.diffusion, raw.diffusion)


def test_initial_policy_aims_at_goal(zero_field_model):
    model = zero_field_model
    policy = initial_policy(model)
    s = state_index(model.states, 0, 2)  # due west of the goal (2, 2)
    assert COMPASS_ORDER[policy[s]] == "E"
    s = state_index(model.states, 2, 0)
    assert COMPASS_ORDER[policy[s]] == "N"


def test_improvement_on_zero_value_reduces_to_reward_argmax(zero_field_model):
    model = zero_field_model
    mesh = fem.build_mesh(model.states, 1)
    v = fem.ContinuousValue(mesh, np.zeros(mesh.n_nodes))
    model.rewards[:] = -0.1
    policy = improve_policy_continuous(model, v)
    assert (policy == 0).all()  # uniform rewards: tie-break to the first action


def test_improvement_follows_linear_value_gradient():
    # zero field, equal rewards: the action whose drift is aligned with
    # grad v wins: East. The noise (sigma = 1 km/h, as in zero_field_model)
    # spreads the diagonals' mass over x, so E's x-drift (1.964 km) beats
    # NE's and SE's (1.807 km); without noise all three land on +2 km in x.
    field = gyre_field(GyreParams(0.0, 20.0), NoiseParams.isotropic(1.0), extent=(10.0, 10.0))
    states = StateSpace.regular(5, 5, 2.0, (4, 4))
    model = build_model(field, states, 1.0, 3.0, 0.95)
    model.rewards[:] = -0.1
    mesh = fem.build_mesh(states, 1)
    v = fem.ContinuousValue(mesh, mesh.nodes[:, 0].copy())
    policy = improve_policy_continuous(model, v)
    s = state_index(states, 2, 2)
    assert COMPASS_ORDER[policy[s]] == "E"


def test_improvement_exact_tie_takes_lowest_action():
    # zero field and noise: a 3 km step on 2 km cells moves E, NE and SE by
    # +2 km in x alike, an exact three-way tie in drift . grad v, and the
    # Hessian of linear data is zero up to round-off. The tie rule picks NE,
    # the first of the three in compass order; for v = -x it picks SW of
    # SW, W and NW, where round-off alone can pick W.
    field = gyre_field(GyreParams(0.0, 20.0), NoiseParams.isotropic(0.0), extent=(10.0, 10.0))
    states = StateSpace.regular(5, 5, 2.0, (4, 4))
    model = build_model(field, states, 1.0, 3.0, 0.95)
    model.rewards[:] = -0.1
    mesh = fem.build_mesh(states, 1)
    s = state_index(states, 2, 2)
    v = fem.ContinuousValue(mesh, mesh.nodes[:, 0].copy())
    assert COMPASS_ORDER[improve_policy_continuous(model, v)[s]] == "NE"
    v = fem.ContinuousValue(mesh, -mesh.nodes[:, 0])
    assert COMPASS_ORDER[improve_policy_continuous(model, v)[s]] == "SW"


def test_reaction_term_is_action_independent(gyre_benchmark):
    model, exact = gyre_benchmark
    mesh = fem.build_mesh(model.states, 1)
    v = fem.ContinuousValue(mesh, exact.values.copy())
    with_term = improve_policy_continuous(model, v)
    # drop -(1-gamma) v(s) by recomputing scores without it
    dropped = np.empty(model.n_states, dtype=np.int64)
    for s in range(model.n_states):
        p = model.states.position(s)
        scores = _state_scores(model, np.array([s]), expansion_block(0.0, v.gradient(p), v.hessian(p)))[0]
        dropped[s] = int(np.argmax(scores))
    assert np.array_equal(with_term, dropped)


@pytest.mark.parametrize("k", [1, 2])
def test_batched_improvement_matches_per_state_reference(gyre_benchmark, k):
    # One scoring pass over all states against the per-state loop it
    # replaced: scores, tie rule and stickiness margins. On the k=2 mesh the
    # odd-parity centres lie on edges and two corners lie off the cover.
    model, _ = gyre_benchmark
    mesh = fem.build_mesh(model.states, k)
    policy = initial_policy(model)
    value, _ = evaluate_policy_fem(model, policy, mesh)
    margins = np.random.default_rng(k).choice([0.0, 1e-4, 1e-2, 1.0], size=model.n_states)
    plain, held = policy.copy(), policy.copy()
    rows = []
    for s in range(model.n_states):
        p = model.states.position(s)
        if not mesh.covers(p):
            p = mesh.project(p)
        column = expansion_block(value.evaluate(p), value.gradient(p), value.hessian(p))
        scores = _state_scores(model, np.array([s]), column)[0]
        rows.append(scores)
        best = int(best_action(scores))
        plain[s] = best
        if best != held[s] and scores[best] > scores[held[s]] + margins[s]:
            held[s] = best
    states = np.arange(model.n_states)
    batched = _state_scores(model, states, value.expansion(model.states.positions()))
    assert np.array_equal(batched, np.array(rows))
    assert np.array_equal(improve_policy_continuous(model, value), plain)
    got = improve_policy_continuous(
        model, value, incumbent=policy, margins=margins
    )
    assert np.array_equal(got, held)
    assert 0 < np.sum(held != policy) < np.sum(plain != policy)  # margins hold some


@pytest.mark.parametrize("k", [1, 2])
def test_api_scores_the_centres_it_located_once(gyre_benchmark, gyre_api, k):
    # The loop keeps the located state centres on its mesh; on k=2 two of
    # them lie off the cover and are projected.
    model, _ = gyre_benchmark
    value = gyre_api[k].value
    assert "centres" in vars(value.mesh)
    assert np.array_equal(value.expansion_at(value.mesh.centres), value.expansion(model.states.positions()))


def test_improvement_outside_mesh_raises(gyre_benchmark):
    model, _ = gyre_benchmark
    small = StateSpace.regular(4, 4, 2.0, (3, 3), origin=model.states.origin)
    mesh = fem.build_mesh(small, 1)
    v = fem.ContinuousValue(mesh, np.zeros(mesh.n_nodes))
    with pytest.raises(DomainError):
        improve_policy_continuous(model, v)  # most state centers lie outside


def test_improvement_on_a_mesh_of_an_equal_but_distinct_state_space_raises(gyre_benchmark):
    # The state centres are read off the mesh, located once on its own
    # states, so the mesh must be built on the model's very StateSpace.
    model, _ = gyre_benchmark
    st = model.states
    twin = StateSpace(st.origin, st.cell_km, st.nx, st.ny, st.obstacles.copy(), st.goal)
    mesh = fem.build_mesh(twin, 1)
    v = fem.ContinuousValue(mesh, np.zeros(mesh.n_nodes))
    with pytest.raises(DomainError):
        improve_policy_continuous(model, v)


def test_improvement_on_exact_table_matches_discrete(gyre_benchmark):
    """With coefficients set to the classic-PI table, the continuous
    improvement reproduces the discrete one on >= 95% of interior states."""
    model, exact = gyre_benchmark
    mesh = fem.build_mesh(model.states, 1)
    v = fem.ContinuousValue(mesh, exact.values.copy())
    cont = improve_policy_continuous(model, v)
    disc = policy_improvement_discrete(model, exact.values)
    nx = model.states.nx
    idx = np.arange(model.n_states)
    ii, jj = idx % nx, idx // nx
    interior = (ii > 0) & (ii < nx - 1) & (jj > 0) & (jj < nx - 1)
    agreement = float(np.mean(cont[interior] == disc[interior]))
    assert agreement >= 0.95, f"interior agreement {agreement}"


def test_api_zero_rewards_trivial(zero_field_model):
    model = zero_field_model
    model.rewards[:] = 0.0
    res = approximate_policy_iteration(model, ApiConfig(k=1))
    assert res.converged and res.iterations == 1
    assert np.abs(res.value.coefficients).max() < 1e-6


def test_api_converges_and_agrees_with_classic(gyre_benchmark, gyre_api):
    """20x20 gyre, A=0.5, sigma=1, k=1: greedy policies from the continuous
    and the exact discrete value agree on >= 90% of non-terminal states."""
    model, exact = gyre_benchmark
    res = gyre_api[1]
    assert res.converged
    assert res.diagnostics[-1]["policy_changes"] == 0
    nonterminal = np.arange(model.n_states) != model.states.goal
    agreement = float(np.mean(res.policy[nonterminal] == exact.policy[nonterminal]))
    assert agreement >= 0.90, f"agreement {agreement}"


def test_api_k2_converges_within_budget(gyre_api):
    res = gyre_api[2]
    assert res.converged and res.iterations <= 50


def test_api_value_pinned_at_goal_every_iteration(gyre_benchmark):
    model, _ = gyre_benchmark
    mesh = fem.build_mesh(model.states, 1)
    policy = initial_policy(model)
    goal_pos = model.states.position(model.states.goal)
    for _ in range(3):
        v, _ = evaluate_policy_fem(model, policy, mesh)
        assert abs(v.evaluate(goal_pos)) < 1e-9
        policy = improve_policy_continuous(model, v)


def test_api_diagnostics_recorded(gyre_api):
    res = gyre_api[1]
    assert len(res.diagnostics) == res.iterations
    first = res.diagnostics[0]
    assert {"iteration", "policy_changes", "solve_residual", "value_min", "value_max"} <= set(first)
    assert res.diagnostics[-1]["policy_changes"] == 0


@pytest.mark.parametrize("k", [1, 2])
def test_evaluation_reports_the_residual_its_solve_gated(gyre_benchmark, k):
    # The residual comes from the solve's gate, not from a second matvec: the
    # same number as the max |A x - rhs| of the constrained system.
    model, _ = gyre_benchmark
    mesh = fem.build_mesh(model.states, k)
    policy = initial_policy(model)
    value, residual = evaluate_policy_fem(model, policy, mesh)
    system = fem.constrain_goal(fem.assemble(mesh, policy_coefficients(model, policy, mesh)), mesh.goal_node)
    nodal, gated = fem.solve(system)
    assert np.array_equal(value.coefficients, nodal)
    assert type(residual) is float and residual == gated == float(np.max(np.abs(system.residual(nodal))))


def test_api_deterministic(gyre_benchmark):
    model, _ = gyre_benchmark
    a = approximate_policy_iteration(model, ApiConfig(k=2))
    b = approximate_policy_iteration(model, ApiConfig(k=2))
    assert np.array_equal(a.policy, b.policy)
    np.testing.assert_array_equal(a.value.coefficients, b.value.coefficients)


def test_value_mse_exact_interpolation_is_zero(gyre_benchmark):
    model, exact = gyre_benchmark
    mesh = fem.build_mesh(model.states, 1)
    v = fem.ContinuousValue(mesh, exact.values.copy())
    assert value_mse(v, exact.values, model.states) == pytest.approx(0.0, abs=1e-24)


def test_value_mse_of_constant_shift_is_square(gyre_benchmark):
    model, exact = gyre_benchmark
    mesh = fem.build_mesh(model.states, 1)
    v = fem.ContinuousValue(mesh, exact.values + 0.3)
    assert value_mse(v, exact.values, model.states) == pytest.approx(0.09, rel=1e-9)


def test_value_mse_rmse_within_paper_band(gyre_benchmark, gyre_api):
    model, exact = gyre_benchmark
    mse = value_mse(gyre_api[1].value, exact.values, model.states)
    assert np.sqrt(mse) <= np.abs(exact.values).max() / 50.0
