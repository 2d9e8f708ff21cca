import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplan.flowfield import GyreParams, NoiseParams, gyre_field
from flowplan.mdp import COMPASS_ORDER, StateSpace, build_model
from flowplan.moments import assemble_coefficients, transition_moments

from conftest import is_terminal, state_index, transition_row


def _chain_model(cell=2.0, sigma=0.0):
    field = gyre_field(GyreParams(0.0, 20.0), NoiseParams.isotropic(sigma), extent=(6 * cell, cell))
    states = StateSpace.regular(6, 1, cell, (5, 0))
    # dt tuned so action E lands exactly one cell east
    return build_model(field, states, cell / 3.0, 3.0, 0.95)


def test_deterministic_east_step_moments():
    model = _chain_model()
    m = transition_moments(model, state_index(model.states, 2, 0), COMPASS_ORDER.index("E"))
    np.testing.assert_allclose(m.drift, [2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(m.diffusion, [[4.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_absorbing_state_moments_vanish():
    model = _chain_model()
    m = transition_moments(model, model.states.goal, 0)
    np.testing.assert_allclose(m.drift, [0.0, 0.0], atol=0)
    np.testing.assert_allclose(m.diffusion, np.zeros((2, 2)), atol=0)


def test_moments_match_direct_row_summation(gyre_benchmark):
    model, _ = gyre_benchmark
    positions = model.states.positions()
    rng = np.random.default_rng(11)
    for s in rng.integers(0, model.n_states, size=10):
        s = int(s)
        for a in range(model.n_actions):
            ids, probs = transition_row(model, s, a)
            disp = positions[ids] - positions[s]
            mu = sum(p * d for p, d in zip(probs, disp))
            sig = sum(p * np.outer(d, d) for p, d in zip(probs, disp))
            m = transition_moments(model, s, a)
            np.testing.assert_allclose(m.drift, mu, atol=1e-14)
            np.testing.assert_allclose(m.diffusion, sig, atol=1e-14)


def test_central_second_moment_is_psd(gyre_benchmark):
    model, _ = gyre_benchmark
    rng = np.random.default_rng(5)
    for s in rng.integers(0, model.n_states, size=20):
        for a in range(model.n_actions):
            m = transition_moments(model, int(s), a)
            cov = m.diffusion - np.outer(m.drift, m.drift)
            assert np.linalg.eigvalsh(cov).min() >= -1e-10
            np.testing.assert_allclose(m.diffusion, m.diffusion.T, atol=0)


def test_moments_scale_with_cell_size():
    # doubling the cell (and dt = cell/3 with it) keeps the row pattern fixed
    # when the variance rate sigma^2 * dt scales by 4, i.e. sigma *= sqrt(2):
    # drift doubles, second moment quadruples
    a = COMPASS_ORDER.index("NE")
    small = _chain_model(cell=2.0, sigma=1.5)
    big = _chain_model(cell=4.0, sigma=1.5 * np.sqrt(2.0))
    # identical probabilities (scaled geometry): check then compare moments
    s_small = state_index(small.states, 2, 0)
    s_big = state_index(big.states, 2, 0)
    np.testing.assert_allclose(
        transition_row(small, s_small, a)[1], transition_row(big, s_big, a)[1], atol=1e-12
    )
    m_small = transition_moments(small, s_small, a)
    m_big = transition_moments(big, s_big, a)
    np.testing.assert_allclose(m_big.drift, 2.0 * m_small.drift, atol=1e-12)
    np.testing.assert_allclose(m_big.diffusion, 4.0 * m_small.diffusion, atol=1e-12)


def test_coefficients_uniform_for_translation_invariant_model(zero_field_model):
    model = zero_field_model
    node_states = np.arange(model.n_states)
    policy = np.zeros(model.n_states, dtype=np.int64)
    coeffs = assemble_coefficients(model, policy, node_states)
    interior = [
        s
        for s in range(model.n_states)
        if not is_terminal(model.states, s)
        and 0 < model.states.coords(s)[0] < model.states.nx - 1
        and 0 < model.states.coords(s)[1] < model.states.ny - 1
    ]
    ref = coeffs.diffusion[interior[0]]
    for s in interior[1:]:
        np.testing.assert_allclose(coeffs.diffusion[s], ref, atol=1e-12)


def test_interior_source_is_step_reward(zero_field_model):
    model = zero_field_model
    node_states = np.arange(model.n_states)
    coeffs = assemble_coefficients(model, np.zeros(model.n_states, dtype=np.int64), node_states)
    far = state_index(model.states, 0, 0)
    assert coeffs.source[far] == pytest.approx(-0.1, abs=1e-12)
    assert -coeffs.source[far] == pytest.approx(0.1, abs=1e-12)


def test_coefficient_field_matches_per_node_moment_calls(gyre_benchmark):
    model, exact = gyre_benchmark
    node_states = np.arange(model.n_states)
    coeffs = assemble_coefficients(model, exact.policy, node_states)
    rng = np.random.default_rng(2)
    for s in rng.integers(0, model.n_states, size=25):
        s = int(s)
        m = transition_moments(model, s, int(exact.policy[s]))
        np.testing.assert_allclose(coeffs.drift[s], m.drift, atol=0)
        np.testing.assert_allclose(coeffs.diffusion[s], m.diffusion, atol=0)
        assert coeffs.source[s] == model.rewards[s, exact.policy[s]]


def test_unmapped_node_rejected(zero_field_model):
    model = zero_field_model
    with pytest.raises(ValueError):
        assemble_coefficients(
            model,
            np.zeros(model.n_states, dtype=np.int64),
            np.array([0, 1, model.n_states + 3]),
        )


def test_coefficients_csv_schema(tmp_path, zero_field_model):
    from flowplan.moments import write_coefficients_csv

    model = zero_field_model
    node_states = np.arange(model.n_states)
    coeffs = assemble_coefficients(model, np.zeros(model.n_states, dtype=np.int64), node_states)
    path = tmp_path / "coeffs.csv"
    write_coefficients_csv(path, model.states.positions(), coeffs)
    header = path.read_text().splitlines()[0]
    assert header == "node_id,x_km,y_km,mu_x,mu_y,sxx,sxy,syy,source"
