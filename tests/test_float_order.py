"""Every action score is a sum written out in a fixed order.

Each check recomputes a quantity in pure Python floats, term by term in the
order its formula is written, and asks for the same bits. A sum that went
through a BLAS dot kernel (a stacked ``@``, ``einsum`` or ``np.dot``) may
fuse multiply-adds or reorder terms depending on the BLAS build and CPU, so
it would fail here on some hosts; CI also runs this file under an OpenBLAS
core without FMA.
"""

import numpy as np
import pytest

from flowplan import fem
from flowplan.flowfield import GyreParams, NoiseParams, gyre_field
from flowplan.mdp import OBSTACLE_REWARD, STEP_REWARD, StateSpace, action_values, build_model
from flowplan.moments import transition_moments
from flowplan.policy_iter import _state_scores

from conftest import expansion_block, is_terminal


@pytest.fixture(scope="module")
def model():
    """A 20x20 gyre with anisotropic noise and a two-cell obstacle: 3,200
    (state, action) rows."""
    field = gyre_field(GyreParams(0.5, 20.0), NoiseParams(1.0, 0.6))
    states = StateSpace.regular(20, 20, 2.0, (17, 17), obstacle_cells=[(6, 6), (7, 6)])
    return build_model(field, states, dt_h=1.0, v_max=3.0, gamma=0.95)


def _same_bits(got, want):
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _successor_sum(probs, terms):
    """sum_j p_j t_j over a row's nine successors, in order, from 0.0."""
    total = 0.0
    for p, t in zip(probs, terms):
        total += p * t
    return total


def _reward(states, s, s2):
    if is_terminal(states, s) or s2 == states.goal:
        return 0.0
    return OBSTACLE_REWARD if states.obstacles[s2] else STEP_REWARD


def test_rewards_are_successor_sums_in_python_floats(model):
    st = model.states
    want = [
        [
            _successor_sum(model.prob[s, a].tolist(), [_reward(st, s, int(s2)) for s2 in model.succ[s]])
            for a in range(model.n_actions)
        ]
        for s in range(model.n_states)
    ]
    assert _same_bits(model.rewards, want)


def test_action_values_are_successor_sums_in_python_floats(model):
    values = np.random.default_rng(11).normal(-1.0, 0.5, model.n_states)
    v, r = values.tolist(), model.rewards.tolist()
    want = [
        [
            r[s][a] + model.gamma * _successor_sum(model.prob[s, a].tolist(), [v[s2] for s2 in model.succ[s]])
            for a in range(model.n_actions)
        ]
        for s in range(model.n_states)
    ]
    assert _same_bits(action_values(model, values), want)


def _reference_scores(model, s, value, grad, hess):
    """One state's scores: reward + gamma (d0 g0 + d1 g1 + 0.5 curvature)
    - (1 - gamma) v, the curvature summed over (i, j) row by row."""
    m = transition_moments(model, s, slice(None))
    g0, g1 = grad
    (h00, h01), (h10, h11) = hess
    gamma = model.gamma
    out = []
    for r, (d0, d1), ((s00, s01), (s10, s11)) in zip(
        model.rewards[s].tolist(), m.drift.tolist(), m.diffusion.tolist()
    ):
        drift_term = d0 * g0 + d1 * g1
        curvature = ((s00 * h00 + s01 * h01) + s10 * h10) + s11 * h11
        out.append(r + gamma * (drift_term + 0.5 * curvature) - (1.0 - gamma) * value)
    return out


def test_state_scores_are_written_sums_in_python_floats(model):
    rng = np.random.default_rng(5)
    states = np.arange(model.n_states)
    for _ in range(3):
        value = rng.normal(-1.0, 0.5, model.n_states)
        grad = rng.normal(0.0, 0.1, (model.n_states, 2))
        hess = rng.normal(0.0, 0.02, (model.n_states, 2, 2))
        hess[:, 1, 0] = hess[:, 0, 1]
        want = [_reference_scores(model, s, float(value[s]), grad[s].tolist(), hess[s].tolist()) for s in states]
        assert _same_bits(_state_scores(model, states, expansion_block(value, grad, hess)), want)
        for s in states[::7]:
            got = _state_scores(model, states[s : s + 1], expansion_block(float(value[s]), grad[s], hess[s]))
            assert _same_bits(got, want[s : s + 1])


def _interpolate(lam, corners):
    return [(l0 * c0 + l1 * c1) + l2 * c2 for (l0, l1, l2), (c0, c1, c2) in zip(lam, corners)]


@pytest.mark.parametrize("k", [1, 2])
def test_values_are_written_interpolations_in_python_floats(model, k):
    mesh = fem.build_mesh(model.states, k=k)
    rng = np.random.default_rng(k)
    value = fem.ContinuousValue(mesh, rng.normal(-1.0, 0.5, mesh.n_nodes))
    points = rng.uniform(-0.5, 40.5, (1500, 2))
    rows = mesh.locate_rows(points)
    _, tri, lam = rows
    corners = value.coefficients[mesh.triangles[tri]].tolist()
    got = value.expansion_at(rows)
    assert _same_bits(got[0], _interpolate(lam.tolist(), corners))
    # The gradient and the Hessian interpolate their rows of the nodal table entry by entry.
    for c in range(1, 7):
        entries = value.expansion_table[c][mesh.triangles[tri]].tolist()
        assert _same_bits(got[c], _interpolate(lam.tolist(), entries))
    # The raster's values interpolate at the same raw weights.
    assert _same_bits(value.evaluate_many(points), _interpolate(lam.tolist(), corners))
