import numpy as np
import pytest

from flowplan.errors import IterationLimitError
from flowplan.flowfield import GyreParams, NoiseParams, Point2, gyre_field
from flowplan.mdp import StateSpace, action_values, build_model, classic_policy_iteration

# Reference helpers shared by the tests (import them with ``from conftest
# import ...``). The program itself never needs them.


def transition_row(model, s, a):
    """Successor ids and probabilities of one transition row, with the
    zero-probability padding removed."""
    p = model.prob[s, a]
    keep = p > 0.0
    return model.succ[s][keep], p[keep]


def state_index(states, i, j):
    """Id of the state in grid column ``i`` and row ``j``: states run row by
    row from the lower-left cell."""
    return j * states.nx + i


def expansion_block(value, grad, hess):
    """Values (n,), gradients (n, 2) and Hessians (n, 2, 2), or one point's
    value, gradient and Hessian, packed as the (7, n) block that
    ``ContinuousValue.expansion_at`` returns."""
    value = np.atleast_1d(value)
    n = len(value)
    return np.vstack([value, np.reshape(grad, (n, 2)).T, np.reshape(hess, (n, 4)).T])


def expansion_parts(block):
    """A (7, n) expansion block as views of its value (n,), gradient (n, 2)
    and Hessian (n, 2, 2)."""
    return block[0], block[1:3].T, block[3:].T.reshape(-1, 2, 2)


def is_terminal(states, s):
    """Whether state ``s`` absorbs: the goal or an obstacle."""
    return s == states.goal or bool(states.obstacles[s])


def policy_improvement_discrete(model, values):
    """Greedy policy on the action values; ties resolve to the lowest action."""
    return np.argmax(action_values(model, values), axis=1)


def value_iteration(model, tol=1e-12, max_iterations=500_000):
    """Bellman-optimality fixed point by successive sweeps."""
    values = np.zeros(model.n_states)
    for _ in range(max_iterations):
        updated = action_values(model, values).max(axis=1)
        if np.max(np.abs(updated - values)) < tol:
            return updated
        values = updated
    raise IterationLimitError(f"value iteration did not converge in {max_iterations} sweeps")


@pytest.fixture(scope="session")
def gyre_benchmark():
    """The 20x20, A=0.5, sigma=1 configuration used throughout the paper-style
    checks, solved once per session."""
    field = gyre_field(GyreParams(0.5, 20.0), NoiseParams.isotropic(1.0))
    states = StateSpace.regular(20, 20, 2.0, (17, 17))
    model = build_model(field, states, dt_h=1.0, v_max=3.0, gamma=0.95)
    exact = classic_policy_iteration(model)
    return model, exact


@pytest.fixture
def zero_field_model():
    """Small 5x5 zero-current model with mild noise."""
    field = gyre_field(GyreParams(0.0, 20.0), NoiseParams.isotropic(1.0), extent=(10.0, 10.0))
    states = StateSpace.regular(5, 5, 2.0, (2, 2))
    return build_model(field, states, dt_h=1.0, v_max=3.0, gamma=0.9)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
