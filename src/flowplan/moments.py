"""First and second transition moments and nodal PDE coefficient fields.

Expanding the one-step value recursion to second order around a state turns
it into a drift-diffusion-reaction equation whose coefficients are the
moments of the one-step displacement under the transition law. The drift is
E[s' - s], the locally consistent choice (Kushner & Dupuis, Numerical Methods
for Stochastic Control Problems in Continuous Time, 2001): it transports
value along the expected motion. The paper's expansion, written with
(s - s') differences, negates the drift (the second moment is unchanged) and
so transports value against the motion. With that sign the API policy's
regret against classic PI measured 1.17 mean / 1.99 max on the 20x20 paper
gyre and 1.21 / 2.00 on a 24x24 CSV field with a wall (k=2), where -2.0 =
-0.1 / (1 - 0.95) is the value of never reaching the goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .flowfield import write_table
from .mdp import MdpModel


class DriftDiffusion(NamedTuple):
    """One-step displacement moments: drift (km) and non-central second
    moment (km^2) of one transition row, or of a stack of rows."""

    drift: np.ndarray  # shape (..., 2)
    diffusion: np.ndarray  # shape (..., 2, 2), symmetric PSD


@dataclass(eq=False)
class PdeCoefficients:
    """Per-node coefficient fields of the value PDE under a fixed policy."""

    drift: np.ndarray  # (n_nodes, 2)
    diffusion: np.ndarray  # (n_nodes, 2, 2)
    source: np.ndarray  # (n_nodes,) expected one-step reward R(s, pi(s))
    gamma: float


def transition_moments(
    model: MdpModel,
    s: int | np.ndarray | slice,
    a: int | np.ndarray | slice,
) -> DriftDiffusion:
    """Displacement moments of a transition row, read from the model's table.

    drift_i = sum_s' T(s,a;s') (s'_i - s_i) and
    diffusion_ij = sum_s' T(s,a;s') (s'_i - s_i)(s'_j - s_j). ``s`` and ``a``
    index the state and action axes of ``MdpModel.moment_rows`` as numpy
    indices do: ``a=slice(None)`` gives every action's row of state ``s`` in
    action order, shape (n_actions, 2), or (n, n_actions, 2) for an array of
    n states. Both are views, components last, of one read of all six rows.
    """
    rows = model.moment_rows[:, s, a]
    lead = rows.ndim - 1
    drift = rows[:2].transpose(*range(1, lead + 1), 0)
    diffusion = rows[2:].reshape(2, 2, *rows.shape[1:]).transpose(*range(2, lead + 2), 0, 1)
    return DriftDiffusion(drift, diffusion)


def assemble_coefficients(
    model: MdpModel,
    policy: np.ndarray,
    node_states: np.ndarray,
) -> PdeCoefficients:
    """Sample drift, diffusion, and reward source at mesh nodes.

    ``node_states`` maps each node to its grid state.
    """
    node_states = np.asarray(node_states)
    if node_states.ndim != 1 or len(node_states) == 0:
        raise ValueError("node_states must be a non-empty 1-D array of state ids")
    if node_states.min() < 0 or node_states.max() >= model.n_states:
        raise ValueError("node maps to a state id outside the model")
    actions = np.asarray(policy)[node_states]
    m = transition_moments(model, node_states, actions)
    source = model.rewards[node_states, actions]
    return PdeCoefficients(m.drift, m.diffusion, source, model.gamma)


def write_coefficients_csv(path, node_positions: np.ndarray, coeffs: PdeCoefficients) -> None:
    """Debug dump of the nodal coefficient fields."""
    sigma = coeffs.diffusion.reshape(-1, 4)[:, [0, 1, 3]]  # sxx, sxy, syy
    table = np.column_stack([node_positions, coeffs.drift, sigma, coeffs.source])
    header = ["node_id", "x_km", "y_km", "mu_x", "mu_y", "sxx", "sxy", "syy", "source"]
    write_table(path, header, zip(range(len(table)), *table.T.tolist()))
