"""First and second transition moments and nodal PDE coefficient fields.

Expanding the one-step value recursion to second order around a state turns
it into a drift-diffusion-reaction equation whose coefficients are the
moments of the one-step displacement under the transition law. The default
``displacement`` convention uses E[s' - s] as the drift, which transports
value along the expected motion; ``paper-literal`` negates the drift to
match the expansion written with (s - s') differences. The second moment is
identical under both (signs square away).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .mdp import MdpModel

Convention = Literal["displacement", "paper-literal"]


@dataclass(frozen=True, eq=False)
class DriftDiffusion:
    """One-step displacement moments: drift (km) and non-central second
    moment (km^2) of one transition row, or of a stack of rows."""

    drift: np.ndarray  # shape (..., 2)
    diffusion: np.ndarray  # shape (..., 2, 2), symmetric PSD

    def __post_init__(self) -> None:
        if self.drift.shape[-1:] != (2,) or self.diffusion.shape != self.drift.shape + (2,):
            raise ValueError("drift must hold 2-vectors and diffusion matching 2x2 matrices")


@dataclass(eq=False)
class PdeCoefficients:
    """Per-node coefficient fields of the value PDE under a fixed policy."""

    drift: np.ndarray  # (n_nodes, 2)
    diffusion: np.ndarray  # (n_nodes, 2, 2)
    source: np.ndarray  # (n_nodes,) expected one-step reward R(s, pi(s))
    gamma: float
    goal_node: int


def _check_convention(convention: str) -> None:
    if convention not in ("displacement", "paper-literal"):
        raise ValueError(f"unknown moment convention {convention!r}")


def transition_moments(
    model: MdpModel,
    s: int | np.ndarray,
    a: int | np.ndarray | slice,
    convention: Convention = "displacement",
) -> DriftDiffusion:
    """Displacement moments of a transition row, read from the model's table.

    drift_i = sum_s' T(s,a;s') (s'_i - s_i) and
    diffusion_ij = sum_s' T(s,a;s') (s'_i - s_i)(s'_j - s_j); the
    paper-literal convention flips the drift sign. ``s`` and ``a`` index the
    table as numpy indices do: ``a=slice(None)`` gives every action's row of
    state ``s``, stacked in action order. Integer and slice indices give
    read-only views of the table; index arrays give copies.
    """
    _check_convention(convention)
    drift, diffusion = model.moment_table
    drift, diffusion = drift[a, s], diffusion[a, s]
    if convention == "paper-literal":
        drift = -drift
    return DriftDiffusion(drift, diffusion)


def assemble_coefficients(
    model: MdpModel,
    policy: np.ndarray,
    node_states: np.ndarray,
    goal_node: int,
    convention: Convention = "displacement",
) -> PdeCoefficients:
    """Sample drift, diffusion, and reward source at mesh nodes.

    ``node_states`` maps each node to its grid state; the node sitting on the
    goal state is recorded for the point constraint applied by the solver.
    """
    _check_convention(convention)
    node_states = np.asarray(node_states)
    if node_states.ndim != 1 or len(node_states) == 0:
        raise ValueError("node_states must be a non-empty 1-D array of state ids")
    if node_states.min() < 0 or node_states.max() >= model.n_states:
        raise ValueError("node maps to a state id outside the model")
    actions = np.asarray(policy)[node_states]
    m = transition_moments(model, node_states, actions, convention)
    source = model.rewards[node_states, actions]
    return PdeCoefficients(m.drift, m.diffusion, source, model.gamma, goal_node)


def write_coefficients_csv(path, node_positions: np.ndarray, coeffs: PdeCoefficients) -> None:
    """Debug dump of the nodal coefficient fields."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "x_km", "y_km", "mu_x", "mu_y", "sxx", "sxy", "syy", "source"])
        for k in range(len(node_positions)):
            writer.writerow(
                [
                    k,
                    repr(float(node_positions[k, 0])),
                    repr(float(node_positions[k, 1])),
                    repr(float(coeffs.drift[k, 0])),
                    repr(float(coeffs.drift[k, 1])),
                    repr(float(coeffs.diffusion[k, 0, 0])),
                    repr(float(coeffs.diffusion[k, 0, 1])),
                    repr(float(coeffs.diffusion[k, 1, 1])),
                    repr(float(coeffs.source[k])),
                ]
            )
