"""Approximate policy iteration with finite-element policy evaluation.

Each iteration samples the transition moments of the current policy at the
mesh nodes, solves the drift-diffusion-reaction weak form for a continuous
value function, and then improves the policy pointwise on all grid states
using recovered first and second derivatives of that value. The loop stops
when the policy stops changing (exact equality on the state grid) or the
iteration budget runs out, in which case the result is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import DomainError
from .mdp import MdpModel, best_action, initial_policy
from .moments import PdeCoefficients, assemble_coefficients
from .moments import transition_moments  # noqa: F401  (a binding that perfbench/selftest.py wraps)

# Score margin a challenger action must beat the incumbent by during the loop.
# Near-tied states otherwise flip forever as the evaluated value jitters, so
# the stopping rule would never trigger; the margin doubles for a state after
# its second flip, which pins any remaining oscillators.
_STICKINESS = 1e-4


@dataclass(frozen=True)
class ApiConfig:
    """Knobs of the approximate policy-iteration loop.

    Args:
        k: mesh subsample factor (1 keeps all states, 2 the checkerboard half).
        max_iterations: evaluation/improvement cycles before flagging.
    """

    k: int = 1
    max_iterations: int = 50

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(eq=False)
class ApiResult:
    policy: np.ndarray
    value: fem.ContinuousValue
    iterations: int
    converged: bool
    diagnostics: list[dict] = field(default_factory=list)


def _state_scores(model: MdpModel, s: np.ndarray | slice, expansion: np.ndarray) -> np.ndarray:
    """Every action's score at each of the states ``s`` (an index array, or
    ``slice(None)`` for all of them), shape (n, n_actions): expected reward
    plus the drift and curvature terms of the local expansion of the value,
    less the reaction term. ``expansion`` is the (7, n) block that
    ``ContinuousValue.expansion_at`` interpolates, one column per state. The
    continuous planner and ``improve_policy_continuous`` both call it. The
    states' rows of ``MdpModel.moment_rows`` (read in place for a slice) are
    one (n, n_actions) block per component, and each is multiplied by its
    row of the expansion in one product. The drift term d0 g0 + d1 g1 and
    the curvature term ((S00 H00 + S01 H01) + S10 H10) + S11 H11 are
    elementwise sums in that order, so a score rounds alike on every BLAS."""
    gamma = model.gamma
    rows = model.moment_rows if isinstance(s, slice) else model.moment_rows.take(s, axis=1)
    t = rows * expansion[1:, :, None]
    curvature = ((t[2] + t[3]) + t[4]) + t[5]
    reaction = (1.0 - gamma) * expansion[0][:, None]
    return model.rewards[s] + gamma * ((t[0] + t[1]) + 0.5 * curvature) - reaction


def improve_policy_continuous(
    model: MdpModel,
    value: fem.ContinuousValue,
    incumbent: np.ndarray | None = None,
    margins: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy one-step improvement against a continuous value function.

    Scores each action by expected reward plus the drift and diffusion terms
    of the local expansion of the value (the action-independent reaction term
    is kept for fidelity; it cannot change the argmax). Scores within 1e-12
    of the best count as tied, and ties resolve to the lowest action index,
    as in the discrete improvement step. With ``incumbent``/``margins`` set
    (the loop's hysteresis), a state keeps its incumbent action unless the
    best challenger clears the margin. All states and actions are scored in
    one pass of ``ContinuousValue.expansion_at`` over the centres the mesh
    located once (``Mesh.centres``), so the loop does not relocate them, and
    one call of ``_state_scores`` on the whole of ``MdpModel.moment_rows``,
    read in place. A value whose mesh is not built on ``model.states``
    raises DomainError.
    """
    if value.mesh.states is not model.states:
        raise DomainError("the value's mesh is not built on the model's states")
    states = np.arange(model.n_states)
    scores = _state_scores(model, slice(None), value.expansion_at(value.mesh.centres))
    best = best_action(scores)
    if incumbent is None:
        return best
    margin = 0.0 if margins is None else margins
    switch = (best != incumbent) & (scores[states, best] > scores[states, incumbent] + margin)
    return np.where(switch, best, incumbent)


def project_wall_tangential(coeffs, mesh: fem.Mesh, model: MdpModel) -> None:
    """Zero the wall-normal part of the second moment at domain-wall nodes.

    The truncated transition rows carry no probability flux across the state
    grid's walls, but their raw second moments do not encode that; projecting
    the moment onto the wall-tangential direction makes the natural zero-flux
    side condition hold identically and removes the boundary layer it would
    otherwise induce in the evaluated value. A node is on a wall when its
    state's lattice column or row is the grid's first or last. Mutates
    ``coeffs`` in place.
    """
    nx, ny = model.states.nx, model.states.ny
    i, j = mesh.node_state % nx, mesh.node_state // nx
    on_x = (i == 0) | (i == nx - 1)
    on_y = (j == 0) | (j == ny - 1)
    sig = coeffs.diffusion
    sig[on_x, 0, 0] = 0.0
    sig[on_y, 1, 1] = 0.0
    sig[on_x | on_y, 0, 1] = sig[on_x | on_y, 1, 0] = 0.0


def policy_coefficients(model: MdpModel, policy: np.ndarray, mesh: fem.Mesh) -> PdeCoefficients:
    """The nodal coefficients that the evaluation of ``policy`` on ``mesh``
    solves with: the moments of its transition rows, wall-projected."""
    coeffs = assemble_coefficients(model, policy, mesh.node_state)
    project_wall_tangential(coeffs, mesh, model)
    return coeffs


def evaluate_policy_fem(
    model: MdpModel, policy: np.ndarray, mesh: fem.Mesh
) -> tuple[fem.ContinuousValue, float]:
    """One finite-element policy evaluation; returns the value and the
    solve's max residual, the one its gate computed."""
    coeffs = policy_coefficients(model, policy, mesh)
    system = fem.constrain_goal(fem.assemble(mesh, coeffs), mesh.goal_node)
    nodal, residual = fem.solve(system)
    return fem.ContinuousValue(mesh, nodal), residual


def approximate_policy_iteration(model: MdpModel, cfg: ApiConfig = ApiConfig()) -> ApiResult:
    """Alternate FEM evaluation and pointwise improvement on all grid states.
    The mesh never changes, so the state centres are located on it once, in
    the first improvement (``Mesh.centres``). The value returned is the
    returned policy's own, also when the budget runs out."""
    mesh = fem.build_mesh(model.states, cfg.k)
    policy = initial_policy(model)
    diagnostics: list[dict] = []
    flips = np.zeros(model.n_states, dtype=np.int64)
    for it in range(1, cfg.max_iterations + 1):
        value, residual = evaluate_policy_fem(model, policy, mesh)
        margins = _STICKINESS * np.exp2(np.clip(flips - 2, 0, 48))
        improved = improve_policy_continuous(model, value, incumbent=policy, margins=margins)
        changes = int(np.sum(improved != policy))
        flips += improved != policy
        diagnostics.append(
            {
                "iteration": it,
                "policy_changes": changes,
                "solve_residual": residual,
                "value_min": float(value.coefficients.min()),
                "value_max": float(value.coefficients.max()),
            }
        )
        if changes == 0 or it == cfg.max_iterations:
            return ApiResult(policy, value, it, changes == 0, diagnostics)
        policy = improved


def value_mse(value: fem.ContinuousValue, oracle: np.ndarray, states) -> float:
    """Mean squared gap to a reference table over non-obstacle state centers.

    Centers that fall outside the mesh cover (the two cut corners of an
    even-sized checkerboard mesh) are evaluated at their projection onto it.
    """
    keep = ~states.obstacles
    points = states.positions()[keep]
    approx = value.evaluate_many(points)
    return float(np.mean((approx - oracle[keep]) ** 2))
