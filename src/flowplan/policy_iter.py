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
from .mdp import MdpModel
from .moments import Convention, assemble_coefficients, transition_moments

_TIE_TOL = 1e-12  # scores this close to the best tie; same guard as classic PI
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
        convention: moment sign convention fed to the PDE and improvement.
        init_policy: "goal-aimed" points every state at the goal; "uniform-n"
            starts from the first compass action everywhere.
    """

    k: int = 1
    max_iterations: int = 50
    convention: Convention = "displacement"
    init_policy: str = "goal-aimed"

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.init_policy not in ("goal-aimed", "uniform-n"):
            raise ValueError(f"unknown initial policy {self.init_policy!r}")


@dataclass(eq=False)
class ApiResult:
    policy: np.ndarray
    value: fem.ContinuousValue
    iterations: int
    change_counts: list[int]
    converged: bool
    diagnostics: list[dict] = field(default_factory=list)


def initial_policy(model: MdpModel, kind: str = "goal-aimed") -> np.ndarray:
    """Either uniform first-action or headings aimed most directly at the goal."""
    if kind == "uniform-n":
        return np.zeros(model.n_states, dtype=np.int64)
    positions = model.states.positions()
    goal = positions[model.states.goal]
    delta = goal - positions
    bearing = np.arctan2(delta[:, 1], delta[:, 0])
    headings = np.array([a.heading for a in model.actions])
    alignment = np.cos(bearing[:, None] - headings[None, :])
    policy = np.argmax(alignment, axis=1)
    policy[model.states.goal] = 0
    return policy.astype(np.int64)


def _state_scores(
    model: MdpModel,
    s: int | np.ndarray,
    value_at: float | np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    convention: Convention,
) -> np.ndarray:
    """Every action's score at state ``s``: expected reward plus the drift and
    curvature terms of the local expansion of the value, less the reaction
    term. With an array of states (and one value, gradient and Hessian row
    per state) it scores each state in its own row, shape (n, n_actions),
    with the arithmetic of the one-state case."""
    gamma = model.gamma
    m = transition_moments(model, s, slice(None), convention)
    drift = m.drift.swapaxes(0, -2)  # (..., n_a, 2)
    diffusion = m.diffusion.swapaxes(0, -3)  # (..., n_a, 2, 2)
    drift_term = (drift @ np.asarray(grad)[..., None])[..., 0]
    diff_term = 0.5 * np.einsum("...aij,...ij->...a", diffusion, hess)
    reaction = (1.0 - gamma) * np.asarray(value_at)[..., None]
    return model.rewards[s] + gamma * (drift_term + diff_term) - reaction


def best_action(scores: np.ndarray) -> np.ndarray:
    """Index of the best score of each row; scores within 1e-12 of the best
    count as tied, and the lowest action index wins a tie."""
    best = scores.max(axis=-1, keepdims=True)
    return np.argmax(scores >= best - _TIE_TOL, axis=-1)


def improve_policy_continuous(
    model: MdpModel,
    value: fem.ContinuousValue,
    convention: Convention = "displacement",
    clamp: bool = False,
    incumbent: np.ndarray | None = None,
    margins: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy one-step improvement against a continuous value function.

    Scores each action by expected reward plus the drift and diffusion terms
    of the local expansion of the value (the action-independent reaction term
    is kept for fidelity; it cannot change the argmax). State centers outside
    the mesh cover raise DomainError unless ``clamp`` projects them onto it.
    Scores within 1e-12 of the best count as tied, and ties resolve to the
    lowest action index, as in the discrete improvement step. With
    ``incumbent``/``margins`` set (the loop's hysteresis), a state keeps its
    incumbent action unless the best challenger clears the margin. All states
    and actions are scored in one pass over ``ContinuousValue.expansion``.
    """
    states = np.arange(model.n_states)
    v, grad, hess = value.expansion(model.states.positions(), clamp=clamp)
    scores = _state_scores(model, states, v, grad, hess, convention)
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
    otherwise induce in the evaluated value. Mutates ``coeffs`` in place.
    """
    st = model.states
    x_lo, y_lo = st.origin
    x_hi = st.origin.x + (st.nx - 1) * st.cell_km
    y_hi = st.origin.y + (st.ny - 1) * st.cell_km
    tol = 1e-9
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    on_x = (np.abs(x - x_lo) < tol) | (np.abs(x - x_hi) < tol)
    on_y = (np.abs(y - y_lo) < tol) | (np.abs(y - y_hi) < tol)
    sig = coeffs.diffusion
    sig[on_x, 0, 0] = 0.0
    sig[on_y, 1, 1] = 0.0
    sig[on_x | on_y, 0, 1] = sig[on_x | on_y, 1, 0] = 0.0


def evaluate_policy_fem(
    model: MdpModel,
    policy: np.ndarray,
    mesh: fem.Mesh,
    convention: Convention = "displacement",
) -> tuple[fem.ContinuousValue, float]:
    """One finite-element policy evaluation; returns the value and residual."""
    coeffs = assemble_coefficients(model, policy, mesh.node_state, mesh.goal_node, convention)
    project_wall_tangential(coeffs, mesh, model)
    system = fem.constrain_goal(fem.assemble(mesh, coeffs), mesh.goal_node)
    nodal = fem.solve(system)
    residual = float(np.max(np.abs(system.matrix @ nodal - system.rhs)))
    return fem.ContinuousValue(mesh, nodal), residual


def approximate_policy_iteration(model: MdpModel, cfg: ApiConfig = ApiConfig()) -> ApiResult:
    """Alternate FEM evaluation and pointwise improvement on all grid states."""
    mesh = fem.build_mesh(model.states, cfg.k)
    policy = initial_policy(model, cfg.init_policy)
    change_counts: list[int] = []
    diagnostics: list[dict] = []
    flips = np.zeros(model.n_states, dtype=np.int64)
    value: fem.ContinuousValue | None = None
    for it in range(1, cfg.max_iterations + 1):
        value, residual = evaluate_policy_fem(model, policy, mesh, cfg.convention)
        margins = _STICKINESS * np.exp2(np.clip(flips - 2, 0, 48))
        improved = improve_policy_continuous(
            model, value, convention=cfg.convention, clamp=True, incumbent=policy, margins=margins
        )
        changes = int(np.sum(improved != policy))
        flips += improved != policy
        change_counts.append(changes)
        diagnostics.append(
            {
                "iteration": it,
                "policy_changes": changes,
                "solve_residual": residual,
                "value_min": float(value.coefficients.min()),
                "value_max": float(value.coefficients.max()),
            }
        )
        if changes == 0:
            return ApiResult(policy, value, it, change_counts, True, diagnostics)
        policy = improved
    assert value is not None
    return ApiResult(policy, value, cfg.max_iterations, change_counts, False, diagnostics)


def value_mse(value: fem.ContinuousValue, oracle: np.ndarray, states) -> float:
    """Mean squared gap to a reference table over non-obstacle state centers.

    Centers that fall outside the mesh cover (the two cut corners of an
    even-sized checkerboard mesh) are evaluated at their projection onto it.
    """
    keep = ~states.obstacles
    points = states.positions()[keep]
    approx = value.evaluate_many(points, clamp=True)
    return float(np.mean((approx - oracle[keep]) ** 2))
