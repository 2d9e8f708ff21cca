"""Grid-world MDP over a flow field, plus exact tabular solvers.

States are cell centers of a rectangular grid; the eight compass actions
command (heading, max speed) pairs. One action runs for ``dt`` hours, after
which the position is re-identified with a grid cell: the transition law
places Gaussian weight on the 8-connected neighborhood plus the cell itself,
centered on the drifted mean position, and renormalizes. Classic policy
iteration and value iteration on this model serve as the exact reference
that the finite-element approximation is benchmarked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IterationLimitError, NumericalError
from .flowfield import FlowField, NoiseParams, Point2, field_velocity, write_table

COMPASS_ORDER = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")

_COMPASS_HEADINGS = {
    "N": math.pi / 2,
    "NE": math.pi / 4,
    "E": 0.0,
    "SE": -math.pi / 4,
    "S": -math.pi / 2,
    "SW": -3 * math.pi / 4,
    "W": math.pi,
    "NW": 3 * math.pi / 4,
}

# Exact unit vectors (cos/sin of the headings round-trip through floats and
# would leave ~1e-16 residue that breaks exact mirror symmetries).
_HALF_SQRT2 = math.sqrt(2.0) / 2.0
COMPASS_VECTORS = {
    "N": (0.0, 1.0),
    "NE": (_HALF_SQRT2, _HALF_SQRT2),
    "E": (1.0, 0.0),
    "SE": (_HALF_SQRT2, -_HALF_SQRT2),
    "S": (0.0, -1.0),
    "SW": (-_HALF_SQRT2, -_HALF_SQRT2),
    "W": (-1.0, 0.0),
    "NW": (-_HALF_SQRT2, _HALF_SQRT2),
}

STEP_REWARD = -0.1
OBSTACLE_REWARD = -1.0

@dataclass(frozen=True)
class Action:
    """A commanded (heading, speed) pair named by its compass direction."""

    compass: str
    heading: float
    speed: float


def compass_actions(v_max: float) -> tuple[Action, ...]:
    """The eight max-speed compass actions in canonical order."""
    if v_max <= 0:
        raise ValueError("v_max must be positive")
    return tuple(Action(c, _COMPASS_HEADINGS[c], v_max) for c in COMPASS_ORDER)


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Cell-center states of an nx-by-ny grid with obstacles and a goal."""

    origin: Point2
    cell_km: float
    nx: int
    ny: int
    obstacles: np.ndarray  # bool, shape (nx*ny,)
    goal: int

    def __post_init__(self) -> None:
        if self.nx * self.ny < 4:
            raise ValueError("state grid needs at least 4 states")
        if self.cell_km <= 0:
            raise ValueError("cell size must be positive")
        if self.obstacles.shape != (self.nx * self.ny,):
            raise ValueError("obstacle mask must have one entry per state")
        if not 0 <= self.goal < self.nx * self.ny:
            raise ValueError("goal index out of range")
        if self.obstacles[self.goal]:
            raise ValueError("goal state cannot be an obstacle")

    @classmethod
    def regular(
        cls,
        nx: int,
        ny: int,
        cell_km: float,
        goal_ij: tuple[int, int],
        origin: Point2 | None = None,
        obstacle_cells: Sequence[tuple[int, int]] = (),
    ) -> "StateSpace":
        """Grid whose cells tile [0, nx*cell] x [0, ny*cell] unless an origin
        is given; ValueError for a goal or obstacle cell outside the grid."""
        if origin is None:
            origin = Point2(cell_km / 2, cell_km / 2)
        for i, j in (goal_ij, *obstacle_cells):
            if not (0 <= i < nx and 0 <= j < ny):
                raise ValueError(f"cell ({i}, {j}) lies outside the {nx}x{ny} grid")
        mask = np.zeros(nx * ny, dtype=bool)
        for i, j in obstacle_cells:
            mask[j * nx + i] = True
        return cls(origin, cell_km, nx, ny, mask, goal_ij[1] * nx + goal_ij[0])

    @property
    def n(self) -> int:
        return self.nx * self.ny

    def index(self, i: int, j: int) -> int:
        return j * self.nx + i

    def coords(self, s: int) -> tuple[int, int]:
        return s % self.nx, s // self.nx

    def position(self, s: int) -> Point2:
        i, j = self.coords(s)
        return Point2(self.origin.x + i * self.cell_km, self.origin.y + j * self.cell_km)

    def positions(self) -> np.ndarray:
        """All state centers, shape (n, 2)."""
        idx = np.arange(self.n)
        out = np.empty((self.n, 2))
        out[:, 0] = self.origin.x + (idx % self.nx) * self.cell_km
        out[:, 1] = self.origin.y + (idx // self.nx) * self.cell_km
        return out

    def state_at(self, p: Point2 | np.ndarray) -> int | np.ndarray:
        """Containing cell of a point, clamped onto the grid; for an (n, 2)
        array of points, the cell of each row."""
        p = np.asarray(p, dtype=float)
        ij = np.floor((p - self.origin) / self.cell_km + 0.5)
        ij = np.minimum(np.maximum(ij, 0), (self.nx - 1, self.ny - 1)).astype(np.int64)
        s = ij[..., 1] * self.nx + ij[..., 0]
        return int(s) if s.ndim == 0 else s

    def is_terminal(self, s: int) -> bool:
        return s == self.goal or bool(self.obstacles[s])


@dataclass(eq=False)
class MdpModel:
    """Grid MDP with per-action padded transition tables.

    ``succ``/``prob`` have shape (n_actions, n_states, 9); rows are padded with
    the state itself at probability zero so they stay fixed-width. ``rewards``
    holds the transition-weighted expected reward per (state, action).
    ``moment_table`` holds the displacement moments of every row, built on
    first use.
    """

    states: StateSpace
    actions: tuple[Action, ...]
    dt_h: float
    v_max: float
    gamma: float
    noise: NoiseParams
    field: FlowField
    succ: np.ndarray
    prob: np.ndarray
    rewards: np.ndarray

    @property
    def n_states(self) -> int:
        return self.states.n

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    @cached_property
    def moment_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only drift E[s' - s], shape (n_actions, n_states, 2), and
        second moment E[(s' - s)(s' - s)^T], shape (n_actions, n_states, 2, 2),
        of every transition row (km and km^2). Padding entries have zero
        displacement and zero probability, so they add nothing."""
        positions = self.states.positions()
        disp = positions[self.succ] - positions[None, :, None, :]
        drift = np.einsum("asj,asjd->asd", self.prob, disp)
        second = np.einsum("asj,asjd,asje->asde", self.prob, disp, disp)
        drift.setflags(write=False)
        second.setflags(write=False)
        return drift, second

    def transition_row(self, s: int, a: int) -> tuple[np.ndarray, np.ndarray]:
        """Successor ids and probabilities with zero-padding removed."""
        p = self.prob[a, s]
        keep = p > 0.0
        return self.succ[a, s][keep], p[keep]


def build_model(
    field: FlowField,
    states: StateSpace,
    dt_h: float,
    v_max: float,
    gamma: float,
) -> MdpModel:
    """Construct transitions and expected rewards for all (state, action) pairs.

    For a non-terminal state the weight of each cell of the 3x3 stencil
    (offsets -1, 0, 1 per axis) is the product of independent per-axis
    Gaussian densities centered on the drifted displacement (net velocity
    times dt) with variance sigma^2 * dt; the zero-variance limit puts all
    mass on the offsets nearest the mean. An in-grid mask per axis gives the
    stencil cells off the grid log-weight -inf before each axis is shifted by
    its in-grid maximum, so they get weight zero, and each row is normalized
    over its in-grid cells. A row lists its in-grid successors first, in
    di-major stencil order, padded with the state itself at probability
    zero. Goal and obstacle states absorb.
    """
    if dt_h <= 0:
        raise ValueError("dt must be positive")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    actions = compass_actions(v_max)
    n = states.n
    ids = np.arange(n)
    terminal = states.obstacles | (ids == states.goal)
    step = np.array([-1, 0, 1])
    # In-grid mask per axis and offset, shape (2, 3, n); an absorbing state
    # keeps only itself.
    ij = np.stack([ids % states.nx, ids // states.nx])[:, None, :] + step[:, None]
    size = np.array([states.nx, states.ny])[:, None, None]
    in_axis = (0 <= ij) & (ij < size) & (~terminal | (step == 0)[:, None])

    drift = np.zeros((n, 2))
    free = np.flatnonzero(~terminal)
    centres = states.positions()[free].tolist()
    drift[free] = np.array([field_velocity(field, Point2(x, y)) for x, y in centres]).reshape(-1, 2)
    heading = v_max * np.array([COMPASS_VECTORS[c] for c in COMPASS_ORDER])
    means = (drift.T[:, None, :] + heading.T[:, :, None]) * dt_h  # (2, 8, n)
    # Per-axis log-weights of every (offset, action, state), shape (3, 8, n):
    # with the offset leading, the in-grid max and min reduce whole slabs.
    log_w = []
    for in_grid, mean, sigma in zip(in_axis, means, (field.noise.sigma_x, field.noise.sigma_y)):
        in_grid = in_grid[:, None, :]
        deltas = (step * states.cell_km)[:, None, None] - mean
        variance = sigma**2 * dt_h
        if variance <= 0.0:
            d = np.abs(deltas)
            nearest = np.where(in_grid, d, np.inf).min(axis=0)
            lw = np.where(in_grid & (d <= nearest + 1e-12), 0.0, -np.inf)
        else:
            w = -(deltas**2) / (2.0 * variance)
            lw = np.where(in_grid, w - np.where(in_grid, w, -np.inf).max(axis=0), -np.inf)
        log_w.append(np.moveaxis(lw, 0, -1))
    weights = np.exp(log_w[0][..., :, None] + log_w[1][..., None, :]).reshape(len(actions), n, 9)

    # Pack each row's in-grid cells to the front, keeping stencil order.
    in_grid = (in_axis[0].T[:, :, None] & in_axis[1].T[:, None, :]).reshape(n, 9)
    order = np.argsort(~in_grid, axis=1, kind="stable")
    cells = ids[:, None] + (step[:, None] + states.nx * step).ravel()
    succ = np.take_along_axis(np.where(in_grid, cells, ids[:, None]), order, axis=1)
    weights = np.take_along_axis(weights, order[None], axis=2)
    # Row sums add the in-grid cells as numpy sums them one row at a time:
    # in order below eight terms, pairwise for the full nine.
    total = np.where(in_grid.all(axis=1), weights.sum(axis=2), np.cumsum(weights, axis=2)[..., -1])
    prob = weights / total[..., None]

    reward = np.where(states.obstacles[succ], OBSTACLE_REWARD, STEP_REWARD)
    reward[(succ == states.goal) | terminal[:, None]] = 0.0
    rewards = prob.transpose(1, 0, 2)[..., None, :] @ reward[:, None, :, None]
    rewards = np.ascontiguousarray(rewards[..., 0, 0])  # row-major (n, 8)
    succ = np.tile(succ, (len(actions), 1, 1))
    return MdpModel(states, actions, dt_h, v_max, gamma, field.noise, field, succ, prob, rewards)


def _policy_matrix(model: MdpModel, policy: np.ndarray) -> sp.csr_matrix:
    n = model.n_states
    idx = np.arange(n)
    cols = model.succ[policy, idx].ravel()
    data = model.prob[policy, idx].ravel()
    rows = np.repeat(idx, model.succ.shape[2])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def policy_evaluation_exact(model: MdpModel, policy: np.ndarray) -> np.ndarray:
    """Solve the linear fixed-point system of a fixed policy directly."""
    n = model.n_states
    p_pi = _policy_matrix(model, policy)
    r_pi = model.rewards[np.arange(n), policy]
    system = sp.eye(n, format="csr") - model.gamma * p_pi
    values = spla.spsolve(system.tocsc(), r_pi)
    residual = np.max(np.abs(system @ values - r_pi))
    if not residual < 1e-9:
        raise NumericalError(f"policy evaluation residual {residual:.3e} exceeds 1e-9")
    return values


def action_values(model: MdpModel, values: np.ndarray) -> np.ndarray:
    """Q(s, a) = R(s, a) + gamma * E[values(s')], shape (n_states, n_actions)."""
    expected = np.einsum("asn,asn->as", model.prob, values[model.succ])
    return model.rewards + model.gamma * expected.T


def policy_improvement_discrete(model: MdpModel, values: np.ndarray) -> np.ndarray:
    """Greedy policy; ties resolve to the lowest action index."""
    return np.argmax(action_values(model, values), axis=1)


@dataclass(eq=False)
class PiResult:
    policy: np.ndarray
    values: np.ndarray
    iterations: int
    value_history: list[np.ndarray] = field(default_factory=list)


def classic_policy_iteration(
    model: MdpModel,
    max_iterations: int = 500,
    init: np.ndarray | None = None,
    record_history: bool = False,
) -> PiResult:
    """Alternate exact evaluation and greedy improvement to a fixed policy.

    The loop keeps a state's incumbent action unless a challenger improves
    its action value beyond float noise; without that guard, exact ties
    (e.g. equivalent diagonal paths in deterministic models) flip forever on
    round-off-level differences and the stopping rule never fires.
    """
    policy = np.zeros(model.n_states, dtype=np.int64) if init is None else init.copy()
    history: list[np.ndarray] = []
    for it in range(1, max_iterations + 1):
        values = policy_evaluation_exact(model, policy)
        if record_history:
            history.append(values)
        q = action_values(model, values)
        best = np.argmax(q, axis=1)
        idx = np.arange(model.n_states)
        improved = np.where(q[idx, best] > q[idx, policy] + 1e-12, best, policy)
        if np.array_equal(improved, policy):
            return PiResult(policy, values, it, history)
        policy = improved
    raise IterationLimitError(f"policy iteration did not converge in {max_iterations} iterations")


def value_iteration(
    model: MdpModel, tol: float = 1e-12, max_iterations: int = 500_000
) -> np.ndarray:
    """Bellman-optimality fixed point by successive sweeps (test oracle)."""
    values = np.zeros(model.n_states)
    for _ in range(max_iterations):
        updated = action_values(model, values).max(axis=1)
        if np.max(np.abs(updated - values)) < tol:
            return updated
        values = updated
    raise IterationLimitError(f"value iteration did not converge in {max_iterations} sweeps")


def write_value_csv(path, states: StateSpace, values: np.ndarray) -> None:
    ids = np.arange(states.n)
    columns = [ids, ids % states.nx, ids // states.nx, *states.positions().T, np.asarray(values)]
    write_table(path, ["state_id", "i", "j", "x_km", "y_km", "value"], zip(*(c.tolist() for c in columns)))


def write_policy_csv(path, policy: np.ndarray) -> None:
    write_table(path, ["state_id", "action"], enumerate(np.asarray(policy).tolist()))
