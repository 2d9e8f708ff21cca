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

import csv
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IterationLimitError, NumericalError
from .flowfield import FlowField, NoiseParams, Point2, field_velocity

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

# 3x3 neighborhood offsets, self included.
_OFFSETS = [(di, dj) for dj in (-1, 0, 1) for di in (-1, 0, 1)]


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


def _axis_log_weights(deltas: np.ndarray, variance: float) -> np.ndarray:
    """Unnormalized per-axis log weights; the zero-variance limit puts all
    mass on the offsets nearest the mean."""
    if variance <= 0.0:
        d = np.abs(deltas)
        return np.where(d <= d.min() + 1e-12, 0.0, -np.inf)
    w = -(deltas**2) / (2.0 * variance)
    return w - w.max()


def _transition_weights(
    dxs: np.ndarray, dys: np.ndarray, mean_dx: float, mean_dy: float, var_x: float, var_y: float
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized weights over the product candidate set (dxs x dys)."""
    lwx = _axis_log_weights(dxs - mean_dx, var_x)
    lwy = _axis_log_weights(dys - mean_dy, var_y)
    w = np.exp(lwx[:, None] + lwy[None, :])
    return w / w.sum(), w


def _reward_kernel(states: StateSpace, s: int, succ: np.ndarray) -> np.ndarray:
    """Per-successor reward: free step -0.1, obstacle entry -1, terminal 0."""
    if states.is_terminal(s):
        return np.zeros(len(succ))
    r = np.full(len(succ), STEP_REWARD)
    r[states.obstacles[succ]] = OBSTACLE_REWARD
    r[succ == states.goal] = 0.0
    return r


def build_model(
    field: FlowField,
    states: StateSpace,
    dt_h: float,
    v_max: float,
    gamma: float,
) -> MdpModel:
    """Construct transitions and expected rewards for all (state, action) pairs.

    For a non-terminal state the weight of each in-grid neighborhood cell is
    the product of independent per-axis Gaussian densities centered on the
    drifted displacement (net velocity times dt) with variance sigma^2 * dt,
    renormalized over the candidate set. Goal and obstacle states absorb.
    """
    if dt_h <= 0:
        raise ValueError("dt must be positive")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    actions = compass_actions(v_max)
    n = states.n
    n_a = len(actions)
    succ = np.empty((n_a, n, 9), dtype=np.int64)
    prob = np.zeros((n_a, n, 9))
    rewards = np.zeros((n, n_a))
    var_x = field.noise.sigma_x**2 * dt_h
    var_y = field.noise.sigma_y**2 * dt_h
    cell = states.cell_km

    for s in range(n):
        i, j = states.coords(s)
        pos = states.position(s)
        if states.is_terminal(s):
            succ[:, s, :] = s
            prob[:, s, 0] = 1.0
            continue
        dis = np.array([di for di in (-1, 0, 1) if 0 <= i + di < states.nx])
        djs = np.array([dj for dj in (-1, 0, 1) if 0 <= j + dj < states.ny])
        cand = np.array([[states.index(i + di, j + dj) for dj in djs] for di in dis])
        drift = field_velocity(field, pos)
        for a, act in enumerate(actions):
            ux, uy = COMPASS_VECTORS[act.compass]
            mean_dx = (drift.vx + act.speed * ux) * dt_h
            mean_dy = (drift.vy + act.speed * uy) * dt_h
            w, _ = _transition_weights(dis * cell, djs * cell, mean_dx, mean_dy, var_x, var_y)
            ids = cand.ravel()
            probs = w.ravel()
            succ[a, s, : len(ids)] = ids
            succ[a, s, len(ids) :] = s
            prob[a, s, : len(ids)] = probs
            rewards[s, a] = float(probs @ _reward_kernel(states, s, ids))
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state_id", "i", "j", "x_km", "y_km", "value"])
        for s in range(states.n):
            i, j = states.coords(s)
            x, y = states.position(s)
            writer.writerow([s, i, j, repr(x), repr(y), repr(float(values[s]))])


def write_policy_csv(path, policy: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state_id", "action"])
        for s, a in enumerate(policy):
            writer.writerow([s, int(a)])
