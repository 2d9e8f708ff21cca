"""Grid-world MDP over a flow field, plus exact tabular solvers.

States are cell centers of a rectangular grid; the eight compass actions
command (heading, max speed) pairs. One action runs for ``dt`` hours, after
which the position is re-identified with a grid cell: the transition law
places Gaussian weight on the 8-connected neighborhood plus the cell itself,
centered on the drifted mean position, and renormalizes. Classic policy
iteration on this model serves as the exact reference that the
finite-element approximation is benchmarked against.

Every table of the model is state-major, with one successor list per state
and the successor axis last (``MdpModel``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy

from .errors import IterationLimitError, NumericalError
from .flowfield import FlowField, Point2, field_velocities, write_table


def _load_flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, loaded
    from their file alone. The ``scipy.linalg`` package would bring in
    ``scipy._lib``'s helpers and through them ``numpy.testing``, ``numpy.ma``
    and ``unittest``, about 27 MB of resident memory and 0.3 s per process
    (scipy 1.17, Python 3.11), for the one routine ``dgbsv``. The module is
    the one ``scipy.linalg.lapack`` wraps, so its routines are the same
    objects. ImportError names the directory when the file is missing."""
    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    loaders = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(where, loaders).find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack is missing from {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


dgbsv = _load_flapack().dgbsv

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

_TIE_TOL = 1e-12  # action values or scores this close to the best tie

# Couplings gamma p below this floor stay out of the exact evaluation's band.
# A row drops at most 9 of them, mass below 9 * floor, so a value moves by at
# most 9 * floor / (1 - gamma) * max|v| (about 2e-28 relative at gamma = 0.95).
_COUPLING_FLOOR = 1e-30

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

    @cached_property
    def _frame(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid origin and the last cell's (i, j), as arrays for
        ``state_at``."""
        return np.array(self.origin, dtype=float), np.array([self.nx - 1, self.ny - 1], dtype=float)

    def state_at(self, p: Point2 | np.ndarray) -> int | np.ndarray:
        """Containing cell of a point, clamped onto the grid; for an (n, 2)
        array of points, the cell of each row."""
        origin, last = self._frame
        ij = np.floor((np.asarray(p, dtype=float) - origin) / self.cell_km + 0.5)
        ij = np.minimum(np.maximum(ij, 0), last).astype(np.int64)
        s = ij[..., 1] * self.nx + ij[..., 0]
        return int(s) if s.ndim == 0 else s


@dataclass(eq=False)
class MdpModel:
    """Grid MDP in one state-major layout.

    ``succ`` (n_states, 9) is each state's one successor list, padded with
    the state itself; ``prob`` (n_states, n_actions, 9) holds each (state,
    action) row's probabilities over it, zero on the padding, which exact
    policy evaluation's coupling floor keeps out of its band. ``rewards``
    (n_states, n_actions) holds each row's expected reward and
    ``moment_rows``, built on first use, its displacement moments. The
    noise and the vehicle speed are those of ``field`` and ``actions``.
    """

    states: StateSpace
    actions: tuple[Action, ...]
    dt_h: float
    gamma: float
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
    def moment_rows(self) -> np.ndarray:
        """The displacement moments of every transition row (km and km^2),
        built on first use: one read-only table of shape (6, n_states,
        n_actions), component-major, whose rows are the drift E[s' - s] in x
        and y and the second moment E[(s' - s)(s' - s)^T] at (0, 0), (0, 1),
        (1, 0) and (1, 1), each a ``_sum_successors`` sum. Padding entries
        have zero displacement and zero probability, so they add nothing.
        Each state's displacements are gathered once, over its successor
        list. The (0, 1) and (1, 0) rows are summed apart, as (p dx) dy and
        (p dy) dx, so the second moment is not exactly symmetric."""
        positions = self.states.positions()
        disp = positions[self.succ] - positions[:, None, :]
        dx, dy = disp[:, None, :, 0], disp[:, None, :, 1]
        px, py = self.prob * dx, self.prob * dy
        # One product at a time, so no two (n_states, n_actions, 9) temporaries live at once.
        second = (_sum_successors(p * d) for p in (px, py) for d in (dx, dy))
        rows = np.stack([_sum_successors(px), _sum_successors(py), *second])
        rows.setflags(write=False)
        return rows


def _sum_successors(terms: np.ndarray) -> np.ndarray:
    """Sum over the last (successor) axis in order, from 0.0 (an exact zero
    sums to +0.0). Rewards, action values and the moment table sum so."""
    total = terms[..., 0] + 0.0
    for j in range(1, terms.shape[-1]):
        total += terms[..., j]
    return total


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
    drift[free] = field_velocities(field, states.positions()[free])
    heading = v_max * np.array([COMPASS_VECTORS[c] for c in COMPASS_ORDER])
    means = (drift.T[:, None, :] + heading.T[:, :, None]) * dt_h  # (2, 8, n)
    # Per-axis log-weights of every (offset, action, state), shape (3, 8, n):
    # with the offset leading, the in-grid max and min reduce whole slabs.
    # Each axis is then laid out state-major, (n, 8, 3), as the model is.
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
        log_w.append(lw.transpose(2, 1, 0))
    weights = np.exp(log_w[0][..., :, None] + log_w[1][..., None, :]).reshape(n, len(actions), 9)

    # Pack each row's in-grid cells to the front, keeping stencil order.
    in_grid = (in_axis[0].T[:, :, None] & in_axis[1].T[:, None, :]).reshape(n, 9)
    order = np.argsort(~in_grid, axis=1, kind="stable")
    cells = ids[:, None] + (step[:, None] + states.nx * step).ravel()
    succ = np.take_along_axis(np.where(in_grid, cells, ids[:, None]), order, axis=1)
    weights = np.take_along_axis(weights, order[:, None, :], axis=2)
    # Row sums add the in-grid cells as numpy sums them one row at a time:
    # in order below eight terms, pairwise for the full nine.
    total = np.where(in_grid.all(axis=1)[:, None], weights.sum(axis=2), np.cumsum(weights, axis=2)[..., -1])
    prob = weights / total[..., None]

    reward = np.where(states.obstacles[succ], OBSTACLE_REWARD, STEP_REWARD)
    reward[(succ == states.goal) | terminal[:, None]] = 0.0
    rewards = _sum_successors(prob * reward[:, None, :])
    return MdpModel(states, actions, dt_h, gamma, field, succ, prob, rewards)


def _band_solve(row: np.ndarray, col: np.ndarray, data: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``A @ x = rhs`` for the matrix A given by (row, col, data)
    triplets, by banded LU with partial pivoting (LAPACK ``gbsv``; Anderson
    et al., LAPACK Users' Guide, 1999). Triplets are the one linear-system
    format of the package, and this is its one solver: exact policy
    evaluation (``policy_evaluation_exact``) and the FEM evaluation
    (``fem.solve`` of a ``fem.SparseSystem``) both call it.

    The lower and upper bandwidths l and u are read off the triplets, so
    every triplet counts towards them, one carrying a zero included: callers
    pass only the entries that belong in the band. The values are scattered
    straight into the (2l + u + 1, n) band array that ``gbsv`` factors in
    place; a duplicate (row, col) adds its value in the order given. With the
    lattice numbering of states and mesh nodes every coupling stays within
    about one grid row of the diagonal, so the band is narrow and the LU
    costs O(n l (l + u)). Non-finite input is not checked here; it reaches
    the caller's residual gate. A zero pivot raises NumericalError.
    """
    n = rhs.shape[0]
    offset = row.astype(np.int64) - col  # positive below the diagonal
    lower, upper = int(offset.max(initial=0)), -int(offset.min(initial=0))
    rows = 2 * lower + upper + 1  # the top l rows are room for the LU's fill
    band = np.bincount(
        (lower + upper + offset) * n + col, weights=data, minlength=rows * n
    ).reshape(rows, n)
    *_, x, info = dgbsv(lower, upper, band, rhs, overwrite_ab=True)
    if info > 0:
        raise NumericalError(f"singular system: zero pivot in column {info} of the banded LU")
    return x


def policy_evaluation_exact(model: MdpModel, policy: np.ndarray) -> np.ndarray:
    """Solve the linear fixed-point system (I - gamma P_pi) v = r_pi of a
    fixed policy directly, by banded LU: a state's successors lie in its 3x3
    stencil, so the half-bandwidth is at most nx + 1.

    The band is filled straight from the policy's padded transition rows:
    the identity first, then -gamma p for every successor whose gamma p is
    at least ``_COUPLING_FLOOR`` (1e-30), so a diagonal entry is
    1 - gamma p_ss rounded once, as in the sparse matrix I - gamma P_pi with
    those entries pruned. Below the floor lie the padding, the in-grid cells
    of probability 0 under zero noise, and the Gaussian tails, which reach
    down to 1e-94. The tails change no value by more than the floor's bound,
    but their products in the LU fill are subnormal, and subnormal
    arithmetic is slow; zeros counted towards the bandwidths would widen the
    band the LU works over (on the noise-free 20x20 paper gyre with every
    state heading NE, l is 0 without them and nx + 1 with them). The model
    keeps every coupling, and the residual max |v - gamma P_pi v - r_pi| is
    taken over all of them; above 1e-9 it raises NumericalError.
    """
    idx = np.arange(model.n_states)
    coupling = model.gamma * model.prob[idx, policy]
    r_pi = model.rewards[idx, policy]
    keep = coupling >= _COUPLING_FLOOR
    row = np.concatenate([idx, np.repeat(idx, keep.sum(axis=1))])
    col = np.concatenate([idx, model.succ[keep]])
    data = np.concatenate([np.ones(model.n_states), -coupling[keep]])
    values = _band_solve(row, col, data, r_pi)
    residual = np.max(np.abs(values - (coupling * values[model.succ]).sum(axis=1) - r_pi))
    if not residual < 1e-9:
        raise NumericalError(f"policy evaluation residual {residual:.3e} exceeds 1e-9")
    return values


def action_values(model: MdpModel, values: np.ndarray) -> np.ndarray:
    """Q(s, a) = R(s, a) + gamma * E[values(s')], shape (n_states, n_actions),
    each expectation a ``_sum_successors`` sum of probability times value.
    The values are gathered once per state, over its successor list."""
    expected = _sum_successors(model.prob * values[model.succ][:, None, :])
    return model.rewards + model.gamma * expected


def initial_policy(model: MdpModel) -> np.ndarray:
    """The heading aimed most directly at the goal, at every state."""
    positions = model.states.positions()
    goal = positions[model.states.goal]
    delta = goal - positions
    bearing = np.arctan2(delta[:, 1], delta[:, 0])
    headings = np.array([a.heading for a in model.actions])
    alignment = np.cos(bearing[:, None] - headings[None, :])
    policy = np.argmax(alignment, axis=1)
    policy[model.states.goal] = 0
    return policy.astype(np.int64)


def best_action(scores: np.ndarray) -> np.ndarray:
    """Index of the best score of each row; scores within 1e-12 of the best
    count as tied, and the lowest action index wins a tie."""
    best = np.maximum.reduce(scores, axis=-1, keepdims=True)
    return np.argmax(scores >= best - _TIE_TOL, axis=-1)


@dataclass(eq=False)
class PiResult:
    policy: np.ndarray
    values: np.ndarray
    iterations: int


def classic_policy_iteration(model: MdpModel, max_iterations: int = 500) -> PiResult:
    """Alternate exact evaluation and greedy improvement to a fixed policy.

    The loop starts from ``initial_policy``, the goal-aimed heading that
    approximate policy iteration starts from, and improves every state to
    ``best_action`` of its action values: the lowest action index within
    1e-12 of the best, with no regard to the incumbent. It stops when the
    policy is unchanged. Each improved policy is greedy to within 1e-12, so
    the values climb to the optimum (Puterman, 1994, section 6.4); there Q
    is fixed, the rule picks the same policy from it, and the loop stops,
    on the same policy whatever the start and however the solver rounds Q's
    exact ties (equivalent diagonal paths in deterministic models, for one).
    ``max_iterations`` only guards against a cycle of policies whose values
    differ by round-off; running out raises IterationLimitError.
    """
    policy = initial_policy(model)
    for it in range(1, max_iterations + 1):
        values = policy_evaluation_exact(model, policy)
        improved = best_action(action_values(model, values))
        if np.array_equal(improved, policy):
            return PiResult(policy, values, it)
        policy = improved
    raise IterationLimitError(f"policy iteration did not converge in {max_iterations} iterations")


def write_value_csv(path, states: StateSpace, values: np.ndarray) -> None:
    ids = np.arange(states.n)
    columns = [ids, ids % states.nx, ids // states.nx, *states.positions().T, np.asarray(values)]
    write_table(path, ["state_id", "i", "j", "x_km", "y_km", "value"], zip(*(c.tolist() for c in columns)))


def write_policy_csv(path, policy: np.ndarray) -> None:
    write_table(path, ["state_id", "action"], enumerate(np.asarray(policy).tolist()))
