"""P1 triangular finite elements on structured state-grid meshes.

A ``Mesh`` triangulates the MDP's state lattice and carries it: its nodes are
state centres, built by array expressions over lattice coordinates from the
full grid split along SW-NE cell diagonals (k=1), or from the even-parity
checkerboard subset triangulated by the rotated lattice it induces (k=2, half
the nodes). Either way the goal is a node: an odd-parity goal is added to the
checkerboard by splitting the diamond it centres. The drift-diffusion-
reaction weak form is assembled with exact P1 mass and stiffness integrals and
centroid quadrature for advection and source terms (the sparsity pattern
and its summation order are built once per mesh) into summed (row, col,
data) entries, a ``SparseSystem``. The goal value is pinned to zero by
symmetric elimination, and the entries go to ``mdp._band_solve``, the banded
LU of exact policy iteration too: node ids follow the state lattice row by
row, so the band is about one grid row wide. The solved nodal coefficients
define a value function that is continuous over the whole mesh cover and
evaluable (with recovered first and second derivatives) anywhere inside it.
Point location is lattice arithmetic on batches of rows: a point's state
(``StateSpace.state_at``) lists the few triangles that may contain it, which
gives the answer a search of the whole mesh gives, and one per-cell frame
table holds their barycentric frames, so a batch gathers them at once. Every
query row off the cover is projected, in one batch, onto the hull edges and
answered there; only ``Mesh.locate`` raises DomainError off the cover.
First derivatives are recovered at the nodes as the area-weighted mean of
the element gradients around them. Second derivatives come from a quadratic
fit over a node patch with the symmetry of the state lattice: at interior
nodes, the 3x3 block of grid neighbours (k=1) or the (+-1, +-1), (+-2, 0)
and (0, +-2) neighbours (k=2), as the eight-neighbour transition law
reaches in every direction. The patches are read off the assembly pattern
(the 1-ring) and the 1-rings of its nodes (the 2-ring), and the fits form
one padded recovery table from nodal values to nodal Hessians (in the
spirit of patch recovery, Zienkiewicz & Zhu 1992), with one pseudo-inverse
per patch shape, computed in one stack per patch size. A shape is the patch's integer lattice steps
from its node, so a lattice has a few dozen shapes whatever its cell size,
each fitted at the offsets (di h, dj h). The value, the recovered gradient
and the fitted Hessian of every node are the rows of one component-major table
(``ContinuousValue.expansion_table``), and the expansion at a point is the
barycentric interpolant of that table over its triangle: one gather of the
corners and one written sum over all seven rows, so the expansion is
continuous over the cover. ``ContinuousValue.expansion`` returns it at many
points, located by one ``Mesh.locate_rows`` (point location and
projection), as one (7, n) block in the table's layout; ``expansion_at``
does the same at rows located before, such as the state centres
(``Mesh.centres``). It is the one implementation of these queries:
``evaluate``, ``gradient`` and ``hessian`` send it a batch of one; its sums
are elementwise in a written order, never a BLAS dot. Edge adjacency has
one table too, ``Mesh.edge_neighbours``, built from the sorted edge keys of
every triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MeshError, NumericalError
from .flowfield import Point2, write_table
from .mdp import StateSpace, _band_solve
from .moments import PdeCoefficients

_BARY_TOL = 1e-9  # dimensionless barycentric containment tolerance
_NODE_TOL_KM = 1e-9
_MIN_AREA_KM2 = 1e-12
_BATCH_ROWS = 512  # rows per batched point location (about 0.3 MB per temporary)


def _cross_z(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z-component of the cross product of planar vectors (broadcasts)."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


class HessianOperator(NamedTuple):
    """``Mesh.hessian_operator``: the nodal Hessian fits as a padded table."""

    ids: np.ndarray  # (slots, n_nodes) patch node of each slot
    weights: np.ndarray  # (3, slots, n_nodes) its weights towards x^2, xy, y^2


class AssemblyTable(NamedTuple):
    """What assembly and nodal gradient recovery need of a mesh alone, built
    once per mesh (``Mesh.assembly_table``); every array is read-only.
    ``assemble`` passes the summed entries' ``row`` and ``col`` on as they are."""

    corners: np.ndarray  # (3 * n_tris,) every triangle's corner 0, then 1, then 2
    # Element blocks are flat: entry 3i + j of row e is block entry (i, j).
    mass: np.ndarray  # (n_tris, 9) P1 mass blocks (1 + I) * area / 12
    area_grad: np.ndarray  # (2, n_tris, 9) area * g_id at (i, j), for d = 0, 1
    grad: np.ndarray  # (2, n_tris, 9) g_jc at (i, j), for c = 0, 1
    order: np.ndarray  # element-block entry ids in summation order
    slot: np.ndarray  # summed entry of each entry of ``order`` (ascending)
    row: np.ndarray  # per summed entry, its row: ascending, then by column
    col: np.ndarray  # per summed entry, its column
    node_area: np.ndarray  # per node, the summed area of its triangles


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation of a state lattice whose nodes are states.

    Triangles are counter-clockwise node-id triples; ``node_state`` maps each
    node to its state and ``goal_node`` marks the node pinned by the solver.
    Geometry caches (node positions, areas, basis gradients, edge adjacency,
    the query tables, the assembly table) are built lazily and shared by
    every value function on the mesh; the edge table is built at once, as it also checks conformity.

    Point location is lattice arithmetic on batches of rows; ``locate``,
    ``covers`` and ``project`` are batches of one. It starts from the query
    point's state, ``states.state_at``: the lattice point nearest it, clamped
    onto the grid. It weighs the triangles whose integer lattice box holds
    that lattice point (a triangle that contains the point within the
    barycentric tolerance does), their frames read in one gather from the
    per-cell frame table ``_frames``, and takes the first, in triangle order,
    with the largest minimum barycentric weight: the pick of a search of the
    whole mesh. ``locate`` raises DomainError off the cover; the batched
    queries project such rows in one batch onto the hull edges
    (``edge_neighbours`` < 0), where the closest point of the cover lies, and
    take the first closest in triangle-edge order.
    """

    states: StateSpace
    triangles: np.ndarray  # (n_tris, 3), CCW
    node_state: np.ndarray  # (n_nodes,)
    goal_node: int

    def __post_init__(self) -> None:
        if len(self.node_state) == 0 or len(self.triangles) == 0:
            raise MeshError("mesh has no nodes or no triangles")
        if self.areas.min() <= _MIN_AREA_KM2:
            raise MeshError("mesh contains a degenerate (non-CCW or zero-area) triangle")
        used = np.zeros(self.n_nodes, dtype=bool)
        used[self.triangles.ravel()] = True
        if not used.all():
            raise MeshError("mesh contains nodes that belong to no triangle")
        _ = self.edge_neighbours  # raises MeshError on an edge of three triangles

    @property
    def n_nodes(self) -> int:
        return len(self.node_state)

    @cached_property
    def nodes(self) -> np.ndarray:
        """Node positions, shape (n_nodes, 2): the centres of their states."""
        return self.states.positions()[self.node_state]

    @cached_property
    def areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        return 0.5 * _cross_z(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])

    @cached_property
    def basis_gradients(self) -> np.ndarray:
        """Constant P1 basis gradients per element, shape (n_tris, 3, 2)."""
        p = self.nodes[self.triangles]
        out = np.empty((len(self.triangles), 3, 2))
        for local, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
            edge = p[:, k] - p[:, j]
            out[:, local, 0] = -edge[:, 1]
            out[:, local, 1] = edge[:, 0]
        out /= (2.0 * self.areas)[:, None, None]
        return out

    @cached_property
    def _bary_frames(self) -> tuple[np.ndarray, np.ndarray]:
        p = self.nodes[self.triangles]
        mats = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=-1)
        return np.linalg.inv(mats), p[:, 0]

    @cached_property
    def _node_ij(self) -> np.ndarray:
        """Integer lattice coordinates (i, j) of every node, shape (n_nodes, 2)."""
        nx = self.states.nx
        return np.stack([self.node_state % nx, self.node_state // nx], axis=-1)

    @cached_property
    def _point_triangles(self) -> np.ndarray:
        """Per lattice point j * nx + i, the ascending ids of the triangles
        whose inclusive integer lattice box holds it (all that can contain a
        point that rounds to it), as the rows of one table padded with id 0.
        A pad never changes an answer: a triangle missing from a row does not
        contain such a point, and one listed twice loses to its first listing."""
        ij = self._node_ij[self.triangles]
        first, last = ij.min(axis=1), ij.max(axis=1)
        span = (last - first).max(axis=0) + 1
        point = first[:, None] + np.indices(span).reshape(2, -1).T  # (triangle, offset, (i, j))
        ok = (point <= last[:, None]).all(axis=-1)
        tri = np.nonzero(ok)[0]  # ascending
        key = (point[..., 1] * self.states.nx + point[..., 0])[ok]
        order = np.argsort(key, kind="stable")
        count = np.bincount(key, minlength=self.states.n)
        table = np.zeros((self.states.n, count.max()), dtype=np.int64)
        table[key[order], np.arange(len(key)) - np.repeat(np.cumsum(count) - count, count)] = tri[order]
        return table

    @cached_property
    def _frames(self) -> np.ndarray:
        """Per lattice point, each ``_point_triangles`` candidate's inverse
        edge matrix and corner 0, component-major (inv00, inv01, inv10,
        inv11, x0, y0): one read-only (6, n_states, candidates) table, so a
        batch of rows takes one contiguous (rows, candidates) block of each."""
        inv, r0 = self._bary_frames
        frames = np.vstack([inv.reshape(-1, 4).T, r0.T]).take(self._point_triangles, axis=1)
        frames.setflags(write=False)
        return frames

    @cached_property
    def _hull(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The hull edges among the triangle edges (a, b), (b, c), (c, a), in
        triangle-edge order: start points, edge vectors, squared lengths."""
        on_hull = (self.edge_neighbours[:, [2, 0, 1]] < 0).ravel()  # the edges opposite c, a, b
        start = self.nodes[self.triangles.ravel()[on_hull]]
        vec = self.nodes[self.triangles[:, [1, 2, 0]].ravel()[on_hull]] - start
        return start, vec, vec[:, 0] * vec[:, 0] + vec[:, 1] * vec[:, 1]

    def _find(self, p: Point2 | np.ndarray) -> tuple[int, np.ndarray] | None:
        """Containing triangle and weights, or None off the cover."""
        tri, lam = self._find_many(np.asarray(p, dtype=float).reshape(1, 2))
        return None if tri[0] < 0 else (int(tri[0]), lam[0])

    def locate(self, p: Point2 | np.ndarray) -> tuple[int, np.ndarray]:
        """Containing triangle and barycentric weights; DomainError outside."""
        found = self._find(p)
        if found is None:
            raise DomainError(f"point {tuple(np.asarray(p))} outside mesh cover")
        return found

    def _find_many(
        self, points: np.ndarray, lattice: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``_find`` of every row at once: containing triangle (-1 off the
        cover) and barycentric weights. ``lattice`` holds the rows'
        ``StateSpace.state_at`` when the caller has them."""
        if lattice is None:
            lattice = self.states.state_at(points)
        # Elementwise on the (row, candidate) arrays: einsum and reductions
        # over axes of two or three cost more than the arithmetic.
        i00, i01, i10, i11, x0, y0 = self._frames.take(lattice, axis=1)
        dx, dy = points[:, :1] - x0, points[:, 1:] - y0
        lam = np.empty((3, *dx.shape))
        lam[1] = i00 * dx + i01 * dy
        lam[2] = i10 * dx + i11 * dy
        lam[0] = 1.0 - (lam[1] + lam[2])
        mins = np.minimum(np.minimum(lam[0], lam[1]), lam[2])
        k = mins.argmax(axis=1)
        pick = np.arange(0, mins.size, mins.shape[1]) + k  # flat (row, candidate) index
        # + 0.0 makes an exact zero weight +0.0 whatever the signs of its two products.
        lam = lam.reshape(3, -1)[:, pick].T + 0.0
        return np.where(mins.ravel()[pick] >= -_BARY_TOL, self._point_triangles[lattice, k], -1), lam

    def _project_many(self, points: np.ndarray) -> np.ndarray:
        """Closest hull-edge point of every row; the first closest in
        triangle-edge order."""
        start, vec, length2 = self._hull
        d = points[:, None, :] - start
        t = np.clip((d[..., 0] * vec[:, 0] + d[..., 1] * vec[:, 1]) / length2, 0.0, 1.0)
        cand = start + t[..., None] * vec
        d = points[:, None, :] - cand
        return cand[np.arange(len(points)), (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]).argmin(axis=1)]

    def locate_rows(
        self, points: np.ndarray, cells: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each row's point, containing triangle and raw barycentric weights;
        ``cells``, when given, are the rows' ``states.state_at``, which saves
        computing them. A row off the cover moves to its closest point of the
        cover, which is located from the lattice point of its new position.
        Rows go in batches of ``_BATCH_ROWS``, which bounds the temporaries."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        if len(points) > _BATCH_ROWS:
            parts = []
            for r in range(0, len(points), _BATCH_ROWS):
                rows = slice(r, r + _BATCH_ROWS)
                parts.append(self.locate_rows(points[rows], None if cells is None else cells[rows]))
            return tuple(map(np.concatenate, zip(*parts)))
        tri, lam = self._find_many(points, cells)
        off = np.flatnonzero(tri < 0)
        if len(off):
            points = points.copy()
            points[off] = self._project_many(points[off])
            tri[off], lam[off] = self._find_many(points[off])
            if (tri[off] < 0).any():
                raise DomainError("a projected point lies outside the mesh cover")
        return points, tri, lam

    @cached_property
    def centres(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``locate_rows`` of the state centres (the cut corners of an
        even-sided k=2 board lie off the cover), located once; read-only."""
        rows = self.locate_rows(self.states.positions())
        for a in rows:
            a.setflags(write=False)
        return rows

    def locate_many(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The triangle and raw barycentric weights of each row's
        ``locate_rows``."""
        return self.locate_rows(points)[1:]

    def covers(self, p: Point2 | np.ndarray) -> bool:
        return self._find(p) is not None

    def nearest_node(self, p: Point2 | np.ndarray) -> int:
        """Closest node; the lowest node id wins exact ties."""
        d = self.nodes - np.asarray(p, dtype=float).reshape(2)
        return int((d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]).argmin())

    def project(self, p: Point2) -> Point2:
        """Closest point of the mesh cover (used for queries off the hull)."""
        if self.covers(p):
            return p
        q = self._project_many(np.asarray(p, dtype=float).reshape(1, 2))[0]
        return Point2(float(q[0]), float(q[1]))

    @cached_property
    def hessian_patches(self) -> list[tuple[np.ndarray, np.ndarray | None]]:
        """Per node: patch node ids and the pseudo-inverse of the centered
        quadratic design matrix (None when the patch cannot support the fit);
        the rows of ``_patch_table`` split by node."""
        _, ids, place, shape, fits = self._patch_table
        return list(zip(np.split(ids, np.flatnonzero(place == 0)[1:]), fits[shape]))

    @cached_property
    def _patch_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The Hessian patches as flat arrays ``(rows, ids, place, shape,
        fits)``: entry e puts node ``ids[e]`` at ``place[e]`` in node
        ``rows[e]``'s patch, and node n's fit is ``fits[shape[n]]``.

        The patch is the node's 2-ring when its 1-ring has fewer than six
        nodes, and otherwise every 2-ring node within the longest edge from
        the node to its 1-ring. The diagonal split leaves the 1-ring short of
        the lattice's symmetry (k=1 lacks NW and SE, k=2 lacks (0, +-2)); the
        widening restores it at interior nodes, so an interior k=1 patch is
        the 3x3 block and an interior k=2 patch holds (+-1, +-1), (+-2, 0) and
        (0, +-2) in grid steps. The size test looks at the 1-ring alone:
        widened first, an edge node's patch would be six nodes on two rows,
        too few to trigger the fallback and too flat to fit.

        Both rings are sorted int64 keys row * n + col. The 1-ring is the
        summed pattern of ``assembly_table``; the 2-ring carries every 1-ring
        pair (a, b) on to b's 1-ring and drops repeats after one ``np.sort``,
        and a 2-ring key's membership of the 1-ring is a binary search. So
        each node's patch lists its ids ascending. A patch's shape is its
        lattice steps (di, dj) from its node, and each shape is fitted once,
        from the offsets (di h, dj h) for cell size h: node positions subtracted would
        differ in their last bits from patch to patch on a cell such as 5/3
        km. The shapes of one patch size are fitted together: one stacked
        SVD, which LAPACK computes matrix by matrix exactly as it would one
        shape alone, gives both the rank test and the pseudo-inverse.
        """
        n, table = self.n_nodes, self.assembly_table
        # The assembly pattern is the 1-ring: the nodes that share a triangle,
        # the node included, in (row, col) order.
        ring_row, ring_col = table.row, table.col
        ring = ring_row * n + ring_col
        ring_size = np.bincount(ring_row, minlength=n)
        # Each 1-ring entry (a, b) reaches (a, c) for every c in b's 1-ring.
        count = ring_size[ring_col]
        step = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        reached = ring_col[np.repeat((np.cumsum(ring_size) - ring_size)[ring_col], count) + step]
        ring2 = np.sort(np.repeat(ring_row, count) * n + reached)
        ring2 = ring2[np.diff(ring2, prepend=-1) != 0]
        rows, ids = np.divmod(ring2, n)
        dist = np.linalg.norm(self.nodes[ids] - self.nodes[rows], axis=1)
        in_ring = ring[np.minimum(np.searchsorted(ring, ring2), len(ring) - 1)] == ring2
        starts = np.flatnonzero(np.diff(rows, prepend=-1))  # every node is in its own 2-ring
        reach = np.maximum.reduceat(np.where(in_ring, dist, 0.0), starts)
        inside = (ring_size < 6)[rows] | (dist <= reach[rows] + _NODE_TOL_KM)
        rows, ids = rows[inside], ids[inside]
        # Each node's lattice steps to its patch, padded with a step no patch
        # takes, are its key.
        size = np.bincount(rows, minlength=n)
        place = np.arange(len(rows)) - np.concatenate([[0], np.cumsum(size)])[rows]
        steps = np.full((n, size.max(), 2), np.iinfo(np.int64).min)
        steps[rows, place] = self._node_ij[ids] - self._node_ij[rows]
        keys = steps.reshape(n, -1).view(np.dtype((np.void, steps[0].nbytes)))[:, 0]
        _, first, shape = np.unique(keys, return_index=True, return_inverse=True)
        fits = np.full(len(first), None, dtype=object)
        for p in np.unique(size[first]):
            group = np.flatnonzero(size[first] == p)
            x, y = np.moveaxis(steps[first[group], :p] * self.states.cell_km, -1, 0)
            design = np.stack([np.ones_like(x), x, y, x**2, x * y, y**2], axis=-1)
            u, sv, vt = np.linalg.svd(design, full_matrices=False)
            # The rank test of ``np.linalg.matrix_rank`` and the arithmetic of
            # ``np.linalg.pinv`` (rcond 1e-15), on one SVD of each shape.
            top = sv.max(axis=-1, keepdims=True)
            full = (sv > top * (max(p, 6) * np.finfo(float).eps)).sum(axis=-1) == 6  # never under six nodes
            large = sv > 1e-15 * top
            inv = np.divide(1, sv, where=large, out=sv)
            inv[~large] = 0
            pinv = np.matmul(vt.swapaxes(-1, -2)[full], inv[full, :, None] * u.swapaxes(-1, -2)[full])
            for s, fit in zip(group[full], pinv):
                fits[s] = fit
        return rows, ids, place, shape, fits

    @cached_property
    def hessian_operator(self) -> HessianOperator:
        """The patch fits as one linear map from nodal values to fitted
        quadratic coefficients, slot-major: slot p of node n holds patch node
        ``ids[p, n]`` and its weights ``weights[:, p, n]`` towards n's
        coefficients of x^2, xy and y^2, the last three rows of the fit's
        pseudo-inverse. Node n's patch fills its first slots in ascending id
        order, so the table read node by node, coefficient by coefficient and
        slot by slot is the canonical CSR order of a (3 n_nodes, n_nodes)
        matrix. Slots past the patch, and every slot of a node whose patch
        cannot support the fit, hold the node itself with weight zero.
        Read-only."""
        rows, ids, place, shape, fits = self._patch_table
        coef = np.zeros((len(fits), 3, place.max() + 1))  # each shape's last three pinv rows
        for s, pinv in enumerate(fits):
            if pinv is not None:
                coef[s, :, : pinv.shape[1]] = pinv[3:]
        table = np.tile(np.arange(self.n_nodes), (coef.shape[2], 1))
        table[place, rows] = ids
        op = HessianOperator(table, np.ascontiguousarray(coef[shape].transpose(1, 2, 0)))
        for a in op:
            a.setflags(write=False)
        return op

    @cached_property
    def assembly_table(self) -> AssemblyTable:
        """The policy-independent part of ``assemble``, built on first use.

        Entry 9e + 3i + j of the element blocks couples rows ``triangles[e,
        i]`` and columns ``triangles[e, j]``. A stable sort on the key row *
        n + col puts the entries in CSR order, rows ascending and columns
        ascending within a row, and keeps the entries of one (row, col) in
        entry order, the order in which ``assemble`` sums them.
        """
        tris, n = self.triangles, self.n_nodes
        key = np.repeat(tris, 3, axis=1).ravel().astype(np.int64) * n + np.tile(tris, (1, 3)).ravel()
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[1:] != key[:-1]
        row, col = np.divmod(key[new], n)
        corners = tris.T.ravel()
        i, j = np.divmod(np.arange(9), 3)
        grads = self.basis_gradients
        table = AssemblyTable(
            corners=corners,
            mass=(np.ones((3, 3)) + np.eye(3)).ravel() * (self.areas / 12.0)[:, None],
            area_grad=np.ascontiguousarray((self.areas[:, None, None] * grads)[:, i].transpose(2, 0, 1)),
            grad=np.ascontiguousarray(grads[:, j].transpose(2, 0, 1)),
            order=order,
            slot=np.cumsum(new) - 1,
            row=row,
            col=col,
            node_area=np.bincount(corners, weights=np.tile(self.areas, 3), minlength=n),
        )
        for a in table:
            a.setflags(write=False)
        return table

    @cached_property
    def edge_neighbours(self) -> np.ndarray:
        """Per triangle and local vertex l, the triangle across the edge
        opposite l, or -1 on the hull; shape (n_tris, 3). MeshError when an
        edge belongs to more than two triangles: among the sorted edge keys,
        such an edge shows up as a key equal to the one two places on."""
        opposite = self.triangles[:, [[1, 2], [2, 0], [0, 1]]]
        key = np.sort(opposite, axis=2).reshape(-1, 2)
        order = np.lexsort((key[:, 1], key[:, 0]))
        if (key[order[2:]] == key[order[:-2]]).all(axis=1).any():
            raise MeshError("non-conforming mesh: an edge is shared by >2 triangles")
        shared = (key[order[1:]] == key[order[:-1]]).all(axis=1)
        a, b = order[:-1][shared], order[1:][shared]
        out = np.full(len(key), -1, dtype=np.int64)
        out[a], out[b] = b // 3, a // 3
        return out.reshape(-1, 3)


def _full_grid_mesh(states: StateSpace) -> tuple[np.ndarray, np.ndarray, int]:
    """Every cell split along its SW-NE diagonal into (sw, se, ne) and
    (sw, ne, nw), cells in state order; node n is state n."""
    ids = np.arange(states.n, dtype=np.int64).reshape(states.ny, states.nx)
    sw, se, ne, nw = ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]
    tris = np.stack([sw, se, ne, sw, ne, nw], axis=-1).reshape(-1, 3)
    return tris, ids.ravel(), int(states.goal)


# The halves a diamond may keep, over its (W, S, E, N) corners: those of its
# horizontal split, (W, E, N) and (W, S, E), and those of its vertical one,
# (S, E, N) and (W, S, N). ``_SPLIT`` gives each half as (u, v, o): u and v,
# in local order, on the diagonal through the diamond's centre, o off it.
_HALVES = np.array([[0, 2, 3], [0, 1, 2], [1, 2, 3], [0, 1, 3]])
_SPLIT = np.array([[0, 2, 3], [0, 2, 1], [1, 3, 2], [1, 3, 0]])


def _checkerboard_mesh(states: StateSpace) -> tuple[np.ndarray, np.ndarray, int]:
    """Even-parity states triangulated by the rotated lattice they induce.

    Every odd-parity grid point is the centre of a diamond whose W, S, E and
    N corners are even states, read from one padded table of node ids. A full
    diamond splits along its horizontal diagonal; a boundary diamond keeps its
    one in-grid half, and a corner diamond of two corners none, so the cover
    is the convex hull of the even states. Triangles go in the state order of
    the odd points.

    An odd-parity goal is the last node. It halves its diamond's diagonal, so
    each half (u, v, o) of that diamond gives way to (u, g, o) and (g, v, o);
    on a cut corner of the board, the goal is hooked onto the hull edge
    between its horizontal and vertical neighbours. These triangles come
    last, each made counter-clockwise.
    """
    nx, ny = states.nx, states.ny
    if nx < 3 or ny < 3:
        raise MeshError("checkerboard meshing needs a grid of at least 3x3 states")
    j, i = np.divmod(np.arange(states.n), nx)
    odd = (i + j) % 2 == 1
    kept = np.flatnonzero(~odd)
    ids = np.where(odd, -1, np.cumsum(~odd) - 1)  # state -> node, -1 for odd states
    node = np.pad(ids.reshape(ny, nx), 1, constant_values=-1)  # [j + 1, i + 1], -1 off the grid
    a, b = i[odd] + 1, j[odd] + 1
    corners = np.stack([node[b, a - 1], node[b - 1, a], node[b, a + 1], node[b + 1, a]], axis=1)
    halves = corners[:, _HALVES]
    keep = (halves >= 0).all(axis=2)
    keep[:, 2:] &= corners[:, [0, 2]] < 0  # the vertical split only where W or E is missing
    if not odd[states.goal]:
        return halves[keep], kept, int(ids[states.goal])

    r = np.count_nonzero(odd[: states.goal])  # the goal's diamond
    u, v, o = corners[r, _SPLIT[keep[r]]].T
    keep[r] = False
    g = np.full_like(u, len(kept))
    split = np.stack([u, g, o, g, v, o], axis=1).reshape(-1, 3)
    if not len(split):  # a cut corner: one of W, E and one of S, N is in the grid
        split = np.array([[corners[r, [0, 2]].max(), corners[r, [1, 3]].max(), len(kept)]])
    node_state = np.append(kept, states.goal)
    p = states.positions()[node_state][split]
    cw = _cross_z(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) < 0
    split[cw] = split[cw][:, [0, 2, 1]]
    return np.concatenate([halves[keep], split]), node_state, len(kept)


def build_mesh(states: StateSpace, k: int = 1) -> Mesh:
    """Triangulate the state grid (k=1) or its checkerboard subset (k=2)."""
    if k == 1:
        return Mesh(states, *_full_grid_mesh(states))
    if k == 2:
        return Mesh(states, *_checkerboard_mesh(states))
    raise MeshError(f"subsample factor k must be 1 or 2, got {k}")


@dataclass(eq=False)
class SparseSystem:
    """A x = rhs with A as summed (row, col, data) entries, the one format of
    both linear solvers: ``solve`` passes them to ``mdp._band_solve``, as
    ``mdp.policy_evaluation_exact`` passes its own. ``assemble`` gives them in
    canonical CSR order, and ``constrain_goal`` appends the goal's entry."""

    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    rhs: np.ndarray

    def residual(self, x: np.ndarray) -> np.ndarray:
        """A @ x - rhs, each row summed from zero in entry order, as a CSR matvec sums it."""
        return np.bincount(self.row, weights=self.data * x[self.col], minlength=len(self.rhs)) - self.rhs


def assemble(mesh: Mesh, coeffs: PdeCoefficients) -> SparseSystem:
    """Galerkin assembly of the drift-diffusion-reaction weak form.

    Coefficients are node-sampled and treated as element constants (vertex
    averages). The curvature term is the non-divergence contraction of the
    second moment against the value Hessian, assembled as the integrated-by-
    parts divergence form plus a drift correction of minus half the second
    moment's divergence (from its P1 interpolant); the two forms coincide
    wherever the second-moment field is constant. The zero-flux side
    condition is natural, so no boundary term appears; the goal constraint
    is applied separately.

    Everything that depends on the mesh alone comes from
    ``Mesh.assembly_table``, built once per mesh: the mass blocks, the
    summed entries' rows and columns in CSR order (shared, read-only) and
    the order in which the element-block entries are summed into them, entry
    order within each (row, col). So a policy costs only element arithmetic
    and one ``np.bincount``. The vertex averages and stiffness products are
    written out in the order ``mean`` and ``einsum`` sum them, so the
    element blocks keep their bits.
    """
    if len(coeffs.source) != mesh.n_nodes:
        raise ValueError("coefficient arrays must have one entry per mesh node")
    table = mesh.assembly_table
    t0, t1, t2 = table.corners.reshape(3, -1)
    gamma = coeffs.gamma
    area = mesh.areas
    grads = mesh.basis_gradients
    sig_v = coeffs.diffusion[mesh.triangles]
    sig_e = ((sig_v[:, 0] + sig_v[:, 1]) + sig_v[:, 2]) / 3.0
    div_sig = np.einsum("eic,eicd->ed", grads, sig_v)
    mu = coeffs.drift
    mu_eff = ((mu[t0] + mu[t1]) + mu[t2]) / 3.0 - 0.5 * div_sig
    src = coeffs.source
    src_e = ((src[t0] + src[t1]) + src[t2]) / 3.0

    # Flat element blocks; stiffness is the sum over d and c of
    # ((area * g_id) * sig_dc) * g_jc, d outer.
    stiff = None
    for d in range(2):
        for c in range(2):
            term = (table.area_grad[d] * sig_e[:, d, c, None]) * table.grad[c]
            stiff = term if stiff is None else stiff + term
    adv = np.tile(np.einsum("ejd,ed->ej", grads, mu_eff) * (area / 3.0)[:, None], 3)

    local = gamma * adv - 0.5 * gamma * stiff - (1.0 - gamma) * table.mass
    data = np.bincount(table.slot, weights=local.ravel()[table.order], minlength=len(table.row))
    rhs = np.bincount(mesh.triangles.ravel(), weights=np.repeat(-src_e * area / 3.0, 3), minlength=mesh.n_nodes)
    return SparseSystem(table.row, table.col, data, rhs)


def constrain_goal(system: SparseSystem, goal_node: int) -> SparseSystem:
    """Pin the goal value to zero by symmetric elimination.

    The constrained value is zero, so no contribution moves to the right-hand
    side; the entries of the goal row and column are dropped, not zeroed, and
    one identity entry (goal, goal, 1) is appended. Every other entry keeps
    its order.
    """
    if not 0 <= goal_node < len(system.rhs):
        raise ValueError("goal node out of range")
    keep = (system.row != goal_node) & (system.col != goal_node)
    arrays, pins = (system.row, system.col, system.data), (goal_node, goal_node, 1.0)
    entries = [np.append(a[keep], pin) for a, pin in zip(arrays, pins)]
    rhs = system.rhs.copy()
    rhs[goal_node] = 0.0
    return SparseSystem(*entries, rhs)


def solve(system: SparseSystem) -> tuple[np.ndarray, float]:
    """Banded LU solve, ``mdp._band_solve``, with a relative residual gate of 1e-8.

    Node ids follow the state lattice row by row, so every element couples
    nodes at most one grid row apart (half-bandwidth nx + 1 for k=1, about
    nx for k=2) and the band stays narrow. The one exception, an odd-parity
    goal numbered last on the k=2 mesh, loses its couplings to the goal
    constraint. A singular system raises NumericalError. Returns the
    coefficients and the gate's max |A x - rhs|, so a caller that reports
    the residual does not compute it again."""
    coeffs = _band_solve(system.row, system.col, system.data, system.rhs)
    residual = float(np.max(np.abs(system.residual(coeffs))))
    denom = max(1.0, float(np.max(np.abs(system.rhs))))
    if not residual / denom < 1e-8:
        raise NumericalError(f"linear solve residual {residual:.3e} exceeds tolerance")
    return coeffs, residual


def element_peclet(mesh: Mesh, coeffs: PdeCoefficients) -> np.ndarray:
    """Advection/diffusion strength ratio per element (stability diagnostic)."""
    tris = mesh.triangles
    p = mesh.nodes[tris]
    h = np.max(
        [
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
        ],
        axis=0,
    )
    mu_e = coeffs.drift[tris].mean(axis=1)
    sig_e = coeffs.diffusion[tris].mean(axis=1)
    lam_min = np.linalg.eigvalsh(sig_e)[:, 0]
    return np.linalg.norm(mu_e, axis=1) * h / np.maximum(0.5 * lam_min, 1e-12)


@dataclass(eq=False)
class ContinuousValue:
    """P1 value function: a mesh plus nodal coefficients.

    Its value, gradient and Hessian at a point are the barycentric
    interpolant, over the point's triangle, of one nodal table,
    ``expansion_table``: the coefficients, the recovered gradients (the
    area-weighted mean of the element gradients around each node) and the
    fitted Hessians (a least-squares quadratic fit over each node's patch,
    one matvec of ``Mesh.hessian_operator`` with the coefficients, zero by
    policy where the patch cannot support the fit; see
    ``Mesh.hessian_patches``). So all three are continuous over the mesh
    cover.

    ``expansion`` answers all three queries for many points at once: one
    ``Mesh.locate_rows``, then ``expansion_at`` the located rows, which
    returns the interpolated table itself, one (7, n) block with a column
    per point. The continuous planner scores that block; policy improvement
    calls ``expansion_at`` on the state centres, located once per mesh
    (``Mesh.centres``). ``evaluate``, ``gradient`` and ``hessian`` are its
    batches of one, read off rows of the block.
    """

    mesh: Mesh
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        if self.coefficients.shape != (self.mesh.n_nodes,):
            raise ValueError("need exactly one coefficient per mesh node")

    @cached_property
    def expansion_table(self) -> np.ndarray:
        """The nodal expansion, built on first use: one read-only table of
        shape (7, n_nodes) whose rows are the coefficients, the recovered
        gradient in x and y, and the fitted Hessian at (0, 0), (0, 1), (1, 0)
        and (1, 1).

        A node's gradient is the area-weighted mean of the element gradients
        around it, summed over corners 0, 1 and 2 in turn; an element's
        gradient is (g0 c0 + g1 c1) + g2 c2 over its basis gradients g and
        corner values c. A node's Hessian is twice its fitted x^2 and y^2
        coefficients on the diagonal and its xy coefficient off it, each the
        products of ``Mesh.hessian_operator``'s weights and nodal values
        summed slot by slot from 0.0, as a CSR matvec sums a row: numpy adds
        a reduction over an axis other than the fast one term by term, in
        order, as pairwise summation is only for the fast axis."""
        mesh, c = self.mesh, self.coefficients
        table, op = mesh.assembly_table, mesh.hessian_operator
        # Block entries (0, j) of ``grad`` are g_jc: (component, corner, triangle).
        gc = table.grad[:, :, :3].transpose(0, 2, 1) * c[table.corners].reshape(3, -1)
        weighted = ((gc[:, 0] + gc[:, 1]) + gc[:, 2]) * mesh.areas
        fit = np.add.reduce(op.weights * c[op.ids], axis=1, initial=0.0)
        out = np.empty((7, mesh.n_nodes))
        out[0] = c
        for d in range(2):
            area_sum = np.bincount(table.corners, weights=np.tile(weighted[d], 3), minlength=mesh.n_nodes)
            out[1 + d] = area_sum / table.node_area
        out[3], out[4], out[5], out[6] = 2.0 * fit[0], fit[1], fit[1], 2.0 * fit[2]
        out.setflags(write=False)
        return out

    def _interpolate(self, nodal: np.ndarray, tri: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """(l0 q0 + l1 q1) + l2 q2 over each query row's weights l and its
        triangle's corner entries q of every row of ``nodal`` (k, n_nodes),
        shape (k, rows): one gather of the corners, corner-major as
        ``AssemblyTable.corners``, one product and two sums over whole
        blocks."""
        corners = self.mesh.assembly_table.corners.reshape(3, -1).take(tri, axis=1)
        lq = nodal.take(corners, axis=1) * lam.T  # (k, corner, row)
        return (lq[:, 0] + lq[:, 1]) + lq[:, 2]

    def evaluate(self, p: Point2 | np.ndarray) -> float:
        return float(self.expansion(p)[0, 0])

    def evaluate_many(self, points: np.ndarray) -> np.ndarray:
        """The value at each row, interpolated as ``expansion_at`` does."""
        return self._interpolate(self.coefficients[None], *self.mesh.locate_many(points))[0]

    def gradient(self, p: Point2 | np.ndarray) -> np.ndarray:
        return self.expansion(p)[1:3, 0]

    def hessian(self, p: Point2 | np.ndarray) -> np.ndarray:
        return self.expansion(p)[3:, 0].reshape(2, 2)

    def expansion(self, points: np.ndarray, cells: np.ndarray | None = None) -> np.ndarray:
        """``expansion_at`` the rows of ``points``, located by one batched
        ``Mesh.locate_rows``, which takes the rows' ``cells`` when given and
        answers a row off the mesh cover at its closest point of the cover."""
        return self.expansion_at(self.mesh.locate_rows(points, cells))

    def expansion_at(self, rows: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """The (7, n) block of ``expansion_table``'s rows at n rows located by
        ``Mesh.locate_rows``, ``_interpolate`` at the raw weights: the value,
        the gradient in x and y, and the Hessian at (0, 0), (0, 1), (1, 0)
        and (1, 1), one column per located row."""
        _, tri, lam = rows
        return self._interpolate(self.expansion_table, tri, lam)


def write_mesh_csv(nodes_path, tris_path, mesh: Mesh) -> None:
    nodes = zip(range(mesh.n_nodes), mesh.node_state.tolist(), *mesh.nodes.T.tolist())
    write_table(nodes_path, ["node_id", "state_id", "x_km", "y_km"], nodes)
    tris = zip(range(len(mesh.triangles)), *mesh.triangles.T.tolist())
    write_table(tris_path, ["tri_id", "n0", "n1", "n2"], tris)


def write_raster_csv(
    path, value: ContinuousValue, bounds: tuple[float, float, float, float], n: int
) -> None:
    """Dense n-by-n sample of the value over (x0, x1, y0, y1) for plotting.

    Points outside the mesh cover are evaluated at their projection onto it,
    so the raster stays rectangular. The rows run over x within each y, and
    each of the n distinct x and y coordinates is formatted once.
    """
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    vals = value.evaluate_many(grid)
    x_cells = list(map(repr, xs.tolist())) * n
    y_cells = [y for y in map(repr, ys.tolist()) for _ in range(n)]
    write_table(path, ["x_km", "y_km", "value"], zip(x_cells, y_cells, vals.tolist()))
