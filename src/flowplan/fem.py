"""P1 triangular finite elements on structured state-grid meshes.

Meshes are built directly on the MDP's state centers, by array expressions
over lattice coordinates: the full grid split along SW-NE cell diagonals
(k=1), or the even-parity checkerboard subset triangulated by the rotated
lattice it induces (k=2, half the nodes). Either way the goal is a node: an
odd-parity goal is added to the checkerboard by splitting the diamond it
centres. The drift-diffusion-reaction weak form is assembled with exact P1
mass and stiffness integrals and centroid quadrature for advection and
source terms, the goal value is pinned to zero by symmetric elimination, and
the solved nodal coefficients define a value function that is continuous
over the whole mesh cover and evaluable (with recovered first and second
derivatives) anywhere inside it. Point queries take constant time: a uniform
bucket grid, its buckets as wide as the largest triangle, lists per bucket
the triangles that may contain a point in it and the nodes of its 3x3 block
of buckets, so locating a point, testing the cover and finding the nearest
node weigh a handful of candidates and not the whole mesh, with the same
result as a search of the whole mesh. Second derivatives come from a
quadratic fit over a node patch with the symmetry of the state lattice: at
interior nodes, the 3x3 block of grid neighbours (k=1) or the (+-1, +-1),
(+-2, 0) and (0, +-2) neighbours (k=2), as the eight-neighbour transition
law reaches in every direction. The patches are read off the sparse node
adjacency and its square (the 1-ring and 2-ring), and the fits form one
sparse recovery operator from nodal values to nodal Hessians (in the spirit
of patch recovery, Zienkiewicz & Zhu 1992), with one pseudo-inverse per
distinct patch shape. ``ContinuousValue.expansion`` gives the value,
gradient and Hessian at many points from one batched point location and one
batched nearest-node search over padded bucket tables, and reads the cached
element gradients, nodal gradients and nodal Hessians. It is the one
implementation of these queries: ``evaluate``, ``gradient`` and ``hessian``
send it a batch of one. Edge adjacency has one table too,
``Mesh.edge_neighbours``, built from the sorted edge keys of every triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DomainError, MeshError, NumericalError
from .flowfield import Point2, write_table
from .mdp import StateSpace
from .moments import PdeCoefficients

_BARY_TOL = 1e-9  # dimensionless barycentric containment tolerance
_NODE_TOL_KM = 1e-9
_MIN_AREA_KM2 = 1e-12
_BUCKET_PAD_KM = 1e-6  # triangle boxes are padded so near-boundary points find them
_BATCH_ROWS = 512  # rows per batched point location (about 0.3 MB per temporary)


def _cross_z(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """z-component of the cross product of planar vectors (broadcasts)."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _pad(lists: list[np.ndarray]) -> np.ndarray:
    """The lists as the rows of one table, padded with id 0. A pad never
    changes an answer: an item missing from a bucket's list neither contains
    a point of the bucket nor lies within a bucket width of it, and an item
    listed twice loses to its first listing."""
    table = np.zeros((len(lists), max(1, max(map(len, lists)))), dtype=np.int64)
    for row, ids in zip(table, lists):
        row[: len(ids)] = ids
    return table


class _BucketIndex:
    """Uniform grid of square buckets over the nodes' bounding box.

    The bucket width is the largest side of any triangle's bounding box.
    Each bucket lists every triangle whose bounding box, padded by
    ``_BUCKET_PAD_KM``, meets it, so a triangle that contains a point (within
    the barycentric tolerance) is listed in that point's bucket. Each bucket
    also lists the nodes of its 3x3 block of buckets, which holds every node
    within one bucket width of any point in the bucket. Points off the grid
    use the nearest bucket, which keeps both guarantees. Each kind of list is
    kept as one padded table (``_pad``) with a row per bucket, so a query
    gathers the candidates of many points at once.
    """

    def __init__(self, nodes: np.ndarray, triangles: np.ndarray):
        corners = nodes[triangles]
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        self.width = float((hi - lo).max())
        self.origin = nodes.min(axis=0)
        top = np.floor((nodes.max(axis=0) - self.origin) / self.width)
        self.shape = (int(top[0]) + 1, int(top[1]) + 1)
        self._last = top  # the last bucket's (column, row)
        self._stride = np.array([1, self.shape[0]])  # (column, row) -> flat id
        self.triangle_table = _pad(
            self._by_bucket(self._cells(lo - _BUCKET_PAD_KM), self._cells(hi + _BUCKET_PAD_KM))
        )
        cell = self._cells(nodes)
        self.node_table = _pad(
            self._by_bucket(
                np.maximum(cell - 1, 0), np.minimum(cell + 1, np.subtract(self.shape, 1))
            )
        )

    def _by_bucket(self, first: np.ndarray, last: np.ndarray) -> list[np.ndarray]:
        """Per bucket, the ascending ids of the items whose inclusive bucket
        range ``first[item]``..``last[item]`` (column, row) holds it."""
        nbx, nby = self.shape
        span = (last - first).max(axis=0) + 1
        buckets, items = [], []
        for dy in range(span[1]):
            for dx in range(span[0]):
                ix, iy = first[:, 0] + dx, first[:, 1] + dy
                ok = (ix <= last[:, 0]) & (iy <= last[:, 1])
                buckets.append((iy * nbx + ix)[ok])
                items.append(np.nonzero(ok)[0])
        bucket_of, item = np.concatenate(buckets), np.concatenate(items)
        ends = np.cumsum(np.bincount(bucket_of, minlength=nbx * nby))[:-1]
        return np.split(item[np.lexsort((item, bucket_of))], ends)

    def _cells(self, points: np.ndarray) -> np.ndarray:
        """Bucket (column, row) of each point, clamped onto the grid."""
        cells = np.floor((points - self.origin) / self.width)
        return np.minimum(np.maximum(cells, 0), self._last).astype(np.int64)

    def buckets(self, points: np.ndarray) -> np.ndarray:
        """Flat id of the bucket that holds (or, off the grid, is nearest)
        each row of points."""
        return self._cells(points) @ self._stride


@dataclass(eq=False)
class Mesh:
    """Conforming triangulation whose vertices are grid states.

    Triangles are counter-clockwise node-id triples; ``node_state`` maps each
    node back to its state id and ``goal_node`` marks the node pinned by the
    solver. Geometry caches (areas, basis gradients, edge adjacency, the
    bucket index) are built lazily and shared by every value function on the
    mesh; the edge table is built at once, as it also checks conformity.

    Point queries go through the bucket index (``_BucketIndex``): point
    location weighs only the triangles listed in the point's bucket and
    takes, in triangle order, the first with the largest minimum barycentric
    weight, which is the triangle a search of the whole mesh would pick. The
    nearest-node search looks in the bucket's 3x3 block and falls back to
    every node when the best candidate is more than a bucket width away, so
    the lowest node id still wins exact ties. Both run on whole batches of
    rows; ``locate``, ``covers`` and ``nearest_node`` are batches of one.
    ``project`` scans every triangle edge in one array expression.
    """

    nodes: np.ndarray  # (n_nodes, 2)
    triangles: np.ndarray  # (n_tris, 3), CCW
    node_state: np.ndarray  # (n_nodes,)
    goal_node: int

    def __post_init__(self) -> None:
        if len(self.nodes) == 0 or len(self.triangles) == 0:
            raise MeshError("mesh has no nodes or no triangles")
        if self.areas.min() <= _MIN_AREA_KM2:
            raise MeshError("mesh contains a degenerate (non-CCW or zero-area) triangle")
        used = np.zeros(len(self.nodes), dtype=bool)
        used[self.triangles.ravel()] = True
        if not used.all():
            raise MeshError("mesh contains nodes that belong to no triangle")
        _ = self.edge_neighbours  # raises MeshError on an edge of three triangles

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

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
    def _buckets(self) -> _BucketIndex:
        return _BucketIndex(self.nodes, self.triangles)

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every triangle edge (a, b), (b, c), (c, a), in triangle order:
        start points, edge vectors and squared lengths."""
        start = self.nodes[self.triangles.ravel()]
        vec = self.nodes[self.triangles[:, [1, 2, 0]].ravel()] - start
        return start, vec, np.einsum("ed,ed->e", vec, vec)

    def _find(self, p: Point2 | np.ndarray) -> tuple[int, np.ndarray] | None:
        """Containing triangle and weights, or None off the cover."""
        q = np.asarray(p, dtype=float).reshape(1, 2)
        tri, lam = self._find_many(q, self._buckets.buckets(q))
        return None if tri[0] < 0 else (int(tri[0]), lam[0])

    def locate(self, p: Point2 | np.ndarray) -> tuple[int, np.ndarray]:
        """Containing triangle and barycentric weights; DomainError outside."""
        found = self._find(p)
        if found is None:
            raise DomainError(f"point {tuple(np.asarray(p))} outside mesh cover")
        return found

    def _find_many(
        self, points: np.ndarray, buckets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``_find`` of every row at once, given each row's bucket: containing
        triangle (-1 off the cover) and barycentric weights. Rows go in
        batches of ``_BATCH_ROWS``, which bounds the temporaries."""
        if len(points) > _BATCH_ROWS:
            parts = [
                self._find_many(points[r : r + _BATCH_ROWS], buckets[r : r + _BATCH_ROWS])
                for r in range(0, len(points), _BATCH_ROWS)
            ]
            return np.concatenate([t for t, _ in parts]), np.concatenate([w for _, w in parts])
        tris = self._buckets.triangle_table[buckets]
        inv, r0 = self._bary_frames
        lam12 = np.einsum("pcij,pcj->pci", inv[tris], points[:, None, :] - r0[tris])
        lam = np.concatenate([1.0 - lam12.sum(axis=-1, keepdims=True), lam12], axis=-1)
        mins = lam.min(axis=-1)
        rows, k = np.arange(len(points)), mins.argmax(axis=1)
        return np.where(mins[rows, k] >= -_BARY_TOL, tris[rows, k], -1), lam[rows, k]

    def _locate_rows(
        self, points: np.ndarray, clamp: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The located points (rows off the cover replaced by their
        projection when ``clamp``), their buckets, their triangles and their
        raw barycentric weights."""
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        buckets = self._buckets.buckets(points)
        tri_idx, lams = self._find_many(points, buckets)
        off = np.nonzero(tri_idx < 0)[0]
        if len(off):
            if not clamp:
                raise DomainError("a query point lies outside the mesh cover")
            points = points.copy()
            for r in off:
                points[r] = self.project(Point2(*points[r]))
            buckets[off] = self._buckets.buckets(points[off])
            tri_idx[off], lams[off] = self._find_many(points[off], buckets[off])
            if (tri_idx[off] < 0).any():
                raise DomainError("a projected point lies outside the mesh cover")
        return points, buckets, tri_idx, lams

    def locate_many(
        self, points: np.ndarray, clamp: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Point location of each row; optionally projects uncovered points."""
        _, _, tri_idx, lams = self._locate_rows(points, clamp)
        return tri_idx, np.clip(lams, 0.0, 1.0)

    def covers(self, p: Point2 | np.ndarray) -> bool:
        return self._find(p) is not None

    def nearest_node(self, p: Point2 | np.ndarray) -> int:
        """Closest node; the lowest node id wins exact ties."""
        q = np.asarray(p, dtype=float).reshape(1, 2)
        return int(self._nearest_many(q, self._buckets.buckets(q))[0])

    def _nearest_many(self, points: np.ndarray, buckets: np.ndarray) -> np.ndarray:
        """``nearest_node`` of every row at once, given each row's bucket."""
        ids = self._buckets.node_table[buckets]
        d = self.nodes[ids] - points[:, None, :]
        d2 = np.einsum("pmd,pmd->pm", d, d)
        rows, k = np.arange(len(points)), d2.argmin(axis=1)
        nearest = ids[rows, k]
        # The block holds every node within one bucket width of a point; the
        # factor keeps that true under the rounding of the bucket arithmetic.
        # Beyond it, every node is searched.
        far = np.nonzero(d2[rows, k] > (self._buckets.width * (1.0 - 1e-9)) ** 2)[0]
        if len(far):
            d = self.nodes[None, :, :] - points[far, None, :]
            nearest[far] = np.einsum("pnd,pnd->pn", d, d).argmin(axis=1)
        return nearest

    def project(self, p: Point2) -> Point2:
        """Closest point of the mesh cover (used for queries off the hull);
        the first closest edge point in triangle-edge order."""
        if self.covers(p):
            return p
        start, vec, length2 = self._edges
        q = np.asarray(p, dtype=float)
        t = np.clip(np.einsum("ed,ed->e", q - start, vec) / length2, 0.0, 1.0)
        cand = start + t[:, None] * vec
        d = q - cand
        best = cand[int(np.argmin(np.einsum("ed,ed->e", d, d)))]
        return Point2(float(best[0]), float(best[1]))

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

        The 1-ring is a row of the sparse node adjacency ``ring`` and the
        2-ring the same row of ``ring @ ring``. Patches whose offsets from
        their node are equal to the bit share one pseudo-inverse, so the fits
        take one pass per distinct patch shape.
        """
        n, tris = self.n_nodes, self.triangles
        ring = sp.csr_matrix(  # nodes that share a triangle, the node included
            (np.ones(tris.size * 3), (np.repeat(tris, 3, axis=1).ravel(), np.tile(tris, 3).ravel())),
            shape=(n, n),
        )
        ring2 = ring @ ring
        ring2.sort_indices()
        rows = np.repeat(np.arange(n), np.diff(ring2.indptr))
        dist = np.linalg.norm(self.nodes[ring2.indices] - self.nodes[rows], axis=1)
        in_ring = ring[rows, ring2.indices].A1 > 0
        reach = np.maximum.reduceat(np.where(in_ring, dist, 0.0), ring2.indptr[:-1])
        inside = (np.diff(ring.indptr) < 6)[rows] | (dist <= reach[rows] + _NODE_TOL_KM)
        rows, ids = rows[inside], ring2.indices[inside].astype(np.int64)
        # Each node's offsets to its patch, padded with NaN, are its key.
        size = np.bincount(rows, minlength=n)
        place = np.arange(len(rows)) - np.concatenate([[0], np.cumsum(size)])[rows]
        offsets = np.full((n, size.max(), 2), np.nan)
        offsets[rows, place] = self.nodes[ids] - self.nodes[rows]
        keys = offsets.reshape(n, -1).view(np.dtype((np.void, offsets[0].nbytes)))[:, 0]
        _, first, shape = np.unique(keys, return_index=True, return_inverse=True)
        fits = np.empty(len(first), dtype=object)
        for s, m in enumerate(first):
            d = offsets[m, : size[m]]
            design = np.column_stack(
                [np.ones(len(d)), d[:, 0], d[:, 1], d[:, 0] ** 2, d[:, 0] * d[:, 1], d[:, 1] ** 2]
            )
            full = len(d) >= 6 and np.linalg.matrix_rank(design) == 6
            fits[s] = np.linalg.pinv(design) if full else None
        return rows, ids, place, shape, fits

    @cached_property
    def hessian_operator(self) -> sp.csr_matrix:
        """The patch fits as one linear map from nodal values to fitted
        quadratic coefficients: row 3n + k of this (3 n_nodes, n_nodes)
        matrix gives node n's coefficient of x^2, xy, y^2 for k = 0, 1, 2
        (empty rows where the patch cannot support the fit)."""
        rows, ids, place, shape, fits = self._patch_table
        coef = np.zeros((len(fits), 3, place.max() + 1))  # each shape's last three pinv rows
        for s, pinv in enumerate(fits):
            if pinv is not None:
                coef[s, :, : pinv.shape[1]] = pinv[3:]
        fitted = np.array([pinv is not None for pinv in fits])[shape[rows]]
        rows, ids, place = rows[fitted], ids[fitted], place[fitted]
        vals = coef[shape[rows], :, place].T  # (3, entries)
        return sp.csr_matrix(
            (vals.ravel(), ((3 * rows + np.arange(3)[:, None]).ravel(), np.tile(ids, 3))),
            shape=(3 * self.n_nodes, self.n_nodes),
        )

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


def _full_grid_mesh(states: StateSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every cell split along its SW-NE diagonal into (sw, se, ne) and
    (sw, ne, nw), cells in state order; node n is state n."""
    ids = np.arange(states.n, dtype=np.int64).reshape(states.ny, states.nx)
    sw, se, ne, nw = ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]
    tris = np.stack([sw, se, ne, sw, ne, nw], axis=-1).reshape(-1, 3)
    return states.positions(), tris, ids.ravel(), int(states.goal)


# The halves a diamond may keep, over its (W, S, E, N) corners: those of its
# horizontal split, (W, E, N) and (W, S, E), and those of its vertical one,
# (S, E, N) and (W, S, N). ``_SPLIT`` gives each half as (u, v, o): u and v,
# in local order, on the diagonal through the diamond's centre, o off it.
_HALVES = np.array([[0, 2, 3], [0, 1, 2], [1, 2, 3], [0, 1, 3]])
_SPLIT = np.array([[0, 2, 3], [0, 2, 1], [1, 3, 2], [1, 3, 0]])


def _checkerboard_mesh(states: StateSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
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
        return states.positions()[kept], halves[keep], kept, int(ids[states.goal])

    r = np.count_nonzero(odd[: states.goal])  # the goal's diamond
    u, v, o = corners[r, _SPLIT[keep[r]]].T
    keep[r] = False
    g = np.full_like(u, len(kept))
    split = np.stack([u, g, o, g, v, o], axis=1).reshape(-1, 3)
    if not len(split):  # a cut corner: one of W, E and one of S, N is in the grid
        split = np.array([[corners[r, [0, 2]].max(), corners[r, [1, 3]].max(), len(kept)]])
    node_state = np.append(kept, states.goal)
    nodes = states.positions()[node_state]
    p = nodes[split]
    cw = _cross_z(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) < 0
    split[cw] = split[cw][:, [0, 2, 1]]
    return nodes, np.concatenate([halves[keep], split]), node_state, len(kept)


def build_mesh(states: StateSpace, k: int = 1) -> Mesh:
    """Triangulate the state grid (k=1) or its checkerboard subset (k=2)."""
    if k == 1:
        return Mesh(*_full_grid_mesh(states))
    if k == 2:
        return Mesh(*_checkerboard_mesh(states))
    raise MeshError(f"subsample factor k must be 1 or 2, got {k}")


@dataclass(eq=False)
class SparseSystem:
    matrix: sp.csr_matrix
    rhs: np.ndarray


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
    """
    if len(coeffs.source) != mesh.n_nodes:
        raise ValueError("coefficient arrays must have one entry per mesh node")
    gamma = coeffs.gamma
    tris = mesh.triangles
    area = mesh.areas
    grads = mesh.basis_gradients
    sig_v = coeffs.diffusion[tris]
    sig_e = sig_v.mean(axis=1)
    div_sig = np.einsum("eic,eicd->ed", grads, sig_v)
    mu_eff = coeffs.drift[tris].mean(axis=1) - 0.5 * div_sig
    src_e = coeffs.source[tris].mean(axis=1)

    stiff = np.einsum("e,eid,edc,ejc->eij", area, grads, sig_e, grads)
    mass = (np.ones((3, 3)) + np.eye(3))[None, :, :] * (area / 12.0)[:, None, None]
    adv_row = np.einsum("ejd,ed->ej", grads, mu_eff) * (area / 3.0)[:, None]
    adv = np.repeat(adv_row[:, None, :], 3, axis=1)

    local = gamma * adv - 0.5 * gamma * stiff - (1.0 - gamma) * mass
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    matrix = sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)
    ).tocsr()

    rhs = np.zeros(mesh.n_nodes)
    np.add.at(rhs, tris.ravel(), np.repeat(-src_e * area / 3.0, 3))
    return SparseSystem(matrix, rhs)


def constrain_goal(system: SparseSystem, goal_node: int) -> SparseSystem:
    """Pin the goal value to zero by symmetric elimination.

    The constrained value is zero, so no contribution moves to the right-hand
    side; the goal row and column are cleared and replaced by an identity row.
    The stored entries of the goal row and column are dropped, not zeroed, and
    every other stored entry keeps its place in the canonical CSR arrays.
    """
    n = system.matrix.shape[0]
    if not 0 <= goal_node < n:
        raise ValueError("goal node out of range")
    a = system.matrix.tocsr()
    a.sum_duplicates()
    row = np.repeat(np.arange(n), np.diff(a.indptr))
    keep = (row != goal_node) & (a.indices != goal_node)
    at = np.searchsorted(row[keep], goal_node)  # the goal row is empty now
    counts = np.bincount(row[keep], minlength=n)
    counts[goal_node] = 1
    matrix = sp.csr_matrix(
        (
            np.insert(a.data[keep], at, 1.0),
            np.insert(a.indices[keep], at, goal_node),
            np.concatenate([[0], np.cumsum(counts)]),
        ),
        shape=(n, n),
    )
    rhs = system.rhs.copy()
    rhs[goal_node] = 0.0
    return SparseSystem(matrix, rhs)


def solve(system: SparseSystem) -> np.ndarray:
    """Direct sparse solve with a relative residual gate of 1e-8."""
    coeffs = spla.spsolve(system.matrix.tocsc(), system.rhs)
    residual = np.max(np.abs(system.matrix @ coeffs - system.rhs))
    denom = max(1.0, float(np.max(np.abs(system.rhs))))
    if not residual / denom < 1e-8:
        raise NumericalError(f"linear solve residual {residual:.3e} exceeds tolerance")
    return coeffs


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

    Evaluation is barycentric interpolation; gradients are element-constant
    with area-weighted averaging at nodes and edges; second derivatives come
    from a least-squares quadratic fit over the patch around the nearest node
    (zero, by policy, where the patch cannot support the fit); the patch is
    the node's mesh neighbourhood widened to the lattice's symmetry, see
    ``Mesh.hessian_patches``. The fits of every node are one matvec of
    ``Mesh.hessian_operator`` with the coefficients (``node_hessians``).

    ``expansion`` answers all three queries for many points at once; policy
    improvement and the continuous planner use it. ``evaluate``,
    ``gradient`` and ``hessian`` are its batches of one.
    """

    mesh: Mesh
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        if self.coefficients.shape != (self.mesh.n_nodes,):
            raise ValueError("need exactly one coefficient per mesh node")

    @cached_property
    def element_gradients(self) -> np.ndarray:
        return np.einsum(
            "eid,ei->ed", self.mesh.basis_gradients, self.coefficients[self.mesh.triangles]
        )

    @cached_property
    def node_gradients(self) -> np.ndarray:
        num = np.zeros((self.mesh.n_nodes, 2))
        den = np.zeros(self.mesh.n_nodes)
        weighted = self.element_gradients * self.mesh.areas[:, None]
        for local in range(3):
            np.add.at(num, self.mesh.triangles[:, local], weighted)
            np.add.at(den, self.mesh.triangles[:, local], self.mesh.areas)
        return num / den[:, None]

    def evaluate(self, p: Point2 | np.ndarray) -> float:
        return float(self.expansion(p)[0][0])

    def evaluate_many(self, points: np.ndarray, clamp: bool = False) -> np.ndarray:
        tri_idx, lams = self.mesh.locate_many(points, clamp=clamp)
        return np.einsum("pl,pl->p", lams, self.coefficients[self.mesh.triangles[tri_idx]])

    def gradient(self, p: Point2 | np.ndarray) -> np.ndarray:
        return self.expansion(p)[1][0]

    @cached_property
    def node_hessians(self) -> np.ndarray:
        """Fitted Hessian at every node, shape (n_nodes, 2, 2): one sparse
        matvec of ``Mesh.hessian_operator`` with the nodal values."""
        c = (self.mesh.hessian_operator @ self.coefficients).reshape(-1, 3)
        out = np.empty((self.mesh.n_nodes, 2, 2))
        out[:, 0, 0] = 2.0 * c[:, 0]
        out[:, 0, 1] = out[:, 1, 0] = c[:, 1]
        out[:, 1, 1] = 2.0 * c[:, 2]
        return out

    def hessian(self, p: Point2 | np.ndarray) -> np.ndarray:
        return self.expansion(p)[2][0]

    def expansion(
        self, points: np.ndarray, clamp: bool = False
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value (n,), gradient (n, 2) and Hessian (n, 2, 2) at each row of
        ``points``, from one batched point location and one batched
        nearest-node search. The value interpolates the containing triangle's
        corners. The gradient is the nearest node's recovered gradient within
        1e-9 km of a node, the area-weighted mean of the two triangles on an
        edge, and the element gradient inside a triangle. The Hessian is the
        nearest node's fit. Rows off the mesh cover raise DomainError unless
        ``clamp`` moves them to their ``Mesh.project``.
        """
        mesh = self.mesh
        points, buckets, tri, lam = mesh._locate_rows(points, clamp)
        corners = self.coefficients[mesh.triangles[tri]]
        # Stacked (1, k) @ (k, 1) products take the dot kernel of a 1-D ``@``
        # and of ``np.linalg.norm``, so the sums round as one point's would.
        value = (lam[:, None, :] @ corners[:, :, None])[:, 0, 0]

        nearest = mesh._nearest_many(points, buckets)
        d = (mesh.nodes[nearest] - points)[:, None, :]
        at_node = np.sqrt(d @ d.swapaxes(1, 2))[:, 0, 0] < _NODE_TOL_KM
        grad = np.where(
            at_node[:, None], self.node_gradients[nearest], self.element_gradients[tri]
        )
        on_edge = ~at_node & (lam < _BARY_TOL).any(axis=1)
        if on_edge.any():
            # Area-weighted average over the triangles sharing the edge opposite
            # the first vanishing weight; a sum of two terms rounds alike in
            # either order.
            e = tri[on_edge]
            other = mesh.edge_neighbours[e, np.argmax(lam[on_edge] < _BARY_TOL, axis=1)]
            w = mesh.areas[e]
            num = self.element_gradients[e] * w[:, None]
            pair = other >= 0
            w2 = mesh.areas[other[pair]]
            num[pair] += self.element_gradients[other[pair]] * w2[:, None]
            w[pair] += w2
            grad[on_edge] = num / w[:, None]
        return value, grad, self.node_hessians[nearest]


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
    so the raster stays rectangular.
    """
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    grid = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
    vals = value.evaluate_many(grid, clamp=True)
    write_table(path, ["x_km", "y_km", "value"], zip(*grid.T.tolist(), vals.tolist()))
