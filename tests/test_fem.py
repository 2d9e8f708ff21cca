import functools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplan.errors import DomainError, MeshError, NumericalError
from flowplan.fem import (
    _BATCH_ROWS,
    ContinuousValue,
    Mesh,
    SparseSystem,
    assemble,
    build_mesh,
    constrain_goal,
    element_peclet,
    solve,
)
from flowplan.flowfield import GyreParams, NoiseParams, Point2, gyre_field
from flowplan.mdp import StateSpace, best_action, build_model
from flowplan.moments import PdeCoefficients, assemble_coefficients, transition_moments
from flowplan.policy_iter import _state_scores, improve_policy_continuous, project_wall_tangential
from flowplan.simulator import ContinuousPlanner

from conftest import expansion_parts, state_index

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
# The csv-wall-k2 benchmark grid: (nx, ny, cell, origin), goal (18, 17).
CSV_WALL_CELL = 40.0 / 24.0
CSV_WALL = (24, 24, CSV_WALL_CELL, Point2(CSV_WALL_CELL / 2, CSV_WALL_CELL / 2))


def unit_grid(n):
    """n x n states of 1 km cells from the origin: UNIT_RIGHT is states 0, 1
    and n."""
    return StateSpace.regular(n, n, 1.0, (0, 0), origin=Point2(0.0, 0.0))


def lattice_mesh(states, nodes, tris, node_state):
    """A hand-built mesh on ``states``, whose nodes sit at ``nodes``."""
    assert np.array_equal(states.positions()[node_state], nodes)
    return Mesh(states, np.asarray(tris), np.asarray(node_state), goal_node=0)


def grid_states(n, cell=2.0, goal=(0, 0)):
    return StateSpace.regular(n, n, cell, goal)


def unit_square_states(n, goal_corner=(None, 0)):
    """(n+1)x(n+1) states tiling the unit square; goal at a corner."""
    gi = n if goal_corner[0] is None else goal_corner[0]
    return StateSpace.regular(n + 1, n + 1, 1.0 / n, (gi, goal_corner[1]), origin=Point2(0.0, 0.0))


def constant_coefficients(mesh, drift=(0.0, 0.0), diffusion=None, source=0.0, gamma=0.95):
    n = mesh.n_nodes
    diffusion = np.eye(2) if diffusion is None else np.asarray(diffusion)
    return PdeCoefficients(
        drift=np.tile(np.asarray(drift, dtype=float), (n, 1)),
        diffusion=np.tile(diffusion, (n, 1, 1)),
        source=np.full(n, float(source)),
        gamma=gamma,
    )


def _system(dense, rhs):
    """The SparseSystem of a dense matrix's nonzero entries, row by row."""
    row, col = np.nonzero(dense)
    return SparseSystem(row, col, dense[row, col], np.asarray(rhs, dtype=float))


def _csr(system):
    """A system's matrix as CSR: its entries sorted by row, duplicates added."""
    n = len(system.rhs)
    return sp.csr_matrix((system.data, (system.row, system.col)), shape=(n, n))


@functools.lru_cache(maxsize=4)
def _edge_triangles(mesh):
    """Reference edge map: every sorted node pair to the triangles that
    have it as an edge, in triangle order (built once per mesh)."""
    edges = {}
    for e, (a, b, c) in enumerate(mesh.triangles.tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            edges.setdefault((min(u, v), max(u, v)), []).append(e)
    return edges


# ---------------------------------------------------------------- meshes


def test_full_mesh_counts_20x20():
    mesh = build_mesh(grid_states(20), k=1)
    assert mesh.n_nodes == 400
    assert len(mesh.triangles) == 2 * 19 * 19 == 722


def test_full_mesh_triangles_in_cell_loop_order():
    # Reference: cells row by row, each split into (sw, se, ne), (sw, ne, nw).
    states = StateSpace.regular(5, 3, 2.0, (1, 1))
    want = []
    for j in range(states.ny - 1):
        for i in range(states.nx - 1):
            sw, se = state_index(states, i, j), state_index(states, i + 1, j)
            ne, nw = state_index(states, i + 1, j + 1), state_index(states, i, j + 1)
            want += [(sw, se, ne), (sw, ne, nw)]
    mesh = build_mesh(states, k=1)
    assert mesh.triangles.tolist() == [list(t) for t in want]
    assert mesh.node_state.tolist() == list(range(states.n))


def test_checkerboard_mesh_has_half_the_nodes():
    mesh = build_mesh(grid_states(20), k=2)
    assert mesh.n_nodes == 200


def test_single_cell_mesh():
    mesh = build_mesh(grid_states(2), k=1)
    assert mesh.n_nodes == 4
    assert len(mesh.triangles) == 2


def test_mesh_triangles_ccw_and_conforming():
    for k in (1, 2):
        mesh = build_mesh(grid_states(8), k=k)
        assert (mesh.areas > 1e-12).all()
        for edge, tris in _edge_triangles(mesh).items():
            assert len(tris) in (1, 2)
        _check_edge_neighbours(mesh)


def _check_edge_neighbours(mesh):
    """``edge_neighbours`` pairs the triangles of every shared edge of the
    reference edge map, and marks every other edge as a hull edge."""
    for (u, v), tris in _edge_triangles(mesh).items():
        for e in tris:
            local = [l for l in range(3) if mesh.triangles[e, l] not in (u, v)][0]
            other = [t for t in tris if t != e]
            assert mesh.edge_neighbours[e, local] == (other[0] if other else -1)


def test_mesh_rejects_an_edge_of_three_triangles():
    # States of a 3x7 grid of 0.5 km cells from (0, -1).
    states = StateSpace.regular(3, 7, 0.5, (0, 0), origin=Point2(0.0, -1.0))
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])  # all counter-clockwise
    with pytest.raises(MeshError, match="shared by >2 triangles"):
        lattice_mesh(states, nodes, tris, [6, 8, 13, 1, 19])


def test_mesh_rejects_a_clockwise_triangle():
    with pytest.raises(MeshError, match="non-CCW"):
        lattice_mesh(unit_grid(2), UNIT_RIGHT, [[0, 2, 1]], [0, 1, 2])


def test_mesh_rejects_a_node_in_no_triangle():
    nodes = np.vstack([UNIT_RIGHT, [[5.0, 5.0]]])
    with pytest.raises(MeshError, match="belong to no triangle"):
        lattice_mesh(unit_grid(6), nodes, [[0, 1, 2]], [0, 1, 6, 35])


def test_checkerboard_nodes_subset_of_full_and_goal_present():
    states = grid_states(8, goal=(3, 3))
    full = build_mesh(states, k=1)
    half = build_mesh(states, k=2)
    full_states = set(full.node_state.tolist())
    half_states = set(half.node_state.tolist())
    assert half_states <= full_states
    assert states.goal in half_states
    assert full.node_state[full.goal_node] == states.goal
    assert half.node_state[half.goal_node] == states.goal


def test_checkerboard_inserts_odd_parity_goal():
    states = grid_states(8, goal=(3, 4))  # odd parity: not on the lattice
    mesh = build_mesh(states, k=2)
    assert mesh.n_nodes == 33  # 32 even states + inserted goal
    assert mesh.node_state[mesh.goal_node] == states.goal
    for edge, tris in _edge_triangles(mesh).items():
        assert len(tris) in (1, 2)
    _check_edge_neighbours(mesh)
    # the inserted node evaluates like any other
    v = ContinuousValue(mesh, np.arange(mesh.n_nodes, dtype=float))
    p = states.position(states.goal)
    assert v.evaluate(p) == pytest.approx(float(mesh.goal_node), abs=1e-12)


def test_checkerboard_covers_all_but_cut_corners():
    states = grid_states(8, goal=(3, 3))
    mesh = build_mesh(states, k=2)
    outside = [s for s in range(states.n) if not mesh.covers(states.position(s))]
    # the two odd-parity corners of an even-sized board are cut by the hull
    assert sorted(outside) == [state_index(states, 7, 0), state_index(states, 0, 7)]


def _reference_checkerboard(states):
    """The checkerboard mesh built point by point: a loop over the odd grid
    points gives each diamond's triangles, then an odd-parity goal is found
    by a barycentric search of every triangle and spliced in."""
    kept = [s for s in range(states.n) if sum(states.coords(s)) % 2 == 0]
    node_of = {s: k for k, s in enumerate(kept)}
    nodes = states.positions()[kept]

    def nid(i, j):
        if 0 <= i < states.nx and 0 <= j < states.ny:
            return node_of[state_index(states, i, j)]
        return None

    def ccw(nodes, tri):
        a, b, c = tri
        p = nodes[[a, b, c]]
        cross = (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0])
        return (a, c, b) if cross < 0 else (a, b, c)

    tris = []
    for b in range(states.ny):
        for a in range(states.nx):
            if (a + b) % 2 == 0:
                continue
            w, s_, e, n_ = nid(a - 1, b), nid(a, b - 1), nid(a + 1, b), nid(a, b + 1)
            corners = [c for c in (w, s_, e, n_) if c is not None]
            if len(corners) == 4:
                tris.append((w, e, n_))
                tris.append((w, s_, e))
            elif len(corners) == 3:
                tris.append(ccw(nodes, tuple(corners)))
    node_state = np.asarray(kept, dtype=np.int64)
    if states.goal in node_of:
        return nodes, np.asarray(tris, dtype=np.int64), node_state, node_of[states.goal]

    g = np.asarray(states.position(states.goal))
    gid = len(nodes)
    nodes = np.vstack([nodes, g])
    node_state = np.append(node_state, states.goal)
    probe = lattice_mesh(states, nodes[:-1], tris, node_state[:-1])
    lam_all = _barycentric(probe, g)
    containing = [e for e in range(len(tris)) if lam_all[e].min() >= -1e-9]
    keep = [t for e, t in enumerate(tris) if e not in containing]
    if not containing:
        # Cut corner: hook the goal onto the hull edge between its
        # horizontal and vertical neighbours.
        i, j = states.coords(states.goal)
        hi = i - 1 if i == states.nx - 1 else i + 1
        vj = j - 1 if j == states.ny - 1 else j + 1
        keep.append(ccw(nodes, (nid(hi, j), nid(i, vj), gid)))
    for e in containing:
        zero = [l for l in range(3) if lam_all[e][l] < 1e-9]
        assert len(zero) == 1  # the goal halves an edge, never lies strictly inside
        o = tris[e][zero[0]]
        u, v = [tris[e][l] for l in range(3) if l != zero[0]]
        keep.append(ccw(nodes, (u, gid, o)))
        keep.append(ccw(nodes, (gid, v, o)))
    return nodes, np.asarray(keep, dtype=np.int64), node_state, gid


@pytest.mark.parametrize("nx, ny", [(3, 3), (4, 4), (5, 7), (8, 8), (9, 6)])
def test_checkerboard_mesh_matches_the_point_loop_reference(nx, ny):
    # Every goal: even ones, odd ones inside the hull or on its edge, and
    # odd ones on a cut corner of an even side. The cell and origin are not
    # exact in binary, so an inserted goal's position must round alike too.
    for goal in range(nx * ny):
        states = StateSpace.regular(nx, ny, 0.7, (goal % nx, goal // nx), origin=Point2(0.3, -1.1))
        mesh = build_mesh(states, k=2)
        nodes, tris, node_state, goal_node = _reference_checkerboard(states)
        for got, want in ((mesh.nodes, nodes), (mesh.triangles, tris), (mesh.node_state, node_state)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert mesh.goal_node == goal_node


def test_mesh_rejects_bad_subsample_factor():
    with pytest.raises(MeshError):
        build_mesh(grid_states(8), k=3)
    with pytest.raises(MeshError):
        build_mesh(grid_states(2), k=2)


# ------------------------------------------------- bucketed point queries


def _barycentric(mesh, p):
    """Barycentric coordinates of one point in every triangle, (n_tris, 3)."""
    inv, r0 = mesh._bary_frames
    lam12 = np.einsum("eij,ej->ei", inv, np.asarray(p, dtype=float) - r0)
    return np.column_stack([1.0 - lam12.sum(axis=1), lam12])


def _brute_locate(mesh, p):
    """Search of every triangle: the first with the largest minimum weight."""
    lam = _barycentric(mesh, p)
    mins = lam.min(axis=1)
    e = int(np.argmax(mins))
    return None if mins[e] < -1e-9 else (e, lam[e])


def _brute_nearest(mesh, p):
    d = mesh.nodes - np.asarray(p, dtype=float)
    return int(np.argmin(np.einsum("nd,nd->n", d, d)))


def _edge_loop_project(mesh, p):
    """Closest point over every triangle edge, visited one at a time."""
    q = np.asarray(p, dtype=float)
    best, best_d = None, np.inf
    for a, b, c in mesh.triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            pa, pb = mesh.nodes[u], mesh.nodes[v]
            ab = pb - pa
            t = np.clip(np.dot(q - pa, ab) / np.dot(ab, ab), 0.0, 1.0)
            cand = pa + t * ab
            d = np.dot(q - cand, q - cand)
            if d < best_d:
                best_d, best = d, cand
    return best


def _all_edge_project(mesh, p):
    """Closest point of the cover to a point off it, by one scan of every
    triangle edge: the first closest edge point in triangle-edge order."""
    start = mesh.nodes[mesh.triangles.ravel()]
    vec = mesh.nodes[mesh.triangles[:, [1, 2, 0]].ravel()] - start
    q = np.asarray(p, dtype=float)
    t = np.clip(np.einsum("ed,ed->e", q - start, vec) / np.einsum("ed,ed->e", vec, vec), 0.0, 1.0)
    cand = start + t[:, None] * vec
    d = q - cand
    return cand[int(np.argmin(np.einsum("ed,ed->e", d, d)))]


def _raster(bounds, n):
    x0, x1, y0, y1 = bounds
    return np.stack(np.meshgrid(np.linspace(x0, x1, n), np.linspace(y0, y1, n)), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize(
    "states, k, points",
    [
        # The value raster of the paper gyre (20x20, k=1) and of csv-wall-k2.
        (StateSpace.regular(20, 20, 2.0, (17, 17)), 1, _raster((0.0, 40.0, 0.0, 40.0), 41)),
        (StateSpace.regular(*CSV_WALL[:3], (18, 17), CSV_WALL[3]), 2, _raster((0.0, 40.0, 0.0, 40.0), 11)),
        # The cut-corner centres of even-sided k=2 boards, with even and odd goals.
        (StateSpace.regular(20, 20, 2.0, (17, 17)), 2, None),
        (StateSpace.regular(8, 8, 2.0, (3, 4)), 2, None),
        (StateSpace.regular(*CSV_WALL[:3], (18, 17), CSV_WALL[3]), 2, None),
    ],
)
def test_hull_projection_matches_the_all_edge_scan_bit_for_bit(states, k, points):
    mesh = build_mesh(states, k)
    points = states.positions() if points is None else points
    off = np.array([not mesh.covers(p) for p in points])
    assert off.any()
    want = np.array([_all_edge_project(mesh, p) for p in points[off]])
    assert np.array_equal(mesh._project_many(points[off]), want)
    assert np.array_equal(mesh.locate_rows(points)[0][off], want)


def _query_points(mesh, states, rng):
    lo, hi = mesh.nodes.min(axis=0), mesh.nodes.max(axis=0)
    pts = [rng.uniform(lo - 3.0, hi + 3.0, size=(300, 2))]  # some off the hull
    pts.append(rng.uniform(lo - 50.0, hi + 50.0, size=(40, 2)))  # far outside
    pts.append(mesh.nodes)
    pts.append(states.positions())  # odd-parity centres too
    start, end = mesh.nodes[mesh.triangles], mesh.nodes[np.roll(mesh.triangles, -1, axis=1)]
    for t in (0.5, rng.uniform(0.0, 1.0)):
        pts.append(((1.0 - t) * start + t * end).reshape(-1, 2))  # on edges
    return np.concatenate(pts)


# The geometries of the brute-force query checks: square grids of 2 km cells
# at the default origin, the csv-wall-k2 grid (40/24 km cells, an odd goal
# inside the hull) and two non-square grids from offset origins. The ids of
# the first cases are the (n, k, goal) ids these tests had before.
QUERY_GEOMETRIES = {
    "csv-wall-k2": (*CSV_WALL, 2, (18, 17)),
    "9x5-k2-odd-goal-on-hull": (9, 5, 0.3, Point2(-1.1, 0.35), 2, (8, 1)),
    "5x11-k1": (5, 11, 0.7, Point2(0.3, -1.1), 1, (2, 7)),
}


def _square(n, k, goal, id):
    return pytest.param(n, n, 2.0, None, k, goal, id=id)


def _geometry_params(*square):
    return [*square, *(pytest.param(*g, id=name) for name, g in QUERY_GEOMETRIES.items())]


@pytest.mark.parametrize(
    "nx, ny, cell, origin, k, goal",
    _geometry_params(
        _square(7, 1, (3, 2), "7-1-goal0"),
        _square(8, 2, (3, 3), "8-2-goal1"),  # even goal: a lattice node
        _square(8, 2, (3, 4), "8-2-goal2"),  # odd goal inside the hull: inserted
        _square(8, 2, (7, 0), "8-2-goal3"),  # odd goal on a cut corner: hooked onto the hull
    ),
)
def test_bucketed_queries_match_brute_force(nx, ny, cell, origin, k, goal):
    # The buckets are the lattice points: each lists the triangles whose
    # lattice box holds it.
    states = StateSpace.regular(nx, ny, cell, goal, origin=origin)
    mesh = build_mesh(states, k=k)
    rng = np.random.default_rng(nx * 10 + goal[1])
    assert _check_queries(mesh, _query_points(mesh, states, rng)) > 40


def _check_queries(mesh, points):
    """Checks every query at every point, one at a time and batched, against
    brute force; returns the number of points off the cover."""
    tri_idx, lams = mesh._find_many(points)
    for p, e, lam in zip(points, tri_idx, lams):
        found = _brute_locate(mesh, p)
        assert e == (-1 if found is None else found[0])
        assert found is None or np.array_equal(lam, found[1])
    outside = 0
    for p in points:
        found = _brute_locate(mesh, p)
        assert mesh.covers(p) == (found is not None)
        assert mesh.nearest_node(p) == _brute_nearest(mesh, p)
        if found is None:
            outside += 1
            with pytest.raises(DomainError):
                mesh.locate(p)
            proj = mesh.project(Point2(*p))
            assert np.abs(np.asarray(proj) - _edge_loop_project(mesh, p)).max() <= 1e-12
            # The batched queries answer at the projection.
            (q,), (e,), (lam,) = mesh.locate_rows(p)
            e_ref, lam_ref = mesh.locate(proj)
            assert np.array_equal(q, proj) and e == e_ref and np.array_equal(lam, lam_ref)
        else:
            e, lam = mesh.locate(p)
            assert e == found[0]
            assert np.array_equal(lam, found[1])
    return outside


def test_nearest_node_takes_lowest_id_on_exact_ties():
    states = grid_states(8, goal=(3, 3))
    mesh = build_mesh(states, k=2)
    centre = states.position(state_index(states, 4, 3))  # odd parity: four nodes at 2 km
    d = np.linalg.norm(mesh.nodes - np.asarray(centre), axis=1)
    tied = np.nonzero(d == d.min())[0]
    assert len(tied) == 4
    assert mesh.nearest_node(centre) == tied.min()


def test_locate_many_matches_single_point_queries():
    states = grid_states(8, goal=(3, 4))
    mesh = build_mesh(states, k=2)
    pts = _query_points(mesh, states, np.random.default_rng(3))
    tri_idx, lams = mesh.locate_many(pts)
    assert not all(mesh.covers(p) for p in pts)
    for p, e, lam in zip(pts, tri_idx, lams):
        q = p if mesh.covers(p) else mesh.project(Point2(*p))
        e_ref, lam_ref = mesh.locate(q)
        assert e == e_ref
        assert np.array_equal(lam, lam_ref)


def test_locate_many_is_locate_rows_bit_for_bit():
    # A raster of more rows than one batch, some off the cut corners: the
    # raw weights, some a little negative, so values interpolate as in
    # expansion_at.
    mesh = build_mesh(grid_states(8, goal=(3, 4)), k=2)
    pts = _raster((-1.0, 17.0, -1.0, 17.0), 41)
    tri_idx, lams = mesh.locate_many(pts)
    _, tri_ref, lam_ref = mesh.locate_rows(pts)
    assert np.array_equal(tri_idx, tri_ref)
    assert lams.tobytes() == lam_ref.tobytes()
    assert (lams < 0.0).any()


@pytest.mark.parametrize("k", [1, 2])
def test_locate_reads_one_lazy_read_only_frame_table(k):
    # Built on the first query, not with the mesh; candidate c of lattice
    # point s holds the inverse edge matrix and corner 0 of the triangle
    # _point_triangles lists there.
    mesh = build_mesh(grid_states(8, goal=(3, 4)), k=k)
    assert "_frames" not in vars(mesh)
    mesh.locate(mesh.nodes[0])
    inv, r0 = mesh._bary_frames
    tris = mesh._point_triangles
    frames = mesh._frames
    assert frames.shape == (6, *tris.shape) and frames.flags.c_contiguous and not frames.flags.writeable
    assert np.array_equal(frames[:4], inv.reshape(-1, 4).T[:, tris])
    assert np.array_equal(frames[4:], r0.T[:, tris])


@pytest.mark.parametrize(
    "nx, ny, cell, origin, k, goal",
    _geometry_params(
        _square(20, 1, (17, 17), "20-1-paper"),
        _square(10, 2, (7, 7), "10-2-cut-corners"),
        _square(8, 2, (7, 0), "8-2-goal-on-a-cut-corner"),
    ),
)
def test_locate_with_the_rows_cells_matches_the_self_computed_path_bit_for_bit(nx, ny, cell, origin, k, goal):
    # The continuous planner passes the cells it already holds; a row that is
    # projected onto the cover must be located from its new position's cell.
    states = StateSpace.regular(nx, ny, cell, goal, origin=origin)
    mesh = build_mesh(states, k=k)
    points = _query_points(mesh, states, np.random.default_rng(7 * nx + k))
    assert len(points) > _BATCH_ROWS
    off = mesh._find_many(points)[0] < 0
    assert off.any()
    projected = points.copy()
    projected[off] = mesh._project_many(points[off])
    want = (projected, *mesh._find_many(projected))
    cells = states.state_at(points)
    for located in (
        mesh.locate_rows(points),
        mesh.locate_rows(points, cells=cells),
    ):
        assert len(located) == len(want)
        for a, b in zip(want, located):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(cells, states.state_at(points))  # left as passed
    if (mesh._find_many(states.positions())[0] < 0).any():
        # A board with cut corners: projection moves some rows into other cells.
        assert (states.state_at(projected[off]) != cells[off]).any()


@pytest.mark.parametrize(
    "nx, ny, cell, origin, k, goal",
    _geometry_params(
        _square(7, 1, (3, 2), "7-1-goal0"),
        _square(8, 2, (3, 4), "8-2-goal1"),  # odd goal inside the hull: inserted
        _square(8, 2, (7, 0), "8-2-goal2"),  # odd goal on a cut corner: hooked onto the hull
    ),
)
def test_expansion_matches_scalar_queries_exactly(nx, ny, cell, origin, k, goal):
    states = StateSpace.regular(nx, ny, cell, goal, origin=origin)
    mesh = build_mesh(states, k=k)
    rng = np.random.default_rng(10 * nx + goal[1])
    kinds = _check_expansion(mesh, _query_points(mesh, states, rng), rng)
    assert kinds == {"off", "node", "edge", "interior"}


@pytest.mark.parametrize(
    "nx, ny, cell, origin, k, goal",
    [
        _square(8, 1, (3, 2), "8-1"),
        _square(8, 2, (3, 4), "8-2-odd-goal-inside"),  # the inserted goal's split diamond
        pytest.param(*QUERY_GEOMETRIES["csv-wall-k2"], id="csv-wall-k2"),
    ],
)
def test_expansion_is_continuous_across_interior_edges(nx, ny, cell, origin, k, goal):
    # Points 1e-9 km either side of every shared edge, at its midpoint and at
    # a random point along it, lie in the edge's two triangles; the gradient
    # and the Hessian must agree across it as the value does.
    states = StateSpace.regular(nx, ny, cell, goal, origin=origin)
    mesh = build_mesh(states, k=k)
    rng = np.random.default_rng(nx + k)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    value = ContinuousValue(mesh, np.sin(0.4 * x) * np.cos(0.3 * y) + rng.normal(0.0, 0.01, mesh.n_nodes))
    e, l = np.nonzero(mesh.edge_neighbours > np.arange(len(mesh.triangles))[:, None])  # each shared edge once
    other = mesh.edge_neighbours[e, l]
    a = mesh.nodes[mesh.triangles[e, (l + 1) % 3]]
    b = mesh.nodes[mesh.triangles[e, (l + 2) % 3]]
    outward = np.stack([b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]], axis=-1)  # right of a -> b, out of CCW e
    outward /= np.linalg.norm(outward, axis=1)[:, None]
    for t in (np.full(len(e), 0.5), rng.uniform(0.1, 0.9, len(e))):
        on = a + t[:, None] * (b - a)
        inside, across = (mesh.locate_rows(on + s * 1e-9 * outward) for s in (-1.0, 1.0))
        assert np.array_equal(inside[1], e) and np.array_equal(across[1], other)
        for q in (slice(0, 1), slice(1, 3), slice(3, 7)):  # value, gradient, Hessian
            jump = np.abs(value.expansion_at(inside)[q] - value.expansion_at(across)[q]).max()
            assert jump <= 1e-6 * np.abs(value.expansion_table[q]).max()


def _reference_evaluate(value, p):
    """One point's value: its triangle's barycentric interpolant, summed in
    Python floats as (l0 c0 + l1 c1) + l2 c2."""
    e, lam = value.mesh.locate(p)
    (l0, l1, l2), (c0, c1, c2) = lam.tolist(), value.coefficients[value.mesh.triangles[e]].tolist()
    return (l0 * c0 + l1 * c1) + l2 * c2


def _reference_interpolation(value, nodal, p):
    """One point's interpolant of a nodal table: its triangle's barycentric
    weights l and corner entries q, summed entry by entry in Python floats
    as (l0 q0 + l1 q1) + l2 q2."""
    e, lam = value.mesh.locate(p)
    l0, l1, l2 = lam.tolist()
    corners = nodal[value.mesh.triangles[e]].reshape(3, -1).tolist()
    return np.array([(l0 * q0 + l1 * q1) + l2 * q2 for q0, q1, q2 in zip(*corners)]).reshape(nodal.shape[1:])


def _reference_gradient(value, p):
    """One point's gradient: the interpolant of the recovered nodal gradients."""
    return _reference_interpolation(value, value.expansion_table[1:3].T, p)


def _reference_hessian(value, p):
    """One point's Hessian: the interpolant of the fitted nodal Hessians."""
    return _reference_interpolation(value, value.expansion_table[3:].T.reshape(-1, 2, 2), p)


def _check_expansion(mesh, pts, rng):
    """Every row of the batched expansion must be what the one-point
    references give at the row's point, or at its projection, to the bit, and
    so must the batches of one; returns the kinds of point met (node, edge,
    interior, off the cover)."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    value = ContinuousValue(
        mesh, np.sin(0.4 * x) * np.cos(0.3 * y) + rng.normal(0.0, 0.01, mesh.n_nodes)
    )
    vals, grads, hessians = expansion_parts(value.expansion(pts))
    kinds = set()
    for p, v, g, h in zip(pts, vals, grads, hessians):
        q = p if mesh.covers(p) else mesh.project(Point2(*p))
        _, lam = mesh.locate(q)
        kinds.add(
            "off" if q is not p else "node" if (lam > 1 - 1e-9).any()
            else "edge" if (lam < 1e-9).any() else "interior"
        )
        assert v == _reference_evaluate(value, q) == value.evaluate(q)
        assert np.array_equal(g, _reference_gradient(value, q))
        assert np.array_equal(g, value.gradient(q))
        assert np.array_equal(h, _reference_hessian(value, q))
        assert np.array_equal(h, value.hessian(q))
        if q is not p:  # off the cover the one-point queries answer at the projection too
            assert (value.evaluate(p), *value.gradient(p), *value.hessian(p).ravel()) == (v, *g, *h.ravel())
    return kinds


@pytest.mark.parametrize("k, goal", [(1, (3, 2)), (2, (3, 4)), (2, (7, 0))])
def test_node_hessians_are_the_patch_fits(k, goal):
    mesh = build_mesh(grid_states(8, goal=goal), k=k)
    coefficients = np.random.default_rng(k).normal(size=mesh.n_nodes)
    hessians = ContinuousValue(mesh, coefficients).expansion_table[3:].T.reshape(-1, 2, 2)
    fitted = 0
    for n, (ids, pinv) in enumerate(mesh.hessian_patches):
        d = mesh.nodes[ids] - mesh.nodes[n]
        design = np.column_stack(
            [np.ones(len(ids)), d[:, 0], d[:, 1], d[:, 0] ** 2, d[:, 0] * d[:, 1], d[:, 1] ** 2]
        )
        if pinv is None:
            assert len(ids) < 6 or np.linalg.matrix_rank(design) < 6
            assert not hessians[n].any()
            continue
        # One fit per distinct patch shape is still each node's own fit, to the bit.
        assert np.array_equal(pinv, np.linalg.pinv(design))
        c = pinv @ coefficients[ids]
        want = np.array([[2.0 * c[3], c[4]], [c[4], 2.0 * c[5]]])
        # The operator sums the same products in its own order.
        np.testing.assert_allclose(hessians[n], want, rtol=0, atol=1e-12)
        fitted += 1
    assert fitted > mesh.n_nodes // 2


# ------------------------------------------------------- element integrals


def _unit_right_block(drift, diffusion, gamma):
    """The assembled matrix of the one-triangle mesh on UNIT_RIGHT: its only
    element block, gamma * advection - gamma/2 * stiffness - (1-gamma) * mass."""
    mesh = lattice_mesh(unit_grid(2), UNIT_RIGHT, [[0, 1, 2]], [0, 1, 2])
    coeffs = constant_coefficients(mesh, drift=drift, diffusion=diffusion, gamma=gamma)
    return _csr(assemble(mesh, coeffs)).toarray()


def test_stiffness_block_on_unit_right_triangle():
    stiff = -2.0 * _unit_right_block((0.0, 0.0), np.eye(2), gamma=1.0)
    want = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    np.testing.assert_allclose(stiff, want, atol=1e-14)


def test_mass_block_on_unit_right_triangle():
    mass = -_unit_right_block((0.0, 0.0), np.eye(2), gamma=0.0)
    area = 0.5
    want = area / 12.0 * np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]])
    np.testing.assert_allclose(mass, want, atol=1e-14)


def test_advection_row_structure():
    adv = _unit_right_block((1.0, 0.0), np.zeros((2, 2)), gamma=1.0)
    # rows identical; columns hold area/3 * mu . grad(phi_j)
    np.testing.assert_allclose(adv[0], adv[1], atol=0)
    np.testing.assert_allclose(adv[:, 0], -1.0 / 6.0, atol=1e-14)
    np.testing.assert_allclose(adv[:, 1], 1.0 / 6.0, atol=1e-14)
    np.testing.assert_allclose(adv[:, 2], 0.0, atol=1e-14)


def test_constants_in_gradient_kernel():
    mesh = build_mesh(unit_square_states(4), k=1)
    coeffs = constant_coefficients(mesh, gamma=0.9)
    system = assemble(mesh, coeffs)
    ones = np.ones(mesh.n_nodes)
    # with mu=0 the advection vanishes and diffusion kills constants: only
    # the reaction term remains, equal to -(1-gamma) * integral of each basis
    lumped = np.zeros(mesh.n_nodes)
    np.add.at(lumped, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
    np.testing.assert_allclose(_csr(system) @ ones, -(1 - 0.9) * lumped, atol=1e-12)


def test_matrix_symmetric_without_drift():
    mesh = build_mesh(unit_square_states(6), k=1)
    coeffs = constant_coefficients(mesh, diffusion=[[2.0, 0.3], [0.3, 1.0]])
    a = _csr(assemble(mesh, coeffs)).toarray()
    asym = a - a.T
    scale = np.abs(a).max()
    assert np.abs(asym).max() < 1e-10 * scale


def _reference_assemble(mesh, coeffs):
    """Assembly as it was before the per-mesh table, as a CSR matrix and a
    load vector: element blocks by ``mean`` and ``einsum``, each (row, col)
    summed from 0.0 in entry order by a Python loop and put into CSR by
    ``coo_matrix.tocsr`` (which then has no duplicates to add), the load
    vector by ``np.add.at``."""
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
    summed = {}
    for key, v in zip(zip(rows.tolist(), cols.tolist()), local.ravel().tolist()):
        summed[key] = summed.get(key, 0.0) + v
    (rows, cols), vals = zip(*summed), list(summed.values())
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    rhs = np.zeros(mesh.n_nodes)
    np.add.at(rhs, tris.ravel(), np.repeat(-src_e * area / 3.0, 3))
    return matrix, rhs


def _reference_node_gradients(value):
    """Nodal gradients by ``np.add.at``, one corner of every triangle at a
    time, of the element gradients (g0 c0 + g1 c1) + g2 c2 over each
    element's basis gradients g and corner values c."""
    mesh = value.mesh
    num = np.zeros((mesh.n_nodes, 2))
    den = np.zeros(mesh.n_nodes)
    gc = mesh.basis_gradients * value.coefficients[mesh.triangles][..., None]
    weighted = ((gc[:, 0] + gc[:, 1]) + gc[:, 2]) * mesh.areas[:, None]
    for local in range(3):
        np.add.at(num, mesh.triangles[:, local], weighted)
        np.add.at(den, mesh.triangles[:, local], mesh.areas)
    return num / den[:, None]


def _assert_same_system(got, want):
    """``got`` holds the stored entries of the reference's canonical CSR
    matrix, in its order, with the same values and the same load vector."""
    matrix, rhs = want
    assert matrix.has_canonical_format
    assert np.array_equal(got.row, np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr)))
    assert np.array_equal(got.col, matrix.indices)
    assert got.data.dtype == matrix.data.dtype and np.array_equal(got.data, matrix.data)
    assert got.rhs.dtype == rhs.dtype and np.array_equal(got.rhs, rhs)


def _random_coefficients(mesh, rng):
    n = mesh.n_nodes
    a = rng.standard_normal((n, 2, 2))
    return PdeCoefficients(
        drift=rng.standard_normal((n, 2)),
        diffusion=a @ a.swapaxes(1, 2),
        source=rng.standard_normal(n),
        gamma=0.95,
    )


def test_assemble_of_the_unit_right_triangle_matches_the_coo_reference_bit_for_bit():
    mesh = lattice_mesh(unit_grid(2), UNIT_RIGHT, [[0, 1, 2]], [0, 1, 2])
    rng = np.random.default_rng(3)
    for _ in range(20):
        coeffs = _random_coefficients(mesh, rng)
        _assert_same_system(assemble(mesh, coeffs), _reference_assemble(mesh, coeffs))
        value = ContinuousValue(mesh, rng.standard_normal(3))
        assert np.array_equal(value.expansion_table[1:3].T, _reference_node_gradients(value))


# Geometries of the assembly reference checks: (nx, ny, cell, origin, k, goal,
# obstacle cells). The boards have 2 km cells; the paper grid and the
# csv-wall-k2 grid with its 12-cell wall are the benchmark meshes.
ASSEMBLY_GEOMETRIES = {
    "8-k1": (8, 8, 2.0, None, 1, (3, 2), [(1, 6)]),
    "8-k2-even-goal": (8, 8, 2.0, None, 2, (3, 3), [(1, 6)]),
    "8-k2-odd-goal-inside": (8, 8, 2.0, None, 2, (3, 4), [(1, 6)]),
    "8-k2-odd-goal-on-cut-corner": (8, 8, 2.0, None, 2, (7, 0), [(1, 6)]),
    "paper-k1": (20, 20, 2.0, Point2(1.0, 1.0), 1, (17, 17), []),
    "csv-wall-k2": (*CSV_WALL, 2, (18, 17), [(12, j) for j in range(6, 18)]),
}


def _assembly_case(geometry):
    """The gyre model and the mesh of one of ``ASSEMBLY_GEOMETRIES``."""
    nx, ny, cell, origin, k, goal, obstacles = geometry
    states = StateSpace.regular(nx, ny, cell, goal, origin=origin, obstacle_cells=obstacles)
    field = gyre_field(GyreParams(0.5, cell * nx / 2), NoiseParams(0.4, 0.7), extent=(cell * (nx + 1), cell * (ny + 1)))
    return build_model(field, states, 1.0, 3.0, 0.95), build_mesh(states, k)


@pytest.mark.parametrize("coefficients", ["displacement", "random"])
@pytest.mark.parametrize("geometry", ASSEMBLY_GEOMETRIES.values(), ids=ASSEMBLY_GEOMETRIES.keys())
def test_assemble_matches_the_coo_reference_bit_for_bit(geometry, coefficients):
    # An interior k=1 row holds 18 unsummed entries, six on the diagonal
    # and two for each off-diagonal column, summed in entry order. The
    # coefficients are either the wall-projected displacement moments of
    # random policies or random fields of either drift sign.
    model, mesh = _assembly_case(geometry)
    states = model.states
    nx, k = states.nx, geometry[4]
    rng = np.random.default_rng(nx + k + len(coefficients))
    for _ in range(3):
        if coefficients == "random":
            coeffs = _random_coefficients(mesh, rng)
        else:
            policy = rng.integers(0, 8, size=states.n)
            coeffs = assemble_coefficients(model, policy, mesh.node_state)
            project_wall_tangential(coeffs, mesh, model)
        system = assemble(mesh, coeffs)
        _assert_same_system(system, _reference_assemble(mesh, coeffs))
        value = ContinuousValue(mesh, solve(constrain_goal(system, mesh.goal_node))[0])
        assert np.array_equal(value.expansion_table[1:3].T, _reference_node_gradients(value))


@pytest.mark.parametrize("geometry", ASSEMBLY_GEOMETRIES.values(), ids=ASSEMBLY_GEOMETRIES.keys())
def test_residual_matches_the_csr_matvec_bit_for_bit(geometry):
    # Each row's products are summed in CSR order, as the CSR matvec sums
    # them: of the assembled system against the COO reference, and of the
    # constrained one against its own entries put into CSR.
    model, mesh = _assembly_case(geometry)
    rng = np.random.default_rng(mesh.n_nodes)
    coeffs = _random_coefficients(mesh, rng)
    system = assemble(mesh, coeffs)
    matrix, rhs = _reference_assemble(mesh, coeffs)
    pinned = constrain_goal(system, mesh.goal_node)
    for x in (rng.standard_normal(mesh.n_nodes), solve(pinned)[0]):
        assert np.array_equal(system.residual(x), matrix @ x - rhs)
        assert np.array_equal(pinned.residual(x), _csr(pinned) @ x - pinned.rhs)


# ------------------------------------- component-major expansion and scores


def _row_major_node_hessians(value):
    """The fitted nodal Hessians as an (n_nodes, 2, 2) table: the products of
    the operator's weights and nodal values summed slot by slot from 0.0."""
    op = value.mesh.hessian_operator
    c = np.add.reduce(op.weights * value.coefficients[op.ids], axis=1, initial=0.0)
    out = np.empty((value.mesh.n_nodes, 2, 2))
    out[:, 0, 0] = 2.0 * c[0]
    out[:, 0, 1] = out[:, 1, 0] = c[1]
    out[:, 1, 1] = 2.0 * c[2]
    return out


def _row_major_expansion_at(value, rows):
    """Value, gradient and Hessian at located rows as three interpolations of
    node-major tables, the coefficients (n_nodes,), the recovered gradients
    (n_nodes, 2) and the fitted Hessians (n_nodes, 2, 2): each (l0 q0 + l1
    q1) + l2 q2 with the weights broadcast over the trailing axes of the
    corner entries q."""
    _, tri, lam = rows
    out = []
    for nodal in (value.coefficients, _reference_node_gradients(value), _row_major_node_hessians(value)):
        q = nodal[value.mesh.triangles[tri]]
        lq = lam.reshape(lam.shape + (1,) * (q.ndim - 2)) * q
        out.append((lq[:, 0] + lq[:, 1]) + lq[:, 2])
    return tuple(out)


def _broadcast_state_scores(model, s, value_at, grad, hess):
    """Every action's score at the states ``s``, with each state's gradient
    and Hessian broadcast against its actions' rows of the state-major moment
    table, over their trailing axes of 2 and 2x2."""
    gamma = model.gamma
    drift, second = transition_moments(model, s, slice(None))
    dg = drift * np.asarray(grad)[..., None, :]
    sh = second * np.asarray(hess)[..., None, :, :]
    curvature = ((sh[..., 0, 0] + sh[..., 0, 1]) + sh[..., 1, 0]) + sh[..., 1, 1]
    reaction = (1.0 - gamma) * np.asarray(value_at)[..., None]
    return model.rewards[s] + gamma * ((dg[..., 0] + dg[..., 1]) + 0.5 * curvature) - reaction


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "geometry",
    [ASSEMBLY_GEOMETRIES[name] for name in ("8-k1", "paper-k1", "8-k2-odd-goal-inside", "csv-wall-k2")],
    ids=["8-k1", "paper-k1", "8-k2-odd-goal-inside", "csv-wall-k2"],
)
def test_component_major_expansion_and_scores_equal_the_row_major_reference_bit_for_bit(geometry):
    # The value of a random policy's FEM evaluation, expanded and scored on
    # rows on the cover, rows projected onto it, single rows and the state
    # centres: the planner's and the improvement's choices follow.
    model, mesh = _assembly_case(geometry)
    states = model.states
    rng = np.random.default_rng(mesh.n_nodes)
    coeffs = assemble_coefficients(model, rng.integers(0, 8, size=states.n), mesh.node_state)
    project_wall_tangential(coeffs, mesh, model)
    value = ContinuousValue(mesh, solve(constrain_goal(assemble(mesh, coeffs), mesh.goal_node))[0])
    for table in (model.moment_rows, *transition_moments(model, slice(None), slice(None)), value.expansion_table):
        assert not table.flags.writeable
    assert model.moment_rows.shape == (6, states.n, model.n_actions)
    assert value.expansion_table.shape == (7, mesh.n_nodes)

    planner = ContinuousPlanner(model, value)
    points = _query_points(mesh, states, rng)
    on = mesh._find_many(points)[0] >= 0
    assert on.any() and not on.all()
    for rows in (points[on], points[~on], points[on][:1], points[~on][:1]):
        cells = states.state_at(rows)
        located = mesh.locate_rows(rows, cells)
        got, want = value.expansion_at(located), _row_major_expansion_at(value, located)
        assert all(_same_bits(a, b) for a, b in zip(expansion_parts(got), want))
        scores, reference = _state_scores(model, cells, got), _broadcast_state_scores(model, cells, *want)
        assert _same_bits(scores, reference)
        assert np.array_equal(planner._choose(rows, cells), best_action(reference))
        one = _state_scores(model, cells[:1], got[:, :1])[0]
        assert _same_bits(one, _broadcast_state_scores(model, int(cells[0]), want[0][0], want[1][0], want[2][0]))

    got, want = value.expansion_at(mesh.centres), _row_major_expansion_at(value, mesh.centres)
    assert all(_same_bits(a, b) for a, b in zip(expansion_parts(got), want))
    reference = _broadcast_state_scores(model, np.arange(states.n), *want)
    assert _same_bits(_state_scores(model, slice(None), got), reference)
    assert np.array_equal(improve_policy_continuous(model, value), best_action(reference))


def test_writing_into_an_assembled_matrix_leaves_the_next_assembly_unchanged():
    mesh = build_mesh(grid_states(6, goal=(2, 3)), k=1)
    coeffs = constant_coefficients(mesh, drift=(0.3, -0.2), source=1.0)
    first = assemble(mesh, coeffs)
    first.data[:] = 7.0
    first.rhs[:] = 7.0
    for pattern in (first.row, first.col):  # shared with the mesh's assembly table
        with pytest.raises(ValueError, match="read-only"):
            pattern[:] = 0
    _assert_same_system(assemble(mesh, coeffs), _reference_assemble(mesh, coeffs))


# --------------------------------------------------------- solve pipeline


def test_constrain_goal_toy_system():
    system = _system(np.array([[2.0, 1.0], [1.0, 2.0]]), [1.0, 1.0])
    constrained = constrain_goal(system, 0)
    got = solve(constrained)[0]
    np.testing.assert_allclose(got, [0.0, 0.5], atol=1e-14)


def test_constrain_goal_idempotent():
    system = _system(np.array([[2.0, 1.0], [1.0, 2.0]]), [1.0, 1.0])
    once = constrain_goal(system, 0)
    twice = constrain_goal(once, 0)
    for attr in ("row", "col", "data"):
        assert np.array_equal(getattr(once, attr), getattr(twice, attr)), attr
    np.testing.assert_allclose(once.rhs, twice.rhs, atol=0)


def test_constrain_goal_keeps_the_stored_pattern_of_lil_elimination():
    # Clearing the goal row and column of a LIL matrix drops their entries
    # and keeps every other stored entry, explicit zeros included.
    mesh = build_mesh(grid_states(6, goal=(2, 3)), k=1)
    system = assemble(mesh, constant_coefficients(mesh, drift=(0.3, -0.2), source=1.0))
    system.data[::7] = 0.0
    g = mesh.goal_node
    ref = _csr(system).tolil(copy=True)
    ref[g, :] = 0.0
    ref[:, g] = 0.0
    ref[g, g] = 1.0
    ref = ref.tocsr()
    got = constrain_goal(system, g)
    # Every entry but the appended goal entry keeps its (CSR) order.
    order = np.lexsort((got.col, got.row))
    assert np.array_equal(order[got.row[order] != g], np.arange(len(order) - 1))
    assert np.array_equal(got.row[order], np.repeat(np.arange(mesh.n_nodes), np.diff(ref.indptr)))
    assert np.array_equal(got.col[order], ref.indices)
    assert np.array_equal(got.data[order], ref.data)


def test_solve_identity_system():
    rhs = np.array([3.0, -1.0, 2.0])
    system = _system(np.eye(3), rhs)
    np.testing.assert_allclose(solve(system)[0], rhs, atol=0)


def test_goal_coefficient_is_zero_after_solve():
    mesh = build_mesh(unit_square_states(6), k=1)
    coeffs = constant_coefficients(mesh, source=0.1)
    system = constrain_goal(assemble(mesh, coeffs), mesh.goal_node)
    a = solve(system)[0]
    assert a[mesh.goal_node] == 0.0


def _policy_system(nx, ny, k, goal):
    """The constrained FEM system of a seeded random policy on a gyre, with
    one obstacle, as approximate policy iteration builds it."""
    states = StateSpace.regular(nx, ny, 2.0, goal, obstacle_cells=[(1, ny - 2)])
    field = gyre_field(GyreParams(0.5, 10.0), NoiseParams(0.4, 0.7), extent=(2.0 * nx, 2.0 * ny))
    model = build_model(field, states, 1.0, 3.0, 0.95)
    mesh = build_mesh(states, k)
    policy = np.random.default_rng(nx * ny + k).integers(0, 8, size=states.n)
    coeffs = assemble_coefficients(model, policy, mesh.node_state)
    project_wall_tangential(coeffs, mesh, model)
    return constrain_goal(assemble(mesh, coeffs), mesh.goal_node)


@pytest.mark.parametrize(
    "nx, ny, k, goal",
    [
        (8, 8, 1, (3, 2)),
        (9, 6, 1, (8, 5)),
        (8, 8, 2, (3, 3)),  # even goal
        (8, 8, 2, (3, 4)),  # odd goal inside the hull
        (9, 6, 2, (4, 0)),  # odd goal on the hull
        (8, 8, 2, (7, 0)),  # odd goal on a cut corner
    ],
)
def test_solve_agrees_with_the_general_sparse_solve(nx, ny, k, goal):
    system = _policy_system(nx, ny, k, goal)
    # Node ids follow the lattice, and the goal pin clears the couplings of
    # an odd goal numbered last, so every coupling stays within a grid row.
    assert np.abs(system.row.astype(np.int64) - system.col).max() <= nx + 1
    want = spla.spsolve(_csr(system).tocsc(), system.rhs)
    got = solve(system)[0]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_solve_of_a_singular_system_is_a_numerical_error():
    # A goal row left all zero, as if the pin were lost.
    system = _policy_system(8, 8, 2, (3, 4))
    g = len(system.rhs) - 1  # the odd goal is the last node
    system.data[system.row == g] = 0.0
    with pytest.raises(NumericalError, match="zero pivot"):
        solve(system)


@pytest.mark.parametrize("where", ["rhs", "matrix"])
def test_solve_of_non_finite_input_is_a_numerical_error(where):
    system = _policy_system(8, 8, 1, (3, 2))
    if where == "rhs":
        system.rhs[5] = np.nan
    else:
        system.data[7] = np.nan
    with pytest.raises(NumericalError):
        solve(system)


def _manufactured_l2_error(n, gamma=0.95):
    """Pure diffusion-reaction on the unit square: v* = cos(pi x)cos(pi y)+1,
    zero on the (1, 0) corner, zero normal derivative on all sides."""
    states = unit_square_states(n)
    mesh = build_mesh(states, k=1)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]

    def vstar(px, py):
        return np.cos(np.pi * px) * np.cos(np.pi * py) + 1.0

    forcing = gamma * np.pi**2 * np.cos(np.pi * x) * np.cos(np.pi * y) + (1 - gamma) * vstar(x, y)
    coeffs = constant_coefficients(mesh, gamma=gamma)
    coeffs.source[:] = forcing
    a = solve(constrain_goal(assemble(mesh, coeffs), mesh.goal_node))[0]
    # elementwise edge-midpoint rule (exact for quadratics)
    tris = mesh.triangles
    p = mesh.nodes[tris]
    mids = 0.5 * (p[:, [0, 1, 2]] + p[:, [1, 2, 0]])
    approx_mid = 0.5 * (a[tris][:, [0, 1, 2]] + a[tris][:, [1, 2, 0]])
    err2 = (approx_mid - vstar(mids[..., 0], mids[..., 1])) ** 2
    return float(np.sqrt(np.sum(mesh.areas[:, None] / 3.0 * err2)))


def test_manufactured_solution_convergence():
    # the one-point constraint pollutes the coarsest levels, so start at 32
    errors = [_manufactured_l2_error(n) for n in (32, 64, 128)]
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(rates) >= 1.8, f"errors {errors} rates {rates}"


# ------------------------------------------------- evaluation and recovery


def _linear_value(mesh, a=2.0, b=-1.0, c=0.5):
    return ContinuousValue(mesh, a * mesh.nodes[:, 0] + b * mesh.nodes[:, 1] + c)


def test_evaluate_at_nodes_returns_coefficients():
    mesh = build_mesh(grid_states(5), k=1)
    coeffs = np.arange(mesh.n_nodes, dtype=float)
    v = ContinuousValue(mesh, coeffs)
    for node in (0, 7, 24):
        assert v.evaluate(mesh.nodes[node]) == pytest.approx(coeffs[node], abs=1e-12)


def test_evaluate_at_centroid_is_vertex_mean():
    mesh = build_mesh(grid_states(3), k=1)
    coeffs = np.zeros(mesh.n_nodes)
    tri = mesh.triangles[0]
    coeffs[tri] = [0.0, 3.0, 6.0]
    v = ContinuousValue(mesh, coeffs)
    centroid = mesh.nodes[tri].mean(axis=0)
    assert v.evaluate(centroid) == pytest.approx(3.0, abs=1e-12)


@given(x=st.floats(0.02, 0.98), y=st.floats(0.02, 0.98))
@settings(max_examples=100)
def test_evaluate_reproduces_linear_functions(x, y):
    mesh = build_mesh(unit_square_states(5), k=1)
    v = _linear_value(mesh)
    assert abs(v.evaluate((x, y)) - (2.0 * x - y + 0.5)) < 1e-12


def test_evaluate_outside_the_cover_is_the_expansion_at_its_projection():
    mesh = build_mesh(grid_states(4), k=1)
    v = _linear_value(mesh)
    p = Point2(-3.0, 0.0)
    q = mesh.project(p)
    assert q != p and mesh.covers(q)
    assert v.evaluate(p) == v.evaluate(q) == v.evaluate_many(np.array([p]))[0]
    with pytest.raises(DomainError):
        mesh.locate(p)


def test_partition_of_unity():
    mesh = build_mesh(grid_states(6), k=1)
    rng = np.random.default_rng(1)
    lo, hi = mesh.nodes.min(), mesh.nodes.max()
    for _ in range(200):
        p = rng.uniform(lo, hi, size=2)
        lam = _barycentric(mesh, p)
        e = int(np.argmax(lam.min(axis=1)))
        assert lam[e].min() >= -1e-12
        assert lam[e].sum() == pytest.approx(1.0, abs=1e-12)


def test_evaluation_continuous_across_shared_edges():
    mesh = build_mesh(grid_states(6), k=1)
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=mesh.n_nodes)
    shared = [(e, tris) for e, tris in _edge_triangles(mesh).items() if len(tris) == 2]
    for _ in range(1000):
        (u, w), tris = shared[rng.integers(len(shared))]
        t = rng.uniform(0.05, 0.95)
        p = (1 - t) * mesh.nodes[u] + t * mesh.nodes[w]
        vals = []
        for e in tris:
            tri = mesh.triangles[e]
            mat = np.column_stack([mesh.nodes[tri[1]] - mesh.nodes[tri[0]], mesh.nodes[tri[2]] - mesh.nodes[tri[0]]])
            lam12 = np.linalg.solve(mat, p - mesh.nodes[tri[0]])
            lam = np.array([1 - lam12.sum(), *lam12])
            vals.append(float(lam @ coeffs[tri]))
        assert abs(vals[0] - vals[1]) < 1e-12


def test_gradient_of_linear_field_everywhere():
    mesh = build_mesh(unit_square_states(5), k=1)
    v = _linear_value(mesh)
    for p in [(0.5, 0.5), (0.21, 0.77), (0.0, 0.0), (0.4, 0.4)]:
        np.testing.assert_allclose(v.gradient(p), [2.0, -1.0], atol=1e-12)


def test_gradient_of_constant_field_is_zero():
    mesh = build_mesh(grid_states(4), k=1)
    v = ContinuousValue(mesh, np.full(mesh.n_nodes, 3.7))
    np.testing.assert_allclose(v.gradient(mesh.nodes[5]), [0.0, 0.0], atol=1e-12)


def test_recovered_gradient_of_quadratic_converges():
    # f = x^2: recovered nodal gradient approaches 2x at interior nodes
    errs = []
    for n in (8, 16):
        mesh = build_mesh(unit_square_states(n), k=1)
        v = ContinuousValue(mesh, mesh.nodes[:, 0] ** 2)
        pts = [(0.5, 0.5), (0.25, 0.75)]
        errs.append(max(abs(v.gradient(p)[0] - 2 * p[0]) for p in pts))
    assert errs[1] < 0.75 * errs[0] + 1e-12
    assert errs[1] < 0.05


def test_hessian_of_linear_data_is_zero():
    mesh = build_mesh(grid_states(6), k=1)
    v = _linear_value(mesh)
    np.testing.assert_allclose(v.hessian((5.0, 5.0)), np.zeros((2, 2)), atol=1e-10)


def test_hessian_recovers_quadratics_exactly():
    mesh = build_mesh(grid_states(7), k=1)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    vxx = ContinuousValue(mesh, x**2)
    vxy = ContinuousValue(mesh, x * y)
    center = (7.0, 7.0)
    np.testing.assert_allclose(vxx.hessian(center), [[2.0, 0.0], [0.0, 0.0]], atol=1e-6)
    np.testing.assert_allclose(vxy.hessian(center), [[0.0, 1.0], [1.0, 0.0]], atol=1e-6)


def _reference_hessian_patches(mesh):
    """The patches built node by node from Python sets of ring members, with
    one pseudo-inverse per distinct patch shape: its lattice steps (di, dj)
    from the node, fitted at the offsets (di h, dj h) for cell size h."""
    ij = np.stack([mesh.node_state % mesh.states.nx, mesh.node_state // mesh.states.nx], axis=-1)
    rings = [set() for _ in range(mesh.n_nodes)]
    for tri in mesh.triangles.tolist():
        for n in tri:
            rings[n].update(tri)
    patches, fits = [], {}
    for n, ring in enumerate(rings):
        ids = np.array(sorted(set().union(*(rings[m] for m in ring))), dtype=np.int64)
        if len(ring) >= 6:
            reach = np.linalg.norm(mesh.nodes[list(ring)] - mesh.nodes[n], axis=1).max()
            dist = np.linalg.norm(mesh.nodes[ids] - mesh.nodes[n], axis=1)
            ids = ids[dist <= reach + 1e-9]
        d = (ij[ids] - ij[n]) * mesh.states.cell_km
        key = d.tobytes()
        if key not in fits:
            design = np.column_stack(
                [np.ones(len(ids)), d[:, 0], d[:, 1], d[:, 0] ** 2, d[:, 0] * d[:, 1], d[:, 1] ** 2]
            )
            full = len(ids) >= 6 and np.linalg.matrix_rank(design) == 6
            fits[key] = np.linalg.pinv(design) if full else None
        patches.append((ids, fits[key]))
    return patches


@pytest.mark.parametrize(
    "nx, ny, k, goal",
    [
        (8, 8, 1, (3, 2)),
        (9, 6, 1, (8, 5)),
        (8, 8, 2, (3, 3)),  # even goal
        (8, 8, 2, (3, 4)),  # odd goal inside the hull
        (9, 6, 2, (4, 0)),  # odd goal on the hull
        (8, 8, 2, (7, 0)),  # odd goal on a cut corner
    ],
)
def test_hessian_patches_match_the_set_loop_reference(nx, ny, k, goal):
    mesh = build_mesh(StateSpace.regular(nx, ny, 0.7, goal, origin=Point2(0.3, -1.1)), k=k)
    got, want = mesh.hessian_patches, _reference_hessian_patches(mesh)
    assert len(got) == len(want) == mesh.n_nodes
    for (ids, pinv), (ref_ids, ref_pinv) in zip(got, want):
        assert ids.dtype == ref_ids.dtype and np.array_equal(ids, ref_ids)
        assert (pinv is None) == (ref_pinv is None)
        assert pinv is None or np.array_equal(pinv, ref_pinv)


def _reference_hessian_operator(mesh):
    """The operator's COO arrays built node by node from the patch list."""
    rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    for n, (ids, pinv) in enumerate(mesh.hessian_patches):
        if pinv is not None:
            rows.append(np.repeat(3 * n + np.arange(3), len(ids)))
            cols.append(np.tile(ids, 3))
            vals.append(pinv[3:].ravel())
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(3 * mesh.n_nodes, mesh.n_nodes),
    )


@pytest.mark.parametrize(
    "nx, ny, k, goal",
    [
        (8, 8, 1, (3, 2)),
        (9, 6, 1, (8, 5)),
        (2, 3, 1, (1, 1)),  # every patch too flat to fit: an empty operator
        (8, 8, 2, (3, 4)),  # odd goal inside the hull
        (9, 6, 2, (4, 0)),  # odd goal on the hull
        (8, 8, 2, (7, 0)),  # odd goal on a cut corner
    ],
)
def test_hessian_operator_matches_the_node_loop_reference(nx, ny, k, goal):
    # Read node by node, coefficient by coefficient and slot by slot, the
    # filled slots are the reference's canonical CSR arrays; the padding
    # weighs nothing, so the expansion table sums each row as the CSR matvec does.
    mesh = build_mesh(StateSpace.regular(nx, ny, 0.7, goal, origin=Point2(0.3, -1.1)), k=k)
    got, want = mesh.hessian_operator, _reference_hessian_operator(mesh)
    assert want.has_canonical_format
    slots = got.ids.shape[0]
    assert got.ids.shape == (slots, mesh.n_nodes) and got.weights.shape == (3, slots, mesh.n_nodes)
    size = np.array([len(ids) if pinv is not None else 0 for ids, pinv in mesh.hessian_patches])
    filled = np.repeat((np.arange(slots)[:, None] < size).T[:, None, :], 3, axis=1)  # (node, coefficient, slot)
    ids = np.repeat(got.ids.T[:, None, :], 3, axis=1)
    weights = got.weights.transpose(2, 0, 1)
    assert np.array_equal(np.concatenate([[0], np.cumsum(filled.sum(axis=2).ravel())]), want.indptr)
    assert np.array_equal(ids[filled], want.indices)
    assert weights.dtype == want.data.dtype and np.array_equal(weights[filled], want.data)
    assert not weights[~filled].any() and ((0 <= got.ids) & (got.ids < mesh.n_nodes)).all()
    coefficients = np.random.default_rng(nx * ny + k).normal(size=mesh.n_nodes)
    value = ContinuousValue(mesh, coefficients)
    xx, xy, yy = (want @ coefficients).reshape(-1, 3).T
    assert np.array_equal(value.expansion_table[3:], np.stack([2.0 * xx, xy, xy, 2.0 * yy]))


def test_hessian_patches_support_fit_everywhere_on_grid_mesh():
    mesh = build_mesh(grid_states(6), k=1)
    assert all(pinv is not None for _, pinv in mesh.hessian_patches)


@pytest.mark.parametrize(
    "k, offsets",
    [
        (1, {(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)}),
        (2, {(0, 0), (1, 1), (1, -1), (-1, 1), (-1, -1), (2, 0), (-2, 0), (0, 2), (0, -2)}),
    ],
)
def test_interior_hessian_patches_have_lattice_symmetry(k, offsets):
    # the 1-ring of either diagonal split misses a neighbour pair (NW/SE on
    # k=1, (0, +-2) on k=2); the patch holds all of them
    states = grid_states(7)
    mesh = build_mesh(states, k=k)
    interior = 0
    for n, (ids, pinv) in enumerate(mesh.hessian_patches):
        assert pinv is not None
        i, j = states.coords(int(mesh.node_state[n]))
        if not all(0 <= i + di < 7 and 0 <= j + dj < 7 for di, dj in offsets):
            continue
        steps = np.rint((mesh.nodes[ids] - mesh.nodes[n]) / 2.0).astype(int)
        assert {tuple(d) for d in steps} == offsets
        interior += 1
    assert interior == (25 if k == 1 else 5)


def test_element_peclet_diagnostic_positive():
    mesh = build_mesh(grid_states(5), k=1)
    coeffs = constant_coefficients(mesh, drift=(1.0, 0.5))
    pe = element_peclet(mesh, coeffs)
    assert pe.shape == (len(mesh.triangles),)
    assert (pe > 0).all()


def test_mesh_and_raster_exports(tmp_path):
    from flowplan.fem import write_mesh_csv, write_raster_csv

    mesh = build_mesh(grid_states(4), k=1)
    write_mesh_csv(tmp_path / "nodes.csv", tmp_path / "tris.csv", mesh)
    assert (tmp_path / "nodes.csv").read_text().splitlines()[0] == "node_id,state_id,x_km,y_km"
    assert (tmp_path / "tris.csv").read_text().splitlines()[0] == "tri_id,n0,n1,n2"
    v = _linear_value(mesh)
    write_raster_csv(tmp_path / "raster.csv", v, (0.0, 8.0, 0.0, 8.0), 5)
    lines = (tmp_path / "raster.csv").read_text().splitlines()
    assert lines[0] == "x_km,y_km,value"
    assert len(lines) == 26
