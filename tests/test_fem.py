import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowplan.errors import DomainError, MeshError
from flowplan.fem import (
    ContinuousValue,
    Mesh,
    SparseSystem,
    assemble,
    build_mesh,
    constrain_goal,
    element_peclet,
    solve,
)
from flowplan.flowfield import Point2
from flowplan.mdp import StateSpace
from flowplan.moments import PdeCoefficients

UNIT_RIGHT = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


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
        goal_node=mesh.goal_node,
    )


def _edge_triangles(mesh):
    """Reference edge map: every sorted node pair to the triangles that
    have it as an edge, in triangle order."""
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
            sw, se = states.index(i, j), states.index(i + 1, j)
            ne, nw = states.index(i + 1, j + 1), states.index(i, j + 1)
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
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])  # all counter-clockwise
    with pytest.raises(MeshError, match="shared by >2 triangles"):
        Mesh(nodes, tris, np.arange(5), goal_node=0)


def test_mesh_rejects_a_clockwise_triangle():
    with pytest.raises(MeshError, match="non-CCW"):
        Mesh(UNIT_RIGHT, np.array([[0, 2, 1]]), np.arange(3), goal_node=0)


def test_mesh_rejects_a_node_in_no_triangle():
    nodes = np.vstack([UNIT_RIGHT, [[5.0, 5.0]]])
    with pytest.raises(MeshError, match="belong to no triangle"):
        Mesh(nodes, np.array([[0, 1, 2]]), np.arange(4), goal_node=0)


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
    assert sorted(outside) == [states.index(7, 0), states.index(0, 7)]


def test_mesh_rejects_bad_subsample_factor():
    with pytest.raises(MeshError):
        build_mesh(grid_states(8), k=3)
    with pytest.raises(MeshError):
        build_mesh(grid_states(2), k=2)


# ------------------------------------------------- bucketed point queries


def _brute_locate(mesh, p):
    """Search of every triangle: the first with the largest minimum weight."""
    lam = mesh.barycentric(p)
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


@pytest.mark.parametrize(
    "n, k, goal",
    [
        (7, 1, (3, 2)),
        (8, 2, (3, 3)),  # even goal: a lattice node
        (8, 2, (3, 4)),  # odd goal inside the hull: inserted
        (8, 2, (7, 0)),  # odd goal on a cut corner: hooked onto the hull
    ],
)
def test_bucketed_queries_match_brute_force(n, k, goal):
    states = grid_states(n, goal=goal)
    mesh = build_mesh(states, k=k)
    rng = np.random.default_rng(n * 10 + goal[1])
    assert _check_queries(mesh, _query_points(mesh, states, rng)) > 40


def test_bucketed_queries_on_a_sparse_mesh():
    # A 10 km triangle and a tiny one 31 km east of it: between them, a
    # bucket's 3x3 block holds no node or only a node farther than one
    # bucket width, while a closer node lies outside the block.
    nodes = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [41.0, 0.0], [41.1, 0.0], [41.0, 0.1]])
    mesh = Mesh(nodes, np.array([[0, 1, 2], [3, 4, 5]]), np.arange(6), goal_node=0)
    pts = np.random.default_rng(4).uniform(-20.0, 60.0, size=(300, 2))
    pts = np.concatenate([pts, nodes, [[5.0, 1.0], [41.01, 0.01], [29.0, 0.0]]])
    assert mesh.nearest_node(Point2(29.0, 0.0)) == 3
    assert _check_queries(mesh, pts) > 250


def _check_queries(mesh, points):
    """Checks every query at every point, one at a time and batched, against
    brute force; returns the number of points off the cover."""
    buckets = mesh._buckets.buckets(points)
    tri_idx, lams = mesh._find_many(points, buckets)
    nearest = mesh._nearest_many(points, buckets)
    for p, e, lam, n in zip(points, tri_idx, lams, nearest):
        found = _brute_locate(mesh, p)
        assert e == (-1 if found is None else found[0])
        assert found is None or np.array_equal(lam, found[1])
        assert n == _brute_nearest(mesh, p)
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
        else:
            e, lam = mesh.locate(p)
            assert e == found[0]
            assert np.array_equal(lam, found[1])
    return outside


def test_nearest_node_takes_lowest_id_on_exact_ties():
    states = grid_states(8, goal=(3, 3))
    mesh = build_mesh(states, k=2)
    centre = states.position(states.index(4, 3))  # odd parity: four nodes at 2 km
    d = np.linalg.norm(mesh.nodes - np.asarray(centre), axis=1)
    tied = np.nonzero(d == d.min())[0]
    assert len(tied) == 4
    assert mesh.nearest_node(centre) == tied.min()


def test_locate_many_matches_single_point_queries():
    states = grid_states(8, goal=(3, 4))
    mesh = build_mesh(states, k=2)
    pts = _query_points(mesh, states, np.random.default_rng(3))
    tri_idx, lams = mesh.locate_many(pts, clamp=True)
    for p, e, lam in zip(pts, tri_idx, lams):
        q = p if mesh.covers(p) else mesh.project(Point2(*p))
        e_ref, lam_ref = mesh.locate(q)
        assert e == e_ref
        assert np.array_equal(lam, np.clip(lam_ref, 0.0, 1.0))
    with pytest.raises(DomainError):
        mesh.locate_many(pts)


@pytest.mark.parametrize(
    "n, k, goal",
    [
        (7, 1, (3, 2)),
        (8, 2, (3, 4)),  # odd goal inside the hull: inserted
        (8, 2, (7, 0)),  # odd goal on a cut corner: hooked onto the hull
    ],
)
def test_expansion_matches_scalar_queries_exactly(n, k, goal):
    states = grid_states(n, goal=goal)
    mesh = build_mesh(states, k=k)
    rng = np.random.default_rng(10 * n + goal[1])
    kinds = _check_expansion(mesh, _query_points(mesh, states, rng), rng)
    assert kinds == {"off", "node", "edge", "interior"}


def test_expansion_on_a_sparse_mesh():
    # Empty buckets and nearest nodes outside the bucket's block (see
    # test_bucketed_queries_on_a_sparse_mesh) in the batched queries.
    nodes = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [41.0, 0.0], [41.1, 0.0], [41.0, 0.1]])
    mesh = Mesh(nodes, np.array([[0, 1, 2], [3, 4, 5]]), np.arange(6), goal_node=0)
    rng = np.random.default_rng(5)
    pts = np.concatenate([rng.uniform(-20.0, 60.0, size=(300, 2)), nodes, [[29.0, 0.0]]])
    assert "off" in _check_expansion(mesh, pts, rng)


def _reference_evaluate(value, p):
    """One point's value: its triangle's barycentric interpolant."""
    e, lam = value.mesh.locate(p)
    return float(lam @ value.coefficients[value.mesh.triangles[e]])


def _reference_gradient(value, p):
    """One point's gradient: the nearest node's recovered gradient at a node,
    the area-weighted mean over the triangles of an edge, else the element's."""
    mesh = value.mesh
    nearest = mesh.nearest_node(p)
    if np.linalg.norm(mesh.nodes[nearest] - np.asarray(p, dtype=float)) < 1e-9:
        return value.node_gradients[nearest].copy()
    e, lam = mesh.locate(p)
    on = np.nonzero(lam < 1e-9)[0]
    if len(on) == 0:
        return value.element_gradients[e].copy()
    tri = mesh.triangles[e]
    u, v = [int(tri[l]) for l in range(3) if l != on[0]]
    elems = _edge_triangles(mesh)[(min(u, v), max(u, v))]
    w = mesh.areas[elems]
    return (value.element_gradients[elems] * w[:, None]).sum(axis=0) / w.sum()


def _reference_hessian(value, p):
    """One point's Hessian: the fit at the nearest node."""
    if not value.mesh.covers(p):
        raise DomainError("outside mesh cover")
    return value.node_hessians[value.mesh.nearest_node(p)].copy()


def _check_expansion(mesh, pts, rng):
    """Every row of the batched expansion must be what the one-point
    references give at the row's point, or at its projection, to the bit, and
    so must the batches of one; returns the kinds of point met (node, edge,
    interior, off the cover)."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    value = ContinuousValue(
        mesh, np.sin(0.4 * x) * np.cos(0.3 * y) + rng.normal(0.0, 0.01, mesh.n_nodes)
    )
    vals, grads, hessians = value.expansion(pts, clamp=True)
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
    with pytest.raises(DomainError):
        value.expansion(pts)
    return kinds


@pytest.mark.parametrize("k, goal", [(1, (3, 2)), (2, (3, 4)), (2, (7, 0))])
def test_node_hessians_are_the_patch_fits(k, goal):
    mesh = build_mesh(grid_states(8, goal=goal), k=k)
    coefficients = np.random.default_rng(k).normal(size=mesh.n_nodes)
    hessians = ContinuousValue(mesh, coefficients).node_hessians
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
        # The sparse matvec sums the same products in its own order.
        np.testing.assert_allclose(hessians[n], want, rtol=0, atol=1e-12)
        fitted += 1
    assert fitted > mesh.n_nodes // 2


# ------------------------------------------------------- element integrals


def _unit_right_block(drift, diffusion, gamma):
    """The assembled matrix of the one-triangle mesh on UNIT_RIGHT: its only
    element block, gamma * advection - gamma/2 * stiffness - (1-gamma) * mass."""
    mesh = Mesh(UNIT_RIGHT, np.array([[0, 1, 2]]), np.arange(3), goal_node=0)
    coeffs = constant_coefficients(mesh, drift=drift, diffusion=diffusion, gamma=gamma)
    return assemble(mesh, coeffs).matrix.toarray()


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
    np.testing.assert_allclose(system.matrix @ ones, -(1 - 0.9) * lumped, atol=1e-12)


def test_matrix_symmetric_without_drift():
    mesh = build_mesh(unit_square_states(6), k=1)
    coeffs = constant_coefficients(mesh, diffusion=[[2.0, 0.3], [0.3, 1.0]])
    system = assemble(mesh, coeffs)
    asym = (system.matrix - system.matrix.T).toarray()
    scale = np.abs(system.matrix.toarray()).max()
    assert np.abs(asym).max() < 1e-10 * scale


# --------------------------------------------------------- solve pipeline


def test_constrain_goal_toy_system():
    import scipy.sparse as sp

    system = SparseSystem(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])), np.array([1.0, 1.0]))
    constrained = constrain_goal(system, 0)
    got = solve(constrained)
    np.testing.assert_allclose(got, [0.0, 0.5], atol=1e-14)


def test_constrain_goal_idempotent():
    import scipy.sparse as sp

    system = SparseSystem(sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])), np.array([1.0, 1.0]))
    once = constrain_goal(system, 0)
    twice = constrain_goal(once, 0)
    assert (once.matrix != twice.matrix).nnz == 0
    np.testing.assert_allclose(once.rhs, twice.rhs, atol=0)


def test_constrain_goal_keeps_the_stored_pattern_of_lil_elimination():
    # Clearing the goal row and column of a LIL matrix drops their entries
    # and keeps every other stored entry, explicit zeros included.
    mesh = build_mesh(grid_states(6, goal=(2, 3)), k=1)
    system = assemble(mesh, constant_coefficients(mesh, drift=(0.3, -0.2), source=1.0))
    system.matrix.data[::7] = 0.0
    g = mesh.goal_node
    ref = system.matrix.tolil(copy=True)
    ref[g, :] = 0.0
    ref[:, g] = 0.0
    ref[g, g] = 1.0
    ref = ref.tocsr()
    got = constrain_goal(system, g).matrix
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr


def test_solve_identity_system():
    import scipy.sparse as sp

    rhs = np.array([3.0, -1.0, 2.0])
    system = SparseSystem(sp.identity(3, format="csr"), rhs)
    np.testing.assert_allclose(solve(system), rhs, atol=0)


def test_goal_coefficient_is_zero_after_solve():
    mesh = build_mesh(unit_square_states(6), k=1)
    coeffs = constant_coefficients(mesh, source=0.1)
    system = constrain_goal(assemble(mesh, coeffs), mesh.goal_node)
    a = solve(system)
    assert a[mesh.goal_node] == 0.0


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
    a = solve(constrain_goal(assemble(mesh, coeffs), mesh.goal_node))
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


def test_evaluate_outside_mesh_rejected():
    mesh = build_mesh(grid_states(4), k=1)
    v = _linear_value(mesh)
    with pytest.raises(DomainError):
        v.evaluate(Point2(-3.0, 0.0))


def test_partition_of_unity():
    mesh = build_mesh(grid_states(6), k=1)
    rng = np.random.default_rng(1)
    lo, hi = mesh.nodes.min(), mesh.nodes.max()
    for _ in range(200):
        p = rng.uniform(lo, hi, size=2)
        lam = mesh.barycentric(p)
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
