"""Every CSV artifact goes through ``flowfield.write_table``.

The ``_reference_*`` functions are the writers as they were before the
shared table writer: six through ``csv.writer`` with a ``repr`` per cell,
the trajectories as CRLF f-strings, and ``mse.csv`` as LF lines. Each new
writer must give the same bytes; ``mse.csv`` changed on purpose from LF to
CRLF line endings, like every other table, and keeps its values.
"""

import csv
import itertools
from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from flowplan.fem import build_mesh, write_mesh_csv, write_raster_csv
from flowplan.flowfield import Point2, write_table
from flowplan.mdp import StateSpace, classic_policy_iteration, write_policy_csv, write_value_csv
from flowplan.moments import PdeCoefficients, assemble_coefficients, write_coefficients_csv
from flowplan.simulator import Trajectory, TrialStats, write_stats_csv, write_trajectories_csv

EDGE = [float("nan"), -0.0, 5e-324, 1e16, -1e16, 0.1, -2.5e-308, float("inf"), 1 / 3, 123456789.125]
BIG_IDS = [0, 7, 2**62, -(2**63), 2**63 - 1, 4, 1, 2, 3, 5]
PLANNERS = ["classic-pi", "api-k1", "api-k2", "goal-oriented"]


def _edge(n, shift=0):
    return np.array(list(itertools.islice(itertools.cycle(EDGE), shift, shift + n)))


def _reference_value_csv(path, states, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state_id", "i", "j", "x_km", "y_km", "value"])
        for s in range(states.n):
            i, j = states.coords(s)
            x, y = states.position(s)
            writer.writerow([s, i, j, repr(x), repr(y), repr(float(values[s]))])


def _reference_policy_csv(path, policy):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["state_id", "action"])
        for s, a in enumerate(policy):
            writer.writerow([s, int(a)])


def _reference_mesh_csv(nodes_path, tris_path, mesh):
    with open(nodes_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "state_id", "x_km", "y_km"])
        for n in range(mesh.n_nodes):
            writer.writerow(
                [n, int(mesh.node_state[n]), repr(float(mesh.nodes[n, 0])), repr(float(mesh.nodes[n, 1]))]
            )
    with open(tris_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tri_id", "n0", "n1", "n2"])
        for e, (a, b, c) in enumerate(mesh.triangles):
            writer.writerow([e, int(a), int(b), int(c)])


def _reference_raster_csv(path, value, bounds, n):
    x0, x1, y0, y1 = bounds
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    grid = np.array([(x, y) for y in ys for x in xs])
    vals = value.evaluate_many(grid, clamp=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_km", "y_km", "value"])
        for (x, y), v in zip(grid, vals):
            writer.writerow([repr(float(x)), repr(float(y)), repr(float(v))])


def _reference_coefficients_csv(path, node_positions, coeffs):
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


def _reference_trajectories_csv(path, runs):
    with open(path, "w", newline="") as fh:
        fh.write("trial,t_h,x_km,y_km,psi_rad\r\n")
        for trial, run in enumerate(runs):
            rows = zip(run.times.tolist(), run.points.tolist(), run.headings.tolist())
            fh.writelines(f"{trial},{t!r},{x!r},{y!r},{psi!r}\r\n" for t, (x, y), psi in rows)


def _reference_stats_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["planner", "A", "sigma", "mean_time_h", "std_time_h", "mean_len_km", "std_len_km", "reached"]
        )
        for planner, strength, sigma, st_ in rows:
            writer.writerow(
                [
                    planner,
                    repr(float(strength)),
                    repr(float(sigma)),
                    repr(st_.mean_time_h),
                    repr(st_.std_time_h),
                    repr(st_.mean_length_km),
                    repr(st_.std_length_km),
                    st_.reached,
                ]
            )


def _reference_mse_csv(path, records):
    with open(path, "w", newline="") as fh:
        fh.write("grid_n,k,mse,max_abs_value\n")
        for n, k, err, max_abs in records:
            fh.write(f"{n},{k},{err!r},{max_abs!r}\n")


def _same_bytes(tmp_path, reference, writer, *args):
    reference(tmp_path / "reference.csv", *args)
    writer(tmp_path / "table.csv", *args)
    expected = (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "table.csv").read_bytes() == expected


def test_value_and_policy_tables_match_the_csv_writer(tmp_path, zero_field_model):
    model = zero_field_model
    res = classic_policy_iteration(model)
    _same_bytes(tmp_path, _reference_value_csv, write_value_csv, model.states, res.values)
    _same_bytes(tmp_path, _reference_policy_csv, write_policy_csv, res.policy)
    states = StateSpace.regular(5, 2, 0.1, (3, 1), origin=Point2(-0.0, 5e-324))
    _same_bytes(tmp_path, _reference_value_csv, write_value_csv, states, _edge(10))
    _same_bytes(tmp_path, _reference_policy_csv, write_policy_csv, np.array(BIG_IDS, dtype=np.int64))


def test_mesh_tables_match_the_csv_writer(tmp_path):
    def both(mesh):
        _reference_mesh_csv(tmp_path / "ref_nodes.csv", tmp_path / "ref_tris.csv", mesh)
        write_mesh_csv(tmp_path / "nodes.csv", tmp_path / "tris.csv", mesh)
        for name in ("nodes.csv", "tris.csv"):
            assert (tmp_path / name).read_bytes() == (tmp_path / f"ref_{name}").read_bytes()

    for k in (1, 2):
        both(build_mesh(StateSpace.regular(5, 4, 2.0, (3, 2)), k))
    ids = np.array(BIG_IDS, dtype=np.int64)
    both(
        SimpleNamespace(
            n_nodes=10,
            node_state=ids,
            nodes=np.column_stack([_edge(10), _edge(10, 3)]),
            triangles=np.column_stack([ids, ids[::-1], np.roll(ids, 4)]),
        )
    )
    both(SimpleNamespace(n_nodes=0, node_state=ids[:0], nodes=np.empty((0, 2)), triangles=ids[:0].reshape(0, 3)))


def test_raster_table_matches_the_csv_writer(tmp_path):
    value = SimpleNamespace(evaluate_many=lambda points, clamp: _edge(len(points), 1))
    for bounds, n in [((0.0, 8.0, 0.0, 8.0), 5), ((-0.0, 1e16, 5e-324, 0.1), 4), ((1.0, 1.0, 2.0, 2.0), 2)]:
        _same_bytes(tmp_path, _reference_raster_csv, write_raster_csv, value, bounds, n)


def test_coefficient_table_matches_the_csv_writer(tmp_path, zero_field_model):
    model = zero_field_model
    mesh = build_mesh(model.states, 1)
    policy = classic_policy_iteration(model).policy
    coeffs = assemble_coefficients(model, policy, mesh.node_state, mesh.goal_node)
    _same_bytes(tmp_path, _reference_coefficients_csv, write_coefficients_csv, mesh.nodes, coeffs)
    edge = PdeCoefficients(
        _edge(20, 2).reshape(10, 2), _edge(40, 5).reshape(10, 2, 2), _edge(10, 7), 0.95, 3
    )
    positions = _edge(20).reshape(10, 2)
    _same_bytes(tmp_path, _reference_coefficients_csv, write_coefficients_csv, positions, edge)


def test_trajectory_and_stats_tables_match_the_old_writers(tmp_path):
    def run(n, shift):
        points = np.column_stack([_edge(n, shift), _edge(n, shift + 1)])
        return Trajectory(_edge(n, shift + 2), points, _edge(n, shift + 3), "budget", 30.0, 1.0)

    runs = [run(7, 0), run(0, 1), run(12, 4), run(1, 9)]
    _same_bytes(tmp_path, _reference_trajectories_csv, write_trajectories_csv, runs)
    _same_bytes(tmp_path, _reference_trajectories_csv, write_trajectories_csv, [])
    rows = [
        (name, strength, sigma, TrialStats(*_edge(4, shift).tolist(), reached, 2**62))
        for shift, (name, strength, sigma, reached) in enumerate(
            zip(PLANNERS, [0.5, -0.0, 5e-324, 1e16], [1.0, 0.0, float("nan"), 0.3], [0, 10, 2**62, 3])
        )
    ]
    nan = float("nan")
    rows.append(("goal-oriented", 2, 1, TrialStats(nan, nan, nan, nan, 0, 5)))
    _same_bytes(tmp_path, _reference_stats_csv, write_stats_csv, rows)


def test_mse_table_changes_only_its_line_endings(tmp_path):
    records = [(4, 1, 1e-3, 0.25), (4, 2, 5e-324, -0.0), (64, 1, float("nan"), 1e16), (2**62, 2, 0.0, 1 / 3)]
    _reference_mse_csv(tmp_path / "reference.csv", records)
    write_table(tmp_path / "mse.csv", ["grid_n", "k", "mse", "max_abs_value"], records)
    expected = (tmp_path / "reference.csv").read_bytes()
    assert b"\r" not in expected
    assert (tmp_path / "mse.csv").read_bytes() == expected.replace(b"\n", b"\r\n")


cells = st.one_of(
    st.floats(),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from(PLANNERS),
)


@given(st.integers(1, 6).flatmap(lambda n: st.lists(st.lists(cells, min_size=n, max_size=n), max_size=8)))
def test_write_table_matches_csv_writer_with_repr_cells(tmp_path_factory, rows):
    width = len(rows[0]) if rows else 3
    header = [f"c{i}" for i in range(width)]
    path = tmp_path_factory.mktemp("table")
    with open(path / "reference.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(c) if isinstance(c, float) else c for c in row] for row in rows)
    write_table(path / "table.csv", header, iter(rows))
    assert (path / "table.csv").read_bytes() == (path / "reference.csv").read_bytes()
