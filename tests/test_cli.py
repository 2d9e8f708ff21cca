import json
import math

import pytest

from flowplan import fem
from flowplan.cli import main
from flowplan.errors import NumericalError

SMALL_GYRE = """\
field.kind = gyre
field.strength_kmh = 0.5
field.size_km = 6.0
field.width_km = 12.0
field.height_km = 12.0
grid.nx = 6
grid.ny = 6
grid.cell_km = 2.0
grid.origin_x_km = 1.0
grid.origin_y_km = 1.0
goal.i = 4
goal.j = 4
output.raster_n = 5
"""


def _run(tmp_path, text, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_solve_on_a_small_gyre_exits_zero(tmp_path, capsys):
    code, err = _run(tmp_path, SMALL_GYRE, capsys)
    assert code == 0, err
    assert (tmp_path / "out" / "policy_api.csv").exists()


def test_csv_field_smaller_than_the_grid_is_a_config_error(tmp_path, capsys):
    # The lattice spans [0, 6] km, but the state centres reach 11 km. In
    # state order the first centre outside is (7, 1) km, state (3, 0).
    rows = ["x_km,y_km,vx_kmh,vy_kmh"]
    rows += [f"{x}.0,{y}.0,0.0,0.0" for y in range(7) for x in range(7)]
    (tmp_path / "field.csv").write_text("\n".join(rows) + "\n")
    text = SMALL_GYRE.replace("field.kind = gyre", "field.kind = csv\nfield.csv_path = field.csv")
    code, err = _run(tmp_path, text, capsys)
    assert code == 2
    assert "config error" in err and "grid: state (3, 0) lies outside the field domain" in err


@pytest.mark.parametrize("key", ["grid.origin_x_km", "grid.origin_y_km"])
def test_gyre_grid_origin_below_the_domain_is_a_config_error(tmp_path, capsys, key):
    code, err = _run(tmp_path, SMALL_GYRE.replace(f"{key} = 1.0", f"{key} = -1.0"), capsys)
    assert code == 2
    assert "config error" in err and "outside the field domain" in err


def test_k2_on_a_grid_under_3x3_is_a_config_error(tmp_path, capsys):
    text = SMALL_GYRE.replace("grid.nx = 6", "grid.nx = 2").replace("goal.i = 4", "goal.i = 1")
    code, err = _run(tmp_path, text + "fem.k = 2\n", capsys)
    assert code == 2
    assert "config error: fem.k" in err


@pytest.mark.parametrize("key", ["start.x_km", "start.y_km"])
def test_start_outside_the_domain_is_a_config_error_before_any_solve(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_GYRE + f"{key} = 12.5\nsim.trials = 1\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "stats.csv").exists()


def test_mse_on_a_grid_under_4x4_is_a_config_error_before_any_solve(tmp_path, capsys):
    # Without mse.grid_sizes, mse solves the config's own grid size with k = 1
    # and k = 2; a 2x2 grid must fail up front, not after the k = 1 solve.
    text = SMALL_GYRE.replace("grid.nx = 6", "grid.nx = 2").replace("grid.ny = 6", "grid.ny = 2")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace("goal.i = 4", "goal.i = 1").replace("goal.j = 4", "goal.j = 1"))
    code = main(["mse", "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error: grid.nx" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out" / "mse.csv").exists()


@pytest.mark.parametrize("axis, key", [("x", "goal.i"), ("y", "goal.j")])
def test_mse_with_the_goal_outside_the_field_is_a_config_error(tmp_path, capsys, axis, key):
    # The grid starts 30 km before the field, so goal cell 0 lies outside it;
    # mse would map it to cell -4 of its 4x4 grid.
    text = SMALL_GYRE.replace(f"grid.origin_{axis}_km = 1.0", f"grid.origin_{axis}_km = -30.0")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text.replace(f"{key} = 4", f"{key} = 0") + "mse.grid_sizes = 4\n")
    code = main(["mse", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "mse.csv").exists()


def test_simulate_on_a_small_gyre_writes_stats_and_trajectories(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_GYRE + "sim.trials = 4\nsim.budget_h = 6.0\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "3"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    stats = (out / "stats.csv").read_text().splitlines()
    assert stats[0] == "planner,A,sigma,mean_time_h,std_time_h,mean_len_km,std_len_km,reached"
    planners = [row.split(",")[0] for row in stats[1:]]
    assert planners == ["classic-pi", "api-k1", "goal-oriented"]
    for name in planners:
        rows = (out / f"trajectories_{name}_A0p5.csv").read_text().splitlines()
        assert rows[0] == "trial,t_h,x_km,y_km,psi_rad"
        assert sorted({int(row.split(",")[0]) for row in rows[1:]}) == [0, 1, 2, 3]
    # One summary line per planner, with the count of each way a trial ended.
    lines = captured.out.splitlines()
    assert len(lines) == 3
    for line in lines:
        counts = line.split("ends ")[1]
        assert [part.split()[0] for part in counts.split(", ")] == ["goal", "collision", "budget"]
        assert sum(int(part.split()[1]) for part in counts.split(", ")) == 4


def _rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_solve_on_a_small_gyre_writes_every_artifact(tmp_path, capsys):
    code, err = _run(tmp_path, SMALL_GYRE, capsys)
    assert code == 0, err
    out = tmp_path / "out"
    # 6x6 states; the k = 1 mesh has a node per state and two triangles per
    # cell; the raster is output.raster_n squared.
    for name, header, rows in [
        ("values_pi.csv", "state_id,i,j,x_km,y_km,value", 36),
        ("policy_pi.csv", "state_id,action", 36),
        ("policy_api.csv", "state_id,action", 36),
        ("mesh_nodes.csv", "node_id,state_id,x_km,y_km", 36),
        ("mesh_triangles.csv", "tri_id,n0,n1,n2", 50),
        ("value_raster.csv", "x_km,y_km,value", 25),
        ("coefficients.csv", "node_id,x_km,y_km,mu_x,mu_y,sxx,sxy,syy,source", 36),
    ]:
        got_header, got_rows = _rows(out / name)
        assert got_header == header, name
        assert len(got_rows) == rows, name
        assert all(len(row) == len(header.split(",")) for row in got_rows), name
    for name in ("policy_pi.csv", "policy_api.csv"):
        assert {int(a) for _, a in _rows(out / name)[1]} <= set(range(8))
    records = [json.loads(line) for line in (out / "diagnostics.jsonl").read_text().splitlines()]
    assert [r["iteration"] for r in records] == list(range(1, len(records) + 1))
    for record in records:
        assert set(record) == {
            "iteration", "policy_changes", "solve_residual", "value_min", "value_max"
        }
    assert records[-1]["policy_changes"] == 0  # converged


def test_mse_writes_one_row_per_grid_size_and_k(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_GYRE + "mse.grid_sizes = 4, 6\n")
    out = tmp_path / "out"
    code = main(["mse", "--config", str(cfg), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    header, rows = _rows(out / "mse.csv")
    assert header == "grid_n,k,mse,max_abs_value"
    assert (out / "mse.csv").read_bytes().count(b"\r\n") == 5  # CRLF, like every table
    assert [(int(n), int(k)) for n, k, _, _ in rows] == [(4, 1), (4, 2), (6, 1), (6, 2)]
    for _, _, err, max_abs in rows:
        assert math.isfinite(float(err)) and float(err) >= 0.0
        assert math.isfinite(float(max_abs)) and float(max_abs) > 0.0


def test_numerical_failure_in_the_solve_exits_3(tmp_path, capsys, monkeypatch):
    def fail(system):
        raise NumericalError("linear solve residual nan exceeds tolerance")

    monkeypatch.setattr(fem, "solve", fail)
    code, err = _run(tmp_path, SMALL_GYRE, capsys)
    assert code == 3
    assert "numerical failure" in err


def test_non_finite_sim_step_is_a_config_error_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_GYRE + "sim.dt_h = nan\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error: sim.dt_h: must be finite" in captured.err
    assert captured.out == ""
    assert not out.exists() or not any(out.iterdir())
