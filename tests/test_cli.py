import pytest

from flowplan.cli import main

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
    # The lattice spans [0, 6] km, but the state centres reach 11 km.
    rows = ["x_km,y_km,vx_kmh,vy_kmh"]
    rows += [f"{x}.0,{y}.0,0.0,0.0" for y in range(7) for x in range(7)]
    (tmp_path / "field.csv").write_text("\n".join(rows) + "\n")
    text = SMALL_GYRE.replace("field.kind = gyre", "field.kind = csv\nfield.csv_path = field.csv")
    code, err = _run(tmp_path, text, capsys)
    assert code == 2
    assert "config error" in err and "outside the field domain" in err


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
