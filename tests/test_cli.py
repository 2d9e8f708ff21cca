import json
import math

import numpy as np
import pytest

from flowplan import cli, fem
from flowplan.cli import main
from flowplan.config import build_mdp, parse_config
from flowplan.errors import NumericalError
from flowplan.mdp import build_model
from flowplan.policy_iter import ApiConfig, approximate_policy_iteration, evaluate_policy_fem

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
    # The lattice spans [0, 6] km, but the last state centre lies at 11 km
    # on both axes; x is checked first.
    rows = ["x_km,y_km,vx_kmh,vy_kmh"]
    rows += [f"{x}.0,{y}.0,0.0,0.0" for y in range(7) for x in range(7)]
    (tmp_path / "field.csv").write_text("\n".join(rows) + "\n")
    text = SMALL_GYRE.replace("field.kind = gyre", "field.kind = csv\nfield.csv_path = field.csv")
    code, err = _run(tmp_path, text, capsys)
    assert code == 2
    assert "config error" in err and "grid.nx: state grid extends beyond the field domain" in err


@pytest.mark.parametrize("key", ["grid.origin_x_km", "grid.origin_y_km"])
def test_gyre_grid_origin_below_the_domain_is_a_config_error(tmp_path, capsys, key):
    code, err = _run(tmp_path, SMALL_GYRE.replace(f"{key} = 1.0", f"{key} = -1.0"), capsys)
    assert code == 2
    assert "config error" in err and f"{key}: the grid's lower corner lies outside the field domain" in err


@pytest.mark.parametrize(
    "line",
    [
        "fem.moment_convention = displacement",
        "api.init_policy = goal-aimed",
        "sim.noise_resample = trial",
        "sim.noise_scaling = sqrt-dt",
    ],
)
def test_a_removed_key_is_a_config_error_that_names_it(tmp_path, capsys, line):
    code, err = _run(tmp_path, SMALL_GYRE + line + "\n", capsys)
    assert code == 2
    assert "config error" in err and f"unknown key '{line.split(' = ')[0]}'" in err


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


CSV_FIELD = SMALL_GYRE.replace("field.kind = gyre", "field.kind = csv\nfield.csv_path = field.csv")


def _missing_csv(tmp_path):
    return CSV_FIELD.encode()


def _csv_that_is_a_directory(tmp_path):
    (tmp_path / "field.csv").mkdir()
    return CSV_FIELD.encode()


def _undecodable_csv(tmp_path):
    (tmp_path / "field.csv").write_bytes(b"x_km,y_km,vx_kmh,vy_kmh\n0.0,0.0,\xff\xfe,0.0\n")
    return CSV_FIELD.encode()


def _undecodable_config(tmp_path):
    return SMALL_GYRE.encode() + b"# \xff\xfe\n"


@pytest.mark.parametrize(
    "make, message",
    [
        (_missing_csv, "config error: field.csv_path: cannot read"),
        (_csv_that_is_a_directory, "config error: field.csv_path: cannot read"),
        (_undecodable_csv, "config error: field.csv_path: cannot read"),
        (_undecodable_config, "config error: cannot read config"),
    ],
    ids=["missing-csv", "csv-is-a-directory", "undecodable-csv", "undecodable-config"],
)
def test_an_unreadable_input_is_a_config_error_without_a_traceback(tmp_path, capsys, make, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(make(tmp_path))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err + captured.out


def _csv_cell_over_the_field_limit(tmp_path):
    rows = ["x_km,y_km,vx_kmh,vy_kmh"] + [f"{2 * x}.0,{2 * y}.0,0.0,0.0" for y in range(7) for x in range(7)]
    rows[3] = rows[3].replace(",0.0,", ",0." + "0" * 131_072 + ",", 1)
    (tmp_path / "field.csv").write_text("\n".join(rows) + "\n")
    return CSV_FIELD.encode()


def _csv_with_an_unterminated_quote(tmp_path):
    rows = ["x_km,y_km,vx_kmh,vy_kmh"] + [f"{2 * x}.0,{2 * y}.0,0.0,0.0" for y in range(7) for x in range(7)]
    rows[2] = rows[2].replace(",0.0,", ',"0.0,', 1)
    (tmp_path / "field.csv").write_text("\n".join(rows) + "\n")
    return CSV_FIELD.encode()


@pytest.mark.parametrize(
    "make, message",
    [
        (_csv_cell_over_the_field_limit, "config error: line 4: field larger than field limit (131072)\n"),
        (_csv_with_an_unterminated_quote, "config error: line 3: expected 4 fields, got 2\n"),
    ],
    ids=["cell-over-the-field-limit", "unterminated-quote"],
)
def test_a_malformed_csv_field_is_a_config_error_that_names_its_line(tmp_path, capsys, make, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(make(tmp_path))
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == message
    assert captured.out == ""


@pytest.mark.parametrize("flag, line", [(["--seed", "-1"], ""), ([], "sim.seed = -3\n")], ids=["flag", "key"])
def test_a_negative_seed_is_a_config_error_before_any_trial(tmp_path, capsys, flag, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_GYRE + line + "sim.trials = 1\n")
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), *flag])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "config error: sim.seed: must be non-negative\n"
    assert captured.out == ""
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


@pytest.mark.parametrize("axis, key", [("x", "goal.i"), ("y", "goal.j")])
def test_mse_with_the_goal_just_below_the_field_maps_it_to_the_first_cell(tmp_path, capsys, axis, key):
    # The goal centre lies 5e-10 km below the field, inside the 1e-9 km that
    # mse accepts. Its lattice coordinate on the 4x4 grid lies just below
    # -0.5, so mse must clamp it to cell 0, where a goal on the field's edge
    # falls.
    tables = {}
    for origin in ("-5e-10", "0.0"):
        text = SMALL_GYRE.replace(f"grid.origin_{axis}_km = 1.0", f"grid.origin_{axis}_km = {origin}")
        cfg = tmp_path / f"run{origin}.cfg"
        cfg.write_text(text.replace(f"{key} = 4", f"{key} = 0") + "mse.grid_sizes = 4\n")
        out = tmp_path / f"out{origin}"
        code = main(["mse", "--config", str(cfg), "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        tables[origin] = (out / "mse.csv").read_bytes()
    assert tables["-5e-10"] == tables["0.0"]


def test_mse_maps_the_goal_to_the_cell_that_state_at_gives(tmp_path, capsys, monkeypatch):
    # A 20 km field and a 2 km grid from 1 km: goal (2, 2) is centred at
    # (5, 5) km, half-way between cells 0 and 1 of the 5 km mse grid.
    # ``StateSpace.state_at``, which the mesh and the simulator use, puts it
    # in cell 1 on both axes; rounding half to even put it in cell 0.
    goals = []

    def recording(field, states, *args):
        goals.append(states.coords(states.goal))
        return build_model(field, states, *args)

    monkeypatch.setattr(cli.mdp, "build_model", recording)
    text = SMALL_GYRE.replace("_km = 12.0", "_km = 20.0").replace("= 6\n", "= 10\n").replace("= 4\n", "= 2\n")
    assert text.count("20.0") == 2 and text.count("= 10\n") == 2 and text.count("= 2\n") == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "mse.grid_sizes = 4\n")
    code = main(["mse", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    assert goals == [(1, 1)]


def test_mse_on_a_csv_field_off_the_origin_places_its_lattices_on_the_field(tmp_path, capsys, monkeypatch):
    # A 21x21-sample field over [10, 30]^2 km, and a 10x10 grid of 2 km cells
    # from 11 km with its goal centred at 25 km. Each mse lattice tiles the
    # field's own domain: the 5x5 lattice has 4 km cells from 12 km, and the
    # 10x10 lattice is the config's grid.
    rows = ["x_km,y_km,vx_kmh,vy_kmh"]
    rows += [f"{10 + x}.0,{10 + y}.0,{0.1 * (y - 10)},{-0.1 * (x - 10)}" for y in range(21) for x in range(21)]
    (tmp_path / "field.csv").write_text("\n".join(rows) + "\n")
    text = (
        SMALL_GYRE.replace("field.kind = gyre", "field.kind = csv\nfield.csv_path = field.csv")
        .replace("= 6\n", "= 10\n")
        .replace("= 1.0\n", "= 11.0\n")
        .replace("= 4\n", "= 7\n")
    )
    assert text.count("= 10\n") == 2 and text.count("= 11.0\n") == 2 and text.count("= 7\n") == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "start.x_km = 12.0\nstart.y_km = 12.0\nmse.grid_sizes = 5, 10\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 0
    lattices = []

    def recording(field, states, *args):
        lattices.append((states.cell_km, *states.origin, *states.coords(states.goal)))
        return build_model(field, states, *args)

    monkeypatch.setattr(cli.mdp, "build_model", recording)
    out = tmp_path / "out"
    code = main(["mse", "--config", str(cfg), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert lattices == [(4.0, 12.0, 12.0, 3, 3), (2.0, 11.0, 11.0, 7, 7)]
    _, rows = _rows(out / "mse.csv")
    assert [(int(n), int(k)) for n, k, _, _ in rows] == [(5, 1), (5, 2), (10, 1), (10, 2)]


def test_mse_on_a_gyre_grid_that_overflows_the_field_runs_when_the_goal_lies_inside(tmp_path, capsys):
    # A seventh column puts the last state centre at 13 km on the 12 km
    # field, but mse solves only its own lattices and the goal centre at
    # (9, 9) km: the configured grid is none of its business.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_GYRE.replace("grid.nx = 6", "grid.nx = 7") + "mse.grid_sizes = 4\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 2
    assert "config error: grid.nx: state grid extends beyond the field domain" in capsys.readouterr().err
    code = main(["mse", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0, capsys.readouterr().err
    _, rows = _rows(tmp_path / "out" / "mse.csv")
    assert [(int(n), int(k)) for n, k, _, _ in rows] == [(4, 1), (4, 2)]


def _taller_gyre(tmp_path):
    # A 12 x 24 km gyre with the goal centre at (9, 21) km, above the lower
    # 12 km square that lattices of width / n cells would cover.
    text = SMALL_GYRE.replace("field.height_km = 12.0", "field.height_km = 24.0")
    return "field.height_km", text.replace("grid.origin_y_km = 1.0", "grid.origin_y_km = 13.0")


def _wider_csv(tmp_path):
    # A 20 x 10 km CSV lattice; the goal centre at (9, 9) km lies in it.
    rows = ["x_km,y_km,vx_kmh,vy_kmh"] + [f"{x}.0,{y}.0,0.0,0.0" for y in range(11) for x in range(21)]
    (tmp_path / "field.csv").write_text("\n".join(rows) + "\n")
    return "field.csv_path", CSV_FIELD


@pytest.mark.parametrize("make", [_taller_gyre, _wider_csv], ids=["taller-gyre", "wider-csv"])
def test_mse_on_a_field_that_is_not_square_is_a_config_error_before_any_solve(tmp_path, capsys, make):
    # mse tiles n x n lattices of square cells over the field, so a field
    # that is not square would leave part of it out, or the goal with it.
    key, text = make(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "mse.grid_sizes = 4\n")
    code = main(["mse", "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"config error: {key}: mse needs a square field")
    assert captured.out == ""
    assert not (tmp_path / "out" / "mse.csv").exists()


def test_an_unconverged_api_returns_the_value_of_the_policy_it_returns():
    # Out of iterations, API must return the policy it evaluated last, not
    # the improvement of it that it never evaluated.
    model = build_mdp(parse_config(SMALL_GYRE))
    res = approximate_policy_iteration(model, ApiConfig(k=1, max_iterations=2))
    assert not res.converged and res.iterations == 2 and res.diagnostics[-1]["policy_changes"] > 0
    value, _ = evaluate_policy_fem(model, res.policy, res.value.mesh)
    assert np.array_equal(value.coefficients.view(np.int64), res.value.coefficients.view(np.int64))


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


@pytest.mark.parametrize("strengths", ["0.5, 0.5000001", "0.25, 0.5, 0.25"], ids=["same-tag", "repeated"])
def test_sweep_strengths_sharing_a_file_tag_are_a_config_error_before_any_solve(tmp_path, capsys, strengths):
    # Both strengths would write trajectories_<planner>_A0p5.csv (or A0p25),
    # the second run overwriting the first.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_GYRE + f"sweep.strengths = {strengths}\nsim.trials = 1\n")
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error: sweep.strengths:" in captured.err and "share the file tag" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_more_than_one_strength_on_a_csv_field_is_a_config_error_before_any_solve(tmp_path, capsys):
    # A csv field's current is read from its file and ignores
    # field.strength_kmh, so a sweep would label the same runs with strengths
    # never applied. One strength stays valid and labels its one run.
    rows = ["x_km,y_km,vx_kmh,vy_kmh"]
    rows += [f"{x}.0,{y}.0,{0.1 * (y - 6)},{0.1 * (6 - x)}" for y in range(13) for x in range(13)]
    (tmp_path / "field.csv").write_text("\n".join(rows) + "\n")
    cfg, out = tmp_path / "run.cfg", tmp_path / "out"

    def simulate(strengths):
        cfg.write_text(CSV_FIELD + f"sweep.strengths = {strengths}\nsim.trials = 1\nsim.budget_h = 1.0\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        return code, capsys.readouterr()

    code, captured = simulate("0.25, 0.5")
    assert code == 2
    assert "config error: sweep.strengths:" in captured.err and captured.out == ""
    assert not out.exists()
    code, captured = simulate("0.25")
    assert code == 0, captured.err
    assert sorted(p.name for p in out.glob("trajectories_*")) == [
        f"trajectories_{name}_A0p25.csv" for name in ("api-k1", "classic-pi", "goal-oriented")
    ]


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


def test_coefficients_csv_holds_the_coefficients_of_the_final_evaluation(tmp_path, capsys, monkeypatch):
    # The dump must show the wall-projected diffusion that the last FEM
    # solve used, not the raw moments.
    assembled = []
    assemble = fem.assemble

    def recording(mesh, coeffs):
        assembled.append(coeffs)
        return assemble(mesh, coeffs)

    monkeypatch.setattr(fem, "assemble", recording)
    code, err = _run(tmp_path, SMALL_GYRE, capsys)
    assert code == 0, err
    header, rows = _rows(tmp_path / "out" / "coefficients.csv")
    cols = [header.split(",").index(name) for name in ("sxx", "sxy", "syy")]
    dumped = [[float(row[c]) for c in cols] for row in rows]
    final = assembled[-1].diffusion.reshape(-1, 4)[:, [0, 1, 3]]
    assert dumped == final.tolist()


def test_solve_prints_how_many_elements_have_a_high_or_a_singular_peclet_number(tmp_path, capsys, monkeypatch):
    # k = 2 with an obstacle node beside the x = 0 wall: the elements that
    # join it to two wall nodes have no wall-normal diffusion, so their
    # Peclet number is |mu| h over the 1e-12 floor. The line counts them
    # apart instead of printing that quotient as a maximum.
    computed = []
    element_peclet = fem.element_peclet

    def recording(mesh, coeffs):
        computed.append(element_peclet(mesh, coeffs))
        return computed[-1]

    monkeypatch.setattr(fem, "element_peclet", recording)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_GYRE + "fem.k = 2\ngrid.obstacles = 1, 3\n")
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    (pe,) = computed
    high, singular = int((pe > 2).sum()), int((pe > 1e6).sum())
    assert singular > 0 and pe[pe <= 1e6].max() < 1e3
    assert captured.out.splitlines()[-1].endswith(
        f"element peclet above 2 on {high} of {pe.size} elements, above 1e6 on {singular}"
    )


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


def test_a_singular_fem_system_in_the_real_solve_exits_3(tmp_path, capsys, monkeypatch):
    # The goal pin is lost: the goal row of the constrained system is all
    # zero, and the solve meets a zero pivot.
    pin = fem.constrain_goal

    def lose_pin(system, goal_node):
        pinned = pin(system, goal_node)
        pinned.data[pinned.row == goal_node] = 0.0
        return pinned

    monkeypatch.setattr(fem, "constrain_goal", lose_pin)
    code, err = _run(tmp_path, SMALL_GYRE, capsys)
    assert code == 3
    assert "numerical failure: singular system" in err


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
