"""Compare the artifacts of this tree's ``flowplan`` with those of a git revision.

Usage: ``python3 tools/artifact_diff.py BASE`` from anywhere in the repo,
where BASE is any revision ``git archive`` accepts (``HEAD~1``, a SHA, ...).

BASE is extracted with ``git archive`` into a temporary directory. The
inputs of the three benchmark workloads are written once, by this tree's
``perfbench/workloads.write_inputs``, and both trees run every workload's
commands on them at seeds 7 and 11, plus ``flowplan mse`` on the
``csv-wall-k2`` inputs of seed 7 at grid sizes 12 and 24, ``flowplan mse``
on a small gyre, once more with its goal centre on the domain's lower edge,
``flowplan simulate`` on it with a slow vehicle and a 12 h budget, and once
more over a sweep of two strengths with one obstacle, and ``flowplan solve``
on it with a k=2 mesh, an even goal and one obstacle, once more without
noise, and once more with an iteration budget of two that API runs out of.
Four input errors run as well: ``flowplan solve`` on the ``csv-wall-k2``
inputs of seed 7 with a grid one column past the field, and once more with
one cell of the field padded past the csv module's field size limit;
``flowplan mse`` on the small gyre made taller than wide; and ``flowplan
simulate`` on the small gyre with a negative seed. Every output file, each
command's stdout and stderr and its exit status are compared byte for
byte, so a changed error message shows. The differing files are listed
(marked when they differ only in line endings), and the exit status is 1 if
any file differs, else 0.

For a differing CSV table or JSON-lines file the listing also says how it
differs, cell by cell: the number of differing cells, the largest absolute
gap between numeric cells, and, one per indented line, every differing cell
that is not a float on both sides (integer cells such as policy actions,
trial ids and reached counts, and text cells such as planner names). So
round-off in a float column reads apart from a changed decision.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, write_inputs  # noqa: E402

SEEDS = (7, 11)
# The small gyre of tests/test_cli.py, with the grid sizes its mse test uses.
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
mse.grid_sizes = 4, 6
"""
# ``flowplan mse`` on the small gyre with the goal centre 5e-10 km below the
# domain's lower x edge, inside the tolerance that mse accepts: every mse grid
# must put the goal in its first column.
SMALL_GYRE_EDGE_GOAL = SMALL_GYRE.replace("grid.origin_x_km = 1.0", "grid.origin_x_km = -5e-10").replace(
    "goal.i = 4", "goal.i = 0"
)
# ``flowplan simulate`` on the small gyre. With a 1 km/h vehicle most trials
# outlast one of the simulator's blocks of per-step noise, and some the 12 h
# budget.
SMALL_GYRE_SIM = "vehicle.v_max_kmh = 1.0\nsim.trials = 6\nsim.budget_h = 12.0\n"
# ``flowplan solve`` on the small gyre through the assembly settings that the
# workloads leave out: a k=2 mesh with an even goal and an obstacle on a mesh
# node.
SMALL_GYRE_K2 = "fem.k = 2\ngrid.obstacles = 1, 3\n"
# ``flowplan solve`` on the small gyre without noise: each transition row puts
# its mass on the stencil cells nearest its mean, so the other in-grid cells
# carry probability exactly 0, and exact policy evaluation must leave in-grid
# entries out of its band matrix.
SMALL_GYRE_NOISE_FREE = "noise.sigma_kmh = 0.0\n"
# ``flowplan solve`` on the small gyre with API stopped after two iterations,
# before it converges: ``policy_api.csv``, ``coefficients.csv`` and
# ``value_raster.csv`` must still belong to one evaluated policy.
SMALL_GYRE_UNCONVERGED = "api.max_iterations = 2\n"
# ``flowplan simulate`` on the small gyre over a sweep of two strengths, with
# the obstacle: the sweep loop, and a slow vehicle in strong noise, so that at
# seed 7 trials end by goal, collision and budget, and one planner's copy of a
# trial ends within the first block of per-step noise while another's draws
# further blocks from the generator they share.
SMALL_GYRE_SWEEP = (
    "sweep.strengths = 0.25, 0.5\nsim.trials = 2\ngrid.obstacles = 1, 3\n"
    "vehicle.v_max_kmh = 1.0\nnoise.sigma_kmh = 2.0\n"
)
# ``flowplan mse`` on the csv-wall-k2 inputs (its CSV field, at the first
# seed): k = 1 and k = 2 meshes on cells of 10/3 and 5/3 km, which are not
# dyadic, and one parse of the field for the whole sweep.
CSV_WALL_MSE = "mse.grid_sizes = 12, 24\n"
# ``flowplan solve`` on the csv-wall-k2 inputs with a 25th column, whose state
# centres lie half a cell past the field: an input error, named on stderr.
CSV_WALL_GRID_PAST_FIELD = ("grid.nx = 24\n", "grid.nx = 25\n")
# ``flowplan solve`` on the csv-wall-k2 inputs with the first cell of the
# field's third record padded with leading zeros past the csv module's field
# size limit: a number still, but an input error that names its line.
CSV_WALL_LONG_CELL = ("field.csv_path = field.csv\n", "field.csv_path = field-long-cell.csv\n")
# ``flowplan mse`` on the small gyre at twice its height, with the goal centre
# in the upper half: mse's lattices tile only a square field.
SMALL_GYRE_TALL = SMALL_GYRE.replace("field.height_km = 12.0", "field.height_km = 24.0").replace(
    "grid.origin_y_km = 1.0", "grid.origin_y_km = 13.0"
)


def write_cases(inputs: Path) -> list[tuple[str, list[str]]]:
    """Write every input under ``inputs``; return (case, CLI arguments) pairs."""
    cases = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            cfg = write_inputs(name, seed, inputs / f"{name}-s{seed}")
            seed_args = ["--seed", str(seed)] if workload.uses_seed else []
            for command in workload.commands:
                cases.append((f"{name}/s{seed}/{command}", [command, "--config", str(cfg), *seed_args]))
    cfg = inputs / f"csv-wall-k2-s{SEEDS[0]}" / "mse.cfg"
    cfg.write_text((cfg.parent / "workload.cfg").read_text() + CSV_WALL_MSE)
    cases.append(("mse-csv-wall-k2", ["mse", "--config", str(cfg)]))
    cfg = inputs / f"csv-wall-k2-s{SEEDS[0]}" / "grid-past-field.cfg"
    cfg.write_text((cfg.parent / "workload.cfg").read_text().replace(*CSV_WALL_GRID_PAST_FIELD))
    cases.append(("solve-csv-wall-k2-grid-past-field", ["solve", "--config", str(cfg)]))
    rows = (cfg.parent / "field.csv").read_text().split("\n")
    rows[3] = "0" * csv.field_size_limit() + rows[3]
    (cfg.parent / "field-long-cell.csv").write_text("\n".join(rows))
    cfg = cfg.parent / "long-cell.cfg"
    cfg.write_text((cfg.parent / "workload.cfg").read_text().replace(*CSV_WALL_LONG_CELL))
    cases.append(("solve-csv-wall-k2-long-cell", ["solve", "--config", str(cfg)]))
    cfg = inputs / "mse-small-gyre" / "run.cfg"
    cfg.parent.mkdir()
    cfg.write_text(SMALL_GYRE)
    cases.append(("mse-small-gyre", ["mse", "--config", str(cfg)]))
    cfg = inputs / "mse-small-gyre-goal-on-edge" / "run.cfg"
    cfg.parent.mkdir()
    cfg.write_text(SMALL_GYRE_EDGE_GOAL)
    cases.append(("mse-small-gyre-goal-on-edge", ["mse", "--config", str(cfg)]))
    cfg = inputs / "simulate-small-gyre" / "run.cfg"
    cfg.parent.mkdir()
    cfg.write_text(SMALL_GYRE + SMALL_GYRE_SIM)
    cases.append(("simulate-small-gyre", ["simulate", "--config", str(cfg), "--seed", str(SEEDS[0])]))
    cfg = inputs / "solve-small-gyre-k2-obstacle" / "run.cfg"
    cfg.parent.mkdir()
    cfg.write_text(SMALL_GYRE + SMALL_GYRE_K2)
    cases.append(("solve-small-gyre-k2-obstacle", ["solve", "--config", str(cfg)]))
    cfg = inputs / "solve-small-gyre-noise-free" / "run.cfg"
    cfg.parent.mkdir()
    cfg.write_text(SMALL_GYRE + SMALL_GYRE_NOISE_FREE)
    cases.append(("solve-small-gyre-noise-free", ["solve", "--config", str(cfg)]))
    cfg = inputs / "solve-small-gyre-unconverged" / "run.cfg"
    cfg.parent.mkdir()
    cfg.write_text(SMALL_GYRE + SMALL_GYRE_UNCONVERGED)
    cases.append(("solve-small-gyre-unconverged", ["solve", "--config", str(cfg)]))
    cfg = inputs / "simulate-small-gyre-sweep" / "run.cfg"
    cfg.parent.mkdir()
    cfg.write_text(SMALL_GYRE + SMALL_GYRE_SWEEP)
    cases.append(("simulate-small-gyre-sweep", ["simulate", "--config", str(cfg), "--seed", str(SEEDS[0])]))
    cfg = inputs / "mse-small-gyre-tall" / "run.cfg"
    cfg.parent.mkdir()
    cfg.write_text(SMALL_GYRE_TALL)
    cases.append(("mse-small-gyre-tall", ["mse", "--config", str(cfg)]))
    cfg = inputs / "simulate-small-gyre-negative-seed" / "run.cfg"
    cfg.parent.mkdir()
    cfg.write_text(SMALL_GYRE + SMALL_GYRE_SIM)
    cases.append(("simulate-small-gyre-negative-seed", ["simulate", "--config", str(cfg), "--seed", "-1"]))
    return cases


def run_tree(src: Path, cases: list[tuple[str, list[str]]], out: Path) -> None:
    """Run each case with ``src`` as the package root, into ``out / case``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for case, args in cases:
        dest = out / case
        dest.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "flowplan.cli", *args, "--out", str(dest)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
        )
        (dest / "stdout.txt").write_bytes(proc.stdout)
        (dest / "stderr.txt").write_bytes(proc.stderr)
        (dest / "exit_status.txt").write_text(f"{proc.returncode}\n")


def _cells(path: Path) -> dict[tuple[str, str], str | int | float]:
    """Every cell of a CSV table or JSON-lines file, keyed by (row label,
    column). A CSV row is labelled by its line number and first cell, a JSON
    line by its line number; CSV cells stay strings, JSON cells keep their
    JSON type."""
    cells = {}
    with open(path, newline="") as fh:
        if path.suffix == ".csv":
            header, *rows = csv.reader(fh)
            for line, row in enumerate(rows, start=2):
                for name, cell in zip(header, row):
                    cells[(f"line {line} {header[0]}={row[0]}", name)] = cell
        else:
            for line, text in enumerate(fh, start=1):
                for name, value in json.loads(text).items():
                    cells[(f"line {line}", name)] = value
    return cells


def _kind(cell: str | int | float) -> str:
    """"int", "float" or "text"; a CSV cell by its spelling, and a JSON list
    or object as text."""
    if isinstance(cell, (int, float)):
        return type(cell).__name__
    for kind, parse in (("int", int), ("float", float)):
        try:
            parse(cell)
            return kind
        except (TypeError, ValueError):
            pass
    return "text"


def cell_report(a: Path, b: Path) -> list[str]:
    """How two CSV or JSON-lines files differ: a summary line, then one
    indented line per differing cell that is not a float on both sides. A
    NaN against a number counts as an infinite gap."""
    base, change = _cells(a), _cells(b)
    keys = list(dict.fromkeys([*base, *change]))
    gap, exact = 0.0, []
    differ = [k for k in keys if base.get(k) != change.get(k)]
    for key in differ:
        old, new = base.get(key), change.get(key)
        kinds = {_kind(old), _kind(new)} if old is not None and new is not None else {"text"}
        if kinds <= {"int", "float"}:
            g = abs(float(old) - float(new))
            gap = max(gap, math.inf if math.isnan(g) else g)
        if kinds != {"float"}:
            exact.append(f"    {key[0]} {key[1]}: {old} -> {new}")
    summary = f"  {len(differ)} of {len(keys)} cells differ, largest numeric gap {gap:.3g}"
    return [summary, *exact]


def differing(base: Path, change: Path) -> list[str]:
    files = sorted({p.relative_to(root) for root in (base, change) for p in root.rglob("*") if p.is_file()})
    report = []
    for rel in files:
        a, b = base / rel, change / rel
        if not (a.is_file() and b.is_file()):
            report.append(f"{rel}: only in {'base' if a.is_file() else 'change'}")
        elif (data_a := a.read_bytes()) != (data_b := b.read_bytes()):
            same_lines = data_a.replace(b"\r\n", b"\n") == data_b.replace(b"\r\n", b"\n")
            report.append(f"{rel}: differs" + (" in line endings only" if same_lines else ""))
            if not same_lines and rel.suffix in (".csv", ".jsonl"):
                report.extend(cell_report(a, b))
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        tmp_path = Path(tmp)
        base_tree = tmp_path / "base"
        base_tree.mkdir()
        git_archive = ["git", "-C", str(ROOT), "archive", argv[0]]
        archive = subprocess.run(git_archive, stdout=subprocess.PIPE, check=True)
        subprocess.run(["tar", "-x", "-C", str(base_tree)], input=archive.stdout, check=True)
        cases = write_cases(tmp_path / "inputs")
        run_tree(base_tree / "src", cases, tmp_path / "out-base")
        run_tree(ROOT / "src", cases, tmp_path / "out-change")
        report = differing(tmp_path / "out-base", tmp_path / "out-change")
        n_files = sum(1 for p in (tmp_path / "out-change").rglob("*") if p.is_file())
    n_differ = sum(1 for line in report if not line.startswith(" "))
    print("\n".join([*report, f"{n_differ} of {n_files} files differ"]))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
