"""Compare the artifacts of this tree's ``flowplan`` with those of a git revision.

Usage: ``python3 tools/artifact_diff.py BASE`` from anywhere in the repo,
where BASE is any revision ``git archive`` accepts (``HEAD~1``, a SHA, ...).

BASE is extracted with ``git archive`` into a temporary directory. The
inputs of the three benchmark workloads are written once, by this tree's
``perfbench/workloads.write_inputs``, and both trees run every workload's
commands on them at seeds 7 and 11, plus ``flowplan mse`` on a small gyre.
Every output file, each command's stdout and its exit status are compared
byte for byte. The differing files are listed (marked when they differ only
in line endings), and the exit status is 1 if any file differs, else 0.
"""

from __future__ import annotations

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


def write_cases(inputs: Path) -> list[tuple[str, list[str]]]:
    """Write every input under ``inputs``; return (case, CLI arguments) pairs."""
    cases = []
    for name, workload in WORKLOADS.items():
        for seed in SEEDS:
            cfg = write_inputs(name, seed, inputs / f"{name}-s{seed}")
            seed_args = ["--seed", str(seed)] if workload.uses_seed else []
            for command in workload.commands:
                cases.append((f"{name}/s{seed}/{command}", [command, "--config", str(cfg), *seed_args]))
    cfg = inputs / "mse-small-gyre" / "run.cfg"
    cfg.parent.mkdir()
    cfg.write_text(SMALL_GYRE)
    cases.append(("mse-small-gyre", ["mse", "--config", str(cfg)]))
    return cases


def run_tree(src: Path, cases: list[tuple[str, list[str]]], out: Path) -> None:
    """Run each case with ``src`` as the package root, into ``out / case``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    for case, args in cases:
        dest = out / case
        dest.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "flowplan.cli", *args, "--out", str(dest)],
            env=env, stdout=subprocess.PIPE, check=False,
        )
        (dest / "stdout.txt").write_bytes(proc.stdout)
        (dest / "exit_status.txt").write_text(f"{proc.returncode}\n")


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
    print("\n".join([*report, f"{len(report)} of {n_files} files differ"]))
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
