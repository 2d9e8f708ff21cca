import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "artifact_diff", Path(__file__).resolve().parents[1] / "tools" / "artifact_diff.py"
)
artifact_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_diff)


def test_cell_report_tells_round_off_from_changed_integers(tmp_path):
    base, change = tmp_path / "base.csv", tmp_path / "change.csv"
    base.write_bytes(b"state_id,action,value\r\n0,3,-0.5\r\n1,7,-0.25\r\n2,1,nan\r\n")
    change.write_bytes(b"state_id,action,value\r\n0,3,-0.5000000000000001\r\n1,1,-0.25\r\n2,1,0.0\r\n")
    assert artifact_diff.cell_report(base, change) == [
        "  3 of 9 cells differ, largest numeric gap inf",
        "    line 3 state_id=1 action: 7 -> 1",
    ]


def test_cell_report_reads_json_lines_by_key(tmp_path):
    base, change = tmp_path / "base.jsonl", tmp_path / "change.jsonl"
    base.write_text('{"iteration": 1, "policy_changes": 4, "solve_residual": 1e-15}\n')
    change.write_text('{"iteration": 1, "policy_changes": 5, "solve_residual": 3e-15}\n')
    assert artifact_diff.cell_report(base, change) == [
        "  2 of 3 cells differ, largest numeric gap 1",
        "    line 1 policy_changes: 4 -> 5",
    ]


def test_differing_lists_each_file_with_its_cell_report(tmp_path):
    for side, value in (("base", b"1"), ("change", b"2")):
        (tmp_path / side).mkdir()
        (tmp_path / side / "stats.csv").write_bytes(b"planner,reached\r\napi,%s\r\n" % value)
        (tmp_path / side / "stdout.txt").write_bytes(b"same\n")
    assert artifact_diff.differing(tmp_path / "base", tmp_path / "change") == [
        "stats.csv: differs",
        "  1 of 2 cells differ, largest numeric gap 1",
        "    line 2 planner=api reached: 1 -> 2",
    ]
