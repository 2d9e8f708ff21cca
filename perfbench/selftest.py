"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test collection.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (ROOT / "src", HERE):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from flowplan import flowfield, mdp, moments  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """Returns scripted instants, one per call."""

    def __init__(self, instants):
        self.instants = iter(instants)

    def __call__(self) -> float:
        return next(self.instants)


def test_self_time_arithmetic_offline():
    # root [0, 10] holds child span [1, 4] and hot calls covering 2 s
    # directly; the hot calls' own self time is 1.5 s (0.5 s in a nested call).
    spans_ = [
        spans.Span(0, "root", 0.0, 10.0, None, 1),
        spans.Span(1, "child", 1.0, 4.0, 0, 1),
    ]
    aggs = {
        (0, "hot"): spans.Aggregate(calls=4, total=2.0, self_s=1.5, direct=2.0),
        (0, "nested"): spans.Aggregate(calls=1, total=0.5, self_s=0.5, direct=0.0),
        (1, "hot"): spans.Aggregate(calls=2, total=1.0, self_s=1.0, direct=1.0),
    }
    got = spans.self_times(spans_, aggs)
    assert got["root"] == pytest.approx(10.0 - 3.0 - 2.0)
    assert got["child"] == pytest.approx(3.0 - 1.0)
    assert got["hot"] == pytest.approx(2.5)
    assert got["nested"] == pytest.approx(0.5)
    assert sum(got.values()) == pytest.approx(10.0)


def test_recorder_self_times_partition_the_root_interval():
    # Clock reads, in call order: outer start, hot start, leaf start, leaf
    # end, hot end, inner start, inner end, outer end.
    rec = spans.Recorder(clock=FakeClock([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 7.0, 10.0]))
    outer, hot, leaf, inner = (
        spans.Target("m.outer"), spans.Target("m.hot", hot=True),
        spans.Target("m.leaf", hot=True), spans.Target("m.inner"),
    )

    def f_leaf():
        return 1

    def f_hot():
        return rec.call(leaf, "m.leaf", f_leaf, (), {})

    def f_inner():
        return 2

    def f_outer():
        return rec.call(hot, "m.hot", f_hot, (), {}) + rec.call(inner, "m.inner", f_inner, (), {})

    assert rec.call(outer, "m.outer", f_outer, (), {}) == 3
    got = spans.self_times(rec.spans, rec.aggregates)
    assert got == pytest.approx({"m.outer": 10.0 - 2.0 - 3.0, "m.hot": 1.5, "m.leaf": 0.5, "m.inner": 3.0})
    assert [s.name for s in rec.spans] == ["m.inner", "m.outer"]
    assert spans.call_counts(rec.spans, rec.aggregates) == {"m.outer": 1, "m.hot": 1, "m.leaf": 1, "m.inner": 1}


def test_percentile_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert spans.percentile(values, 50) == 50.0
    assert spans.percentile(values, 99) == 99.0
    assert spans.percentile([], 50) == 0.0


def test_installation_wraps_every_binding_and_tolerates_absent_targets():
    import flowplan.policy_iter as policy_iter

    original = moments.transition_moments
    rec = spans.Recorder()
    targets = (
        spans.Target("moments.transition_moments", hot=True),
        spans.Target("moments.no_such_function"),
        spans.Target("fem.Mesh.no_such_method"),
        spans.Target("fem.NoSuchClass.method"),
        spans.Target("no_such_module.function"),
    )
    install = spans.Installation(rec, targets)
    assert set(install.absent) == {t.name for t in targets[1:]}
    assert {"moments.transition_moments", "policy_iter.transition_moments"} <= set(
        install.bindings["moments.transition_moments"]
    )
    assert policy_iter.transition_moments is original
    with install:
        assert policy_iter.transition_moments is not original
        assert moments.transition_moments is not original
    assert moments.transition_moments is original
    assert policy_iter.transition_moments is original


def _toy_model() -> mdp.MdpModel:
    field = flowfield.gyre_field(flowfield.GyreParams(0.5, 10.0), flowfield.NoiseParams.isotropic(0.5),
                                 (10.0, 10.0))
    states = mdp.StateSpace.regular(5, 5, 2.0, (3, 3), obstacle_cells=[(1, 2)])
    return mdp.build_model(field, states, 1.0, 3.0, 0.9)


def test_regret_is_zero_for_the_optimal_policy():
    model = _toy_model()
    pi = mdp.classic_policy_iteration(model)
    gap = checks.regret(model, pi.values, pi.policy)
    assert gap.shape == (model.n_states - 2,)
    assert np.max(np.abs(gap)) < 1e-12
    problems: list[str] = []
    checks.check_regret(problems, gap)
    assert problems == []


def test_regret_is_positive_for_a_worse_policy():
    model = _toy_model()
    pi = mdp.classic_policy_iteration(model)
    gap = checks.regret(model, pi.values, np.zeros(model.n_states, dtype=np.int64))
    assert gap.min() >= -1e-9 and gap.max() > 0.0


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.write_inputs("csv-wall-k2", 7, tmp_path / "a")
    b = workloads.write_inputs("csv-wall-k2", 7, tmp_path / "b")
    c = workloads.write_inputs("csv-wall-k2", 8, tmp_path / "c")
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    field_a = (a.parent / "field.csv").read_bytes()
    assert field_a == (b.parent / "field.csv").read_bytes()
    assert field_a != (c.parent / "field.csv").read_bytes()


def test_csv_field_covers_the_state_grid_and_goal_has_odd_parity(tmp_path):
    from flowplan import config

    cfg = config.load_config(workloads.write_inputs("csv-wall-k2", 1, tmp_path))
    model = config.build_mdp(cfg, base_dir=tmp_path)
    pos = model.states.positions()
    assert all(model.field.contains(p) for p in pos)
    assert (cfg.goal_i + cfg.goal_j) % 2 == 1
    assert len(cfg.grid_obstacles) == 24  # 12 cells


def test_stream_modes_are_divergence_free():
    x, y, vx, vy = workloads.gyre_plus_modes(3, 401)
    h = x[0, 1] - x[0, 0]
    div = np.gradient(vx, h, axis=1) + np.gradient(vy, h, axis=0)
    assert np.max(np.abs(div[2:-2, 2:-2])) < 1e-3 * np.max(np.hypot(vx, vy))


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        return
    assert metrics["trace.absent_targets"] == 0
    sim_calls = metrics["simulator.simulate_trial.calls"] + metrics["simulator.step.calls"]
    assert (sim_calls == 0) == (workload == "solve-paper")
    assert metrics["moments.transition_moments.calls"] > 0
    # every command runs classic PI once; the benchmark's own checks are not traced
    commands = len(workloads.WORKLOADS[workload].commands)
    assert metrics["mdp.policy_evaluation_exact.calls"] == commands * metrics["mdp.pi_iterations"]
    has_sim = workload != "solve-paper"
    assert (metrics["simulator.ContinuousPlanner.command.p50_us"] > 0) == has_sim


def test_recorder_keeps_marked_results():
    rec = spans.Recorder()
    kept = spans.Target("m.build", keep_result=True)
    assert rec.call(kept, "m.build", lambda: "mesh", (), {}) == "mesh"
    rec.call(spans.Target("m.other"), "m.other", lambda: "x", (), {})
    assert rec.results == {"m.build": "mesh"}


def test_all_runs_each_workload_in_its_own_process(capsys):
    code = run.main(["--workload", "all", "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"])
    assert code == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert [line["workload"] for line in lines] == list(workloads.WORKLOADS)
    assert all(line["correct"] and line["failed"] == 0 for line in lines)


def test_host_speed_samples_the_kernel_and_restores_the_handler():
    import signal
    import statistics
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.HostSpeed(interval_s=0.01)
    assert probe.scale() == 1.0
    with probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 5
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert probe.scale() == pytest.approx(hostspeed.NOMINAL_KERNEL_S / statistics.median(probe.samples))
    assert probe.scale(len(probe.samples)) == 1.0
