#!/usr/bin/env python3
"""Benchmark of the ``flowplan`` CLI, run in-process on generated workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-paper --seed 1 --seconds 25 --trace 0

``--workload all`` runs every workload in turn, each in a process of its own
(so that each reports its own peak memory), and prints one JSON line each.

The run writes the workload's inputs from ``--seed``, then repeats the
workload's CLI commands until ``--seconds`` of them have run (at least two
passes), checking every artifact. Before each pass it times a few builds of
the model (``setup_s`` is the median of all of them), so that set-up is
sampled over the whole run and not in one short window. ``setup_s`` and
``command_s`` are wall times scaled to a nominal host speed by a reference
kernel timed during the same seconds (see ``hostspeed.py``); the raw wall
times are in the run record. With ``--trace 0`` it prints the end-to-end
metrics. With ``--trace 1`` it adds one traced pass and
prints the per-layer metrics; the planner-command percentiles come from one
more pass in which only that command is wrapped. The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Run metadata, the per-binding coverage table and the trace are written under
``.perfbench-runs/`` and summarised on standard error. ``--smoke`` shrinks
every workload to a tiny grid; its figures mean nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench-runs"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Set-up builds timed before each pass: with at least MIN_PASSES passes a run
# times at least 16 builds.
SETUP_REPS_PER_PASS = 8
# Every run makes at least two passes, so that every run checks that the same
# seed gives byte-identical artifacts.
MIN_PASSES = 2


@dataclass
class Op:
    command: str
    seconds: float
    problems: list[str] = field(default_factory=list)


@dataclass
class Pass:
    ops: list[Op]
    seconds: float
    hashes: dict[str, str]
    scale: float = 1.0  # host-speed scale (see hostspeed.py) over the pass
    api_policy: object = None
    diagnostics: list[dict] | None = None
    sim: object = None


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


class Runner:
    """Times the workload's set-up, keeps the model it built for the checks,
    and runs passes of the workload's commands."""

    COMMAND_TARGET = "simulator.ContinuousPlanner.command"

    def __init__(self, args, workload, cfg_path: Path, work: Path):
        from flowplan import cli, mdp

        import checks
        import hostspeed

        self.args = args
        self.workload = workload
        self.cfg_path = cfg_path
        self.work = work
        self.cli = cli
        self.checks = checks
        # Entered by the caller around the untraced measurements; the wall
        # times below exclude the time its kernel takes.
        self.probe = hostspeed.HostSpeed()
        self.setup_times: list[float] = []
        self.setup_scaled: list[float] = []
        self.cfg, self.model, self.mesh = self._build()
        self.pi = mdp.classic_policy_iteration(self.model)

    def _build(self):
        from flowplan import config, fem

        cfg = config.load_config(self.cfg_path)
        model = config.build_mdp(cfg, base_dir=self.cfg_path.parent)
        return cfg, model, fem.build_mesh(model.states, cfg.fem_k)

    def time_setup(self, reps: int) -> None:
        """Time ``reps`` builds of the workload's config, model and mesh."""
        first = len(self.probe.samples)
        times = []
        for _ in range(reps):
            spent = self.probe.spent
            start = time.perf_counter()
            self._build()
            times.append(time.perf_counter() - start - (self.probe.spent - spent))
        scale = self.probe.scale(first)
        self.setup_times += times
        self.setup_scaled += [t * scale for t in times]

    def _argv(self, command: str, out: Path) -> list[str]:
        argv = [command, "--config", str(self.cfg_path), "--out", str(out)]
        if self.workload.uses_seed:
            argv += ["--seed", str(self.args.seed)]
        return argv

    def run_pass(self, label: str, tracing=None) -> Pass:
        """Run the workload's commands once and check their artifacts. With
        ``tracing`` (a ``spans.Installation``) each command runs traced; the
        checks never do."""
        out = self.work / label
        ops: list[Op] = []
        result = Pass(ops, 0.0, {})
        first = len(self.probe.samples)
        for command in self.workload.commands:
            if tracing is not None:
                tracing.recorder.op += 1
            captured = io.StringIO()
            spent = self.probe.spent
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured), \
                        (tracing or contextlib.nullcontext()):
                    code = self.cli.main(self._argv(command, out))
            except Exception:  # a crash is a failed operation, not a failed run
                code = f"exception: {traceback.format_exc(limit=3)}"
            op = Op(command, time.perf_counter() - start - (self.probe.spent - spent))
            ops.append(op)
            if code != 0:
                op.problems.append(f"exit {code}: {captured.getvalue()[-400:]}")
                continue
            try:
                if command == "solve":
                    problems, solved = self.checks.check_solve(out, self.cfg, self.model, self.mesh, self.pi)
                    if solved is not None:
                        result.api_policy, result.diagnostics = solved.api_policy, solved.diagnostics
                else:
                    problems, result.sim = self.checks.check_simulate(out, self.cfg, self.model)
            except (OSError, ValueError, KeyError, IndexError) as exc:  # malformed artifacts
                problems = [f"unreadable artifacts: {exc!r}"]
            op.problems += problems
        result.seconds = sum(op.seconds for op in ops)
        result.scale = self.probe.scale(first)
        if out.is_dir():
            result.hashes = self.checks.hash_dir(out)
            shutil.rmtree(out)
        return result


def _per_layer(runner: Runner, passes: list[Pass], traced: Pass, recorder, install,
               sampler, diagnostics, attempted: int, failed: int) -> dict[str, float]:
    import spans

    selfs = spans.self_times(recorder.spans, recorder.aggregates)
    counts = spans.call_counts(recorder.spans, recorder.aggregates)
    values: dict[str, float] = {}
    for target in spans.TARGETS:
        values[f"{target.name}.calls"] = counts.get(target.name, 0)
        values[f"{target.name}.self_s"] = selfs.get(target.name, 0.0)
    # From the sampling pass, where no call nested in the command is wrapped.
    command_us = [1e6 * d for d in sampler.samples.get(Runner.COMMAND_TARGET, [])]
    values["simulator.ContinuousPlanner.command.p50_us"] = spans.percentile(command_us, 50)
    values["simulator.ContinuousPlanner.command.p99_us"] = spans.percentile(command_us, 99)

    def median_command(name: str) -> float:
        return _median([op.seconds for p in passes for op in p.ops if op.command == name])

    values["cli.solve_s"] = median_command("solve")
    values["cli.simulate_s"] = median_command("simulate")
    values["mdp.pi_iterations"] = runner.pi.iterations
    values["policy_iter.api_iterations"] = len(diagnostics)
    values["policy_iter.policy_changes_total"] = sum(d["policy_changes"] for d in diagnostics)
    values["fem.solve_residual_max"] = max((d["solve_residual"] for d in diagnostics), default=0.0)
    queries = counts.get("fem.ContinuousValue.evaluate", 0) + recorder.rows["fem.ContinuousValue.evaluate_many"]
    values["fem.offcover_share"] = counts.get("fem.Mesh.project", 0) / queries if queries else 0.0
    # From the last mesh the program built in the traced pass; a renamed
    # build_mesh or hessian_patches is an absent target, not a silent 0.
    patches = getattr(recorder.results.get("fem.build_mesh"), "hessian_patches", None)
    if patches is None:
        install.absent.append("fem.Mesh.hessian_patches")
    values["fem.hessian_fallback_nodes"] = (
        sum(1 for _, pinv in patches if pinv is None) if patches is not None else 0
    )
    sim = passes[0].sim
    steps = sim.steps if sim else 0
    commands = sum(
        counts.get(f"simulator.{kind}.command", 0)
        for kind in ("ContinuousPlanner", "DiscretePlanner", "GoalOrientedPlanner")
    )
    values["simulator.steps"] = steps
    values["simulator.steps_per_s"] = steps / values["cli.simulate_s"] if steps else 0.0
    values["simulator.requery_share"] = commands / steps if steps else 0.0
    values["simulator.collision_share"] = sim.collisions / sim.trials if sim else 0.0
    values["simulator.api_reach_rate"] = sim.api_reached / sim.api_trials if sim else 0.0
    values["simulator.api_time_cost_h"] = sim.api_time_cost_h if sim else 0.0
    untraced = _median([p.seconds for p in passes])
    values["trace.overhead_s"] = traced.seconds - untraced
    values["trace.overhead_share"] = (traced.seconds - untraced) / untraced
    values["trace.spans"] = len(recorder.spans)
    values["trace.absent_targets"] = len(install.absent)
    values["bench.error_rate"] = failed / attempted
    return values


def _regret(runner: Runner, first: Pass):
    """V_PI - V_API of the first pass's API policy, and its diagnostics.
    ``simulate`` writes no policy, so for a workload without ``solve`` the
    API policy that its planner flies is recomputed here, off the clock,
    with the API settings the CLI itself derives from the config."""
    from flowplan import policy_iter

    api_policy, diagnostics = first.api_policy, first.diagnostics or []
    if "solve" not in runner.workload.commands:
        api = policy_iter.approximate_policy_iteration(runner.model, runner.cli._api_config(runner.cfg))
        api_policy, diagnostics = api.policy, api.diagnostics
        if not api.converged:
            first.ops[0].problems.append("API did not converge")
    if api_policy is None:
        first.ops[0].problems.append("no API policy to evaluate")
        return None, diagnostics
    gap = runner.checks.regret(runner.model, runner.pi.values, api_policy)
    runner.checks.check_regret(first.ops[0].problems, gap)
    return gap, diagnostics


def _trace_record(recorder, install) -> dict:
    coverage = {
        target: {b: recorder.binding_calls.get(b, 0) for b in bindings}
        for target, bindings in install.bindings.items()
    }
    for target, row in coverage.items():
        print(f"coverage {target}: " + ", ".join(f"{b}={n}" for b, n in row.items()), file=sys.stderr)
    for target in install.absent:
        print(f"coverage {target}: ABSENT", file=sys.stderr)
    return {
        "absent_targets": install.absent,
        "coverage": coverage,
        "spans": [list(s) for s in sorted(recorder.spans, key=lambda s: s.start)],
        "aggregates": [
            {"parent": parent, "name": name, "calls": a.calls, "total": a.total,
             "self_s": a.self_s, "direct": a.direct}
            for (parent, name), a in recorder.aggregates.items()
        ],
    }


def run(args, name: str) -> tuple[dict, dict]:
    """Measure one workload; return the result summary and the run record."""
    import numpy as np
    import scipy

    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    work = RUNS_DIR / f"{workload.name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    record: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_caps": {var: os.environ.get(var) for var in BLAS_VARS},
    }
    print(json.dumps(record), file=sys.stderr)
    try:
        cfg_path = workloads.write_inputs(workload.name, args.seed, work / "inputs", smoke=args.smoke)
        runner = Runner(args, workload, cfg_path, work)
        passes: list[Pass] = []
        start = time.perf_counter()
        with runner.probe:
            while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                runner.time_setup(1 if args.smoke else SETUP_REPS_PER_PASS)
                passes.append(runner.run_pass(f"pass{len(passes)}"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        first = passes[0]
        for p in passes[1:]:
            differ = sorted(k for k in set(p.hashes) | set(first.hashes)
                            if p.hashes.get(k) != first.hashes.get(k))
            if differ:
                p.ops[-1].problems.append(f"artifacts differ from the first pass: {differ}")
        gap, diagnostics = _regret(runner, first)

        if args.trace:
            recorder = spans.Recorder()
            install = spans.Installation(recorder)
            traced = runner.run_pass("traced", install)
            sampler = spans.Recorder()
            passes_run = passes + [traced]
            if "simulate" in workload.commands:
                command = next(t for t in spans.TARGETS if t.name == Runner.COMMAND_TARGET)
                passes_run.append(runner.run_pass("sampled", spans.Installation(sampler, (command,))))
            for p in passes_run[len(passes):]:
                if p.hashes != first.hashes:
                    p.ops[-1].problems.append("traced artifacts differ from the untraced pass")
        else:
            passes_run = passes

        all_ops = [op for p in passes_run for op in p.ops]
        failed = sum(1 for op in all_ops if op.problems)
        for op in all_ops:
            for problem in op.problems:
                print(f"check failed ({op.command}): {problem}", file=sys.stderr)
        if args.trace:
            values = _per_layer(runner, passes, traced, recorder, install, sampler,
                                diagnostics, len(all_ops), failed)
            record.update(_trace_record(recorder, install))
        else:
            values = {
                "setup_s": _median(runner.setup_scaled),
                "command_s": _median([p.seconds * p.scale for p in passes]),
                "api_regret_mean": float(gap.mean()) if gap is not None else 0.0,
                "api_regret_max": float(gap.max()) if gap is not None else 0.0,
                "peak_rss_mb": peak_rss_mb,
            }
        record.update(
            passes=len(passes),
            pass_seconds=[p.seconds for p in passes],
            pass_scales=[p.scale for p in passes],
            probe_samples=len(runner.probe.samples),
            op_seconds=[[op.command, op.seconds] for op in all_ops],
            setup_seconds=runner.setup_times,
            setup_scaled=runner.setup_scaled,
            problems=[[op.command, op.problems] for op in all_ops if op.problems],
        )
        summary = {"correct": failed == 0, "attempted": len(all_ops), "failed": failed, "metrics": values}
        return summary, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids; checks code paths only")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "flowplan" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"flowplan sources or BENCHMARK.json not found under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"unknown workload {args.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:  # before numpy is imported
        os.environ[var] = str(nproc)
    for path in (ROOT / "src", Path(__file__).resolve().parent):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    if args.workload == "all":
        return _run_all(args, names)

    metric_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_spec}
    summary, record = run(args, args.workload)
    if set(units) != set(summary["metrics"]):
        mismatch = sorted(set(units) ^ set(summary["metrics"]))
        print(f"metrics do not match BENCHMARK.json: {mismatch}", file=sys.stderr)
        return 3
    summary["metrics"] = {
        metric: {"value": float(summary["metrics"][metric]), "unit": units[metric]}
        for metric in units
    }
    record["result"] = summary
    RUNS_DIR.mkdir(exist_ok=True)
    suffix = "-smoke" if args.smoke else ""
    (RUNS_DIR / f"{args.workload}-s{args.seed}-t{args.trace}{suffix}.json").write_text(json.dumps(record))
    print(json.dumps(summary))
    return 0


def _run_all(args, names: list[str]) -> int:
    """Run each workload in a child process of its own and print its result
    line tagged with the workload's name."""
    status = 0
    for name in names:
        child = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *child],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            status = status or proc.returncode or 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}))
    return status


if __name__ == "__main__":
    sys.exit(main())
