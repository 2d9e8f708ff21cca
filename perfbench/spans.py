"""Span recorder for the traced benchmark run.

Every traced function is wrapped at each name binding through which the
package calls it (``policy_iter.transition_moments`` and
``moments.transition_moments`` are two bindings of one function; a method is
bound once, on its class). A call to a *span* function records a span
(name, start, end, parent span, operation id); calls to *hot* functions are
aggregated per enclosing span into a count, total and self time, so that
per-state and per-step leaves do not flood memory. Everything stays in memory
until the run writes it out.

A target that no longer exists (renamed or deleted by a later change) is
reported as absent rather than failing the run, and the per-binding call
counts show a function that moved behind a new binding as a missing layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

PACKAGE = "flowplan"
MODULES = ("config", "flowfield", "mdp", "moments", "fem", "policy_iter", "simulator", "cli")


@dataclass(frozen=True)
class Target:
    """``name`` is ``<module>.<function>`` or ``<module>.<Class>.<method>``."""

    name: str
    hot: bool = False
    sample: bool = False  # keep every call's duration (for percentiles)
    rows_arg: int | None = None  # positional argument whose length is counted
    keep_result: bool = False  # keep the last call's return value


TARGETS = (
    Target("cli.cmd_solve"),
    Target("cli.cmd_simulate"),
    Target("config.load_config"),
    Target("config.build_field"),
    Target("config.build_mdp"),
    Target("flowfield.load_grid_field"),
    Target("flowfield.field_velocity", hot=True),
    Target("mdp.build_model"),
    Target("mdp.classic_policy_iteration"),
    Target("mdp.policy_evaluation_exact"),
    Target("mdp.StateSpace.state_at", hot=True),
    Target("mdp.write_value_csv"),
    Target("mdp.write_policy_csv"),
    Target("moments.transition_moments", hot=True),
    Target("moments.assemble_coefficients"),
    Target("moments.write_coefficients_csv"),
    Target("fem.build_mesh", keep_result=True),
    Target("fem.assemble"),
    Target("fem.constrain_goal"),
    Target("fem.solve"),
    Target("fem.element_peclet"),
    Target("fem.Mesh.covers", hot=True),
    Target("fem.Mesh.locate", hot=True),
    Target("fem.Mesh.locate_many"),
    Target("fem.Mesh.project", hot=True),
    Target("fem.Mesh.nearest_node", hot=True),
    Target("fem.ContinuousValue.evaluate", hot=True),
    Target("fem.ContinuousValue.evaluate_many", rows_arg=1),
    Target("fem.ContinuousValue.gradient", hot=True),
    Target("fem.ContinuousValue.hessian", hot=True),
    Target("fem.write_mesh_csv"),
    Target("fem.write_raster_csv"),
    Target("policy_iter.approximate_policy_iteration"),
    Target("policy_iter.evaluate_policy_fem"),
    Target("policy_iter.improve_policy_continuous"),
    Target("policy_iter.project_wall_tangential"),
    Target("simulator.run_experiment"),
    Target("simulator.simulate_trial"),
    Target("simulator.step", hot=True),
    Target("simulator.ContinuousPlanner.command", hot=True, sample=True),
    Target("simulator.DiscretePlanner.command", hot=True),
    Target("simulator.GoalOrientedPlanner.command", hot=True),
    Target("simulator.write_trajectories_csv"),
    Target("simulator.write_stats_csv"),
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


@dataclass
class Aggregate:
    """Hot calls of one function under one enclosing span. ``direct`` is the
    time of the calls made straight from that span (not from inside another
    hot call), which is the part of the span's interval they cover."""

    calls: int = 0
    total: float = 0.0
    self_s: float = 0.0
    direct: float = 0.0


class _Frame:
    __slots__ = ("child", "span")

    def __init__(self, span: int | None):
        self.child = 0.0
        self.span = span  # None for a hot call


@dataclass
class Recorder:
    clock: Callable[[], float] = time.perf_counter
    op: int = 0
    spans: list[Span] = field(default_factory=list)
    aggregates: dict[tuple[int | None, str], Aggregate] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    rows: Counter = field(default_factory=Counter)
    binding_calls: Counter = field(default_factory=Counter)
    results: dict[str, object] = field(default_factory=dict)
    _stack: list[_Frame] = field(default_factory=list)
    _next_id: int = 0

    def _enclosing_span(self) -> int | None:
        for frame in reversed(self._stack):
            if frame.span is not None:
                return frame.span
        return None

    def call(self, target: Target, binding: str, fn, args, kwargs):
        self.binding_calls[binding] += 1
        if target.rows_arg is not None and len(args) > target.rows_arg:
            self.rows[target.name] += len(args[target.rows_arg])
        parent_frame = self._stack[-1] if self._stack else None
        enclosing = self._enclosing_span()
        span_id = None
        # Below a hot call everything is aggregated, so that no interval is
        # subtracted both from the hot call and from the enclosing span.
        if not target.hot and (parent_frame is None or parent_frame.span is not None):
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(span_id)
        self._stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
            if target.keep_result:
                self.results[target.name] = result
            return result
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            if parent_frame is not None:
                parent_frame.child += duration
            if span_id is not None:
                self.spans.append(Span(span_id, target.name, start, end, enclosing, self.op))
            else:
                agg = self.aggregates.get((enclosing, target.name))
                if agg is None:
                    agg = self.aggregates[(enclosing, target.name)] = Aggregate()
                agg.calls += 1
                agg.total += duration
                agg.self_s += duration - frame.child
                if parent_frame is None or parent_frame.span is not None:
                    agg.direct += duration
                if target.sample:
                    self.samples[target.name].append(duration)


def self_times(spans: list[Span], aggregates: dict[tuple[int | None, str], Aggregate]) -> dict[str, float]:
    """Self time per name: a span's duration minus the part of it that its
    child spans and the hot calls made directly from it cover; a hot
    function's self time was measured the same way, call by call."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    for (parent, _), agg in aggregates.items():
        if parent is not None:
            covered[parent] += agg.direct
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - covered[s.id]
    for (_, name), agg in aggregates.items():
        out[name] += agg.self_s
    return dict(out)


def call_counts(spans: list[Span], aggregates: dict[tuple[int | None, str], Aggregate]) -> Counter:
    counts: Counter = Counter(s.name for s in spans)
    for (_, name), agg in aggregates.items():
        counts[name] += agg.calls
    return counts


def _module(name: str):
    try:
        return importlib.import_module(f"{PACKAGE}.{name}")
    except ModuleNotFoundError:
        return None


def _resolve(target: Target):
    """The function object behind ``target.name`` and the object that owns
    it (a module or class), or None when it no longer exists."""
    module_name, *path = target.name.split(".")
    owner = _module(module_name)
    if owner is None:
        return None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
        if not isinstance(owner, type):
            return None
    fn = vars(owner).get(path[-1])
    return (owner, fn) if callable(fn) and hasattr(fn, "__code__") else None


class Installation:
    """Wrappers for every binding of every target. Entering the installation
    puts them in place; leaving it restores the original functions, so that
    only the code inside the ``with`` block is traced."""

    def __init__(self, recorder: Recorder, targets=TARGETS):
        self.recorder = recorder
        self.absent: list[str] = []
        self.bindings: dict[str, list[str]] = {}
        self._sites: list[tuple[object, str, object, object]] = []
        modules = [m for m in map(_module, MODULES) if m is not None]
        for target in targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(target.name)
                continue
            owner, fn = found
            if isinstance(owner, type):
                sites = [(owner, target.name.rsplit(".", 1)[1], target.name)]
            else:
                sites = [
                    (m, attr, f"{m.__name__.split('.', 1)[1]}.{attr}")
                    for m in modules
                    for attr, value in vars(m).items()
                    if value is fn
                ]
            self.bindings[target.name] = [binding for _, _, binding in sites]
            for owner_obj, attr, binding in sites:
                self._sites.append((owner_obj, attr, fn, _wrap(recorder, target, binding, fn)))

    def __enter__(self) -> "Installation":
        for owner, attr, _, wrapper in self._sites:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn, _ in reversed(self._sites):
            setattr(owner, attr, fn)


def _wrap(recorder: Recorder, target: Target, binding: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return recorder.call(target, binding, fn, args, kwargs)

    return traced


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
