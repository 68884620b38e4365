"""Per-layer timing for the traced run, recorded from outside the program.

:func:`install` wraps each layer's public entry points; nothing inside
``src/`` changes.  A wrapper times its call, subtracts the time of the
layer calls nested inside it (self time = duration minus children) and adds
both to per-process totals.  Calls nested inside another call of the same
group (``cost``, ``transform``, or the same entry point, e.g. subquery
executions) are only counted: their time already belongs to the outer call.

Why totals instead of one ``repro.obs`` span per call: one Filter request
makes ~700k layer calls, which overflows the tracer's 250k-event buffer and
nearly doubles the request time.  Pool workers are forked after the
wrappers are installed, so they inherit them; each worker turns its totals
into one summary ``SpanEvent`` per entry point when the program drains its
tracer at the end of a search task, and the program's worker-to-coordinator
span channel brings those back.  :func:`drain` collects the parent's totals
plus the workers' summaries.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

from repro.obs.trace import SpanEvent, Tracer

PREFIX = "layer:"

#: CostModel's public methods (their self time is ``cost.busy_s``)
_COST_METHODS = (
    "widget_manipulation_cost",
    "interaction_manipulation_cost",
    "mapping_cost",
    "query_plan",
    "manipulation_sequence",
    "manipulation_cost",
    "navigation_cost",
    "layout_penalty",
    "cost",
    "total_cost",
)

_TRANSFORM_METHODS = ("applications", "apply", "refactor_to_fixpoint", "covers_all_queries")

#: groups whose nested calls are counted but not timed separately
_GROUPED = ("cost", "transform")


def _targets():
    """(owner, attribute, entry-point name) for every wrapped function."""
    from repro.core import pipeline
    from repro.cost.model import CostModel
    from repro.database.executor import Executor
    from repro.database.planner import Planner
    from repro.interface.runtime import InterfaceRuntime
    from repro.mapping.mapper import InterfaceMapper
    from repro.search.mcts import MCTSWorker
    from repro.service import service
    from repro.service.pool import WorkerPool
    from repro.service.shm import SharedCatalogRegistry
    from repro.transform.engine import TransformEngine

    targets = [
        (pipeline, "parse_queries", "sqlparser.parse_queries"),
        (service, "parse_queries", "sqlparser.parse_queries"),
        (pipeline, "initial_difftrees", "difftree.initial_difftrees"),
        (pipeline, "cluster_by_result_schema", "difftree.cluster_by_result_schema"),
        (pipeline, "merge_difftrees", "difftree.merge_difftrees"),
        (pipeline, "parallel_search", "search.parallel_search"),
        # the worker-side root of search work (workers run no parallel_search)
        (MCTSWorker, "run_iteration", "search.run_iteration"),
        (InterfaceMapper, "generate", "mapping.generate"),
        (InterfaceMapper, "random_interfaces", "mapping.random_interfaces"),
        (Executor, "execute", "database.execute"),
        (Planner, "plan", "database.plan"),
        (InterfaceRuntime, "replay_query", "interface.replay_query"),
        (service.GenerationService, "generate", "service.generate"),
        (pipeline, "generate_interface", "pipeline.generate_interface"),
        (service, "generate_interface", "pipeline.generate_interface"),
        (WorkerPool, "__init__", "service.pool_init"),
        (WorkerPool, "run_task", "service.run_task"),
        (SharedCatalogRegistry, "register", "service.shm_register"),
    ]
    targets += [(TransformEngine, m, f"transform.{m}") for m in _TRANSFORM_METHODS]
    targets += [(CostModel, m, f"cost.{m}") for m in _COST_METHODS]
    return targets


@dataclass
class Totals:
    """Per entry point: self seconds, outermost inclusive seconds, calls."""

    self_s: dict
    inclusive_s: dict
    calls: dict

    def busy(self, layer: str) -> float:
        """Self seconds of every entry point of ``layer``."""
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)


class _Accumulator:
    """This process's running totals (reset by every drain)."""

    def __init__(self) -> None:
        self.local = threading.local()
        self.reset()

    def reset(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.inclusive_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def take(self) -> Totals:
        totals = Totals(dict(self.self_s), dict(self.inclusive_s), dict(self.calls))
        self.reset()
        return totals


_ACC = _Accumulator()


def _forget_parent_totals() -> None:
    """A forked worker starts from zero: its parent's totals are not its own."""
    _ACC.reset()
    _ACC.local = threading.local()


os.register_at_fork(after_in_child=_forget_parent_totals)


def _wrapped(fn, name: str):
    group = name.split(".", 1)[0]
    if group not in _GROUPED:
        group = name

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        _ACC.calls[name] += 1
        stack = _ACC.stack()
        if stack and stack[-1][1] == group:
            return fn(*args, **kwargs)
        frame = [name, group, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            _ACC.self_s[name] += elapsed - frame[2]
            if stack:
                stack[-1][2] += elapsed
            if all(f[0] != name for f in stack):
                _ACC.inclusive_s[name] += elapsed

    return timed


def _take_events_with_totals(original, main_pid: int):
    """``Tracer.take_events`` that first appends a worker's layer totals."""

    @functools.wraps(original)
    def take_events(tracer):
        if os.getpid() != main_pid:
            totals = _ACC.take()
            tracer.extend(
                [
                    SpanEvent(
                        name=PREFIX + name,
                        start=0.0,
                        duration=totals.self_s.get(name, 0.0),
                        pid=os.getpid(),
                        tid=threading.get_ident(),
                        attrs={
                            "calls": calls,
                            "inclusive_s": totals.inclusive_s.get(name, 0.0),
                        },
                    )
                    for name, calls in sorted(totals.calls.items())
                ]
            )
        return original(tracer)

    return take_events


def install() -> list:
    """Wrap every target; returns the originals for :func:`uninstall`."""
    originals = []
    for owner, attr, name in _targets():
        fn = owner.__dict__[attr]
        originals.append((owner, attr, fn))
        setattr(owner, attr, _wrapped(fn, name))
    original = Tracer.__dict__["take_events"]
    originals.append((Tracer, "take_events", original))
    Tracer.take_events = _take_events_with_totals(original, os.getpid())
    _ACC.reset()
    return originals


def uninstall(originals: list) -> None:
    for owner, attr, fn in reversed(originals):
        setattr(owner, attr, fn)


def drain(events) -> tuple[Totals, Totals]:
    """(this process's totals, all processes' totals); resets this process's.

    Other processes' totals are the summary events in ``events``.
    """
    own = _ACC.take()
    self_s = defaultdict(float, own.self_s)
    inclusive_s = defaultdict(float, own.inclusive_s)
    calls = defaultdict(int, own.calls)
    for event in events:
        if event.name.startswith(PREFIX):
            name = event.name[len(PREFIX):]
            self_s[name] += event.duration
            inclusive_s[name] += event.attrs["inclusive_s"]
            calls[name] += event.attrs["calls"]
    return own, Totals(dict(self_s), dict(inclusive_s), dict(calls))
