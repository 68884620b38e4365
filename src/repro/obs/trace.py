"""The span tracer: low-overhead wall-clock attribution across the pipeline.

A *span* is one timed region of work — ``with span("search.round",
round=3):`` — named by a dotted path whose first segment is the subsystem
(``pipeline``, ``executor``, ``columnar``, ``search``, ``mapping``,
``service``, ``persist``, ``shm``).  The tracer records spans as plain,
picklable :class:`SpanEvent` records, so process-backend workers can ship
their events back to the coordinator inside the existing ``done`` sync
message and a single Chrome trace shows every process of a run.

Design constraints, in priority order:

1. **Disabled is (almost) free.**  Tracing is off by default; the
   instrumentation sites stay in the hot paths permanently, so the disabled
   path must cost one attribute read plus a no-op context manager —
   :data:`_NOOP_SPAN` is a shared singleton whose ``__enter__``/``__exit__``
   do nothing, and no :class:`SpanEvent`, dict or clock read is ever
   allocated.  The perf-smoke job gates this at <2% of pipeline wall-clock
   (``benchmarks/test_bench_obs.py``).
2. **Observability never perturbs determinism.**  Spans read monotonic
   clocks and the tracer's span stack only; they never touch RNG streams,
   fingerprints or cache keys.  The ``no-wallclock-in-key`` rule of
   :mod:`repro.analysis` statically enforces the second half of that
   contract, and ``tests/test_obs.py`` pins byte-identical interfaces with
   tracing on vs. off across every workload log.
3. **Bounded memory.**  The event buffer is capped (``max_events``); spans
   beyond the cap are counted in ``dropped`` instead of recorded, so a
   pathological trace degrades to a counter, not an OOM.

Timestamps are ``time.perf_counter()`` deltas re-based onto an epoch taken
at tracer construction (``time.time() - time.perf_counter()``), which keeps
within-process durations monotonic-clock accurate while letting events from
different processes land on one roughly aligned timeline in the exported
trace.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

__all__ = ["SpanEvent", "Tracer", "TRACER", "span", "trace_enabled"]

#: Environment switch: set ``REPRO_TRACE=1`` to enable tracing at import
#: time.  The CLI's ``--trace`` flag sets it so process-backend workers
#: started with the ``spawn`` method come up tracing too (``fork`` workers
#: inherit the live tracer state directly).
TRACE_ENV_VAR = "REPRO_TRACE"


@dataclass
class SpanEvent:
    """One completed span: picklable, self-describing, process-tagged."""

    name: str
    #: epoch-aligned start time in seconds (see module docstring)
    start: float
    #: span duration in seconds (monotonic-clock accurate)
    duration: float
    pid: int
    tid: int
    #: nesting depth within the tracer's span stack at entry (0 = root)
    depth: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def category(self) -> str:
        """The subsystem — the first dotted segment of the span name."""
        return self.name.split(".", 1)[0]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "cat": self.category,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "depth": self.depth,
            "attrs": dict(self.attrs),
        }


class _NoopSpan:
    """The disabled-path context manager: a shared, do-nothing singleton."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: records a :class:`SpanEvent` on exit."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self._depth = 0

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack
        self._depth = len(stack)
        stack.append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        duration = time.perf_counter() - self._start
        stack = self._tracer._stack
        if stack and stack[-1] == self.name:
            stack.pop()
        self._tracer._record(self.name, self._start, duration, self._depth, self.attrs)
        return False


class Tracer:
    """Span recorder with a no-op fast path when disabled.

    Every ``repro`` process is single-threaded, so one span stack holds the
    names of the open spans and the buffer takes no lock.
    """

    def __init__(self, max_events: int = 250_000) -> None:
        self._events: list[SpanEvent] = []
        self.dropped = 0
        self.max_events = max_events
        self.enabled = bool(os.environ.get(TRACE_ENV_VAR))
        self._stack: list[str] = []
        #: epoch aligning monotonic deltas across processes (module docstring)
        self._epoch = time.time() - time.perf_counter()

    # -- span API -----------------------------------------------------------

    def span(self, name: str, **attrs):
        """A context manager timing one region; no-op while disabled."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, attrs)

    def _record(
        self, name: str, start: float, duration: float, depth: int, attrs: dict
    ) -> None:
        event = SpanEvent(
            name=name,
            start=self._epoch + start,
            duration=duration,
            pid=os.getpid(),
            tid=threading.get_ident(),
            depth=depth,
            attrs=attrs,
        )
        if len(self._events) < self.max_events:
            self._events.append(event)
        else:
            self.dropped += 1

    # -- lifecycle ----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        self._events = []
        self.dropped = 0

    # -- event access -------------------------------------------------------

    def events(self) -> list[SpanEvent]:
        """A snapshot copy of the recorded events (record order)."""
        return list(self._events)

    def take_events(self) -> list[SpanEvent]:
        """Drain and return the recorded events (process workers ship these)."""
        events = self._events
        self._events = []
        return events

    def extend(self, events) -> None:
        """Adopt events recorded elsewhere (worker processes), respecting the cap."""
        room = self.max_events - len(self._events)
        if room >= len(events):
            self._events.extend(events)
        else:
            self._events.extend(events[:room])
            self.dropped += len(events) - max(0, room)


#: The process-wide tracer every instrumentation site records into.
TRACER = Tracer()


def span(name: str, **attrs):
    """Module-level convenience: ``with span("executor.execute"): ...``."""
    if not TRACER.enabled:
        return _NOOP_SPAN
    return _Span(TRACER, name, attrs)


def trace_enabled() -> bool:
    return TRACER.enabled
