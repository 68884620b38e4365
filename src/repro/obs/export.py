"""Exporters: JSONL event logs, Chrome ``trace_event`` JSON, stats tables.

Two on-disk formats, one reader:

* **JSONL** — one JSON object per line; ``{"type": "span", ...}`` records
  (the :meth:`SpanEvent.as_dict` shape) followed by a single trailing
  ``{"type": "metrics", "metrics": {...}}`` record.  Grep/jq-friendly and
  append-safe.
* **Chrome trace** — the ``trace_event`` format chrome://tracing and
  Perfetto load directly: complete (``"ph": "X"``) events with microsecond
  ``ts``/``dur``, real ``pid``/``tid`` so each worker process gets its own
  track, and the run's metrics dict embedded under ``metadata.metrics``.

:func:`read_trace` auto-detects either format, so ``repro stats`` works on
both.  :func:`phase_attribution` turns a span list into the
parse → plan → execute → map → reward → sync wall-clock breakdown using
*self time* (each span's duration minus its direct children's), so nested
instrumentation — ``executor.execute`` wrapping ``executor.plan`` wrapping
nothing — never double-counts.
"""

from __future__ import annotations

import json
from typing import Optional

from .trace import SpanEvent

__all__ = [
    "PHASES",
    "SPAN_PHASES",
    "span_phase",
    "phase_attribution",
    "cache_hit_rates",
    "write_jsonl",
    "write_chrome_trace",
    "read_trace",
]

#: Pipeline phases in execution order (the ``repro stats`` table rows).
PHASES = ("parse", "plan", "execute", "map", "reward", "sync", "cache", "other")

#: span name -> phase.  Names absent here fall back to their subsystem
#: category, then to "other" — attribution must be total over any event set.
SPAN_PHASES = {
    "pipeline.parse": "parse",
    "pipeline.plan": "plan",
    "executor.plan": "plan",
    "executor.execute": "execute",
    "columnar.execute": "execute",
    "pipeline.map": "map",
    "mapping.generate": "map",
    "search.reward": "reward",
    "search.sync": "sync",
    "persist.load": "cache",
    "persist.save": "cache",
    "shm.register": "cache",
    "shm.attach": "cache",
}

#: subsystem category -> phase, for span names without an exact entry.
_CATEGORY_PHASES = {
    "executor": "execute",
    "columnar": "execute",
    "mapping": "map",
    "persist": "cache",
    "shm": "cache",
}


def span_phase(name: str) -> str:
    phase = SPAN_PHASES.get(name)
    if phase is not None:
        return phase
    return _CATEGORY_PHASES.get(name.split(".", 1)[0], "other")


def _self_times(events: list[SpanEvent]) -> list[float]:
    """Per-event self time: duration minus direct children's durations.

    Children are detected per (pid, tid) track by interval containment —
    events are sorted by start (ties: outermost first) and walked with an
    enclosing-span stack, the same reconstruction a trace viewer performs.
    """
    order = sorted(
        range(len(events)),
        key=lambda i: (
            events[i].pid,
            events[i].tid,
            events[i].start,
            -events[i].duration,
        ),
    )
    self_times = [e.duration for e in events]
    stack: list[int] = []  # indices of currently open enclosing spans
    track = None
    for i in order:
        ev = events[i]
        if (ev.pid, ev.tid) != track:
            track = (ev.pid, ev.tid)
            stack = []
        while stack:
            top = events[stack[-1]]
            if top.start + top.duration <= ev.start:
                stack.pop()
            else:
                break
        if stack:
            self_times[stack[-1]] -= ev.duration
        stack.append(i)
    return [max(0.0, s) for s in self_times]


def phase_attribution(events: list[SpanEvent]) -> dict:
    """``{phase: seconds}`` of self time, every phase present (0.0 if unused)."""
    totals = {phase: 0.0 for phase in PHASES}
    for event, self_time in zip(events, _self_times(events)):
        totals[span_phase(event.name)] += self_time
    return totals


#: ``repro stats`` hit-rate rows: (row, hits counter, misses counter), all
#: counters the run itself published; a plan-cache miss is a compile and a
#: reward-table miss is an evaluation
CACHE_ROWS = (
    ("plan", "executor.plan_cache_hits", "executor.plans_compiled"),
    ("memo", "mapping.memo_hits", "mapping.memo_misses"),
    ("rewards", "search.reward_table_hits", "search.states_evaluated"),
    ("persisted", "persist.loads", "persist.misses"),
)


def cache_hit_rates(metrics: dict) -> list[dict]:
    """Hit-rate rows built from the run's own counters (:data:`CACHE_ROWS`).

    ``metrics`` is a run's flat ``{name: value}`` dict
    (``PipelineResult.metrics``).  A row appears when either of its counters is present; process
    workers' ``workers.``-prefixed twins get ``workers.<row>`` rows.
    """
    rows = []
    for prefix in ("", "workers."):
        for cache, hits_name, misses_name in CACHE_ROWS:
            hits_name, misses_name = prefix + hits_name, prefix + misses_name
            if hits_name not in metrics and misses_name not in metrics:
                continue
            hits = int(metrics.get(hits_name, 0) or 0)
            misses = int(metrics.get(misses_name, 0) or 0)
            total = hits + misses
            rows.append(
                {
                    "cache": prefix + cache,
                    "hits": hits,
                    "misses": misses,
                    "rate": (hits / total) if total else None,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def write_jsonl(path, events: list[SpanEvent], metrics: Optional[dict] = None) -> None:
    """One span record per line, then one trailing metrics record."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            record = {"type": "span"}
            record.update(event.as_dict())
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        fh.write(
            json.dumps({"type": "metrics", "metrics": metrics or {}}, sort_keys=True)
            + "\n"
        )


def write_chrome_trace(
    path,
    events: list[SpanEvent],
    metrics: Optional[dict] = None,
    metadata: Optional[dict] = None,
) -> None:
    """Chrome ``trace_event`` JSON: complete events + named process tracks."""
    trace_events: list[dict] = []
    seen_pids: list[int] = []
    for event in events:
        if event.pid not in seen_pids:
            seen_pids.append(event.pid)
    for index, pid in enumerate(seen_pids):
        label = "coordinator" if index == 0 else f"worker pid={pid}"
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
    for event in events:
        # depth rides as a reserved arg so the round-trip through the Chrome
        # format is lossless (viewers just show it next to the span's attrs)
        args = dict(event.attrs)
        args["depth"] = event.depth
        trace_events.append(
            {
                "name": event.name,
                "cat": event.category,
                "ph": "X",
                "ts": event.start * 1e6,
                "dur": event.duration * 1e6,
                "pid": event.pid,
                "tid": event.tid,
                "args": args,
            }
        )
    doc = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "metadata": dict(metadata or {}),
    }
    doc["metadata"]["metrics"] = dict(metrics or {})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# reader (repro stats)
# ---------------------------------------------------------------------------


def _event_from_record(record: dict) -> SpanEvent:
    return SpanEvent(
        name=record["name"],
        start=record["start"],
        duration=record["duration"],
        pid=record.get("pid", 0),
        tid=record.get("tid", 0),
        depth=record.get("depth", 0),
        attrs=dict(record.get("attrs", {})),
    )


def read_trace(path) -> tuple[list[SpanEvent], dict]:
    """Load ``(events, metrics)`` from either export format (auto-detected)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    doc = None
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        parsed = None  # multiple lines -> JSONL
    if isinstance(parsed, dict) and "traceEvents" in parsed:
        doc = parsed
    if doc is not None:
        events = []
        for raw in doc.get("traceEvents", []):
            if raw.get("ph") != "X":
                continue
            args = dict(raw.get("args", {}))
            depth = args.pop("depth", 0)
            events.append(
                SpanEvent(
                    name=raw["name"],
                    start=raw["ts"] / 1e6,
                    duration=raw["dur"] / 1e6,
                    pid=raw.get("pid", 0),
                    tid=raw.get("tid", 0),
                    depth=int(depth),
                    attrs=args,
                )
            )
        metrics = dict(doc.get("metadata", {}).get("metrics", {}))
        return events, metrics
    events = []
    metrics: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        if record.get("type") == "span":
            events.append(_event_from_record(record))
        elif record.get("type") == "metrics":
            metrics = dict(record.get("metrics", {}))
    return events, metrics
