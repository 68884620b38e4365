"""repro.obs — spans, a run's metrics, and trace export.

Three small modules:

* :mod:`repro.obs.trace` — the low-overhead span tracer (``with
  span("search.round", worker=w):``); a no-op singleton when disabled.
* :mod:`repro.obs.views` — a run's metrics as one flat ``{name: number}``
  dict: the total field-by-field mapping from the stats dataclasses
  (``PlanStats`` / ``SearchStats`` / ``RequestStats`` / ``MapperStats``)
  onto metric names, the ``publish_*`` writers, and :func:`add_counts`,
  which adds per-worker and per-layer counts name by name.
* :mod:`repro.obs.export` — JSONL and Chrome ``trace_event`` writers, the
  reader behind ``repro stats``, and phase/self-time attribution.
"""

from .export import (
    PHASES,
    cache_hit_rates,
    phase_attribution,
    read_trace,
    span_phase,
    write_chrome_trace,
    write_jsonl,
)
from .trace import TRACE_ENV_VAR, TRACER, SpanEvent, Tracer, span, trace_enabled
from .views import (
    DETERMINISTIC_SEARCH_METRICS,
    REQUEST_STATS_COUNTERS,
    REQUEST_STATS_EXEMPT,
    REQUEST_STATS_GAUGES,
    SEARCH_STATS_COUNTERS,
    SEARCH_STATS_EXEMPT,
    SEARCH_STATS_GAUGES,
    add_counts,
    publish_mapper_stats,
    publish_plan_stats,
    publish_request_stats,
    publish_search_stats,
    worker_metrics_snapshot,
)

__all__ = [
    "TRACE_ENV_VAR",
    "TRACER",
    "SpanEvent",
    "Tracer",
    "span",
    "trace_enabled",
    "DETERMINISTIC_SEARCH_METRICS",
    "SEARCH_STATS_COUNTERS",
    "SEARCH_STATS_GAUGES",
    "SEARCH_STATS_EXEMPT",
    "REQUEST_STATS_COUNTERS",
    "REQUEST_STATS_GAUGES",
    "REQUEST_STATS_EXEMPT",
    "add_counts",
    "publish_search_stats",
    "publish_plan_stats",
    "publish_mapper_stats",
    "publish_request_stats",
    "worker_metrics_snapshot",
    "PHASES",
    "span_phase",
    "phase_attribution",
    "cache_hit_rates",
    "write_jsonl",
    "write_chrome_trace",
    "read_trace",
]
