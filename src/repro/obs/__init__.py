"""repro.obs — spans, the unified metrics registry, and trace export.

Three small modules:

* :mod:`repro.obs.trace` — the low-overhead span tracer (``with
  span("search.round", worker=w):``); a no-op singleton when disabled.
* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of named counters /
  gauges / histograms with picklable snapshots merged deterministically in
  worker order.
* :mod:`repro.obs.views` — the total field-by-field mapping from the stats
  dataclasses (``PlanStats`` / ``SearchStats`` / ``RequestStats`` /
  ``MapperStats``) onto registry metrics.
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
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import TRACE_ENV_VAR, TRACER, SpanEvent, Tracer, span, trace_enabled
from .views import (
    DETERMINISTIC_SEARCH_METRICS,
    MAPPER_STATS_EXEMPT,
    REQUEST_STATS_COUNTERS,
    REQUEST_STATS_EXEMPT,
    REQUEST_STATS_GAUGES,
    SEARCH_STATS_COUNTERS,
    SEARCH_STATS_EXEMPT,
    SEARCH_STATS_GAUGES,
    publish_mapper_stats,
    publish_plan_stats,
    publish_request_stats,
    publish_search_stats,
    registry_field_partition,
    worker_metrics_snapshot,
)

__all__ = [
    "TRACE_ENV_VAR",
    "TRACER",
    "SpanEvent",
    "Tracer",
    "span",
    "trace_enabled",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DETERMINISTIC_SEARCH_METRICS",
    "SEARCH_STATS_COUNTERS",
    "SEARCH_STATS_GAUGES",
    "SEARCH_STATS_EXEMPT",
    "REQUEST_STATS_COUNTERS",
    "REQUEST_STATS_GAUGES",
    "REQUEST_STATS_EXEMPT",
    "MAPPER_STATS_EXEMPT",
    "registry_field_partition",
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
