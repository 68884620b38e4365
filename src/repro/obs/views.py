"""A run's metrics: one flat ``{name: number}`` dict, published from the stats.

``PlanStats`` / ``SearchStats`` / ``RequestStats`` / ``MapperStats`` are
the in-band collection surface (plain field bumps on hot paths, already
pickled through the sync protocols); this module is the single place that
names every one of their fields as a metric — or explicitly exempts it,
with the reason.  The ``publish_*`` functions write a stats object's
counters into a metrics dict as ints and its gauges as floats, and
:func:`add_counts` adds one dict of counts into another name by name,
wherever per-worker or per-layer counts meet (the per-worker snapshots,
the pipeline's run metrics, the service's request metrics).  The caches
keep no counters of their own: each plan-cache, mapping-memo and
reward-table lookup is counted once, in the stats of the run that made it,
and ``repro stats`` builds its hit-rate rows from those run counters.

The maps are *total* by contract: ``tests/test_obs.py`` asserts that the
published and exempt field sets partition each dataclass exactly, so adding
a stats field without deciding its metric is a test failure, not silent
per-worker drift.

``DETERMINISTIC_SEARCH_METRICS`` names the search metrics whose merged
totals are a pure function of (seed, workload, worker count) — equal across
the serial and process backends on pinned seeds.  Wall-clock gauges
and cache-shape counters are deliberately outside that set: per-process
caches make e.g. ``plans_compiled`` backend-dependent even though results
are byte-identical.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

__all__ = [
    "SEARCH_STATS_COUNTERS",
    "SEARCH_STATS_GAUGES",
    "SEARCH_STATS_EXEMPT",
    "REQUEST_STATS_COUNTERS",
    "REQUEST_STATS_GAUGES",
    "REQUEST_STATS_EXEMPT",
    "DETERMINISTIC_SEARCH_METRICS",
    "add_counts",
    "publish_search_stats",
    "publish_plan_stats",
    "publish_mapper_stats",
    "publish_request_stats",
    "worker_metrics_snapshot",
]


def add_counts(into: dict, *counts: Optional[dict]) -> dict:
    """Add each ``counts`` dict into ``into``, name by name; returns ``into``.

    A name missing from ``into`` starts at 0, so ints stay ints.  Addition
    is order-free, so per-worker dicts add up to the same totals however
    the workers were scheduled.
    """
    for more in counts:
        for name, value in (more or {}).items():
            into[name] = into.get(name, 0) + value
    return into


# ---------------------------------------------------------------------------
# SearchStats
# ---------------------------------------------------------------------------

#: field -> counter name (monotone totals; merge by addition)
SEARCH_STATS_COUNTERS = {
    "iterations": "search.iterations",
    "states_evaluated": "search.states_evaluated",
    "rule_applications": "search.rule_applications",
    "reward_cache_hits": "search.reward_cache_hits",
    "rewards_seeded": "search.rewards_seeded",
    "reward_table_hits": "search.reward_table_hits",
    "reward_table_loaded": "search.reward_table_loaded",
    "sync_rounds": "search.sync_rounds",
}

#: field -> gauge name (point-in-time values of the aggregate stats)
SEARCH_STATS_GAUGES = {
    "best_reward": "search.best_reward",
    "best_iteration": "search.best_iteration",
    "early_stopped": "search.early_stopped",
    "search_seconds": "search.seconds",
    "warmup_seconds": "search.warmup_seconds",
}

#: field -> why it has no metric of its own
SEARCH_STATS_EXEMPT = {
    "per_worker_iterations": "list breakdown; its sum is search.iterations",
    "backend": "string label, not a quantity; exported on spans and trace metadata",
    "pool": "string label (warm/cold), mirrored by service.* counters",
    "metrics": "the per-worker metrics dict itself (the merge payload)",
    "spans": "per-worker span events shipped to the coordinator tracer",
    "degraded": "string rung label; counted via the search.degraded counter",
}

#: search metrics whose merged totals are deterministic across backends on a
#: pinned seed (trajectory identity — the cross-process aggregation test
#: compares exactly these between serial and process runs)
DETERMINISTIC_SEARCH_METRICS = frozenset(
    {
        "search.iterations",
        "search.states_evaluated",
        "search.rule_applications",
        "search.reward_cache_hits",
        "search.rewards_seeded",
        "search.reward_table_hits",
        "search.sync_rounds",
        "search.best_reward",
        "search.best_iteration",
        "search.early_stopped",
    }
)


def _publish(stats, metrics: dict, counters: dict, gauges: dict) -> None:
    """Write ``stats``' mapped fields: counters as ints, gauges as floats."""
    for fname, name in counters.items():
        metrics[name] = int(getattr(stats, fname))
    for fname, name in gauges.items():
        metrics[name] = float(getattr(stats, fname))


def publish_search_stats(stats, metrics: dict) -> None:
    """Write one (aggregated) ``SearchStats`` into ``metrics``."""
    _publish(stats, metrics, SEARCH_STATS_COUNTERS, SEARCH_STATS_GAUGES)
    if getattr(stats, "degraded", None):
        metrics["search.degraded"] = 1


# ---------------------------------------------------------------------------
# RequestStats (service layer)
# ---------------------------------------------------------------------------

REQUEST_STATS_COUNTERS = {
    "reward_table_loaded": "service.reward_table_loaded",
    "reward_table_hits": "service.reward_table_hits",
    "retries": "service.retries",
    "workers_replaced": "service.workers_replaced",
    "deadline_exceeded": "service.deadline_exceeded",
}

REQUEST_STATS_GAUGES = {
    "seconds": "service.request_seconds",
    "warmup_seconds": "service.warmup_seconds",
}

REQUEST_STATS_EXEMPT = {
    "pool": "string label; counted via service.requests_warm / service.requests_cold",
    "backend": "string label, not a quantity",
    "degraded": "string rung label; counted via service.degraded_fresh_pool "
    "/ service.degraded_serial",
}


def publish_request_stats(stats, metrics: dict) -> None:
    """Write one service ``RequestStats`` (plus warm/cold request counters)."""
    _publish(stats, metrics, REQUEST_STATS_COUNTERS, REQUEST_STATS_GAUGES)
    metrics["service.requests"] = 1
    if stats.pool == "warm":
        metrics["service.requests_warm"] = 1
    elif stats.pool == "cold":
        metrics["service.requests_cold"] = 1
    degraded = getattr(stats, "degraded", None)
    if degraded:
        metrics[f"service.degraded_{degraded.replace('-', '_')}"] = 1


# ---------------------------------------------------------------------------
# PlanStats (planner / executor) and MapperStats (Algorithm 1)
# ---------------------------------------------------------------------------


def publish_plan_stats(stats, metrics: dict, prefix: str = "executor") -> None:
    """Write every ``PlanStats`` counter under ``<prefix>.*``."""
    for fld in dataclasses.fields(stats):
        metrics[f"{prefix}.{fld.name}"] = int(getattr(stats, fld.name))


def publish_mapper_stats(stats, metrics: dict, prefix: str = "mapping") -> None:
    """Write every ``MapperStats`` counter under ``<prefix>.*``."""
    for fld in dataclasses.fields(stats):
        metrics[f"{prefix}.{fld.name}"] = int(getattr(stats, fld.name))


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


def worker_metrics_snapshot(plan_stats, mapper_stats, extra=None) -> dict:
    """One worker process's metrics for one task (``workers.*``).

    Built at ``finish`` time from the worker's stats sinks, which count one
    task (the pool zeroes them at task start); ``extra`` adds the counts the
    pool worker kept for the same task (its setup-cache counters).  The
    coordinator adds these dicts up; the work they count ran over
    *per-process* caches, which is why it lives in its own namespace
    instead of the ``executor.*`` / ``mapping.*`` metrics the parent
    publishes.
    """
    metrics: dict = {}
    publish_plan_stats(plan_stats, metrics, prefix="workers.executor")
    publish_mapper_stats(mapper_stats, metrics, prefix="workers.mapping")
    return add_counts(metrics, extra)
