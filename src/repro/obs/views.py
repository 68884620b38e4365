"""Stats dataclasses as views over the metrics registry.

``PlanStats`` / ``SearchStats`` / ``RequestStats`` / ``MapperStats`` remain
the in-band collection surface (lock-free field bumps on hot paths, already
pickled through the sync protocols); this module is the single place that
maps every one of their fields onto a registry metric — or explicitly
exempts it, with the reason.  The caches keep no counters of their own:
each plan-cache, mapping-memo and reward-table lookup is counted once, in
the stats of the run that made it, and ``repro stats`` builds its hit-rate
rows from those run counters.

The maps are *total* by contract: ``tests/test_obs.py`` asserts that the
published and exempt field sets partition each dataclass exactly (mirroring
``test_every_planner_flag_partitions_the_plan_cache``), so adding a stats
field without deciding its registry story is a test failure, not silent
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

from .metrics import MetricsRegistry

__all__ = [
    "SEARCH_STATS_COUNTERS",
    "SEARCH_STATS_GAUGES",
    "SEARCH_STATS_EXEMPT",
    "REQUEST_STATS_COUNTERS",
    "REQUEST_STATS_GAUGES",
    "REQUEST_STATS_EXEMPT",
    "MAPPER_STATS_EXEMPT",
    "DETERMINISTIC_SEARCH_METRICS",
    "publish_search_stats",
    "publish_plan_stats",
    "publish_mapper_stats",
    "publish_request_stats",
    "worker_metrics_snapshot",
    "registry_field_partition",
]


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

#: field -> gauge name (point-in-time values; merge first-writer-wins)
SEARCH_STATS_GAUGES = {
    "best_reward": "search.best_reward",
    "best_iteration": "search.best_iteration",
    "early_stopped": "search.early_stopped",
    "search_seconds": "search.seconds",
    "warmup_seconds": "search.warmup_seconds",
}

#: field -> why it has no registry metric of its own
SEARCH_STATS_EXEMPT = {
    "per_worker_iterations": "list breakdown; its sum is search.iterations",
    "backend": "string label, not a quantity; exported on spans and trace metadata",
    "pool": "string label (warm/cold), mirrored by service.* counters",
    "metrics": "the per-worker registry snapshot itself (the merge payload)",
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


def publish_search_stats(stats, registry: MetricsRegistry) -> None:
    """Publish one (aggregated) ``SearchStats`` into the registry."""
    for fname, metric in sorted(SEARCH_STATS_COUNTERS.items()):
        registry.counter(metric).inc(int(getattr(stats, fname)))
    for fname, metric in sorted(SEARCH_STATS_GAUGES.items()):
        registry.gauge(metric).set(float(getattr(stats, fname)))
    if getattr(stats, "degraded", None):
        registry.counter("search.degraded").inc()


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


def publish_request_stats(stats, registry: MetricsRegistry) -> None:
    """Publish one service ``RequestStats`` (plus warm/cold request counters)."""
    for fname, metric in sorted(REQUEST_STATS_COUNTERS.items()):
        registry.counter(metric).inc(int(getattr(stats, fname)))
    for fname, metric in sorted(REQUEST_STATS_GAUGES.items()):
        registry.gauge(metric).set(float(getattr(stats, fname)))
    registry.counter("service.requests").inc()
    if stats.pool == "warm":
        registry.counter("service.requests_warm").inc()
    elif stats.pool == "cold":
        registry.counter("service.requests_cold").inc()
    degraded = getattr(stats, "degraded", None)
    if degraded:
        registry.counter(f"service.degraded_{degraded.replace('-', '_')}").inc()


# ---------------------------------------------------------------------------
# PlanStats (planner / executor) and MapperStats (Algorithm 1)
# ---------------------------------------------------------------------------

MAPPER_STATS_EXEMPT: dict = {}


def publish_plan_stats(stats, registry: MetricsRegistry, prefix: str = "executor") -> None:
    """Publish every ``PlanStats`` counter under ``<prefix>.*``."""
    for fld in dataclasses.fields(stats):
        registry.counter(f"{prefix}.{fld.name}").inc(int(getattr(stats, fld.name)))


def publish_mapper_stats(stats, registry: MetricsRegistry, prefix: str = "mapping") -> None:
    """Publish every ``MapperStats`` counter under ``<prefix>.*``."""
    for fld in dataclasses.fields(stats):
        if fld.name in MAPPER_STATS_EXEMPT:
            continue
        registry.counter(f"{prefix}.{fld.name}").inc(int(getattr(stats, fld.name)))


# ---------------------------------------------------------------------------
# worker processes
# ---------------------------------------------------------------------------


def worker_metrics_snapshot(plan_stats, mapper_stats, extra=None) -> dict:
    """One worker process's picklable registry snapshot (``workers.*``).

    Built at ``finish`` time from the worker's stats sinks, which count one
    task (the pool zeroes them at task start); ``extra`` folds in a
    persistent registry the worker kept itself (the pool's setup-cache
    counters).  The coordinator merges these snapshots in worker order, so
    the totals are deterministic — but the work they count ran over
    *per-process* caches, which is why they live in their own namespace
    instead of the ``executor.*`` / ``mapping.*`` metrics the parent
    publishes.
    """
    registry = MetricsRegistry()
    publish_plan_stats(plan_stats, registry, prefix="workers.executor")
    publish_mapper_stats(mapper_stats, registry, prefix="workers.mapping")
    if extra:
        registry.merge(extra)
    return registry.snapshot()


# ---------------------------------------------------------------------------
# completeness contract
# ---------------------------------------------------------------------------


def registry_field_partition(stats_cls, counters: dict, gauges: dict, exempt: dict):
    """``(fields, covered)`` sets for the completeness test of ``stats_cls``.

    ``covered`` is the union of the mapped and exempt field names; the test
    asserts it equals the dataclass's actual field set and that the three
    maps are pairwise disjoint.
    """
    fields = {f.name for f in dataclasses.fields(stats_cls)}
    covered = set(counters) | set(gauges) | set(exempt)
    return fields, covered
