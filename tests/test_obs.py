"""repro.obs: tracer, metrics registry, views, exporters, and the contracts.

The two load-bearing guarantees, each pinned here:

* **Observability never perturbs results** — interfaces are byte-identical
  with tracing on vs. off across every workload log (the dynamic backstop of
  the ``no-wallclock-in-key`` static rule).
* **Per-worker snapshots merge deterministically** — the process backend
  with 2+ workers reports the same ``DETERMINISTIC_SEARCH_METRICS`` totals
  as the serial backend on pinned seeds.

Plus the completeness contract: every ``SearchStats`` / ``RequestStats``
field is registry-backed or explicitly exempted (mirroring
``test_every_planner_flag_partitions_the_plan_cache``).
"""

import dataclasses
import json

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import generate_for_workload
from repro.database import standard_catalog
from repro.database.planner import PlanStats
from repro.mapping.mapper import MapperStats
from repro.obs import (
    DETERMINISTIC_SEARCH_METRICS,
    MAPPER_STATS_EXEMPT,
    REQUEST_STATS_COUNTERS,
    REQUEST_STATS_EXEMPT,
    REQUEST_STATS_GAUGES,
    SEARCH_STATS_COUNTERS,
    SEARCH_STATS_EXEMPT,
    SEARCH_STATS_GAUGES,
    TRACER,
    MetricsRegistry,
    SpanEvent,
    Tracer,
    cache_hit_rates,
    phase_attribution,
    publish_mapper_stats,
    publish_plan_stats,
    read_trace,
    registry_field_partition,
    write_chrome_trace,
    write_jsonl,
)
from repro.search.backends import BACKEND_ENV_VAR
from repro.search.config import SearchStats
from repro.service.service import RequestStats
from repro.workloads import WORKLOADS


@pytest.fixture(autouse=True)
def _clean_tracer(monkeypatch):
    """Each test starts with a disabled, empty tracer and a free backend choice."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    TRACER.disable()
    TRACER.clear()
    yield
    TRACER.disable()
    TRACER.clear()


def _backend_config(backend: str, workers: int = 2, seed: int = 5):
    config = PipelineConfig.fast(seed=seed)
    config.search.max_iterations = 24
    config.search.early_stop = 12
    config.search.backend = backend
    config.search.workers = workers
    # reward-table hit timing is scheduling-dependent across processes; the
    # deterministic-totals contract is about trajectory identity
    config.search.shared_rewards = False
    return config


def _interface_signature(result) -> str:
    return json.dumps(result.interface.to_dict(), sort_keys=True, default=str)


# -- tracer ---------------------------------------------------------------------


def test_disabled_tracer_records_nothing_and_allocates_no_span():
    tracer = Tracer()
    tracer.enabled = False
    first = tracer.span("executor.execute")
    second = tracer.span("search.round", round=1)
    # the disabled path returns one shared no-op singleton: zero allocation
    assert first is second
    with first:
        pass
    assert tracer.events() == [] and tracer.dropped == 0


def test_enabled_tracer_records_nested_spans_with_depth():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("pipeline.search"):
        with tracer.span("search.round", round=0):
            pass
        with tracer.span("search.sync", round=0):
            pass
    events = tracer.events()
    assert [e.name for e in events] == [
        "search.round",
        "search.sync",
        "pipeline.search",
    ]
    by_name = {e.name: e for e in events}
    assert by_name["pipeline.search"].depth == 0
    assert by_name["search.round"].depth == 1
    assert by_name["search.round"].attrs == {"round": 0}
    assert by_name["pipeline.search"].category == "pipeline"
    outer = by_name["pipeline.search"]
    inner = by_name["search.round"]
    assert outer.duration >= inner.duration >= 0.0
    assert outer.start <= inner.start


def test_take_events_drains_and_extend_adopts():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("persist.load"):
        pass
    shipped = tracer.take_events()
    assert len(shipped) == 1 and tracer.events() == []

    coordinator = Tracer()
    coordinator.extend(shipped)
    assert [e.name for e in coordinator.events()] == ["persist.load"]


def test_event_buffer_is_bounded_and_counts_drops():
    tracer = Tracer(max_events=2)
    tracer.enabled = True
    for _ in range(4):
        with tracer.span("executor.execute"):
            pass
    assert len(tracer.events()) == 2
    assert tracer.dropped == 2
    tracer.extend([e for e in tracer.events()])
    assert len(tracer.events()) == 2 and tracer.dropped == 4


# -- metrics registry -----------------------------------------------------------


def test_registry_counter_gauge_histogram_roundtrip():
    registry = MetricsRegistry()
    registry.counter("search.iterations").inc(3)
    registry.counter("search.iterations").inc()
    registry.gauge("search.best_reward").set(-2.5)
    registry.histogram("executor.rows").observe(10)
    registry.histogram("executor.rows").observe(30)
    assert registry.value("search.iterations") == 4
    assert registry.value("search.best_reward") == -2.5
    flat = registry.as_dict()
    assert flat["executor.rows"]["count"] == 2
    assert flat["executor.rows"]["total"] == 40
    assert flat["executor.rows"]["min"] == 10 and flat["executor.rows"]["max"] == 30
    with pytest.raises(TypeError):
        registry.gauge("search.iterations")  # kind mismatch on an existing name


def test_snapshot_merge_is_deterministic_and_gauges_first_writer_win():
    def worker_snapshot(iterations: int, reward: float) -> dict:
        registry = MetricsRegistry()
        registry.counter("search.iterations").inc(iterations)
        registry.gauge("search.best_reward").set(reward)
        return registry.snapshot()

    snapshots = [worker_snapshot(10, -1.0), worker_snapshot(20, -9.0)]
    merged_a = MetricsRegistry()
    for snapshot in snapshots:
        merged_a.merge(snapshot)
    merged_b = MetricsRegistry()
    for snapshot in snapshots:
        merged_b.merge(snapshot)
    # counters add; gauges keep the first writer (worker order), like the
    # reward table's first-writer-wins merge
    assert merged_a.value("search.iterations") == 30
    assert merged_a.value("search.best_reward") == -1.0
    assert merged_a.as_dict() == merged_b.as_dict()
    # snapshots are picklable-plain: only builtin containers and scalars
    assert json.dumps(snapshots[0]) is not None


# -- exporters ------------------------------------------------------------------


def _synthetic_events() -> list[SpanEvent]:
    return [
        SpanEvent("pipeline.plan", 10.0, 1.0, pid=1, tid=1, depth=0),
        SpanEvent("executor.plan", 10.2, 0.4, pid=1, tid=1, depth=1),
        SpanEvent("search.reward", 20.0, 0.5, pid=2, tid=2, depth=0,
                  attrs={"worker": 1}),
    ]


def test_chrome_trace_and_jsonl_roundtrip(tmp_path):
    events = _synthetic_events()
    metrics = {"executor.plan_cache_hits": 3, "executor.plans_compiled": 1}
    chrome = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    write_chrome_trace(chrome, events, metrics=metrics)
    write_jsonl(jsonl, events, metrics=metrics)

    doc = json.loads(chrome.read_text())
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == len(events)
    assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in complete)
    # process metadata names the coordinator (first pid) and workers
    names = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert {e["pid"] for e in names} == {1, 2}
    assert doc["metadata"]["metrics"] == metrics

    for path in (chrome, jsonl):
        read_events, read_metrics = read_trace(path)
        assert [(e.name, e.pid, e.depth) for e in read_events] == [
            (e.name, e.pid, e.depth) for e in events
        ]
        assert read_metrics == metrics


def test_phase_attribution_uses_self_time():
    attribution = phase_attribution(_synthetic_events())
    # executor.plan (0.4s) nests inside pipeline.plan (1.0s): the parent's
    # self time excludes the child, so "plan" totals 1.0, not 1.4
    assert attribution["plan"] == pytest.approx(1.0)
    assert attribution["reward"] == pytest.approx(0.5)
    assert set(attribution) >= {"parse", "plan", "execute", "map", "reward",
                                "sync", "cache", "other"}


def test_cache_hit_rates_rows():
    rows = cache_hit_rates(
        {
            "executor.plan_cache_hits": 3,
            "executor.plans_compiled": 1,
            "mapping.memo_hits": 0,
            "mapping.memo_misses": 0,
            "persist.loads": 1,
            "persist.misses": 1,
            "workers.mapping.memo_hits": 2,
        }
    )
    by_name = {row["cache"]: row for row in rows}
    assert by_name["plan"]["rate"] == pytest.approx(0.75)
    assert by_name["memo"]["rate"] is None
    assert by_name["persisted"]["hits"] == 1
    assert by_name["workers.memo"]["rate"] == pytest.approx(1.0)
    assert "rewards" not in by_name and "workers.plan" not in by_name


def test_stats_cache_rows_count_only_their_run():
    """``repro stats`` rows are the run's own counts: a second run over a
    catalogue whose shared plan cache and memo are warm reports its own
    lookups, not the caches' totals over both runs."""
    catalog = standard_catalog(seed=7, scale=0.12)
    config = PipelineConfig.fast(seed=7)
    generate_for_workload(WORKLOADS["filter"], catalog=catalog, config=config)
    second = generate_for_workload(WORKLOADS["filter"], catalog=catalog, config=config)
    plan, mapper, search = second.executor_stats, second.mapper_stats, second.search_stats
    rows = {
        row["cache"]: (row["hits"], row["misses"])
        for row in cache_hit_rates(second.metrics)
    }
    assert rows == {
        "plan": (plan.plan_cache_hits, plan.plans_compiled),
        "memo": (mapper.memo_hits, mapper.memo_misses),
        "rewards": (search.reward_table_hits, search.states_evaluated),
    }
    assert plan.plan_cache_hits > 0 and mapper.memo_hits > 0


# -- completeness: stats dataclasses as registry views --------------------------


def _published_fields(stats_cls, exempt):
    """PlanStats/MapperStats publish every non-exempt field by name."""
    names = {f.name for f in dataclasses.fields(stats_cls)} - set(exempt)
    return {name: name for name in sorted(names)}


@pytest.mark.parametrize(
    "stats_cls,counters,gauges,exempt",
    [
        (SearchStats, SEARCH_STATS_COUNTERS, SEARCH_STATS_GAUGES,
         SEARCH_STATS_EXEMPT),
        (RequestStats, REQUEST_STATS_COUNTERS, REQUEST_STATS_GAUGES,
         REQUEST_STATS_EXEMPT),
        (PlanStats, _published_fields(PlanStats, {}), {}, {}),
        (MapperStats, _published_fields(MapperStats, MAPPER_STATS_EXEMPT), {},
         MAPPER_STATS_EXEMPT),
    ],
    ids=["SearchStats", "RequestStats", "PlanStats", "MapperStats"],
)
def test_every_stats_field_is_registry_backed_or_exempt(
    stats_cls, counters, gauges, exempt
):
    """Adding a stats field without deciding its registry story must fail
    here, not drift silently (the observability mirror of
    ``test_every_planner_flag_partitions_the_plan_cache``)."""
    fields, covered = registry_field_partition(stats_cls, counters, gauges, exempt)
    missing = fields - covered
    stale = covered - fields
    assert not missing, f"unmapped {stats_cls.__name__} fields: {sorted(missing)}"
    assert not stale, f"stale registry mappings: {sorted(stale)}"
    assert not (set(counters) & set(gauges))
    assert not (set(counters) & set(exempt))
    assert not (set(gauges) & set(exempt))


def test_plan_and_mapper_stats_publish_every_field():
    plan_stats = PlanStats()
    plan_stats.plans_compiled = 2
    plan_stats.columnar_executions = 3
    registry = MetricsRegistry()
    publish_plan_stats(plan_stats, registry)
    assert registry.value("executor.plans_compiled") == 2
    assert registry.value("executor.columnar_executions") == 3
    # one counter per field, nothing else
    assert sorted(registry.as_dict()) == sorted(
        f"executor.{f.name}" for f in dataclasses.fields(PlanStats)
    )

    mapper_stats = MapperStats()
    mapper_stats.memo_hits = 5
    publish_mapper_stats(mapper_stats, registry)
    assert registry.value("mapping.memo_hits") == 5


# -- the two cross-cutting contracts --------------------------------------------


def test_process_and_serial_registry_totals_match_on_pinned_seed():
    """2-worker process run and serial run agree on every deterministic
    search metric: the per-worker snapshots merged at the sync barrier carry
    exactly what the in-process backend accumulates directly."""
    totals = {}
    for backend in ("serial", "process"):
        catalog = standard_catalog(seed=11, scale=0.12)
        result = generate_for_workload(
            WORKLOADS["explore"],
            catalog=catalog,
            config=_backend_config(backend, workers=2),
        )
        assert result.search_stats.backend == backend
        assert result.metrics, "pipeline must publish the run registry"
        totals[backend] = {
            name: result.metrics.get(name) for name in DETERMINISTIC_SEARCH_METRICS
        }
    assert totals["serial"] == totals["process"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_interfaces_byte_identical_with_tracing_on_and_off(workload):
    """Tracing must be observational only — same interface bytes, same
    fingerprints, with the tracer on or off (every workload log)."""
    signatures = {}
    for tracing in (False, True):
        if tracing:
            TRACER.enable()
        else:
            TRACER.disable()
        TRACER.clear()
        catalog = standard_catalog(seed=11, scale=0.12)
        result = generate_for_workload(
            WORKLOADS[workload],
            catalog=catalog,
            config=_backend_config("serial", workers=2),
        )
        signatures[tracing] = (
            _interface_signature(result),
            result.best_reward,
            result.state.fingerprint(),
        )
    assert signatures[False] == signatures[True]
    assert len(TRACER.events()) > 0  # the traced run actually recorded spans


def test_traced_pipeline_covers_at_least_five_subsystems():
    TRACER.enable()
    catalog = standard_catalog(seed=11, scale=0.12)
    result = generate_for_workload(
        WORKLOADS["explore"], catalog=catalog, config=_backend_config("serial")
    )
    categories = {event.category for event in TRACER.events()}
    assert len(categories) >= 5, categories
    # and the run registry rode along on the result
    assert result.metrics["search.iterations"] > 0
    assert any(row["cache"] == "plan" for row in cache_hit_rates(result.metrics))
