"""repro.obs: tracer, run metrics, views, exporters, and the contracts.

The two load-bearing guarantees, each pinned here:

* **Observability never perturbs results** — interfaces are byte-identical
  with tracing on vs. off across every workload log (the dynamic backstop of
  the ``no-wallclock-in-key`` static rule).
* **Per-worker counts add up deterministically** — the process backend
  with 2+ workers reports the same ``DETERMINISTIC_SEARCH_METRICS`` totals
  as the serial backend on pinned seeds.

Plus the completeness contract: every ``SearchStats`` / ``RequestStats``
field is published as a metric or explicitly exempted.
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
    REQUEST_STATS_COUNTERS,
    REQUEST_STATS_EXEMPT,
    REQUEST_STATS_GAUGES,
    SEARCH_STATS_COUNTERS,
    SEARCH_STATS_EXEMPT,
    SEARCH_STATS_GAUGES,
    TRACER,
    SpanEvent,
    Tracer,
    add_counts,
    cache_hit_rates,
    phase_attribution,
    publish_mapper_stats,
    publish_plan_stats,
    publish_search_stats,
    read_trace,
    worker_metrics_snapshot,
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


# -- run metrics ----------------------------------------------------------------


def test_worker_counts_add_name_by_name_and_stay_json_plain():
    def worker_snapshot(plans: int, memo_hits: int, lookup: str) -> dict:
        plan_stats, mapper_stats = PlanStats(), MapperStats()
        plan_stats.plans_compiled = plans
        mapper_stats.memo_hits = memo_hits
        return worker_metrics_snapshot(
            plan_stats, mapper_stats, extra={lookup: 1, "pool.tasks": 1}
        )

    snapshots = [
        worker_snapshot(2, 5, "pool.setup_cache_misses"),
        worker_snapshot(3, 0, "pool.setup_cache_hits"),
    ]
    forward = add_counts({}, *snapshots)
    backward = add_counts({}, *reversed(snapshots))
    # counts add name by name, whatever order the workers report in
    assert forward == backward
    assert forward["workers.executor.plans_compiled"] == 5
    assert forward["workers.mapping.memo_hits"] == 5
    assert forward["pool.tasks"] == 2
    assert forward["pool.setup_cache_misses"] == forward["pool.setup_cache_hits"] == 1
    assert all(type(value) is int for value in forward.values())
    # a name missing on one side starts at zero; None adds nothing
    assert add_counts({"search.iterations": 3}, {"search.iterations": 1}, None) == {
        "search.iterations": 4
    }
    # snapshots are plain builtins: they pickle through the sync messages
    # and land in JSON trace exports as they are
    assert json.loads(json.dumps(forward)) == forward


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


# -- completeness: every stats field is a metric or exempt ----------------------


#: PlanStats / MapperStats publish every field as ``executor.<field>`` /
#: ``mapping.<field>``; ``repro stats`` and the BENCH files read those names,
#: so a new or renamed field must fail the completeness test below
PLAN_STATS_COUNTERS = (
    "plans_compiled",
    "plan_cache_hits",
    "hash_joins_planned",
    "nested_loop_joins_planned",
    "cross_joins_planned",
    "predicates_pushed",
    "columns_pruned",
    "hash_joins_executed",
    "cross_joins_executed",
    "nested_loop_joins_columnar",
    "columnar_executions",
    "filter_gathers_saved",
    "result_cache_hits",
    "result_cache_misses",
)
MAPPER_STATS_COUNTERS = (
    "vis_combinations",
    "searchm_calls",
    "pruned",
    "widget_cover_states",
    "interfaces_evaluated",
    "schema_derivations",
    "vis_derivations",
    "widget_derivations",
    "target_derivations",
    "interaction_derivations",
    "memo_hits",
    "memo_misses",
)


@pytest.mark.parametrize(
    "stats_cls,counters,gauges,exempt",
    [
        (SearchStats, SEARCH_STATS_COUNTERS, SEARCH_STATS_GAUGES,
         SEARCH_STATS_EXEMPT),
        (RequestStats, REQUEST_STATS_COUNTERS, REQUEST_STATS_GAUGES,
         REQUEST_STATS_EXEMPT),
        (PlanStats, PLAN_STATS_COUNTERS, {}, {}),
        (MapperStats, MAPPER_STATS_COUNTERS, {}, {}),
    ],
    ids=["SearchStats", "RequestStats", "PlanStats", "MapperStats"],
)
def test_every_stats_field_is_registry_backed_or_exempt(
    stats_cls, counters, gauges, exempt
):
    """Adding a stats field without deciding its metric must fail here, not
    drift silently: the published and exempt fields partition the class."""
    fields = {f.name for f in dataclasses.fields(stats_cls)}
    covered = set(counters) | set(gauges) | set(exempt)
    missing = fields - covered
    stale = covered - fields
    assert not missing, f"unmapped {stats_cls.__name__} fields: {sorted(missing)}"
    assert not stale, f"stale metric mappings: {sorted(stale)}"
    assert not (set(counters) & set(gauges))
    assert not (set(counters) & set(exempt))
    assert not (set(gauges) & set(exempt))


def test_plan_and_mapper_stats_publish_every_field():
    plan_stats = PlanStats()
    plan_stats.plans_compiled = 2
    plan_stats.columnar_executions = 3
    metrics: dict = {}
    publish_plan_stats(plan_stats, metrics)
    assert metrics["executor.plans_compiled"] == 2
    assert metrics["executor.columnar_executions"] == 3
    # one int counter per field, nothing else
    assert sorted(metrics) == sorted(
        f"executor.{f.name}" for f in dataclasses.fields(PlanStats)
    )
    assert all(type(value) is int for value in metrics.values())

    mapper_stats = MapperStats()
    mapper_stats.memo_hits = 5
    publish_mapper_stats(mapper_stats, metrics)
    assert metrics["mapping.memo_hits"] == 5

    # search stats: counters as ints, gauges as floats
    search_stats = SearchStats(iterations=4, best_reward=-2.5, early_stopped=True)
    publish_search_stats(search_stats, metrics)
    assert metrics["search.iterations"] == 4
    assert type(metrics["search.iterations"]) is int
    assert metrics["search.best_reward"] == -2.5
    assert type(metrics["search.early_stopped"]) is float


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
        assert result.metrics, "pipeline must publish the run metrics"
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
    # and the run metrics rode along on the result
    assert result.metrics["search.iterations"] > 0
    assert any(row["cache"] == "plan" for row in cache_hit_rates(result.metrics))
