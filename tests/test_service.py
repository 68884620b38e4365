"""The persistent generation service: pool, shared memory, persistence.

The headline guarantee under test: a generation request produces the *same
interface bytes* no matter which service layer answered it — a cold one-shot
process run, a warm pooled request, or a fresh process resuming from a
persisted cache bundle.  Rewards are pure functions of (seed, state), so
every reuse layer changes only cost, never trajectories; the sweep below
pins that over all workload logs.

Alongside the sweep: shared-memory catalogue round-trips (values *and*
Python types byte-exact, nulls included), segment lifecycle (owner unlinks,
attachers never do), cache-file validation (tampered / truncated /
version-bumped / mis-keyed bundles are rejected before unpickling and the
run falls back cold), and the ``REPRO_MP_START`` override contract.
"""

from __future__ import annotations

import json
import math
import pickle
import threading

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import generate_for_workload
from repro.database import standard_catalog
from repro.database.catalog import Catalog
from repro.database.plancache import SHARED_PLAN_CACHE
from repro.database.table import Table
from repro.database.types import Column, DataType
from repro.difftree.builder import parse_queries
from repro.mapping.memo import SHARED_MAPPING_MEMO
from repro.obs import TRACER
from repro.search.backends import BACKEND_ENV_VAR
from repro.service import (
    CACHE_VERSION,
    CacheStore,
    GenerationService,
    SharedCatalogRegistry,
    WorkerPool,
    catalog_fingerprint,
    persistence_key,
    workload_fingerprint,
)
from repro.service.pool import MP_START_ENV_VAR, _mp_context
from repro.workloads import WORKLOADS

QUERIES = [
    "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
    "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
]


@pytest.fixture(autouse=True)
def _pin_backend_choice(monkeypatch):
    """These tests compare *specific* service modes; the CI sweep that
    re-runs the suite under ``REPRO_SEARCH_BACKEND=process`` must not
    override the backends they explicitly request."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


def _service_config(backend: str, seed: int = 5) -> PipelineConfig:
    config = PipelineConfig.fast(seed=seed)
    config.search.max_iterations = 24
    config.search.early_stop = 12
    config.search.backend = backend
    config.search.shared_rewards = True
    return config


def _fresh_catalog() -> Catalog:
    return standard_catalog(seed=11, scale=0.12)


def _signature(result) -> tuple:
    return (
        json.dumps(result.interface.to_dict(), sort_keys=True, default=str),
        result.best_reward,
        result.state.fingerprint(),
    )


# -- determinism across service modes ------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_cold_warm_and_persisted_runs_byte_identical(workload, tmp_path):
    """Cold one-shot vs warm pool vs persisted-cache reload: same bytes."""
    # cold one-shot: a pool that lives for this one search, no cache directory
    cold = generate_for_workload(
        WORKLOADS[workload], catalog=_fresh_catalog(), config=_service_config("process")
    )
    assert cold.search_stats.backend == "process"
    assert cold.search_stats.pool is None

    # warm pool: one service, two requests over live workers
    config = _service_config("process")
    with GenerationService(_fresh_catalog(), config=config) as service:
        pooled_first = service.generate_workload(workload)
        pooled_second = service.generate_workload(workload)
        assert service.requests[0].pool == "cold"
        assert service.requests[1].pool == "warm"
    warm_stats = pooled_second.search_stats

    # workers.* counts each request's own task: a warm worker's cached
    # reward setup starts every task from zeroed counters
    for pooled in (pooled_first, pooled_second):
        assert (
            pooled.metrics["workers.mapping.interfaces_evaluated"]
            == config.search.reward_mappings * pooled.search_stats.states_evaluated
        )
    assert pooled_second.metrics["workers.executor.plans_compiled"] == 0

    # pool-served requests report the same backend as the one-shot run
    assert pooled_first.search_stats.backend == "process"
    assert warm_stats.backend == "process"
    # the warm request skips spawn, warm-up and previously explored states
    assert warm_stats.pool == "warm"
    assert warm_stats.warmup_seconds == 0.0
    assert warm_stats.reward_table_loaded > 0
    assert warm_stats.reward_table_hits > 0

    # persisted reload: run 1 writes the bundle, a fresh run 2 resumes from it
    cache_dir = str(tmp_path / "cache")
    persisted_first = generate_for_workload(
        WORKLOADS[workload],
        catalog=_fresh_catalog(),
        config=_service_config("serial").replace(cache_dir=cache_dir),
    )
    persisted_second = generate_for_workload(
        WORKLOADS[workload],
        catalog=_fresh_catalog(),
        config=_service_config("serial").replace(cache_dir=cache_dir),
    )
    assert persisted_first.search_stats.reward_table_loaded == 0
    assert persisted_second.search_stats.reward_table_loaded > 0
    assert (
        persisted_second.search_stats.states_evaluated
        < persisted_first.search_stats.states_evaluated
        or persisted_second.search_stats.reward_table_hits > 0
    )

    signatures = {
        "cold": _signature(cold),
        "pool-first": _signature(pooled_first),
        "pool-warm": _signature(pooled_second),
        "persist-first": _signature(persisted_first),
        "persist-reload": _signature(persisted_second),
    }
    assert len(set(signatures.values())) == 1, signatures


def test_service_in_process_backend_reuses_reward_table():
    """Without a process pool the service still carries the reward table
    across requests for the same (catalogue, workload, config) key."""
    with GenerationService(_fresh_catalog(), config=_service_config("serial")) as svc:
        first = svc.generate(QUERIES)
        second = svc.generate(QUERIES)
    assert svc.requests[0].pool == "cold"
    assert svc.requests[1].pool == "warm"
    assert svc.requests[1].reward_table_loaded > 0
    assert second.search_stats.reward_table_hits > 0
    assert _signature(first) == _signature(second)


def test_warm_requests_report_only_their_own_pool_work():
    """``pool.*`` counts in a request's metrics are that request's: every
    worker served one task and found its reward setup cached, whatever the
    pool served before."""
    config = _service_config("process")
    config.search.workers = workers = 2
    with GenerationService(_fresh_catalog(), config=config) as service:
        first, *warm = [service.generate(QUERIES).metrics for _ in range(3)]
    assert first["pool.tasks"] == first["pool.setup_cache_misses"] == workers
    for metrics in warm:
        assert metrics["pool.tasks"] == workers
        assert metrics["pool.setup_cache_hits"] == workers
        assert metrics.get("pool.setup_cache_misses", 0) == 0


def test_no_code_path_starts_a_thread(monkeypatch):
    """Every ``repro`` process is single-threaded, which is why no cache,
    reward table or tracer takes a lock.  Starting a thread raises here: in
    this process the run fails, and a fork worker (which inherits the patch)
    fails its task, so a thread started there shows up as a retry or a
    degraded request."""
    started = []

    def refuse(thread):
        started.append(thread.name)
        raise RuntimeError(f"thread {thread.name!r} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)

    def fast_config(backend: str) -> PipelineConfig:
        config = PipelineConfig.fast(seed=7)
        config.search.backend = backend
        return config

    TRACER.enable()
    try:
        serial = generate_for_workload(
            WORKLOADS["filter"], catalog=_fresh_catalog(), config=fast_config("serial")
        )
        one_shot = generate_for_workload(
            WORKLOADS["filter"], catalog=_fresh_catalog(), config=fast_config("process")
        )
        with GenerationService(_fresh_catalog(), config=fast_config("process")) as service:
            pooled = [service.generate_workload("filter") for _ in range(2)]
    finally:
        TRACER.disable()
        TRACER.clear()

    assert started == []
    assert threading.active_count() == 1
    assert serial.search_stats.backend == "serial"
    assert one_shot.search_stats.backend == "process"
    assert one_shot.metrics.get("pool.task_retries", 0) == 0
    for result in (serial, one_shot, *pooled):
        assert result.search_stats.degraded is None
    assert [(r.backend, r.degraded, r.retries) for r in service.requests] == [
        ("process", None, 0)
    ] * 2


def test_service_rejects_requests_after_close():
    service = GenerationService(_fresh_catalog(), config=_service_config("serial"))
    service.close()
    with pytest.raises(RuntimeError, match="closed"):
        service.generate(QUERIES)


# -- cache-file validation -----------------------------------------------------


def _bundle_path(cache_dir):
    files = sorted(cache_dir.glob("*.pi2cache"))
    assert len(files) == 1, files
    return files[0]


def test_tampered_cache_payload_is_rejected_and_run_falls_back_cold(tmp_path):
    cache_dir = tmp_path / "cache"
    config = _service_config("serial").replace(cache_dir=str(cache_dir))
    baseline = generate_for_workload(
        WORKLOADS["filter"], catalog=_fresh_catalog(), config=config
    )
    path = _bundle_path(cache_dir)

    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip one payload byte; the header's sha256 now lies
    path.write_bytes(bytes(blob))

    catalog = _fresh_catalog()
    key = persistence_key(catalog, parse_queries(WORKLOADS["filter"].queries), config)
    store = CacheStore(str(cache_dir))
    assert store.load(key) is None
    assert store.load_rejects == 1

    rerun = generate_for_workload(WORKLOADS["filter"], catalog=catalog, config=config)
    assert rerun.search_stats.reward_table_loaded == 0  # cold fallback
    assert _signature(rerun) == _signature(baseline)


def test_version_mismatched_cache_is_rejected(tmp_path):
    cache_dir = tmp_path / "cache"
    config = _service_config("serial").replace(cache_dir=str(cache_dir))
    generate_for_workload(WORKLOADS["filter"], catalog=_fresh_catalog(), config=config)
    path = _bundle_path(cache_dir)

    # rewrite the header as a future version; payload digest stays valid, so
    # the rejection is the version check alone
    magic = b"PI2CACHE\x00"
    blob = path.read_bytes()
    assert blob.startswith(magic)
    header_end = blob.index(b"\n", len(magic))
    header = json.loads(blob[len(magic):header_end])
    header["version"] = CACHE_VERSION + 1
    path.write_bytes(
        magic
        + json.dumps(header, sort_keys=True).encode("ascii")
        + b"\n"
        + blob[header_end + 1:]
    )

    catalog = _fresh_catalog()
    key = persistence_key(catalog, parse_queries(WORKLOADS["filter"].queries), config)
    assert CacheStore(str(cache_dir)).load(key) is None

    rerun = generate_for_workload(WORKLOADS["filter"], catalog=catalog, config=config)
    assert rerun.search_stats.reward_table_loaded == 0


def test_cache_store_validation_matrix(tmp_path):
    store = CacheStore(str(tmp_path))
    key = "k" * 64
    rewards = {"fp-a": 1.5, "fp-b": -2.0}
    path = store.save(key, rewards=rewards)
    assert path is not None and path.exists()

    bundle = store.load(key)
    assert bundle is not None and bundle.rewards == rewards
    assert store.loads == 1

    # unknown key: no file
    assert store.load("m" * 64) is None

    # a bundle saved under one key must not validate under another, even if
    # someone renames the file onto the other key's path
    other = "n" * 64
    path.rename(store.path_for(other))
    assert store.load(other) is None

    # truncation and garbage
    store.save(key, rewards=rewards)
    target = store.path_for(key)
    blob = target.read_bytes()
    target.write_bytes(blob[: len(blob) // 2])
    assert store.load(key) is None
    target.write_bytes(b"not a cache file at all")
    assert store.load(key) is None
    assert store.load_rejects == 3

    # payloads that unpickle to the wrong shape are rejected after digest
    # checks (defense in depth against a semantically corrupt bundle)
    payload = pickle.dumps({"rewards": {"fp": "not-a-number"}, "plans": [], "memo": []})
    header = json.dumps(
        {
            "version": CACHE_VERSION,
            "key": key,
            "payload_sha256": __import__("hashlib").sha256(payload).hexdigest(),
            "payload_bytes": len(payload),
        },
        sort_keys=True,
    ).encode("ascii")
    target.write_bytes(b"PI2CACHE\x00" + header + b"\n" + payload)
    assert store.load(key) is None


def test_persistence_key_separates_catalog_workload_and_config():
    catalog = _fresh_catalog()
    asts = parse_queries(QUERIES)
    config = _service_config("serial")
    base = persistence_key(catalog, asts, config)

    assert persistence_key(_fresh_catalog(), asts, config) == base  # content-keyed
    assert persistence_key(catalog, parse_queries(QUERIES[:1]), config) != base
    assert persistence_key(catalog, asts, _service_config("serial", seed=6)) != base

    # search-schedule knobs are reward-irrelevant and must not split the key
    rescheduled = _service_config("serial")
    rescheduled.search.workers = 7
    rescheduled.search.max_iterations = 999
    assert persistence_key(catalog, asts, rescheduled) == base

    other = standard_catalog(seed=12, scale=0.12)
    assert persistence_key(other, asts, config) != base


def test_workload_fingerprint_is_order_sensitive():
    asts = parse_queries(QUERIES)
    assert workload_fingerprint(asts) != workload_fingerprint(list(reversed(asts)))


# -- export / import of the plan cache and mapping memo ------------------------


def test_plan_cache_export_import_roundtrip():
    catalog = _fresh_catalog()
    generate_for_workload(
        WORKLOADS["filter"], catalog=catalog, config=_service_config("serial")
    )
    entries = SHARED_PLAN_CACHE.export_entries(catalog)
    assert entries

    twin = _fresh_catalog()
    assert SHARED_PLAN_CACHE.export_entries(twin) == []
    assert SHARED_PLAN_CACHE.import_entries(twin, entries) == len(entries)
    assert [key for key, _ in SHARED_PLAN_CACHE.export_entries(twin)] == [
        key for key, _ in entries
    ]
    # existing entries win over re-imports
    assert SHARED_PLAN_CACHE.import_entries(twin, entries) == 0


def test_mapping_memo_import_drops_non_persistable_kinds():
    memo = SHARED_MAPPING_MEMO
    catalog = _fresh_catalog()
    good = (("schema", "fp-1"), {"cols": ["a"]})
    smuggled = (("wcover", "anything"), {"oops": True})
    not_a_tuple = ("plain-string-key", {"oops": True})
    assert memo.import_entries(catalog, [good, smuggled, not_a_tuple]) == 1
    exported = memo.export_entries(catalog)
    assert exported == [good]


# -- shared-memory catalogue registry ------------------------------------------


def _values_equal(left: list, right: list) -> bool:
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if isinstance(a, float) and isinstance(b, float):
            if math.isnan(a) and math.isnan(b):
                continue
        if a != b or type(a) is not type(b):
            return False
    return True


def _tricky_catalog() -> Catalog:
    table = Table.from_columns(
        "tricky",
        [
            Column("i", DataType.INT),
            Column("f", DataType.FLOAT),
            Column("b", DataType.BOOL),
            Column("s", DataType.STR),
            Column("mixed", DataType.ANY),
            Column("bigint", DataType.ANY),
            Column("allnull", DataType.ANY),
        ],
        [
            [1, -7, None, 2**62],
            [1.5, float("nan"), float("inf"), None],
            [True, None, False, True],
            ["plain", "", "unicode: héllo ✓", None],
            [1, "two", 3.0, None],  # mixed types keep each value's type
            [2**70, 0, 1, 2],  # integers beyond int64 stay exact
            [None, None, None, None],
        ],
    )
    return Catalog([table])


def test_shared_memory_roundtrip_preserves_values_and_types():
    catalog = _tricky_catalog()
    with SharedCatalogRegistry() as registry:
        attached = SharedCatalogRegistry.attach(registry.register(catalog))

    (table,) = catalog.tables()
    (copy,) = attached.tables()
    assert copy.name == table.name
    assert [c.name for c in copy.columns] == [c.name for c in table.columns]
    for index in range(len(table.columns)):
        assert _values_equal(copy.column_data(index), table.column_data(index)), (
            table.columns[index].name
        )
    assert catalog_fingerprint(attached) == catalog_fingerprint(catalog)


def test_shared_memory_roundtrip_on_standard_catalog():
    catalog = _fresh_catalog()
    # the owner's lazily built caches stay behind: the segment holds tables
    table = catalog.tables()[0]
    assert table.rows
    catalog.statistics(f"{table.name}.{table.columns[0].name}")
    with SharedCatalogRegistry() as registry:
        attached = SharedCatalogRegistry.attach(registry.register(catalog))
    assert catalog_fingerprint(attached) == catalog_fingerprint(catalog)
    assert attached._stats == {}
    assert all(t._rows_cache is None for t in attached.tables())


def test_registry_owns_segment_lifecycle():
    registry = SharedCatalogRegistry()
    catalog = _fresh_catalog()
    manifest = registry.register(catalog)
    # idempotent per content: the twin maps to the same segment
    assert registry.register(_fresh_catalog()) is manifest
    assert len(registry) == 1

    # attachers close their mapping but never unlink: a second attach works
    SharedCatalogRegistry.attach(manifest)
    SharedCatalogRegistry.attach(manifest)

    registry.close()
    registry.close()  # idempotent
    with pytest.raises(FileNotFoundError):
        SharedCatalogRegistry.attach(manifest)


# -- worker pool ---------------------------------------------------------------


def test_pool_ships_the_pickled_catalogue_when_registration_fails(monkeypatch):
    """Without shared memory the worker spec carries the catalogue itself;
    the pool still serves the request, with the serial run's interface."""
    refused = []

    def refuse(self, catalog):
        refused.append(catalog)
        raise OSError("no shared memory")

    monkeypatch.setattr(SharedCatalogRegistry, "register", refuse)
    serial = generate_for_workload(
        WORKLOADS["filter"], catalog=_fresh_catalog(), config=_service_config("serial")
    )
    pooled = generate_for_workload(
        WORKLOADS["filter"], catalog=_fresh_catalog(), config=_service_config("process")
    )
    assert len(refused) == 1
    assert pooled.search_stats.backend == "process"
    assert pooled.search_stats.degraded is None
    assert _signature(pooled) == _signature(serial)


def test_worker_pool_survives_repeated_tasks_and_close_is_idempotent():
    pool = WorkerPool(_fresh_catalog(), workers=2)
    try:
        assert not pool.warm
        assert pool.spawn_seconds > 0.0
    finally:
        pool.close()
        pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.run_task({}, None, None)


# -- REPRO_MP_START validation -------------------------------------------------


def test_mp_start_override_rejects_unknown_method(monkeypatch):
    monkeypatch.setenv(MP_START_ENV_VAR, "frok")
    with pytest.raises(ValueError) as excinfo:
        _mp_context()
    message = str(excinfo.value)
    assert "frok" in message
    assert "allowed start methods" in message
    assert "spawn" in message  # every platform supports spawn


def test_mp_start_override_accepts_valid_method(monkeypatch):
    monkeypatch.setenv(MP_START_ENV_VAR, "  SPAWN  ")  # normalized
    assert _mp_context().get_start_method() == "spawn"
    monkeypatch.delenv(MP_START_ENV_VAR)
    assert _mp_context().get_start_method() in {"fork", "spawn"}
