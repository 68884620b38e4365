"""Fault injection and supervision: every process search survives, bytes unchanged.

Every test drives the *real* stack — pool, process protocol, shared memory,
persistence — under a deterministic fault plan (:mod:`repro.faults`) and
asserts two things:

1. **recovery**: the request completes despite killed / hung workers,
   dropped or duplicated sync messages, corrupted cache bundles and
   vanished shared-memory segments, and the run reports what happened
   (retries, replaced workers, degradation rung — through
   :class:`repro.service.RequestStats` for service requests and the run's
   ``pool.*`` metrics plus ``SearchStats.degraded`` for one-shot runs);
2. **byte identity**: the interface produced under faults is exactly the
   one a fault-free run produces — rewards are pure functions of
   (seed, state), so supervision (worker replacement, task replay, the
   degradation ladder down to the serial backend) can change cost, never
   trajectories.

The recovery matrix runs each fault in three modes: a fresh service
(``cold``), a service whose pool already served another log (``warm``), and
a one-shot :func:`~repro.core.pipeline.generate_interface` on the process
backend, whose pool lives for that one search (``oneshot``).

Faults that must fire exactly once across every process and retry carry a
``once=<token file>`` clause; without it a respawned worker replaying the
task would re-fire the fault and recovery could never converge.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

from repro import faults
from repro.core.config import PipelineConfig
from repro.core.pipeline import generate_interface
from repro.database import standard_catalog
from repro.difftree.builder import parse_queries
from repro.faults import FaultPlan, WorkerFailure, backoff_delays
from repro.search.backends import BACKEND_ENV_VAR
from repro.service import CacheStore, GenerationService, persistence_key

QUERIES = [
    "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
    "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
]
#: another log: warming a pool with it leaves the faulted request's reward
#: table empty, so a warm pool still reaches every fault site (reward
#: evaluation included)
WARMUP_QUERIES = [
    "SELECT p, count(*) FROM T WHERE a = 3 GROUP BY p",
    "SELECT p, count(*) FROM T WHERE a = 4 GROUP BY p",
]
MODES = ["cold", "warm", "oneshot"]


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    """Pin the backend choice and guarantee no fault plan leaks out."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
    faults.install_local(None)
    yield
    faults.reset()


def _config(seed: int = 5, **search) -> PipelineConfig:
    config = PipelineConfig.fast(seed=seed)
    config.search.max_iterations = 24
    config.search.early_stop = 12
    config.search.workers = 2
    config.search.backend = "process"
    config.search.shared_rewards = True
    # short enough that injected hangs resolve in seconds, long enough that
    # a loaded CI box never trips it on healthy rounds
    config.search.round_deadline_seconds = 30.0
    for key, value in search.items():
        setattr(config.search, key, value)
    return config


def _catalog():
    return standard_catalog(seed=11, scale=0.12)


def _signature(result) -> tuple:
    return (
        json.dumps(result.interface.to_dict(), sort_keys=True, default=str),
        result.best_reward,
        result.state.fingerprint(),
    )


@pytest.fixture(scope="module")
def baseline_signature():
    """The fault-free answer, computed once on the serial backend (which by
    the repo's cross-backend invariant is byte-identical to process runs)."""
    config = _config()
    config.search.backend = "serial"
    result = generate_interface(QUERIES, catalog=_catalog(), config=config)
    return _signature(result)


def _run(mode: str, fault_spec, config=None):
    """One request under ``fault_spec`` in ``mode`` (see the module doc).

    Returns ``(result, stats)``: ``stats`` is the service's
    :class:`~repro.service.RequestStats`, or for a one-shot run the same
    fields read from the result.
    """
    config = config or _config()
    if mode == "oneshot":
        if fault_spec is not None:
            faults.install(fault_spec)
        try:
            result = generate_interface(QUERIES, catalog=_catalog(), config=config)
        finally:
            faults.reset()
        stats = result.search_stats
        return result, SimpleNamespace(
            backend=stats.backend,
            degraded=stats.degraded,
            pool=stats.pool,
            retries=result.metrics.get("pool.task_retries", 0),
            workers_replaced=result.metrics.get("pool.workers_replaced", 0),
        )
    with GenerationService(catalog=_catalog(), config=config) as service:
        if mode == "warm":
            service.generate(WARMUP_QUERIES)
        if fault_spec is not None:
            faults.install(fault_spec)
        try:
            result = service.generate(QUERIES)
        finally:
            faults.reset()
        return result, service.requests[-1]


# -- the fault matrix: recovery + byte identity --------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_killed_worker_is_replaced_and_task_replayed(
    tmp_path, mode, baseline_signature
):
    token = tmp_path / "kill.tok"
    result, stats = _run(mode, f"kill-worker-before-sync:worker=1:once={token}")
    assert _signature(result) == baseline_signature
    assert stats.workers_replaced >= 1
    assert stats.retries >= 1
    assert stats.degraded is None  # the pool itself recovered
    assert stats.backend == "process"
    assert stats.pool == {"cold": "cold", "warm": "warm", "oneshot": None}[mode]
    assert token.exists()  # the fault really fired


def test_clean_request_after_a_fault_reports_only_its_own_recovery(tmp_path):
    """The pool's supervision counts are lifetime totals; a request's metrics
    carry only what they grew by while it ran, like its ``RequestStats``."""
    token = tmp_path / "kill.tok"
    with GenerationService(catalog=_catalog(), config=_config()) as service:
        faults.install(f"kill-worker-before-sync:worker=1:once={token}")
        try:
            faulted = service.generate(QUERIES)
        finally:
            faults.reset()
        clean = service.generate(WARMUP_QUERIES)
        faulted_stats, clean_stats = service.requests
    assert token.exists()
    assert faulted_stats.retries >= 1 and faulted_stats.workers_replaced >= 1
    for result, stats in ((faulted, faulted_stats), (clean, clean_stats)):
        assert result.metrics.get("pool.task_retries", 0) == stats.retries
        assert result.metrics.get("pool.workers_replaced", 0) == stats.workers_replaced
    assert clean_stats.retries == clean_stats.workers_replaced == 0


@pytest.mark.parametrize("mode", MODES)
def test_hung_worker_trips_round_deadline_and_is_replaced(
    tmp_path, mode, baseline_signature
):
    token = tmp_path / "hang.tok"
    config = _config(round_deadline_seconds=2.0)
    result, stats = _run(
        mode, f"hang-in-reward-eval:worker=1:seconds=30:once={token}", config
    )
    assert _signature(result) == baseline_signature
    # the sleeper is alive but silent: hang detection must replace it
    assert stats.workers_replaced >= 1
    assert stats.retries >= 1
    assert stats.degraded is None
    assert stats.backend == "process"
    assert token.exists()


@pytest.mark.parametrize("mode", MODES)
def test_dropped_sync_message_is_retried_without_replacement(
    tmp_path, mode, baseline_signature
):
    token = tmp_path / "drop.tok"
    config = _config(round_deadline_seconds=2.0)
    result, stats = _run(mode, f"drop-sync-message:worker=0:once={token}", config)
    assert _signature(result) == baseline_signature
    assert stats.retries >= 1
    # the worker is healthy (it only lost one message): abort + drain must
    # reclaim it without respawning
    assert stats.workers_replaced == 0
    assert stats.degraded is None
    assert stats.backend == "process"
    assert token.exists()


@pytest.mark.parametrize("mode", MODES)
def test_duplicated_sync_message_is_discarded_by_sequence_number(
    tmp_path, mode, baseline_signature
):
    token = tmp_path / "dup.tok"
    result, stats = _run(mode, f"duplicate-sync-message:worker=0:once={token}")
    assert _signature(result) == baseline_signature
    # duplicates are dropped by seq comparison: no failure, no recovery
    assert stats.retries == 0
    assert stats.workers_replaced == 0
    assert stats.degraded is None
    assert stats.backend == "process"
    assert token.exists()


@pytest.mark.parametrize("mode", MODES)
def test_unrecoverable_pool_walks_ladder_down_to_serial(mode, baseline_signature):
    # every worker dies on every attempt and the retry budget is zero: the
    # service's pool rungs fail (a one-shot run has only its one pool) and
    # the serial backend must answer
    config = _config(task_retries=0)
    result, stats = _run(mode, "kill-worker-before-sync:count=9999", config)
    assert _signature(result) == baseline_signature
    assert stats.degraded == "serial"
    assert stats.backend == "serial"


def test_unlinked_shm_segment_degrades_to_fresh_pool(baseline_signature):
    result, stats = _run("cold", "unlink-shm-segment")
    assert _signature(result) == baseline_signature
    assert stats.degraded == "fresh-pool"


def test_expired_request_deadline_skips_to_serial(baseline_signature):
    config = _config(request_deadline_seconds=1e-6)
    result, stats = _run("cold", None, config)
    assert _signature(result) == baseline_signature
    assert stats.deadline_exceeded
    assert stats.degraded == "serial"


def test_corrupted_cache_bundle_is_rejected_and_run_falls_back_cold(
    tmp_path, baseline_signature
):
    cache_dir = tmp_path / "cache"
    config = _config()
    config.search.backend = "serial"
    config.cache_dir = str(cache_dir)
    catalog = _catalog()

    faults.install("corrupt-persisted-cache")
    try:
        first = generate_interface(QUERIES, catalog=catalog, config=config)
    finally:
        faults.reset()
    # the fault corrupts only the *persisted* payload, never the answer
    assert _signature(first) == baseline_signature

    # the header digest no longer matches the bit-flipped payload: the
    # validator must reject the bundle before unpickling a byte of it
    key = persistence_key(catalog, parse_queries(QUERIES), config)
    store = CacheStore(str(cache_dir))
    assert store.load(key) is None
    assert store.load_rejects == 1

    # and the next run must quietly fall back to a cold — identical — run
    second = generate_interface(QUERIES, catalog=catalog, config=config)
    assert _signature(second) == baseline_signature
    assert second.search_stats.reward_table_loaded == 0


# -- the harness itself --------------------------------------------------------


def test_fault_plan_parses_grammar_and_windows():
    plan = FaultPlan(
        "kill-worker-before-sync:worker=1:hit=2:count=2;"
        "hang-in-reward-eval:seconds=1.5"
    )
    kill, hang = plan.specs
    assert (kill.worker, kill.hit, kill.count) == (1, 2, 2)
    assert hang.seconds == 1.5 and hang.worker is None

    # worker filter: only worker 1 advances the kill counter
    assert plan.fire("kill-worker-before-sync", worker=0) is None
    # hit window [2, 4): first call misses, second and third fire, fourth not
    assert plan.fire("kill-worker-before-sync", worker=1) is None
    assert plan.fire("kill-worker-before-sync", worker=1) is not None
    assert plan.fire("kill-worker-before-sync", worker=1) is not None
    assert plan.fire("kill-worker-before-sync", worker=1) is None
    # any-worker site fires on its first hit
    assert plan.fire("hang-in-reward-eval", worker=3) is not None

    with pytest.raises(ValueError):
        FaultPlan("kill-worker-before-sync:bogus=1")


def test_once_token_admits_exactly_one_claimant(tmp_path):
    token = tmp_path / "once.tok"
    plan_a = FaultPlan(f"drop-sync-message:count=99:once={token}")
    plan_b = FaultPlan(f"drop-sync-message:count=99:once={token}")
    assert plan_a.fire("drop-sync-message") is not None
    # the same plan, a retry in another plan object, or another process
    # (simulated here) must all lose the claim
    assert plan_a.fire("drop-sync-message") is None
    assert plan_b.fire("drop-sync-message") is None


def test_fire_is_inert_without_an_installed_plan():
    faults.install_local(None)
    assert faults.fire("kill-worker-before-sync") is None
    faults.maybe_kill("kill-worker-before-sync")  # must not exit
    faults.maybe_hang("hang-in-reward-eval")  # must not sleep


def test_install_propagates_spec_through_environment_and_tasks():
    faults.install("drop-sync-message:worker=1")
    try:
        assert os.environ[faults.FAULTS_ENV_VAR] == "drop-sync-message:worker=1"
        assert faults.current_spec() == "drop-sync-message:worker=1"
    finally:
        faults.reset()
    assert faults.current_spec() is None
    assert faults.FAULTS_ENV_VAR not in os.environ


def test_backoff_delays_are_jittered_exponential_and_deterministic():
    delays = backoff_delays(4, 0.1, seed=42)
    assert delays == backoff_delays(4, 0.1, seed=42)
    assert delays != backoff_delays(4, 0.1, seed=43)
    assert len(delays) == 4
    for i, delay in enumerate(delays):
        # jitter keeps each delay within [0.5, 1.5) x base * 2^i
        assert 0.05 * 2**i <= delay < 0.15 * 2**i
    assert backoff_delays(0, 0.1, seed=42) == []


def test_worker_failure_carries_its_diagnosis():
    failure = WorkerFailure(2, "hung", "no reply within the round deadline")
    assert failure.worker == 2 and failure.kind == "hung"
    assert "worker 2 hung" in str(failure)
    assert isinstance(failure, RuntimeError)  # pre-supervision catch-alls
