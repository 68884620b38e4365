"""The search-execution backend subsystem.

The load-bearing guarantee: both backends run the same synchronization
protocol over workers that share no mutable search state during a round, so
the serial and process backends produce byte-identical interfaces from the
same configuration — the process backend merely pays (and reports) a
per-process cache warm-up and runs its workers on real OS processes.
"""

import json

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import GenerationRuntime, generate_for_workload
from repro.database import standard_catalog
from repro.difftree import initial_difftrees
from repro.search import (
    RewardTable,
    SearchConfig,
    SearchState,
    SerialBackend,
    parallel_search,
)
from repro.search.backends import BACKEND_ENV_VAR, dump_state, load_state, resolve_backend_name
from repro.transform import TransformEngine
from repro.workloads import WORKLOADS

QUERIES = [
    "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
    "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
]


@pytest.fixture(autouse=True)
def _pin_backend_choice(monkeypatch):
    """These tests compare *specific* backends; the CI sweep that re-runs the
    whole suite under ``REPRO_SEARCH_BACKEND=process`` must not override the
    backends they explicitly request."""
    monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)


def _backend_config(backend: str, shared_rewards: bool = True, seed: int = 5):
    config = PipelineConfig.fast(seed=seed)
    config.search.max_iterations = 24
    config.search.early_stop = 12
    config.search.backend = backend
    config.search.shared_rewards = shared_rewards
    return config


def _interface_signature(result) -> str:
    return json.dumps(result.interface.to_dict(), sort_keys=True, default=str)


def simple_reward(state: SearchState) -> float:
    return -(2.0 * state.num_trees() + state.num_choice_nodes())


# -- backend equivalence -------------------------------------------------------


def test_process_backend_matches_serial_without_shared_rewards():
    """With the reward table disabled, process workers retrace serial ones."""
    signatures = {}
    for backend in ("serial", "process"):
        catalog = standard_catalog(seed=11, scale=0.12)
        result = generate_for_workload(
            WORKLOADS["explore"],
            catalog=catalog,
            config=_backend_config(backend, shared_rewards=False),
        )
        assert result.search_stats.backend == backend
        assert result.search_stats.reward_table_hits == 0
        signatures[backend] = (
            _interface_signature(result),
            result.best_reward,
            result.state.fingerprint(),
        )
    assert signatures["serial"] == signatures["process"]


def test_process_backend_determinism_pinned():
    """Re-pinned determinism: same seed + worker count ⇒ same interface,
    shared reward table and all."""
    signatures = []
    for _ in range(2):
        catalog = standard_catalog(seed=11, scale=0.12)
        result = generate_for_workload(
            WORKLOADS["filter"], catalog=catalog, config=_backend_config("process")
        )
        assert result.search_stats.backend == "process"
        signatures.append(
            (
                _interface_signature(result),
                result.best_reward,
                result.state.fingerprint(),
                result.search_stats.states_evaluated,
                result.search_stats.reward_table_hits,
            )
        )
    assert signatures[0] == signatures[1]


def test_shared_rewards_reduce_evaluations():
    """The reward table answers states other workers already evaluated, and
    changes only the work: rewards are pure functions of (seed, state), so
    the interface is the same with sharing on and off."""
    stats = {}
    signatures = {}
    table = RewardTable()
    for shared in (True, False):
        catalog = standard_catalog(seed=11, scale=0.12)
        config = _backend_config("serial", shared_rewards=shared)
        config.search.workers = 3
        config.search.early_stop = 10_000  # equal iteration budgets
        runtime = GenerationRuntime(reward_table=table if shared else None)
        result = generate_for_workload(
            WORKLOADS["filter"], catalog=catalog, config=config, runtime=runtime
        )
        stats[shared] = result.search_stats
        signatures[shared] = (
            _interface_signature(result),
            result.best_reward,
            result.state.fingerprint(),
        )
    assert signatures[True] == signatures[False]
    assert stats[True].reward_table_hits > 0
    assert stats[False].reward_table_hits == 0
    assert stats[True].states_evaluated < stats[False].states_evaluated
    # the table holds one entry per *distinct* fingerprint: workers that
    # evaluate the same state in the same round merge to a single reward
    assert 0 < table.size() <= stats[True].states_evaluated


def test_process_backend_reports_warmup_and_sync_rounds():
    catalog = standard_catalog(seed=11, scale=0.12)
    result = generate_for_workload(
        WORKLOADS["explore"], catalog=catalog, config=_backend_config("process")
    )
    stats = result.search_stats
    assert stats.backend == "process"
    assert stats.sync_rounds >= 1
    assert stats.warmup_seconds > 0  # per-process catalogue + cache rebuild
    # the reward queries ran in the worker processes (the coordinator's own
    # executor never ran one), whose counts arrive under workers.*; whether
    # a plan was compiled or hit depends on what a forked child inherited,
    # so only their sum is pinned
    metrics = result.metrics
    assert (
        metrics["workers.executor.plans_compiled"]
        + metrics["workers.executor.plan_cache_hits"]
        > 0
    )


# -- backend plumbing ----------------------------------------------------------


def test_resolve_backend_name_env_override(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "process")
    assert resolve_backend_name("serial") == "process"
    monkeypatch.delenv(BACKEND_ENV_VAR)
    assert resolve_backend_name("process") == "process"
    assert resolve_backend_name(None) == "serial"
    with pytest.raises(ValueError):
        resolve_backend_name("quantum")


def test_process_backend_without_spec_falls_back_to_serial(catalog, executor):
    """Closure-driven searches cannot cross a process boundary."""
    engine = TransformEngine(catalog, executor, max_applications=16)
    config = SearchConfig(
        max_iterations=8, early_stop=8, workers=2, sync_interval=4, seed=3,
        backend="process",
    )
    result = parallel_search(initial_difftrees(QUERIES), engine, simple_reward, config)
    assert result.stats.backend == "serial"


def test_coordinator_exposes_workers_for_local_backends(catalog, executor):
    engine = TransformEngine(catalog, executor, max_applications=16)
    config = SearchConfig(
        max_iterations=8, early_stop=8, workers=2, sync_interval=4, seed=3
    )
    backend = SerialBackend()
    result = parallel_search(
        initial_difftrees(QUERIES), engine, simple_reward, config, backend=backend
    )
    assert len(backend.workers) == 2
    assert max(w.best_reward for w in backend.workers) == result.best_reward


def test_reward_table_merge_first_writer_wins():
    table = RewardTable()
    accepted = table.merge({"a": 1.0, "b": 2.0})
    assert accepted == {"a": 1.0, "b": 2.0}
    accepted = table.merge({"a": 9.0, "c": 3.0})
    assert accepted == {"c": 3.0}  # "a" keeps the first writer's reward
    hit, reward = table.get("a")
    assert hit and reward == 1.0
    hit, _ = table.get("missing")
    assert not hit
    assert table.size() == 3


def test_state_serialization_round_trip():
    trees = initial_difftrees(QUERIES)
    state = SearchState(trees, terminal=True)
    clone = load_state(dump_state(state))
    assert clone.terminal
    assert clone.fingerprint() == state.fingerprint()
    assert [t.fingerprint() for t in clone.trees] == [
        t.fingerprint() for t in state.trees
    ]


def test_resolve_backend_name_rejects_unknown_and_removed_names(monkeypatch):
    for name in ("carrier-pigeon", "thread"):
        with pytest.raises(ValueError):
            resolve_backend_name(name)
        monkeypatch.setenv(BACKEND_ENV_VAR, name)
        with pytest.raises(ValueError):
            resolve_backend_name("serial")
        monkeypatch.delenv(BACKEND_ENV_VAR)
