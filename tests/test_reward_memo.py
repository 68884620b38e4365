"""The reward memoization subsystem: mapping-fragment memo, reward-cache
seeding, and the one executor the reward loop shares with the final mapping.

The load-bearing guarantee is *behavioural transparency*: a memoized pipeline
must produce byte-identical interfaces and rewards to a memo-disabled one,
because the memo only short-circuits deterministic derivations — it never
changes what is derived or in which order candidates are enumerated.
"""

import json

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import generate_for_workload
from repro.database import CatalogCache, Executor, standard_catalog
from repro.difftree import initial_difftrees
from repro.mapping import InterfaceMapper, MapperConfig, SHARED_MAPPING_MEMO
from repro.search import MCTSWorker, SearchConfig, SearchState
from repro.transform import TransformEngine
from repro.workloads import WORKLOADS


def _memo_test_config(memoize: bool, seed: int = 5) -> PipelineConfig:
    """A small-budget pipeline configuration with the memo toggled."""
    config = PipelineConfig.fast(seed=seed)
    config.search.max_iterations = 24
    config.search.early_stop = 12
    config.mapper.memoize = memoize
    return config


def _interface_signature(result) -> str:
    return json.dumps(result.interface.to_dict(), sort_keys=True, default=str)


# -- equivalence sweep ---------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_memoized_pipeline_is_byte_identical(workload):
    """Memoized and memo-disabled runs agree on interface spec and reward."""
    signatures = {}
    rewards = {}
    derivations = {}
    for memoize in (True, False):
        catalog = standard_catalog(seed=11, scale=0.12)
        result = generate_for_workload(
            WORKLOADS[workload],
            catalog=catalog,
            config=_memo_test_config(memoize),
        )
        signatures[memoize] = _interface_signature(result)
        rewards[memoize] = result.best_reward
        derivations[memoize] = result.mapper_stats.candidate_derivations
    assert signatures[True] == signatures[False]
    assert rewards[True] == rewards[False]
    # the memoized run must do strictly less derivation work
    assert derivations[True] < derivations[False]


def test_pipeline_reports_mapping_memo_stats():
    catalog = standard_catalog(seed=11, scale=0.12)
    result = generate_for_workload(
        WORKLOADS["explore"], catalog=catalog, config=_memo_test_config(True)
    )
    assert result.mapper_stats.memo_hits > 0
    # the run's registry reports the mapper's own count
    assert result.metrics["mapping.memo_hits"] == result.mapper_stats.memo_hits
    # the shared memo is the process-wide instance
    assert SHARED_MAPPING_MEMO.size(catalog) > 0


# -- invalidation: a one-tree delta keeps other trees' fragments live ----------


def _two_tree_mapper(catalog, executor, memo):
    from repro.cost.model import CostModel
    from repro.difftree.builder import parse_queries

    queries = [
        "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
        "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
        "SELECT hp, mpg FROM Cars WHERE hp BETWEEN 50 AND 90",
    ]
    trees = initial_difftrees(queries)
    cost_model = CostModel(parse_queries(queries))
    mapper = InterfaceMapper(
        catalog, executor, cost_model, MapperConfig(), memo=memo
    )
    return trees, mapper


def test_one_tree_delta_recomputes_only_that_tree():
    import random

    catalog = standard_catalog(seed=7, scale=0.12)
    executor = Executor(catalog)
    memo = CatalogCache()
    trees, mapper = _two_tree_mapper(catalog, executor, memo)
    engine = TransformEngine(catalog, executor, max_applications=16)

    mapper.random_interfaces(trees, count=2, rng=random.Random(3))
    assert memo.size(catalog) > 0

    # apply one rule: some trees change, the rest are carried over unchanged
    old_fps = {t.fingerprint() for t in trees}
    new_trees = None
    for app in engine.applications(trees, random.Random(3)):
        candidate = engine.apply(app)
        if candidate is None:
            continue
        kept = [t for t in candidate if t.fingerprint() in old_fps]
        if kept and len(kept) < len(candidate):
            new_trees = candidate
            break
    assert new_trees is not None, "no partial-delta rule application found"

    # unchanged trees' fragments must still be cached under their keys …
    from repro.mapping import WIDGET_TYPES

    unchanged = [t for t in new_trees if t.fingerprint() in old_fps]
    for tree in unchanged:
        hit, _ = memo.lookup(catalog, ("widgets", tree.mapping_key(), len(WIDGET_TYPES)))
        assert hit

    # … so re-evaluating the new state misses only on the changed trees'
    # fragments; a from-scratch mapper over the same state misses on all
    misses_before = mapper.stats.memo_misses
    mapper.random_interfaces(new_trees, count=2, rng=random.Random(4))
    fresh_misses = mapper.stats.memo_misses - misses_before

    _, scratch_mapper = _two_tree_mapper(catalog, executor, CatalogCache())
    scratch_mapper.random_interfaces(new_trees, count=2, rng=random.Random(4))
    assert 0 < fresh_misses < scratch_mapper.stats.memo_misses
    assert mapper.stats.memo_hits > 0


# -- reward-cache seeding on adopt ---------------------------------------------


QUERIES = [
    "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
    "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
]


def test_adopt_seeds_reward_cache():
    catalog = standard_catalog(seed=7, scale=0.12)
    executor = Executor(catalog)
    engine = TransformEngine(catalog, executor, max_applications=16)
    calls = []

    def counting_reward(state):
        calls.append(state.trees_fingerprint())
        return -float(state.num_choice_nodes())

    config = SearchConfig(max_iterations=4, early_stop=100, workers=1, seed=2)
    worker = MCTSWorker(
        SearchState(initial_difftrees(QUERIES)), engine, counting_reward, config
    )
    # a state broadcast by another worker, unseen by this one
    other = SearchState(initial_difftrees(["SELECT a, count(*) FROM T GROUP BY a"]))
    assert other.trees_fingerprint() not in worker._reward_cache

    worker.adopt(other, reward=123.0)
    assert worker.stats.rewards_seeded == 1
    assert worker.best_reward == 123.0

    before = len(calls)
    # a subsequent expansion of the same fingerprint must hit, not re-evaluate
    assert worker._evaluate(other) == 123.0
    assert len(calls) == before
    assert worker.stats.reward_cache_hits >= 1


def test_terminal_twin_shares_reward_entry():
    catalog = standard_catalog(seed=7, scale=0.12)
    executor = Executor(catalog)
    engine = TransformEngine(catalog, executor, max_applications=16)
    calls = []

    def counting_reward(state):
        calls.append(state.fingerprint())
        return -1.0

    config = SearchConfig(max_iterations=4, workers=1, seed=2)
    worker = MCTSWorker(
        SearchState(initial_difftrees(QUERIES)), engine, counting_reward, config
    )
    state = SearchState(initial_difftrees(["SELECT a, count(*) FROM T GROUP BY a"]))
    worker._evaluate(state)
    evaluated = len(calls)
    worker._evaluate(state.as_terminal())  # same trees, terminal marker only
    assert len(calls) == evaluated


def test_adopted_seed_does_not_count_as_evaluation():
    catalog = standard_catalog(seed=7, scale=0.12)
    executor = Executor(catalog)
    engine = TransformEngine(catalog, executor, max_applications=16)
    config = SearchConfig(max_iterations=4, workers=1, seed=2)
    worker = MCTSWorker(
        SearchState(initial_difftrees(QUERIES)), engine, lambda s: -1.0, config
    )
    evaluated = worker.stats.states_evaluated
    other = SearchState(initial_difftrees(["SELECT a, count(*) FROM T GROUP BY a"]))
    worker.adopt(other, reward=5.0)
    assert worker.stats.states_evaluated == evaluated
    assert worker.stats.rewards_seeded == 1


# -- one executor for the reward loop and the final mapping ---------------------


def test_sales_generation_runs_each_distinct_statement_once():
    """The reward loop, the search's transforms and the final Algorithm-1
    mapping share one executor, so a generation over the Sales log misses
    its result cache once per distinct statement (6)."""
    config = PipelineConfig(
        search=SearchConfig(
            max_iterations=48,
            early_stop=16,
            workers=1,
            sync_interval=8,
            rollout_depth=12,
            reward_mappings=2,
            seed=42,
        ),
        mapper=MapperConfig(
            top_k=5, max_vis_per_tree=3, max_joint_vis=8, max_searchm_calls=1500
        ),
        catalog_scale=0.3,
        seed=42,
    )
    result = generate_for_workload("sales", config=config)
    assert len(set(WORKLOADS["sales"].queries)) == 6
    assert result.executor_stats.result_cache_misses == 6
    assert result.interface.cost.total == pytest.approx(808.142040, abs=1e-6)
