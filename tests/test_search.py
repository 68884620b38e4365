"""Tests for the single-player MCTS search and parallel_search."""

import random

from repro.difftree import initial_difftrees
from repro.search import (
    MCTSNode,
    MCTSWorker,
    SearchConfig,
    SearchState,
    SerialBackend,
    parallel_search,
    search_difftrees,
)
from repro.transform import TransformEngine

QUERIES = [
    "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
    "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
]


def simple_reward(state: SearchState) -> float:
    """A deterministic stand-in for the interface-cost reward."""
    return -(2.0 * state.num_trees() + state.num_choice_nodes())


def make_engine(catalog, executor):
    return TransformEngine(catalog, executor, max_applications=16)


def test_search_state_fingerprint_is_order_insensitive():
    trees = initial_difftrees(QUERIES)
    a = SearchState(trees)
    b = SearchState(list(reversed(trees)))
    assert a.fingerprint() == b.fingerprint()
    assert a.as_terminal().fingerprint() != a.fingerprint()
    assert a.num_trees() == 2


def test_mcts_node_uct_prefers_unvisited():
    root = MCTSNode(SearchState([]))
    child_a = MCTSNode(SearchState([]), root)
    child_b = MCTSNode(SearchState([]), root)
    root.children = [child_a, child_b]
    root.visits = 4
    child_a.visits, child_a.total_reward, child_a.total_squared = 2, -10.0, 60.0
    assert child_b.uct_score(1.2, 1.0) == float("inf")
    assert child_a.uct_score(1.2, 1.0, lo=-20.0, hi=0.0) > 0


def test_worker_improves_over_initial_state(catalog, executor):
    engine = make_engine(catalog, executor)
    config = SearchConfig(
        max_iterations=30, early_stop=30, workers=1, rollout_depth=8, seed=5
    )
    worker = MCTSWorker(
        SearchState(initial_difftrees(QUERIES)), engine, simple_reward, config
    )
    initial_reward = worker.best_reward
    worker.run()
    assert worker.best_reward >= initial_reward
    assert worker.stats.iterations >= 1
    assert worker.stats.states_evaluated >= 1


def test_worker_early_stop_counts_iterations(catalog, executor):
    engine = make_engine(catalog, executor)
    config = SearchConfig(max_iterations=50, early_stop=5, workers=1, seed=9)
    worker = MCTSWorker(
        SearchState(initial_difftrees(QUERIES)), engine, simple_reward, config
    )
    worker.run()
    assert worker.stats.early_stopped or worker.stats.iterations == 50


def test_reward_cache_reuses_evaluations(catalog, executor):
    engine = make_engine(catalog, executor)
    calls = []

    def counting_reward(state):
        calls.append(state.fingerprint())
        return simple_reward(state)

    config = SearchConfig(max_iterations=12, early_stop=12, workers=1, seed=2)
    worker = MCTSWorker(
        SearchState(initial_difftrees(QUERIES)), engine, counting_reward, config
    )
    worker.run()
    assert len(calls) == len(set(calls))  # each distinct state evaluated once


def test_terminal_children_are_added_on_expansion(catalog, executor):
    engine = make_engine(catalog, executor)
    config = SearchConfig(max_iterations=3, early_stop=10, workers=1, seed=4)
    worker = MCTSWorker(
        SearchState(initial_difftrees(QUERIES)), engine, simple_reward, config
    )
    worker.run_iteration()
    assert any(child.state.terminal for child in worker.root.children)


def test_search_difftrees_single_worker(catalog, executor):
    engine = make_engine(catalog, executor)
    best, stats = search_difftrees(
        initial_difftrees(QUERIES),
        engine,
        simple_reward,
        SearchConfig(max_iterations=20, early_stop=8, workers=1, seed=3),
    )
    assert isinstance(best, SearchState)
    assert stats.best_reward >= simple_reward(SearchState(initial_difftrees(QUERIES)))


def test_parallel_search_synchronises_best_state(catalog, executor):
    engine = make_engine(catalog, executor)
    config = SearchConfig(
        max_iterations=24, early_stop=12, workers=3, sync_interval=4, seed=6
    )
    result = parallel_search(
        initial_difftrees(QUERIES), engine, simple_reward, config
    )
    assert result.best_reward >= simple_reward(
        SearchState(initial_difftrees(QUERIES))
    )
    assert len(result.worker_stats) == 3
    assert result.stats.iterations > 0
    # after synchronisation every worker has adopted a reward at least as good
    backend = SerialBackend()
    res = parallel_search(
        initial_difftrees(QUERIES), engine, simple_reward, config, backend=backend
    )
    rewards = [w.best_reward for w in backend.workers]
    assert max(rewards) == res.best_reward


def test_parallel_search_is_deterministic(catalog, executor):
    engine = make_engine(catalog, executor)
    config = SearchConfig(
        max_iterations=16, early_stop=8, workers=2, sync_interval=4, seed=17
    )
    r1 = parallel_search(initial_difftrees(QUERIES), engine, simple_reward, config)
    engine2 = make_engine(catalog, executor)
    r2 = parallel_search(initial_difftrees(QUERIES), engine2, simple_reward, config)
    assert r1.best_reward == r2.best_reward
    assert r1.best_state.fingerprint() == r2.best_state.fingerprint()


def test_search_config_rng_and_replace():
    config = SearchConfig(seed=1)
    assert config.rng(1).random() == SearchConfig(seed=1).rng(1).random()
    changed = config.replace(workers=7)
    assert changed.workers == 7 and config.workers != 7


def test_weighted_rollout_choice_prefers_refactoring(catalog, executor):
    engine = make_engine(catalog, executor)
    config = SearchConfig(max_iterations=1, workers=1, seed=1)
    worker = MCTSWorker(
        SearchState(initial_difftrees(QUERIES)), engine, simple_reward, config
    )

    class FakeApp:
        def __init__(self, category):
            self.category = category

    rng_counts = {"refactoring": 0, "cross-tree": 0}
    worker.rng = random.Random(0)
    apps = [FakeApp("refactoring"), FakeApp("cross-tree")]
    for _ in range(300):
        chosen = worker._weighted_choice(apps)
        rng_counts[chosen.category] += 1
    assert rng_counts["refactoring"] > rng_counts["cross-tree"]


# -- regression tests: iteration budget and reward-bound bookkeeping ----------


def test_parallel_search_honours_remainder_iterations(catalog, executor):
    """13 iterations with sync every 5 must run 10 + a partial round of 3,
    not silently drop the remainder."""
    engine = make_engine(catalog, executor)
    config = SearchConfig(
        max_iterations=13,
        sync_interval=5,
        early_stop=10_000,
        workers=1,
        rollout_depth=4,
        seed=9,
    )
    result = parallel_search(initial_difftrees(QUERIES), engine, simple_reward, config)
    assert result.stats.iterations == 13
    assert result.stats.per_worker_iterations == [13]


def test_parallel_search_remainder_scales_with_workers(catalog, executor):
    engine = make_engine(catalog, executor)
    config = SearchConfig(
        max_iterations=7,
        sync_interval=3,
        early_stop=10_000,
        workers=2,
        rollout_depth=4,
        seed=9,
    )
    result = parallel_search(initial_difftrees(QUERIES), engine, simple_reward, config)
    # every worker runs its full 7-iteration budget (3 + 3 + 1)
    assert result.stats.iterations == 14
    assert result.stats.per_worker_iterations == [7, 7]


def test_reward_bounds_match_cache_extrema(catalog, executor):
    """The incrementally maintained bounds must equal a full cache scan."""
    engine = make_engine(catalog, executor)
    config = SearchConfig(
        max_iterations=12, early_stop=10_000, workers=1, rollout_depth=6, seed=3
    )
    worker = MCTSWorker(
        SearchState(initial_difftrees(QUERIES)), engine, simple_reward, config
    )
    for _ in range(12):
        worker.run_iteration()
    finite = [r for r in worker._reward_cache.values() if r != float("-inf")]
    assert finite, "search should have evaluated at least one state"
    lo, hi = worker._reward_bounds()
    if min(finite) == max(finite):
        assert (lo, hi) == (min(finite), min(finite) + 1.0)
    else:
        assert (lo, hi) == (min(finite), max(finite))


def test_reward_bounds_ignore_infinite_rewards(catalog, executor):
    engine = make_engine(catalog, executor)
    config = SearchConfig(max_iterations=4, early_stop=10_000, workers=1, seed=3)
    worker = MCTSWorker(
        SearchState(initial_difftrees(QUERIES)),
        engine,
        lambda state: float("-inf"),
        config,
    )
    worker.run_iteration()
    assert worker._reward_bounds() == (0.0, 1.0)
