"""Shared machinery of the search-execution backends.

A *backend* decides how the ``p`` MCTS workers of a parallel search execute:
round-robin in the coordinator's thread (:class:`~repro.search.backends.serial.SerialBackend`)
or one OS process per worker (:class:`~repro.search.backends.process.ProcessBackend`).
Both run the *same synchronization protocol* (paper Section 6.2.1):

1. every worker runs ``sync_interval`` iterations of its own search;
2. the coordinator gathers each worker's best state and its *reward delta*
   (the rewards it evaluated this round);
3. the deltas are merged — first writer wins, in worker order — into the
   cross-worker :class:`RewardTable`, and the global best state is broadcast
   back to every worker;
4. the search stops early when every worker's local optimum has been stale
   for ``early_stop`` iterations.

Because the reward table is only mutated at these barriers (workers buffer
new rewards locally during a round), the protocol is deterministic for a
fixed seed and worker count *no matter how the rounds are scheduled* — which
is what lets the serial and process backends produce byte-identical
interfaces from the same configuration.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Protocol, Sequence

from ...difftree.nodes import worker_id_counter
from ...difftree.tree import Difftree
from ...obs import add_counts
from ..config import SearchConfig, SearchStats
from ..mcts import MCTSWorker, RewardFn
from ..state import SearchState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...transform.engine import TransformEngine


class ParallelSearchResult:
    """Outcome of a (parallel) search: best state, reward, and diagnostics."""

    def __init__(
        self,
        best_state: SearchState,
        best_reward: float,
        stats: SearchStats,
        worker_stats: list[SearchStats],
    ) -> None:
        self.best_state = best_state
        self.best_reward = best_reward
        self.stats = stats
        self.worker_stats = worker_stats


class RewardTable:
    """Cross-worker fingerprint → reward table.

    Workers consult the table before evaluating any state; new rewards are
    buffered per worker and merged here only at synchronization barriers, so
    lookups during a round always observe the previous round's snapshot.
    """

    def __init__(self) -> None:
        self._rewards: dict[str, float] = {}

    def get(self, key: str) -> tuple[bool, float]:
        """``(hit, reward)`` — rewards may legitimately be ``-inf``."""
        if key in self._rewards:
            return True, self._rewards[key]
        return False, 0.0

    def merge(self, delta: dict[str, float]) -> dict[str, float]:
        """Merge a worker's reward delta; returns the entries actually added.

        First writer wins: a fingerprint two workers evaluated in the same
        round keeps the reward of the earlier worker (worker order is the
        merge order, so the outcome is deterministic).
        """
        accepted = {
            key: reward
            for key, reward in delta.items()
            if key not in self._rewards
        }
        self._rewards.update(accepted)
        return accepted

    def seed(self, delta: dict[str, float]) -> None:
        """Plant already-merged entries (process-backend replicas) silently."""
        for key, reward in delta.items():
            self._rewards.setdefault(key, reward)

    def size(self) -> int:
        return len(self._rewards)

    def snapshot(self) -> dict[str, float]:
        """A copy of the fingerprint → reward entries (for persistence)."""
        return dict(self._rewards)


@dataclass
class SearchJob:
    """Everything a backend needs to run one parallel search."""

    initial_trees: Sequence[Difftree]
    config: SearchConfig
    #: legacy single shared engine / reward function (used for every worker
    #: unless the per-worker factories below are provided)
    engine: Optional["TransformEngine"] = None
    reward_fn: Optional[RewardFn] = None
    #: per-worker factories: workers with private engines (rule-application
    #: caches) and private reward-RNG streams behave identically on both
    #: backends; a shared engine couples serial workers through its cache,
    #: which process workers (each owning an engine) cannot reproduce
    engine_factory: Optional[Callable[[int], "TransformEngine"]] = None
    reward_factory: Optional[Callable[[int], RewardFn]] = None
    #: pre-populated cross-worker reward table (persisted-cache reloads and
    #: warm generation-service pools hand one in so previously explored
    #: states are answered from the table instead of re-evaluated); backends
    #: use it as *the* shared table when ``config.shared_rewards`` is on
    reward_table: Optional[RewardTable] = None

    def engine_for(self, worker_index: int) -> "TransformEngine":
        if self.engine_factory is not None:
            return self.engine_factory(worker_index)
        if self.engine is None:
            raise ValueError("SearchJob needs an engine or an engine_factory")
        return self.engine

    def reward_for(self, worker_index: int) -> RewardFn:
        if self.reward_factory is not None:
            return self.reward_factory(worker_index)
        if self.reward_fn is None:
            raise ValueError("SearchJob needs a reward_fn or a reward_factory")
        return self.reward_fn

    def make_worker(
        self, worker_index: int, reward_table: Optional[RewardTable]
    ) -> MCTSWorker:
        """Build worker ``worker_index`` with its own RNG and id space."""
        return MCTSWorker(
            SearchState(self.initial_trees),
            self.engine_for(worker_index),
            self.reward_for(worker_index),
            self.config,
            rng=self.config.rng(offset=worker_index + 1),
            reward_table=reward_table,
            id_space=worker_id_counter(worker_index),
        )


class SearchBackend(Protocol):
    """The backend interface: run a :class:`SearchJob` to completion."""

    name: str

    def run(self, job: SearchJob) -> ParallelSearchResult:  # pragma: no cover
        ...


# ---------------------------------------------------------------------------
# protocol helpers shared by the backends
# ---------------------------------------------------------------------------


def round_sizes(config: SearchConfig) -> list[int]:
    """Iteration counts per synchronization round.

    Honours the per-worker iteration budget exactly: full ``sync_interval``
    rounds plus a final partial round for the remainder.
    """
    sync = max(1, config.sync_interval)
    full_rounds, remainder = divmod(max(0, config.max_iterations), sync)
    sizes = [sync] * full_rounds
    if remainder:
        sizes.append(remainder)
    return sizes


@dataclass
class WorkerSync:
    """One worker's contribution to a synchronization round."""

    best_reward: float
    best_fingerprint: str
    pending_rewards: dict[str, float]
    iterations_since_improvement: int
    #: set when the worker's best state changed since its last report (the
    #: process backend ships serialized trees only in that case)
    best_state: Optional[SearchState] = None


def merge_sync_round(
    syncs: Sequence[WorkerSync], table: Optional[RewardTable]
) -> tuple[int, dict[str, float]]:
    """Merge a round's reward deltas into the shared table, in worker order.

    Returns ``(best worker index, merged delta)`` — the delta is what the
    process backend broadcasts to the other workers' table replicas.
    """
    merged: dict[str, float] = {}
    if table is not None:
        for sync in syncs:
            merged.update(table.merge(sync.pending_rewards))
    best_index = max(range(len(syncs)), key=lambda i: syncs[i].best_reward)
    return best_index, merged


def early_stop_after_adopt(
    syncs: Sequence[WorkerSync], best_reward: float, early_stop: int
) -> bool:
    """The early-stop rule, evaluated *as if* every worker adopted the best.

    Adopting a strictly better state resets a worker's staleness counter to
    zero, so the search stops only when every worker already holds the global
    optimum and has been stale for ``early_stop`` iterations.  Computing this
    from the sync reports (rather than after the adopt calls) lets the
    process backend decide termination without an extra message round-trip.
    """
    return all(
        sync.iterations_since_improvement >= early_stop
        and not (best_reward > sync.best_reward)
        for sync in syncs
    )


def aggregate_stats(
    backend_name: str,
    worker_stats: Sequence[SearchStats],
    best_stats: SearchStats,
    best_reward: float,
    total_iterations: int,
    sync_rounds: int,
    early_stopped: bool,
    search_seconds: float,
    warmup_seconds: float = 0.0,
) -> SearchStats:
    """Fold per-worker statistics into the aggregate :class:`SearchStats`."""
    return SearchStats(
        iterations=total_iterations,
        states_evaluated=sum(w.states_evaluated for w in worker_stats),
        rule_applications=sum(w.rule_applications for w in worker_stats),
        # the authoritative best reward: a worker that merely *adopted* the
        # global best never updates its own stats.best_reward, so the value
        # must come from the worker attributes / final sync reports
        best_reward=best_reward,
        best_iteration=best_stats.best_iteration,
        early_stopped=early_stopped,
        per_worker_iterations=[w.iterations for w in worker_stats],
        search_seconds=search_seconds,
        reward_cache_hits=sum(w.reward_cache_hits for w in worker_stats),
        rewards_seeded=sum(w.rewards_seeded for w in worker_stats),
        backend=backend_name,
        reward_table_hits=sum(w.reward_table_hits for w in worker_stats),
        sync_rounds=sync_rounds,
        warmup_seconds=warmup_seconds,
        # process-backend workers ship their task's counts in the "done"
        # reply; serial workers ship none
        metrics=add_counts({}, *(w.metrics for w in worker_stats)) or None,
    )


# ---------------------------------------------------------------------------
# compact state serialization (process-backend sync messages)
# ---------------------------------------------------------------------------


def dump_state(state: SearchState) -> bytes:
    """Serialize a search state as compact (root, queries, terminal) tuples.

    Only the tree structure travels: per-instance caches (derivations, type
    annotators — which reference the catalogue) are rebuilt lazily on the
    receiving side.  Choice-node ids are preserved by pickling, so interaction
    and widget covers computed on the wire-copy stay id-compatible.
    """
    payload = (
        [(tree.root, tree.queries) for tree in state.trees],
        state.terminal,
    )
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def load_state(data: bytes) -> SearchState:
    """Rebuild a :class:`SearchState` from :func:`dump_state` bytes."""
    trees_payload, terminal = pickle.loads(data)
    trees = [Difftree(root, queries) for root, queries in trees_payload]
    return SearchState(trees, terminal=terminal)
