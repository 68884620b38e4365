"""The serial backend: deterministic round-robin in the coordinator's thread.

Every :class:`~repro.search.mcts.MCTSWorker` lives in this process and runs
its round in worker order.  Because workers share no mutable search state
(private engines and reward-RNG streams via the job's factories, private
reward caches, reward-table merges only at barriers), this schedule is the
reference semantics the process backend reproduces byte for byte — which
``tests/test_backends.py`` and ``tests/test_service.py`` pin.
"""

from __future__ import annotations

import time
from typing import Optional

from ...obs import span
from ..mcts import MCTSWorker
from .base import (
    ParallelSearchResult,
    RewardTable,
    SearchJob,
    WorkerSync,
    aggregate_stats,
    early_stop_after_adopt,
    merge_sync_round,
    round_sizes,
)


class SerialBackend:
    """Round-robin execution in the coordinator's thread (deterministic)."""

    name = "serial"

    def __init__(self) -> None:
        #: exposed for post-run inspection (tests reach into the workers)
        self.workers: list[MCTSWorker] = []

    def run(self, job: SearchJob) -> ParallelSearchResult:
        config = job.config
        start = time.perf_counter()
        # callers may hand in a pre-populated table (persisted-cache reloads,
        # warm service pools); rewards are pure functions of the state, so
        # preloaded entries change cost, never trajectories
        table: Optional[RewardTable] = None
        loaded = 0
        if config.shared_rewards:
            table = job.reward_table if job.reward_table is not None else RewardTable()
            loaded = table.size()
        warmup_start = time.perf_counter()
        self.workers = [
            job.make_worker(w, table) for w in range(max(1, config.workers))
        ]
        # the workers' initial-state evaluations all hit cold per-worker
        # caches; merge them immediately so round 1 already shares them
        if table is not None:
            for worker in self.workers:
                table.merge(worker.take_pending_rewards())
        warmup_seconds = time.perf_counter() - warmup_start

        total_iterations = 0
        sync_rounds = 0
        early_stopped = False
        for round_size in round_sizes(config):
            with span("search.round", round=sync_rounds, size=round_size):
                for worker in self.workers:
                    for _ in range(round_size):
                        worker.run_iteration()
            total_iterations += round_size * len(self.workers)

            # synchronization: merge reward deltas, broadcast the best state
            with span("search.sync", round=sync_rounds):
                syncs = [
                    WorkerSync(
                        best_reward=w.best_reward,
                        best_fingerprint=w.best_state.fingerprint(),
                        pending_rewards=w.take_pending_rewards(),
                        iterations_since_improvement=w.iterations_since_improvement,
                        best_state=w.best_state,
                    )
                    for w in self.workers
                ]
                best_index, _ = merge_sync_round(syncs, table)
                best_sync = syncs[best_index]
                sync_rounds += 1
                stop = early_stop_after_adopt(
                    syncs, best_sync.best_reward, config.early_stop
                )
                for worker in self.workers:
                    worker.adopt(best_sync.best_state, best_sync.best_reward)
            if stop:
                early_stopped = True
                break

        best_worker = max(self.workers, key=lambda w: w.best_reward)
        stats = aggregate_stats(
            self.name,
            [w.stats for w in self.workers],
            best_worker.stats,
            best_worker.best_reward,
            total_iterations,
            sync_rounds,
            early_stopped or any(w.stats.early_stopped for w in self.workers),
            time.perf_counter() - start,
            warmup_seconds=warmup_seconds,
        )
        stats.reward_table_loaded = loaded
        return ParallelSearchResult(
            best_worker.best_state,
            best_worker.best_reward,
            stats,
            [w.stats for w in self.workers],
        )
