"""Parallel MCTS coordination (paper Section 6.2.1, "run the search
iterations in parallel").

The paper distributes MCTS over ``p`` workers; every ``s`` iterations the
coordinator gathers each worker's best state, broadcasts the overall best
back, and terminates early when every worker reports that its local optimum
has not changed in ``es`` iterations.

*How* the workers execute is delegated to a backend
(:mod:`repro.search.backends`): deterministic round-robin in this thread
(:class:`~repro.search.backends.serial.SerialBackend`, the default) or one OS
process per worker (:class:`~repro.search.backends.process.ProcessBackend`,
which the pipeline builds over a worker pool — closures cannot cross a
process boundary).  Both run the same synchronization protocol, including
the cross-worker shared reward table that stops ``p`` workers from
re-evaluating the overlapping states they all visit.

Every worker's reward evaluation executes SQL through a compiled-plan cache
(:data:`repro.database.plancache.SHARED_PLAN_CACHE` in this process; a
per-process clone for process workers), so the thousands of reward queries
a search run issues share compiled plan sets.  The search does not report
on that cache: the executor's ``PlanStats`` counts its hits and compiles.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..difftree.tree import Difftree
from ..transform.engine import TransformEngine
from .backends import ParallelSearchResult, SearchBackend, SearchJob, SerialBackend
from .config import SearchConfig
from .mcts import RewardFn

__all__ = ["ParallelSearchResult", "parallel_search"]


def parallel_search(
    initial_trees: Sequence[Difftree],
    engine: Optional[TransformEngine] = None,
    reward_fn: Optional[RewardFn] = None,
    config: Optional[SearchConfig] = None,
    engine_factory: Optional[Callable[[int], TransformEngine]] = None,
    reward_factory: Optional[Callable[[int], RewardFn]] = None,
    reward_table=None,
    backend: Optional[SearchBackend] = None,
) -> ParallelSearchResult:
    """Run the synchronized parallel search on ``backend`` (default serial).

    ``config.backend`` is not consulted here: only the pipeline can build a
    process backend (it needs the request's catalogue and queries), so a
    search driven by closures runs serially.
    """
    job = SearchJob(
        initial_trees=list(initial_trees),
        config=config or SearchConfig(),
        engine=engine,
        reward_fn=reward_fn,
        engine_factory=engine_factory,
        reward_factory=reward_factory,
        reward_table=reward_table,
    )
    return (backend or SerialBackend()).run(job)
