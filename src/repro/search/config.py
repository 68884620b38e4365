"""Search configuration shared by MCTS workers and the end-to-end pipeline.

Defaults follow the paper's Section 7.3: early stop after 30 unimproved
iterations, 3 parallel workers, synchronization every 10 iterations, and K=5
random interface mappings per reward estimate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class SearchConfig:
    """Tunable parameters of the Difftree search.

    Attributes:
        max_iterations: hard cap on MCTS iterations per worker.
        early_stop: stop when the best state has not improved for this many
            iterations (the paper's ``es`` parameter, default 30).
        workers: number of (simulated) parallel MCTS workers (``p``, default 3).
        sync_interval: synchronize workers every this many iterations
            (``s``, default 10).
        exploration_c: the UCT exploration constant ``c`` in Equation 1.
        variance_d: the ``d`` constant in the variance term of Equation 1.
        rollout_depth: maximum number of random transformations per playout.
        reward_mappings: number of random interface mappings (``K``) used to
            estimate a state's reward.
        terminate_probability: chance of choosing the special TERMINATE rule
            at each playout step.
        max_applications: cap on enumerated rule applications per state.
        seed: seed for all randomness (reproducibility).
        backend: search-execution backend — ``"serial"`` (deterministic
            round-robin in one thread) or ``"process"`` (one OS process per
            worker on a supervised worker pool, see
            :mod:`repro.search.backends`).  The ``REPRO_SEARCH_BACKEND``
            environment variable overrides this.  Only the pipeline and the
            generation service act on it; a bare
            :func:`~repro.search.parallel.parallel_search` runs serially.
        shared_rewards: share every worker's newly evaluated rewards through
            the cross-worker reward table at each synchronization round, so
            overlapping states are evaluated once globally instead of once
            per worker.  Because rewards are a pure function of
            (seed, state fingerprint) — see
            :func:`repro.core.pipeline.make_reward_fn` — table hits return
            exactly the value ``reward_fn`` would have computed, so sharing
            (and pre-seeding the table from a persisted cache) changes cost
            but never trajectories: results are byte-identical with sharing
            on or off, cold or warm.
        round_deadline_seconds: supervision deadline on every worker reply
            in the process protocol (``task-ready``, per-round ``sync``,
            final ``done``): a worker silent for longer is declared hung and
            replaced / retried.  ``None`` disables hang detection (crashes
            are still caught through process sentinels).
        request_deadline_seconds: wall-clock budget for one whole search
            request; when it expires the search degrades to the serial
            in-process backend instead of waiting (``None``: no budget).
        task_retries: supervised replays of a process task after a worker
            failure before the pool gives up and the search degrades (the
            service's ladder, or a one-shot run's serial fall-back).
        retry_backoff_seconds: base of the jittered exponential backoff
            slept between those replays (deterministic per seed — see
            :func:`repro.faults.backoff_delays`).

    The four resilience knobs are schedule parameters: like worker count and
    sync interval they are deliberately outside the persistence-key config
    fingerprint, and — because rewards are pure — they can never change
    which interface is generated, only how failures are survived.
    """

    max_iterations: int = 120
    early_stop: int = 30
    workers: int = 3
    sync_interval: int = 10
    exploration_c: float = 1.2
    variance_d: float = 1.0
    rollout_depth: int = 14
    reward_mappings: int = 5
    terminate_probability: float = 0.08
    max_applications: int = 48
    seed: int = 42
    backend: str = "serial"
    shared_rewards: bool = True
    round_deadline_seconds: Optional[float] = 300.0
    request_deadline_seconds: Optional[float] = None
    task_retries: int = 2
    retry_backoff_seconds: float = 0.05

    def rng(self, offset: int = 0) -> random.Random:
        """A deterministic RNG derived from the seed (per worker offset)."""
        return random.Random(self.seed + offset * 7919)

    def replace(self, **kwargs) -> "SearchConfig":
        """A copy of the configuration with the given fields overridden."""
        data = self.__dict__.copy()
        data.update(kwargs)
        return SearchConfig(**data)


@dataclass
class SearchStats:
    """Diagnostics collected by a search run (used by the benchmarks).

    Every count describes this search alone, and none is a cache snapshot:
    plan-cache and memo lookups are counted by the executor's ``PlanStats``
    and the mapper's ``MapperStats``, reward-table lookups here by
    ``reward_table_hits`` (hits) and ``states_evaluated`` (misses).
    """

    iterations: int = 0
    states_evaluated: int = 0
    rule_applications: int = 0
    best_reward: float = float("-inf")
    best_iteration: int = 0
    early_stopped: bool = False
    per_worker_iterations: list[int] = field(default_factory=list)
    search_seconds: float = 0.0
    #: reward-cache hits: states whose reward was reused instead of calling
    #: ``reward_fn`` (rollout revisits plus seeds adopted from other workers)
    reward_cache_hits: int = 0
    #: rewards planted into a worker's cache by ``adopt()`` during
    #: synchronization, so broadcast states are never re-evaluated
    rewards_seeded: int = 0
    #: the backend that actually ran the search (``"serial"`` or
    #: ``"process"``); ``"serial"`` for a process request whose worker pool
    #: could not recover (see ``degraded``) or for a bare
    #: :func:`~repro.search.parallel.parallel_search` call
    backend: str = "serial"
    #: evaluations answered by the cross-worker shared reward table instead
    #: of calling ``reward_fn`` (states another worker already evaluated)
    reward_table_hits: int = 0
    #: synchronization rounds the coordinator ran (best-state broadcast +
    #: reward-delta merge every ``sync_interval`` iterations)
    sync_rounds: int = 0
    #: worker warm-up cost: seconds from backend start until every worker
    #: had evaluated the initial state.  On a cold process pool this adds
    #: the pool's spawn and each worker's reward-context rebuild over cold
    #: per-process caches (``0.0`` on a warm pool, which paid them earlier);
    #: serial workers evaluate through the parent's shared (usually already
    #: warm) caches, so their warm-up is much smaller
    warmup_seconds: float = 0.0
    #: how this request's workers came up: ``None`` for a one-shot search,
    #: ``"cold"`` for the first request served by a pool (spawn + warmup paid
    #: here), ``"warm"`` for subsequent requests on live workers
    pool: Optional[str] = None
    #: reward-table entries preloaded before the search started (from a
    #: persisted cache file or a previous request over the same catalogue /
    #: workload); these states are never re-evaluated
    reward_table_loaded: int = 0
    #: a worker's metrics for this task as a flat ``{name: count}`` dict
    #: (:func:`repro.obs.views.worker_metrics_snapshot`): process-backend
    #: workers attach theirs to the ``done`` reply, and the aggregate stats
    #: carry their sum (:func:`repro.obs.views.add_counts`) under
    #: ``workers.*`` and ``pool.*``
    metrics: Optional[dict] = None
    #: span events (:class:`repro.obs.trace.SpanEvent`) a worker process
    #: recorded while tracing was enabled; the coordinator adopts them into
    #: its tracer so one exported trace covers every process of the run
    spans: Optional[list] = None
    #: set when supervision degraded this search off its requested backend:
    #: ``"serial"`` when a one-shot process search's pool could not recover
    #: and the pipeline re-ran the search in-process (the service adds
    #: ``"fresh-pool"``); ``None`` on the happy path
    degraded: Optional[str] = None
