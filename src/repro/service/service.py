"""The long-lived generation service: one pool, many requests.

:class:`GenerationService` is the front door of the persistent-service
stack.  It owns a :class:`~repro.service.pool.WorkerPool` (built lazily on
the first request that resolves to the process backend), a registry of
cross-request reward tables keyed by the persistence key, and — when given a
cache directory — cross-run persistence through the pipeline's
``config.cache_dir`` path.  Every request reports per-request warm/cold
statistics via :class:`RequestStats`.

What a repeat request skips, layer by layer:

=====================  ====================================================
process spawn           paid once at pool build (``pool.spawn_seconds``)
catalogue rebuild       workers attached the shared-memory segment once
plan cache / memo       per-process caches persist across tasks
reward evaluation       the per-key reward table answers previously
                        explored states (and persists across *runs* via the
                        cache directory)
=====================  ====================================================

Because rewards are pure functions of (seed, state), none of this reuse can
change the generated interface — warm requests are byte-identical to cold
ones, only faster.

Resilience (PR 10): a request that resolves to the process backend runs down
a **degradation ladder** instead of failing on the first worker problem —

1. the (warm or cold) pool, which itself retries tasks and replaces dead
   workers (:meth:`repro.service.pool.WorkerPool.run_task`);
2. a **fresh pool**, rebuilt from scratch when the first one could not
   recover (``degraded="fresh-pool"``);
3. the **serial in-process backend**, which needs no worker processes and
   always completes (``degraded="serial"``).

A ``request_deadline_seconds`` budget skips remaining pool rungs once it
expires (``deadline_exceeded=True``).  Every rung produces byte-identical
output (rewards are pure), so degradation trades speed, never correctness;
:class:`RequestStats` records what the request survived.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.config import PipelineConfig, PipelineResult
from ..core.pipeline import GenerationRuntime, generate_interface
from ..database.catalog import Catalog
from ..database.datasets import standard_catalog
from ..difftree.builder import parse_queries
from ..faults import DeadlineExceeded, GenerationFailure, WorkerFailure
from ..obs import add_counts, publish_request_stats, span
from ..search.backends import (
    ProcessBackend,
    RewardTable,
    SerialBackend,
    resolve_backend_name,
)
from .persist import persistence_key
from .pool import WorkerPool

__all__ = ["GenerationService", "RequestStats"]


@dataclass
class RequestStats:
    """Warm/cold and resilience observability for one service request."""

    #: ``"warm"`` / ``"cold"`` pool state the request ran under (``None``
    #: when the request ran on an in-process backend without a pool)
    pool: Optional[str]
    seconds: float
    warmup_seconds: float
    #: reward-table entries available *before* the search (carried over from
    #: earlier requests or loaded from the persisted cache)
    reward_table_loaded: int
    reward_table_hits: int
    backend: str
    #: supervised task replays the pool needed for this request (0 on the
    #: happy path)
    retries: int = 0
    #: worker processes respawned while serving this request
    workers_replaced: int = 0
    #: degradation rung that produced the result — ``"fresh-pool"`` or
    #: ``"serial"`` — or ``None`` when the requested backend served it
    degraded: Optional[str] = None
    #: the request-level deadline expired while serving (the serial rung
    #: finished the request anyway)
    deadline_exceeded: bool = False

    def summary(self) -> str:
        pool = self.pool or "off"
        line = (
            f"pool={pool} backend={self.backend} "
            f"reward_table_loaded={self.reward_table_loaded} "
            f"reward_table_hits={self.reward_table_hits} "
            f"warmup={self.warmup_seconds:.3f}s total={self.seconds:.3f}s"
        )
        if self.retries or self.workers_replaced:
            line += f" retries={self.retries} workers_replaced={self.workers_replaced}"
        if self.degraded:
            line += f" degraded={self.degraded}"
        if self.deadline_exceeded:
            line += " deadline_exceeded"
        return line


class GenerationService:
    """Serve repeated interface generations over one catalogue.

    Use as a context manager (or call :meth:`close`) so the pool's processes
    and the catalogue's shared-memory segment are released deterministically.

    A service serves one request at a time, and it is not safe to share
    between threads: every ``repro`` process is single-threaded, so its
    pool, request list and reward tables take no lock.

    Args:
        catalog: the catalogue all requests run against; defaults to the
            synthetic standard catalogue for the config's seed / scale.
        config: base pipeline configuration for requests (per-request
            overrides go through :meth:`generate`'s ``config``).
        cache_dir: when set, every request persists / reloads its caches
            under this directory (see :mod:`repro.service.persist`).
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        config: Optional[PipelineConfig] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.config = config or PipelineConfig()
        self.catalog = catalog or standard_catalog(
            seed=self.config.seed, scale=self.config.catalog_scale
        )
        self.cache_dir = cache_dir
        self.requests: list[RequestStats] = []
        self._pool: Optional[WorkerPool] = None
        #: persistence key -> cross-request reward table
        self._tables: dict[str, RewardTable] = {}
        self._keys_served: set[str] = set()
        self.closed = False

    # -- pool management -----------------------------------------------------

    def _live_pool(self, config: PipelineConfig) -> WorkerPool:
        """The service's pool, built by the first process request."""
        if self._pool is None:
            self._pool = WorkerPool(self.catalog, config.search.workers)
        return self._pool

    def _reset_pool(self) -> None:
        """Release the current pool so the next rung builds a fresh one."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def _supervisor_growth(self, before: dict) -> dict:
        """How much the live pool's supervisor counts grew past ``before``."""
        now = self._pool.supervisor if self._pool is not None else {}
        return {
            name: count - before.get(name, 0)
            for name, count in now.items()
            if count > before.get(name, 0)
        }

    # -- requests -------------------------------------------------------------

    def generate(
        self,
        queries: Sequence,
        config: Optional[PipelineConfig] = None,
    ) -> PipelineResult:
        """Generate an interface, reusing every warm layer the service holds."""
        if self.closed:
            raise RuntimeError("generation service is closed")
        config = config or self.config
        if self.cache_dir is not None and config.cache_dir is None:
            config = config.replace(cache_dir=self.cache_dir)

        asts = parse_queries(list(queries))
        key = persistence_key(self.catalog, asts, config)
        table = self._tables.get(key)
        if table is None:
            table = RewardTable()
            self._tables[key] = table
        loaded_before = table.size()

        process_resolved = resolve_backend_name(config.search.backend) == "process"
        request_deadline = getattr(
            config.search, "request_deadline_seconds", None
        )
        deadline_at = (
            time.monotonic() + request_deadline if request_deadline else None
        )
        rungs = ("pool", "fresh-pool", "serial") if process_resolved else ("direct",)

        pool_state: Optional[str] = None
        degraded: Optional[str] = None
        deadline_exceeded = False
        # the supervisor counts this request added, over every pool rung
        pool_counts: dict = {}
        result: Optional[PipelineResult] = None
        for rung in rungs:
            terminal = rung in ("serial", "direct")
            if (
                not terminal
                and deadline_at is not None
                and time.monotonic() >= deadline_at
            ):
                # no budget left for (re)building worker processes: fall
                # through to the serial rung, which always completes
                deadline_exceeded = True
                continue
            if rung == "fresh-pool":
                degraded = "fresh-pool"
            elif rung == "serial":
                degraded = "serial"
            # taken before the rung builds or reuses the pool, so a pool built
            # here reports its construction counts to this request
            before = dict(self._pool.supervisor) if self._pool is not None else {}
            try:
                if rung in ("pool", "fresh-pool"):
                    pool = self._live_pool(config)
                    pool_state = "warm" if pool.warm else "cold"
                    runtime = GenerationRuntime(
                        backend=ProcessBackend(pool, asts, config),
                        reward_table=table,
                        pool=pool_state,
                    )
                elif rung == "serial":
                    # bypasses both the name resolution and the
                    # REPRO_SEARCH_BACKEND override: no worker processes
                    runtime = GenerationRuntime(
                        backend=SerialBackend(),
                        reward_table=table,
                        pool=pool_state,
                    )
                else:  # direct: the in-process backend the config asked for
                    pool_state = (
                        "warm"
                        if loaded_before or key in self._keys_served
                        else "cold"
                    )
                    runtime = GenerationRuntime(reward_table=table, pool=pool_state)
                with span(
                    "service.request", pool=pool_state, rung=rung, key=key[:16]
                ):
                    result = generate_interface(
                        asts, catalog=self.catalog, config=config, runtime=runtime
                    )
                add_counts(pool_counts, self._supervisor_growth(before))
                break
            except (WorkerFailure, DeadlineExceeded) as exc:
                # harvest the failed rung's supervision counts before the
                # pool object is dropped, then step down the ladder
                add_counts(pool_counts, self._supervisor_growth(before))
                if isinstance(exc, DeadlineExceeded):
                    deadline_exceeded = True
                self._reset_pool()
                if terminal:  # pragma: no cover - serial cannot fail this way
                    raise GenerationFailure(
                        f"every degradation rung failed (last: {exc})"
                    ) from exc
        if result is None:  # pragma: no cover - defensive
            raise GenerationFailure("no degradation rung produced a result")
        self._keys_served.add(key)
        stats = result.search_stats
        degraded = degraded or getattr(stats, "degraded", None)
        stats.degraded = degraded
        # the table may have been populated by a persisted-cache load inside
        # the pipeline; what the *search* saw preloaded is authoritative
        loaded = max(loaded_before, getattr(stats, "reward_table_loaded", 0))
        stats.reward_table_loaded = loaded
        request = RequestStats(
            pool=pool_state,
            seconds=result.total_seconds,
            warmup_seconds=stats.warmup_seconds,
            reward_table_loaded=loaded,
            reward_table_hits=stats.reward_table_hits,
            backend=stats.backend,
            retries=pool_counts.get("pool.task_retries", 0),
            workers_replaced=pool_counts.get("pool.workers_replaced", 0),
            degraded=degraded,
            deadline_exceeded=deadline_exceeded,
        )
        self.requests.append(request)
        # add the request's service.* and pool supervision counts to the
        # run's metrics so they ride along in trace/stats exports
        request_metrics = dict(pool_counts)
        publish_request_stats(request, request_metrics)
        if result.metrics is not None:
            add_counts(result.metrics, dict(sorted(request_metrics.items())))
        return result

    def generate_workload(self, workload, config: Optional[PipelineConfig] = None):
        """Generate for a named workload log."""
        from ..workloads.logs import Workload, get_workload

        if isinstance(workload, str):
            workload = get_workload(workload)
        assert isinstance(workload, Workload)
        return self.generate(list(workload.queries), config=config)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release pool processes and shared-memory segments (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self._reset_pool()

    def __enter__(self) -> "GenerationService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
