"""The end-to-end PI2 pipeline (paper Figure 6).

``generate_interface(queries, …)`` is the library's main entry point.  It:

1. parses the input query sequence into per-query Difftrees (optionally
   clustering them by result schema, the paper's initial Partition),
2. runs parallel MCTS over the transformation-rule search space, estimating
   each state's reward from K random interface mappings,
3. runs Algorithm 1 (visualization / interaction / layout mapping) on the
   best Difftree state, and
4. returns the lowest-cost interface together with search diagnostics.

The MCTS step executes on a pluggable backend (serial round-robin or true
worker processes — :mod:`repro.search.backends`).  The reward context each
worker needs (executor, cost model, mapper) is built by
:func:`build_reward_setup`, used both in this process and inside each
:class:`~repro.service.pool.WorkerPool` worker, so both backends run the
same reward code against the same catalogue.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .. import faults
from ..cost.model import CostModel
from ..database.catalog import Catalog
from ..database.datasets import standard_catalog
from ..database.executor import Executor
from ..database.plancache import SHARED_PLAN_CACHE, CatalogCache
from ..difftree.builder import (
    cluster_by_result_schema,
    initial_difftrees,
    merge_difftrees,
    parse_queries,
)
from ..interface.spec import Interface
from ..mapping.mapper import InterfaceMapper
from ..mapping.memo import SHARED_MAPPING_MEMO
from ..obs import (
    add_counts,
    publish_mapper_stats,
    publish_plan_stats,
    publish_search_stats,
    span,
)
from ..search.backends import ProcessBackend, SearchBackend, resolve_backend_name
from ..search.mcts import RewardFn
from ..search.parallel import parallel_search
from ..search.state import SearchState
from ..sqlparser.ast_nodes import Node
from ..transform.engine import TransformEngine
from .config import PipelineConfig, PipelineResult

QueryLike = Union[str, Node]


class PipelineError(RuntimeError):
    """Raised when the pipeline cannot produce any candidate interface."""


def best_interface_cost(interfaces: Sequence) -> float:
    """The minimum total cost over candidate interfaces.

    Candidates whose cost could not be computed carry ``cost is None``; when
    *every* candidate is costless this returns ``+inf`` (worst possible cost)
    rather than raising ``ValueError`` on an empty ``min()`` — the reward
    closure in :func:`generate_interface` then maps that to a ``-inf`` reward.
    """
    costs = [i.cost.total for i in interfaces if i.cost is not None]
    if not costs:
        return float("inf")
    return min(costs)


# ---------------------------------------------------------------------------
# reward context — shared by the in-process pipeline and process workers
# ---------------------------------------------------------------------------


@dataclass
class RewardSetup:
    """Everything the reward loop needs, built once per process."""

    catalog: Catalog
    executor: Executor
    cost_model: CostModel
    mapper: InterfaceMapper
    memo: Optional[CatalogCache]


def build_reward_setup(
    catalog: Catalog, asts: Sequence[Node], config: PipelineConfig
) -> RewardSetup:
    """Build the executor, cost model and mapper for one process.

    One executor and one mapper serve the reward loop, the search's
    transforms and the final Algorithm-1 mapping, so each distinct statement
    runs once per process and its result is cached for every later caller.
    The executor compiles through the process-wide shared plan cache, so any
    executor a caller builds later over the same catalogue reuses one
    compiled plan set, and the mapper reads and fills the process-wide
    mapping memo.
    """
    executor = Executor(catalog, plan_cache=SHARED_PLAN_CACHE)
    cost_model = CostModel(asts, config.cost)
    memo = SHARED_MAPPING_MEMO if config.mapper.memoize else None
    mapper = InterfaceMapper(catalog, executor, cost_model, config.mapper, memo=memo)
    return RewardSetup(
        catalog=catalog,
        executor=executor,
        cost_model=cost_model,
        mapper=mapper,
        memo=memo,
    )


def make_reward_fn(
    setup: RewardSetup, config: PipelineConfig, worker_index: int = 0
) -> RewardFn:
    """The reward estimator (K random mappings, reward = −min cost).

    A state's reward is a *pure function* of ``(config.seed, state)``: the K
    random mappings are drawn from a throwaway RNG seeded by hashing the
    seed with the state's structural fingerprint.  Purity is what makes the
    whole caching hierarchy value-neutral — a reward-table hit (same round,
    another worker, a previous request on a warm pool, or a persisted cache
    file reloaded in a fresh process) returns exactly the value this function
    would have computed, so caching changes cost, never trajectories, and
    which worker evaluates a state first cannot matter.  ``worker_index``
    only addresses fault injection; it never affects rewards.
    """
    mapper = setup.mapper
    mappings = config.search.reward_mappings
    seed = config.seed

    def reward_fn(state: SearchState) -> float:
        # supervision test hook: a no-op None check unless a fault plan is
        # installed (see repro.faults)
        faults.maybe_hang("hang-in-reward-eval", worker=worker_index)
        digest = hashlib.sha256(
            f"{seed}|{state.trees_fingerprint()}".encode("utf-8")
        ).digest()
        reward_rng = random.Random(int.from_bytes(digest[:8], "big"))
        interfaces = mapper.random_interfaces(state.trees, mappings, reward_rng)
        if not interfaces:
            return float("-inf")
        best = best_interface_cost(interfaces)
        if best == float("inf"):
            # every candidate came back costless: worst possible reward
            return float("-inf")
        return -best

    return reward_fn


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


@dataclass
class GenerationRuntime:
    """Execution context a long-lived generation service threads through
    :func:`generate_interface`.

    One-shot callers never build one — every field has a cold default.  The
    service (:mod:`repro.service.service`) uses it to (a) run the search on
    its live :class:`~repro.service.pool.WorkerPool` (or, on its last rung,
    the serial backend) instead of resolving the configured backend, (b) hand
    in the per-(catalogue, workload) reward table it keeps across requests,
    and (c) label the request's :class:`~repro.search.config.SearchStats` as
    pool-warm or pool-cold.
    """

    #: the backend to run the search on; ``None`` resolves the configured
    #: backend by name (a ``"process"`` search then gets a one-shot pool)
    backend: Optional[SearchBackend] = None
    #: pre-populated cross-worker reward table carried across requests
    reward_table: Optional[object] = None
    #: ``"warm"`` / ``"cold"`` pool state for the request's stats
    pool: Optional[str] = None


def generate_interface(
    queries: Sequence[QueryLike],
    catalog: Optional[Catalog] = None,
    config: Optional[PipelineConfig] = None,
    runtime: Optional[GenerationRuntime] = None,
) -> PipelineResult:
    """Generate the lowest-cost interactive interface for a query sequence.

    Args:
        queries: the example analysis queries (SQL strings or parsed ASTs),
            in the order the analyst issued them.
        catalog: the database catalogue to run against; defaults to the
            synthetic catalogue containing every table the paper uses.
        config: pipeline configuration; defaults to the paper's defaults.
        runtime: execution context threaded in by the generation service
            (warm worker pool, carried-over reward table); ``None`` runs the
            one-shot cold path.

    Returns:
        A :class:`PipelineResult` whose ``interface`` is the generated
        :class:`repro.interface.spec.Interface`.
    """
    config = config or PipelineConfig()
    catalog = catalog or standard_catalog(seed=config.seed, scale=config.catalog_scale)
    runtime = runtime or GenerationRuntime()
    with span("pipeline.parse", queries=len(queries)):
        asts = parse_queries(queries)
    setup = build_reward_setup(catalog, asts, config)
    executor = setup.executor

    # cross-run cache persistence: reload previously explored states keyed by
    # (catalogue, workload, reward-relevant config) before the search starts,
    # and save the extended state afterwards.  Imported via a function-level
    # import so the core pipeline has no hard dependency on the service layer
    reward_table = runtime.reward_table
    cache_store = cache_key = None
    if config.cache_dir is not None:
        from ..search.backends.base import RewardTable
        from ..service.persist import CacheStore, persistence_key

        cache_store = CacheStore(config.cache_dir)
        cache_key = persistence_key(catalog, asts, config)
        if reward_table is None:
            reward_table = RewardTable()
        if reward_table.size() == 0:
            bundle = cache_store.load(cache_key)
            if bundle is not None:
                reward_table.seed(bundle.rewards)
                SHARED_PLAN_CACHE.import_entries(catalog, bundle.plans)
                if setup.memo is not None:
                    setup.memo.import_entries(catalog, bundle.memo)

    total_start = time.perf_counter()

    # step 1: initial Difftrees (optionally clustered by result schema)
    with span("pipeline.plan", queries=len(asts)):
        trees = initial_difftrees(asts)
        if config.initial_partition and len(trees) > 1:
            clusters = cluster_by_result_schema(trees, executor)
            trees = [merge_difftrees(cluster) for cluster in clusters]

        # step 2: MCTS over transformation rules
        engine = TransformEngine(
            catalog, executor, max_applications=config.search.max_applications
        )
        if config.initial_refactor:
            trees = engine.refactor_to_fixpoint(trees)

    # every worker gets a private engine (its rule-application cache must not
    # couple workers across rounds) and a private reward-RNG stream; process
    # workers rebuild the same pair from the request inside their process
    def engine_factory(worker_index: int) -> TransformEngine:
        return TransformEngine(
            catalog, executor, max_applications=config.search.max_applications
        )

    def reward_factory(worker_index: int) -> RewardFn:
        return make_reward_fn(setup, config, worker_index)

    def search(backend: Optional[SearchBackend]):
        return parallel_search(
            trees,
            config=config.search,
            engine_factory=engine_factory,
            reward_factory=reward_factory,
            reward_table=reward_table,
            backend=backend,
        )

    search_start = time.perf_counter()
    pool = None
    try:
        with span("pipeline.search", workers=config.search.workers):
            backend = runtime.backend
            if backend is None and resolve_backend_name(config.search.backend) == "process":
                # one-shot process search: a pool over this request's
                # catalogue serves one task under the same supervision
                # (replace-and-replay, task_retries) as the service's pool.
                # Imported here so the core pipeline has no hard dependency
                # on the service layer
                from ..service.pool import WorkerPool

                pool = WorkerPool(catalog, config.search.workers)
                backend = ProcessBackend(pool, asts, config)
            result = search(backend)
    except (faults.WorkerFailure, faults.DeadlineExceeded):
        if runtime.backend is not None:
            # a service-managed backend: its degradation ladder (fresh pool,
            # then serial) owns the recovery — don't double-degrade here
            raise
        # the one-shot pool could not recover: re-run on the serial
        # in-process backend.  Rewards are pure functions of (seed, state),
        # so the serial result is byte-identical to what the process run
        # would have produced
        with span("pipeline.search", workers=config.search.workers, degraded="serial"):
            result = search(None)
        result.stats.degraded = "serial"
    finally:
        if pool is not None:
            pool.close()
    search_seconds = time.perf_counter() - search_start
    if runtime.pool is not None:
        result.stats.pool = runtime.pool

    # step 3: exhaustive interface mapping on the best state (Algorithm 1)
    mapper = setup.mapper
    mapping_start = time.perf_counter()
    with span("pipeline.map", trees=len(result.best_state.trees)):
        candidates = mapper.generate(result.best_state.trees)
    mapping_seconds = time.perf_counter() - mapping_start
    if not candidates:
        raise PipelineError(
            "interface mapping produced no candidates for the best search "
            f"state ({len(result.best_state.trees)} tree(s)); the state may "
            "contain queries whose results violate every chart's constraints"
        )
    interface = candidates[0]

    # persist *after* Algorithm 1 so the saved bundle also carries the final
    # mapping's fragments, not just the reward loop's
    if cache_store is not None and reward_table is not None:
        memo_entries = (
            setup.memo.export_entries(catalog) if setup.memo is not None else []
        )
        cache_store.save(
            cache_key,
            rewards=reward_table.snapshot(),
            plans=SHARED_PLAN_CACHE.export_entries(catalog),
            memo=memo_entries,
        )

    # publish every stats sink into the run's metrics (repro.obs.views
    # declares the total field maps); its counts are this run's alone
    metrics: dict = {}
    publish_search_stats(result.stats, metrics)
    publish_plan_stats(executor.stats, metrics)
    publish_mapper_stats(mapper.stats, metrics)
    if cache_store is not None:
        metrics["persist.loads"] = cache_store.loads
        metrics["persist.misses"] = cache_store.misses + cache_store.load_rejects
        metrics["persist.rejects"] = cache_store.load_rejects
        metrics["persist.saves"] = cache_store.saves
    # the process workers' workers.* / pool.* counts, and the one-shot pool's
    # supervision counts (worker failures, replacements, task replays); the
    # service adds its own pool's
    add_counts(
        metrics, result.stats.metrics, pool.supervisor if pool is not None else None
    )

    return PipelineResult(
        interface=interface,
        state=result.best_state,
        search_seconds=search_seconds,
        mapping_seconds=mapping_seconds,
        total_seconds=time.perf_counter() - total_start,
        search_stats=result.stats,
        mapper_stats=mapper.stats,
        best_reward=result.best_reward,
        candidates=candidates,
        executor_stats=executor.stats,
        metrics=dict(sorted(metrics.items())),
    )


def generate_for_workload(
    workload,
    catalog: Optional[Catalog] = None,
    config: Optional[PipelineConfig] = None,
    runtime: Optional[GenerationRuntime] = None,
) -> PipelineResult:
    """Convenience wrapper: generate the interface for a named workload."""
    from ..workloads.logs import Workload, get_workload

    if isinstance(workload, str):
        workload = get_workload(workload)
    assert isinstance(workload, Workload)
    return generate_interface(
        list(workload.queries), catalog=catalog, config=config, runtime=runtime
    )


def best_static_interface(
    queries: Sequence[QueryLike],
    catalog: Optional[Catalog] = None,
    config: Optional[PipelineConfig] = None,
) -> Interface:
    """The no-search baseline: map each query to its own static chart.

    Used by benchmarks to quantify how much the Difftree search contributes
    over simply rendering every query separately.
    """
    config = config or PipelineConfig()
    catalog = catalog or standard_catalog(seed=config.seed, scale=config.catalog_scale)
    executor = Executor(catalog)
    asts = parse_queries(queries)
    trees = initial_difftrees(asts)
    cost_model = CostModel(asts, config.cost)
    mapper = InterfaceMapper(catalog, executor, cost_model, config.mapper)
    return mapper.generate(trees)[0]
