"""The benchmark's three workloads.

Each is a closed loop: one client in this process sends its next request
only after the previous one returned.  The workload seed fixes every input
(catalogue seed, search seed, perturbation seeds, request order); the
program only ever receives the generated inputs.

* ``filter_cold`` - the paper's Listing 4 Filter log (9 queries) at
  catalogue scale 0.15 on the serial backend.  Every request builds a fresh
  catalogue, so the plan cache and mapping memo start empty, as in a one-shot
  ``repro generate``.  The final Algorithm-1 mapping dominates.
* ``service_filter36`` - one ``GenerationService`` (process backend, 2
  workers, scale 1.5).  Timed requests are Filter x36 logs in a fixed
  pattern: one ``new`` log, then two ``hit`` repeats of logs already served.
  New requests are dominated by reward evaluation in the workers; hit
  requests are answered by the reward table, leaving pool round trips and
  the final mapping.
* ``sales_sql`` - the Listing 7 Sales log (6 queries, correlated HAVING
  subqueries) at scale 32, fresh catalogue per request.  SQL execution
  dominates both generation and replaying the generated interface.

The configurations are frozen copies of the repository's benchmark settings
(``benchmarks/conftest.py::bench_config`` and the service benchmark's
budgets), so a change to those files does not move this benchmark.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.core import pipeline
from repro.core.config import PipelineConfig
from repro.database.datasets import standard_catalog
from repro.database.plancache import SHARED_PLAN_CACHE
from repro.mapping.mapper import MapperConfig
from repro.mapping.memo import SHARED_MAPPING_MEMO
from repro.search.config import SearchConfig
from repro.service import GenerationService
from repro.workloads import WORKLOADS, scale_workload


def oneshot_config(seed: int, scale: float) -> PipelineConfig:
    """``bench_config(seed)`` at ``scale``: serial backend, reduced budgets."""
    return PipelineConfig(
        search=SearchConfig(
            max_iterations=48,
            early_stop=16,
            workers=1,
            sync_interval=8,
            rollout_depth=12,
            reward_mappings=2,
            seed=seed,
        ),
        mapper=MapperConfig(
            top_k=5, max_vis_per_tree=3, max_joint_vis=8, max_searchm_calls=1500
        ),
        catalog_scale=scale,
        seed=seed,
    )


def service_config(seed: int) -> PipelineConfig:
    """The service benchmark's budgets: 2 process workers x 48 iterations."""
    return PipelineConfig(
        search=SearchConfig(
            max_iterations=48,
            early_stop=10**6,
            workers=2,
            sync_interval=12,
            rollout_depth=16,
            reward_mappings=5,
            max_applications=64,
            seed=seed,
            backend="process",
            shared_rewards=True,
        ),
        mapper=MapperConfig(
            top_k=2, max_vis_per_tree=3, max_joint_vis=4, max_searchm_calls=200
        ),
        catalog_scale=1.5,
        seed=seed,
    )


@dataclass
class Request:
    """One request of the closed loop."""

    index: int
    log_id: str
    queries: tuple
    #: ``cold`` (one-shot), ``new`` or ``hit`` (service)
    cls: str
    #: the log was already served earlier in this run
    repeat: bool


@dataclass
class Served:
    result: object
    gen_s: float
    #: catalogue build inside the request (one-shot workloads), else None
    build_s: float | None
    catalog: object
    #: reasons the request is not of its declared class (empty = ok)
    class_errors: list
    #: the service's ``RequestStats`` for this request (service only)
    request_stats: object = None


class OneShot:
    """Fresh catalogue and one-shot pipeline per request."""

    #: untraced requests the traced run compares against: the first request
    REFERENCE_REQUESTS = 1

    def __init__(self, log: str, scale: float, seed: int, setups: int) -> None:
        rng = random.Random(f"{log}:{seed}")
        self.queries = tuple(WORKLOADS[log].queries)
        self.scale = scale
        self.catalog_seed = rng.randrange(1 << 30)
        self.config = oneshot_config(rng.randrange(1 << 30), scale)
        self.log = log
        #: catalogue builds before the loop; with the per-request builds
        #: their median is ``setup_s``
        self.SETUPS = setups

    def setup(self) -> None:
        """The set-up every request repeats: building its catalogue."""
        standard_catalog(seed=self.catalog_seed, scale=self.scale)

    def requests(self):
        index = 0
        while True:
            yield Request(index, self.log, self.queries, "cold", index > 0)
            index += 1

    def serve(self, request: Request) -> Served:
        start = time.perf_counter()
        catalog = standard_catalog(seed=self.catalog_seed, scale=self.scale)
        build = time.perf_counter() - start
        errors = []
        if SHARED_PLAN_CACHE.size(catalog) or SHARED_MAPPING_MEMO.size(catalog):
            errors.append("one-shot request started with cached plans or memo entries")
        start = time.perf_counter()
        result = pipeline.generate_interface(
            list(request.queries), catalog=catalog, config=self.config
        )
        return Served(result, time.perf_counter() - start, build, catalog, errors)

    def catalog_for(self, log_id: str):
        return standard_catalog(seed=self.catalog_seed, scale=self.scale)

    def worker_pids(self) -> tuple:
        return ()

    def close(self) -> None:
        """Nothing outlives a one-shot request."""


class Service:
    """One long-lived ``GenerationService`` serving Filter x36 logs."""

    QUERIES = 36
    SCALE = 1.5
    #: set-ups per run; ``setup_s`` is their median
    SETUPS = 3
    #: untraced requests the traced run compares against: one new, one hit
    REFERENCE_REQUESTS = 2

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"service_filter36:{seed}")
        self.catalog_seed = self.rng.randrange(1 << 30)
        self.config = service_config(self.rng.randrange(1 << 30))
        self.service: GenerationService | None = None
        self._perturb_seeds = random.Random(self.rng.randrange(1 << 30))
        #: the warm-up log is drawn first, so it never coincides with a timed one
        self._warmup = self._new_log()

    def _new_log(self) -> tuple[str, tuple]:
        pseed = self._perturb_seeds.randrange(1 << 30)
        log = scale_workload(WORKLOADS["filter"], self.QUERIES, seed=pseed)
        return f"filter_x36:{pseed}", tuple(log.queries)

    def setup(self) -> None:
        """Catalogue, shared-memory registration, spawn and warm-up request."""
        self.close()
        catalog = standard_catalog(seed=self.catalog_seed, scale=self.SCALE)
        self.service = GenerationService(catalog, config=self.config)
        self.service.generate(list(self._warmup[1]))

    def requests(self):
        order = random.Random(self.rng.randrange(1 << 30))
        served: list[tuple[str, tuple]] = []
        index = 0
        while True:
            log_id, queries = self._new_log()
            yield Request(index, log_id, queries, "new", False)
            served.append((log_id, queries))
            for _ in range(2):
                index += 1
                log_id, queries = order.choice(served)
                yield Request(index, log_id, queries, "hit", True)
            index += 1

    def serve(self, request: Request) -> Served:
        start = time.perf_counter()
        result = self.service.generate(list(request.queries))
        elapsed = time.perf_counter() - start
        stats = self.service.requests[-1]
        evaluated = result.search_stats.states_evaluated
        errors = []
        if request.cls == "new" and (stats.reward_table_loaded != 0 or evaluated == 0):
            errors.append(
                f"new request had reward_table_loaded={stats.reward_table_loaded} "
                f"states_evaluated={evaluated}"
            )
        if request.cls == "hit" and (evaluated != 0 or stats.reward_table_hits == 0):
            errors.append(
                f"hit request had states_evaluated={evaluated} "
                f"reward_table_hits={stats.reward_table_hits}"
            )
        return Served(result, elapsed, None, self.service.catalog, errors, stats)

    def catalog_for(self, log_id: str):
        return self.service.catalog

    def worker_pids(self) -> tuple:
        pool = self.service._pool if self.service is not None else None
        return tuple(p.pid for p in pool._processes) if pool is not None else ()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None


def make(name: str, seed: int):
    # a 2-ms build needs more samples than a run's ~6 requests give it
    if name == "filter_cold":
        return OneShot("filter", 0.15, seed, setups=20)
    if name == "sales_sql":
        return OneShot("sales", 32.0, seed, setups=0)
    if name == "service_filter36":
        return Service(seed)
    raise KeyError(name)


NAMES = ("filter_cold", "service_filter36", "sales_sql")
