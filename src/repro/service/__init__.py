"""The persistent generation service (ROADMAP item 1).

Three layers turn the one-shot pipeline into a long-lived service that
amortizes setup across repeated generation requests:

* :mod:`repro.service.pool` — the :class:`~repro.service.pool.WorkerPool`,
  the one lifecycle of process-backend workers; the service keeps one alive
  across searches (spawn + warm-up paid once per pool, not per request);
* :mod:`repro.service.shm` — one shared-memory segment per catalogue,
  holding its tables pickled once, which every pool worker unpickles;
* :mod:`repro.service.persist` — cross-run save/load of the reward table,
  plan cache and mapping memo, keyed by content fingerprints and validated
  on load so stale entries can never alias.

:class:`~repro.service.service.GenerationService` fronts all three; the CLI
exposes it via ``repro serve`` and ``repro generate --pool``.  Supervision
(worker replacement, task replays, the degradation ladder, deadlines) lives
in the pool and the service; :mod:`repro.faults` provides the shared error
vocabulary and the deterministic fault-injection harness that tests it.
"""

from .fingerprint import catalog_fingerprint, config_fingerprint, workload_fingerprint
from .persist import CACHE_VERSION, CacheBundle, CacheStore, persistence_key
from .pool import ServiceWorkerSpec, WorkerPool
from .service import GenerationService, RequestStats
from .shm import CatalogManifest, SharedCatalogRegistry, sweep_orphaned_segments

__all__ = [
    "CACHE_VERSION",
    "CacheBundle",
    "CacheStore",
    "CatalogManifest",
    "GenerationService",
    "RequestStats",
    "ServiceWorkerSpec",
    "SharedCatalogRegistry",
    "WorkerPool",
    "catalog_fingerprint",
    "config_fingerprint",
    "persistence_key",
    "sweep_orphaned_segments",
    "workload_fingerprint",
]
