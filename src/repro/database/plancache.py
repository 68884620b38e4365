"""A process-wide compiled-plan cache shared across :class:`Executor` instances.

The MCTS reward loop and the benchmark harnesses build many executors over
the same catalogue and replay the same workload-log queries through each of
them; before this cache every executor recompiled every plan from scratch.
The cache is keyed per *catalogue object* (plans embed column indices and
schemas, so they are only valid for the catalogue they were planned against)
and, within a catalogue, by statement fingerprint: the planner has no
options, so a statement has exactly one plan.

Catalogue entries are held through weak references: dropping the last strong
reference to a catalogue frees its cached plans, and — critically — a new
catalogue allocated at a recycled ``id()`` can never observe stale plans.

The cache is thread-safe (one lock around the LRU bookkeeping) so future
multi-threaded search workers can share it without coordination.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, Optional

from ..obs import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .catalog import Catalog
    from .planner import Plan


class PlanCache:
    """LRU fingerprint→plan cache, partitioned by catalogue identity."""

    def __init__(self, max_size_per_catalog: int = 4096) -> None:
        self.max_size = max(1, max_size_per_catalog)
        self._by_catalog: "weakref.WeakKeyDictionary[Catalog, OrderedDict]" = (
            weakref.WeakKeyDictionary()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, catalog: "Catalog", key: Hashable) -> Optional["Plan"]:
        with self._lock:
            plans = self._by_catalog.get(catalog)
            if plans is None:
                self.misses += 1
                return None
            plan = plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            plans.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, catalog: "Catalog", key: Hashable, plan: "Plan") -> None:
        with self._lock:
            plans = self._by_catalog.get(catalog)
            if plans is None:
                plans = OrderedDict()
                self._by_catalog[catalog] = plans
            plans[key] = plan
            plans.move_to_end(key)
            while len(plans) > self.max_size:
                plans.popitem(last=False)

    def clear(self, catalog: Optional["Catalog"] = None) -> None:
        """Drop cached plans for one catalogue, or for all of them."""
        with self._lock:
            if catalog is None:
                self._by_catalog = weakref.WeakKeyDictionary()
            else:
                self._by_catalog.pop(catalog, None)

    def size(self, catalog: Optional["Catalog"] = None) -> int:
        with self._lock:
            if catalog is not None:
                return len(self._by_catalog.get(catalog) or ())
            return sum(len(p) for p in self._by_catalog.values())

    def info(self) -> dict:
        with self._lock:
            return {
                "catalogs": len(self._by_catalog),
                "plans": sum(len(p) for p in self._by_catalog.values()),
                "hits": self.hits,
                "misses": self.misses,
            }

    def export_entries(self, catalog: "Catalog") -> list[tuple]:
        """The catalogue's ``(fingerprint, plan)`` pairs, LRU order (for
        persistence).

        Plans reference tables by *name* and embed only column positions and
        schemas of the catalogue's tables, so entries exported here are
        valid for — and may be :meth:`import_entries`-ed into — any
        catalogue with the same content fingerprint (see
        :mod:`repro.service.fingerprint`).
        """
        with self._lock:
            plans = self._by_catalog.get(catalog)
            return list(plans.items()) if plans else []

    def import_entries(self, catalog: "Catalog", entries: list[tuple]) -> int:
        """Plant exported entries for a same-fingerprint catalogue.

        Existing keys are kept (the live entry is never older than the
        persisted one); returns the number of entries actually added.
        """
        added = 0
        with span("persist.import_plans", entries=len(entries)):
            with self._lock:
                plans = self._by_catalog.get(catalog)
                if plans is None:
                    plans = OrderedDict()
                    self._by_catalog[catalog] = plans
                for key, plan in entries:
                    if key not in plans:
                        plans[key] = plan
                        added += 1
                while len(plans) > self.max_size:
                    plans.popitem(last=False)
        return added


#: The process-wide cache used by every :class:`Executor` unless a private
#: one is passed in.  All MCTS workers, the interface runtime, and benchmark
#: executors built over the same catalogue reuse one compiled plan set.
SHARED_PLAN_CACHE = PlanCache()
