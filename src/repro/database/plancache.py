"""The process-wide per-catalogue caches: compiled plans and mapping fragments.

:class:`CatalogCache` is one LRU key→value cache partitioned by *catalogue
object*.  Two instances serve the two levels of the cache hierarchy:

* :data:`SHARED_PLAN_CACHE` holds compiled plans keyed by statement
  fingerprint (the planner has no options, so a statement has exactly one
  plan).  Plans embed column indices and schemas, so they are only valid for
  the catalogue they were planned against.
* :data:`repro.mapping.memo.SHARED_MAPPING_MEMO` holds mapping fragments
  keyed by tree identity (see that module).

Catalogue entries are held through weak references: dropping the last strong
reference to a catalogue frees its entries, and — critically — a new
catalogue allocated at a recycled ``id()`` can never observe stale ones.

The caches count nothing themselves: each lookup is counted once, by the
stats object of the run that made it (``PlanStats.plan_cache_hits`` /
``plans_compiled``, ``MapperStats.memo_hits`` / ``memo_misses``).  Every
``repro`` process is single-threaded, so the LRU bookkeeping takes no lock.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, Optional

from ..obs import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .catalog import Catalog

_MISSING = object()


class CatalogCache:
    """LRU key→value cache, partitioned by catalogue identity.

    ``name`` labels the cache's import span (``persist.import_<name>``).
    ``persistable_kinds``, when given, restricts export and import to tuple
    keys whose first element is one of the kinds; every other key (e.g. one
    smuggled into a tampered cache file) is neither exported nor imported.
    """

    def __init__(
        self,
        name: str = "cache",
        max_size_per_catalog: int = 16384,
        persistable_kinds: Optional[frozenset] = None,
    ) -> None:
        self.name = name
        self.max_size = max(1, max_size_per_catalog)
        self.persistable_kinds = persistable_kinds
        self._by_catalog: "weakref.WeakKeyDictionary[Catalog, OrderedDict]" = (
            weakref.WeakKeyDictionary()
        )

    def lookup(self, catalog: "Catalog", key: Hashable) -> tuple[bool, object]:
        """``(hit, value)`` — a cached value may legitimately be ``None``."""
        entries = self._by_catalog.get(catalog)
        value = _MISSING if entries is None else entries.get(key, _MISSING)
        if value is _MISSING:
            return False, None
        entries.move_to_end(key)
        return True, value

    def put(self, catalog: "Catalog", key: Hashable, value: object) -> None:
        entries = self._by_catalog.get(catalog)
        if entries is None:
            entries = self._by_catalog[catalog] = OrderedDict()
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.max_size:
            entries.popitem(last=False)

    def clear(self, catalog: "Catalog") -> None:
        """Drop the entries of one catalogue."""
        self._by_catalog.pop(catalog, None)

    def size(self, catalog: Optional["Catalog"] = None) -> int:
        if catalog is not None:
            return len(self._by_catalog.get(catalog) or ())
        return sum(len(e) for e in self._by_catalog.values())

    def _persistable(self, key: Hashable) -> bool:
        kinds = self.persistable_kinds
        return kinds is None or (isinstance(key, tuple) and bool(key) and key[0] in kinds)

    def export_entries(self, catalog: "Catalog") -> list[tuple]:
        """The catalogue's persistable ``(key, value)`` pairs, LRU order.

        Plans reference tables by *name* and fragments are keyed by
        structural fingerprints plus node ids that travel with the trees, so
        entries exported here are valid for — and may be
        :meth:`import_entries`-ed into — any catalogue with the same content
        fingerprint (see :mod:`repro.service.fingerprint`).
        """
        entries = self._by_catalog.get(catalog)
        if not entries:
            return []
        return [(key, value) for key, value in entries.items() if self._persistable(key)]

    def import_entries(self, catalog: "Catalog", entries: list[tuple]) -> int:
        """Plant exported entries for a same-fingerprint catalogue.

        Existing keys are kept (the live entry is never older than the
        persisted one) and non-persistable keys are dropped; returns the
        number of entries actually added.
        """
        added = 0
        with span(f"persist.import_{self.name}", entries=len(entries)):
            live = self._by_catalog.get(catalog)
            if live is None:
                live = self._by_catalog[catalog] = OrderedDict()
            for key, value in entries:
                if self._persistable(key) and key not in live:
                    live[key] = value
                    added += 1
            while len(live) > self.max_size:
                live.popitem(last=False)
        return added


#: The process-wide plan cache used by every :class:`Executor` unless a
#: private one is passed in.  All MCTS workers, the interface runtime, and
#: benchmark executors built over the same catalogue reuse one compiled plan
#: set.
SHARED_PLAN_CACHE = CatalogCache("plans", max_size_per_catalog=4096)
