"""A process-wide memo for per-tree mapping artifacts.

The MCTS reward loop calls ``InterfaceMapper.random_interfaces`` on every
search state, and every call re-derived result schemas, visualization
candidates, widget candidates and interaction candidates for **every** tree
in the state — even though a rule application changes exactly one tree.  This
module is the mapping layer's counterpart of
:data:`repro.database.plancache.SHARED_PLAN_CACHE`, one level up the stack:
instead of compiled query plans it caches *mapping fragments*, keyed by the
identity of the Difftree they were derived from, so a one-tree delta between
consecutive states recomputes only that tree's fragments.

Cached fragment kinds (see :class:`repro.mapping.mapper.InterfaceMapper`):

* ``("schema", tree_key)`` — the tree's union result schema;
* ``("vis", tree_key, …)`` — ranked visualization candidates;
* ``("widgets", tree_key, …)`` — choice-node ids + widget candidates;
* ``("targets", tree_key)`` — the tree's interaction-bindable dynamic nodes;
* ``("ipair", source_key, vis_key, target_key, …)`` — interaction candidates
  of one (source visualization, target tree) pair, including safety checks.

``tree_key`` is :meth:`repro.difftree.tree.Difftree.mapping_key`: the tree's
structural fingerprint **plus** its choice-node ids and query fingerprints.
Including the ids guarantees that a cache hit hands back fragments whose
``Node`` references and cover sets are id-compatible with the requesting tree
(transformations copy nodes with their ids, so unchanged trees hit across
states), and a structurally identical tree rebuilt with fresh ids simply
misses instead of producing covers that no longer match.

Like the plan cache, entries are partitioned per *catalogue object* (schemas
and candidates embed catalogue statistics) and held through weak references,
LRU-bounded per catalogue, and guarded by one lock so parallel search workers
can share a single memo.  The ``unlocked-shared-mutation`` rule of
``repro.analysis`` statically requires every mutation of the bookkeeping to
hold that lock; the ``nondeterministic-key`` rule polices what may appear in
``tree_key``.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable

from ..obs import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database.catalog import Catalog


class MappingMemo:
    """LRU fragment cache keyed by tree identity, partitioned per catalogue."""

    def __init__(self, max_size_per_catalog: int = 16384) -> None:
        self.max_size = max(1, max_size_per_catalog)
        self._by_catalog: "weakref.WeakKeyDictionary[Catalog, OrderedDict]" = (
            weakref.WeakKeyDictionary()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def lookup(self, catalog: "Catalog", key: Hashable) -> tuple[bool, object]:
        """``(hit, value)`` — a fragment value may legitimately be ``None``."""
        with self._lock:
            fragments = self._by_catalog.get(catalog)
            if fragments is None or key not in fragments:
                self.misses += 1
                return False, None
            fragments.move_to_end(key)
            self.hits += 1
            return True, fragments[key]

    def put(self, catalog: "Catalog", key: Hashable, value: object) -> None:
        with self._lock:
            fragments = self._by_catalog.get(catalog)
            if fragments is None:
                fragments = OrderedDict()
                self._by_catalog[catalog] = fragments
            fragments[key] = value
            fragments.move_to_end(key)
            while len(fragments) > self.max_size:
                fragments.popitem(last=False)

    def contains(self, catalog: "Catalog", key: Hashable) -> bool:
        """Membership check that does not touch the hit/miss counters."""
        with self._lock:
            fragments = self._by_catalog.get(catalog)
            return fragments is not None and key in fragments

    def clear(self, catalog: "Catalog" = None) -> None:
        """Drop cached fragments for one catalogue, or for all of them."""
        with self._lock:
            if catalog is None:
                self._by_catalog = weakref.WeakKeyDictionary()
            else:
                self._by_catalog.pop(catalog, None)

    def size(self, catalog: "Catalog" = None) -> int:
        with self._lock:
            if catalog is not None:
                return len(self._by_catalog.get(catalog) or ())
            return sum(len(f) for f in self._by_catalog.values())

    def info(self) -> dict:
        with self._lock:
            return {
                "catalogs": len(self._by_catalog),
                "fragments": sum(len(f) for f in self._by_catalog.values()),
                "hits": self.hits,
                "misses": self.misses,
            }

    #: fragment kinds safe to persist across processes: their keys are built
    #: from structural fingerprints + node ids that travel with the trees.
    #: These are all the kinds the mapper stores; any other key (e.g. one
    #: smuggled into a tampered cache file) is neither exported nor imported.
    PERSISTABLE_KINDS = frozenset({"schema", "vis", "widgets", "targets", "ipair"})

    def export_entries(self, catalog: "Catalog") -> list[tuple]:
        """The catalogue's persistable ``(key, fragment)`` pairs, LRU order."""
        with self._lock:
            fragments = self._by_catalog.get(catalog)
            if not fragments:
                return []
            return [
                (key, value)
                for key, value in fragments.items()
                if isinstance(key, tuple) and key and key[0] in self.PERSISTABLE_KINDS
            ]

    def import_entries(self, catalog: "Catalog", entries: list[tuple]) -> int:
        """Plant exported fragments for a same-fingerprint catalogue.

        Existing keys are kept; non-persistable kinds are dropped even if a
        tampered cache file smuggles them in.  Returns the number of entries
        actually added.
        """
        added = 0
        with span("persist.import_memo", entries=len(entries)):
            with self._lock:
                fragments = self._by_catalog.get(catalog)
                if fragments is None:
                    fragments = OrderedDict()
                    self._by_catalog[catalog] = fragments
                for key, value in entries:
                    if not (
                        isinstance(key, tuple) and key and key[0] in self.PERSISTABLE_KINDS
                    ):
                        continue
                    if key not in fragments:
                        fragments[key] = value
                        added += 1
                while len(fragments) > self.max_size:
                    fragments.popitem(last=False)
        return added


#: The process-wide memo used by every :class:`InterfaceMapper` whose config
#: has ``memoize=True`` (the default), unless a private memo is passed in.
#: All MCTS workers and the final Algorithm-1 mapping share one fragment set.
SHARED_MAPPING_MEMO = MappingMemo()
