"""The process-wide memo for per-tree mapping artifacts.

The MCTS reward loop calls ``InterfaceMapper.random_interfaces`` on every
search state, and every call re-derived result schemas, visualization
candidates, widget candidates and interaction candidates for **every** tree
in the state — even though a rule application changes exactly one tree.
:data:`SHARED_MAPPING_MEMO` is the mapping layer's instance of
:class:`repro.database.plancache.CatalogCache`, one level up the stack from
the plan cache: instead of compiled query plans it caches *mapping
fragments*, keyed by the identity of the Difftree they were derived from, so
a one-tree delta between consecutive states recomputes only that tree's
fragments.

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
misses instead of producing covers that no longer match.  The
``nondeterministic-key`` rule of ``repro.analysis`` polices what may appear
in ``tree_key``.
"""

from __future__ import annotations

from ..database.plancache import CatalogCache

#: fragment kinds safe to persist across processes: their keys are built
#: from structural fingerprints + node ids that travel with the trees.
#: These are all the kinds the mapper stores; any other key (e.g. one
#: smuggled into a tampered cache file) is neither exported nor imported.
PERSISTABLE_KINDS = frozenset({"schema", "vis", "widgets", "targets", "ipair"})

#: The process-wide memo used by every :class:`InterfaceMapper` whose config
#: has ``memoize=True`` (the default), unless a private memo is passed in.
#: All MCTS workers and the final Algorithm-1 mapping share one fragment set.
SHARED_MAPPING_MEMO = CatalogCache(
    "memo", max_size_per_catalog=16384, persistable_kinds=PERSISTABLE_KINDS
)
