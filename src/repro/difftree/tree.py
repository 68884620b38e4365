"""The Difftree container: a choice-node-extended AST plus the queries it
must express, with cached schema / binding analyses.

A :class:`Difftree` compactly represents a set of expressible ASTs.  PI2's
search state is a *list* of Difftrees (each maps to one visualization in the
generated interface); transformation rules produce new Difftree instances, so
all derived data (choice nodes, fingerprint, derivations, schemas) is cached
per instance.
"""

from __future__ import annotations

from typing import Optional

from ..database.catalog import Catalog
from ..database.executor import Executor
from ..sqlparser.ast_nodes import Node
from ..sqlparser.render import to_pseudo_sql
from .match import match_query
from .nodes import ChoiceNode, choice_nodes, dynamic_nodes
from .resolve import Derivation, FlatBindingSource, resolve, resolve_with_derivation
from .schema import (
    ResultSchema,
    SchemaExpr,
    TypeAnnotator,
    node_schema,
    result_schema_for_queries,
)


class Difftree:
    """A Difftree and the input queries it is responsible for expressing.

    Invariant: the root is never mutated once a Difftree wraps it.  A rule
    copies the trees, rewrites the *copied* root in place (``replace_at``)
    before anything is derived from that copy, and wraps the result in a new
    Difftree.  Facts derived from the root (choice nodes and their ids, the
    fingerprint, the mapping key, derivations, schemas) are therefore computed
    once per instance and live as long as it does;
    ``tests/test_transform.py`` pins this over every rule on all workloads.
    """

    def __init__(self, root: Node, queries: list[Node]) -> None:
        self.root = root
        self.queries = list(queries)
        self._choice_nodes: Optional[tuple[ChoiceNode, ...]] = None
        self._choice_node_ids: Optional[frozenset[int]] = None
        self._derivations: Optional[list[Optional[Derivation]]] = None
        self._result_schema: Optional[ResultSchema] = None
        self._result_schema_computed = False
        self._annotator: Optional[TypeAnnotator] = None
        self._fingerprint: Optional[str] = None
        self._mapping_key: Optional[tuple] = None

    # -- basic structure -----------------------------------------------------

    def copy(self) -> "Difftree":
        return Difftree(self.root.copy(), [q for q in self.queries])

    def choice_nodes(self) -> tuple[ChoiceNode, ...]:
        """The choice nodes in pre-order (cached)."""
        if self._choice_nodes is None:
            self._choice_nodes = tuple(choice_nodes(self.root))
        return self._choice_nodes

    def choice_node_ids(self) -> frozenset[int]:
        """The ids of :meth:`choice_nodes` (cached)."""
        if self._choice_node_ids is None:
            self._choice_node_ids = frozenset(n.node_id for n in self.choice_nodes())
        return self._choice_node_ids

    def dynamic_nodes(self) -> list[Node]:
        return dynamic_nodes(self.root)

    def is_static(self) -> bool:
        """True when the tree has no choice nodes (renders as a static chart)."""
        return not self.choice_nodes()

    def fingerprint(self) -> str:
        """Canonical structural identity (cached)."""
        if self._fingerprint is None:
            self._fingerprint = self.root.fingerprint()
        return self._fingerprint

    def mapping_key(self) -> tuple:
        """Memoization identity for per-tree mapping fragments (cached).

        Two trees share a key only when they agree on structure, choice-node
        ids *and* input queries — exactly the inputs the mapping layer's
        schema / candidate derivations depend on.  Including the ids means a
        cache hit always hands back fragments whose node references and cover
        sets are id-compatible with this tree (copies preserve ids, so
        unchanged trees carried across search states hit), while a
        structurally identical tree rebuilt with fresh ids misses.
        """
        if self._mapping_key is None:
            self._mapping_key = (
                self.fingerprint(),
                tuple(n.node_id for n in self.choice_nodes()),
                tuple(q.fingerprint() for q in self.queries),
            )
        return self._mapping_key

    def pseudo_sql(self) -> str:
        """Human readable rendering with choice nodes shown inline."""
        return to_pseudo_sql(self.root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Difftree({len(self.queries)} queries, "
            f"{len(self.choice_nodes())} choice nodes)"
        )

    # -- expressiveness ------------------------------------------------------------

    def derivations(self) -> list[Optional[Derivation]]:
        """Per-query derivations (``None`` for queries the tree cannot express)."""
        if self._derivations is None:
            self._derivations = [match_query(self.root, q) for q in self.queries]
        return self._derivations

    def expresses_all(self) -> bool:
        """True when every input query is expressible by this tree."""
        return all(d is not None for d in self.derivations())

    def expressible_queries(self) -> list[Node]:
        """The input queries this tree can express."""
        return [
            q for q, d in zip(self.queries, self.derivations()) if d is not None
        ]

    def resolve_query(self, index: int) -> Node:
        """Resolve the tree back into input query ``index`` (sanity check)."""
        derivation = self.derivations()[index]
        if derivation is None:
            raise ValueError(f"query {index} is not expressible by this Difftree")
        return resolve_with_derivation(self.root, derivation)

    def resolve_default(self, overrides: Optional[dict[int, object]] = None) -> Node:
        """Resolve with default / overridden parameters (the runtime's path)."""
        source = FlatBindingSource(overrides)
        return resolve(self.root, source)

    # -- query bindings (paper Section 3.2.4) ------------------------------------------

    def query_bindings(self) -> dict[int, list[object]]:
        """Per-choice-node union of binding parameters across all input queries.

        The returned lists preserve first-seen order and de-duplicate values,
        matching the paper's Example 4.
        """
        bindings: dict[int, list[object]] = {}
        for derivation in self.derivations():
            if derivation is None:
                continue
            for binding in derivation:
                bucket = bindings.setdefault(binding.node_id, [])
                if binding.param not in bucket:
                    bucket.append(binding.param)
        return bindings

    # -- schemas ---------------------------------------------------------------------

    def annotator(self, catalog: Optional[Catalog]) -> TypeAnnotator:
        if self._annotator is None:
            annotator = TypeAnnotator(catalog)
            annotator.annotate(self.root)
            self._annotator = annotator
        return self._annotator

    def node_schema(self, node: Node, catalog: Optional[Catalog]) -> SchemaExpr:
        return node_schema(node, self.annotator(catalog))

    def result_schema(self, executor: Executor) -> Optional[ResultSchema]:
        """The union result schema over the queries this tree expresses."""
        if not self._result_schema_computed:
            queries = self.expressible_queries() or self.queries
            self._result_schema = result_schema_for_queries(queries, executor)
            self._result_schema_computed = True
        return self._result_schema

    @property
    def schema_cached(self) -> bool:
        """True when :meth:`result_schema` would return without executing."""
        return self._result_schema_computed

    def seed_result_schema(self, schema: Optional[ResultSchema]) -> None:
        """Plant a memoized result schema (from an id-identical tree) so a
        later :meth:`result_schema` call does not re-execute the queries."""
        if not self._result_schema_computed:
            self._result_schema = schema
            self._result_schema_computed = True
