"""Visualization interactions: event streams, candidate mappings, and safety
(paper Sections 4.2.1 and 4.2.2).

A visualization is a one-to-one projection of input records to marks.  Each
visualization type supports a set of interactions (click, brush, pan, zoom,
…); each interaction produces one or more *event streams* whose schemas are
specified in terms of the visualization's visual variables and translated —
through the visualization mapping — into the Difftree's result attributes.

An interaction mapping binds event streams to dynamic nodes of *any* Difftree
in the interface (this is what produces linked, multi-view interactions such
as cross-filtering).  A candidate mapping is **valid** when the stream schema
matches the dynamic node's schema, and **safe** when at least one input query
of the visualized Difftree yields a result from which the interaction can
express every query binding of the covered nodes (Section 4.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..database.catalog import Catalog
from ..database.executor import Executor
from ..difftree.nodes import AnyNode, OptNode, ValNode
from ..difftree.schema import (
    SchemaExpr,
    TupleSchema,
    TypeExpr,
)
from ..difftree.tree import Difftree
from ..sqlparser.ast_nodes import L, Node
from .visualization import VisMapping
from .widgets import _choice_cover  # shared helper

#: Manipulation-cost constants: visualization interactions are deliberately
#: cheap so the cost model prefers them over widgets (paper Section 5).
INTERACTION_COSTS = {
    "click": 0.4,
    "multi-click": 0.6,
    "brush-x": 0.5,
    "brush-y": 0.5,
    "brush-xy": 0.6,
    "pan": 0.3,
    "zoom": 0.3,
}

#: Interactions that cannot coexist on the same visualization (Algorithm 1's
#: compatibility check): brushes conflict with each other and with pan.
CONFLICTS = {
    frozenset({"brush-x", "brush-y"}),
    frozenset({"brush-x", "brush-xy"}),
    frozenset({"brush-y", "brush-xy"}),
    frozenset({"pan", "brush-x"}),
    frozenset({"pan", "brush-y"}),
    frozenset({"pan", "brush-xy"}),
}


@dataclass
class EventStream:
    """One event stream of an interaction, expressed over result attributes.

    Attributes:
        name: stream name (e.g. ``x-range``, ``record``).
        attr_indices: the result-schema attribute indices whose values the
            stream emits, in order.
        kind: ``point`` for single-value selections (click), ``range`` for
            interval selections (brush / pan / zoom), ``set`` for multi-record
            selections (multi-click, brush record stream).
    """

    name: str
    attr_indices: tuple[int, ...]
    kind: str


@dataclass
class InteractionCandidate:
    """A candidate mapping from dynamic node(s) to a visualization interaction.

    Attributes:
        interaction: interaction name (click, brush-x, pan, …).
        source_tree_index: which Difftree's visualization emits the events.
        vis: that Difftree's visualization mapping.
        stream_bindings: (stream, target dynamic node, target tree index).
        cover: all choice-node ids covered across the bound dynamic nodes.
        cost: manipulation-cost constant for this interaction.
        safe: result of the safety check.
    """

    interaction: str
    source_tree_index: int
    vis: VisMapping
    stream_bindings: list[tuple[EventStream, Node, int]] = field(default_factory=list)
    cover: frozenset[int] = frozenset()
    cost: float = 0.5
    safe: bool = True

    def describe(self) -> str:
        targets = ",".join(
            f"t{tree}:{node.label}" for _, node, tree in self.stream_bindings
        )
        return f"{self.interaction}@view{self.source_tree_index}→[{targets}]"


# ---------------------------------------------------------------------------
# event-stream schemas per interaction
# ---------------------------------------------------------------------------


def interaction_streams(
    vis: VisMapping, interaction: str
) -> list[EventStream]:
    """The event streams an interaction produces under a visualization mapping."""
    if vis.result_schema is None:
        return []
    x = vis.attribute_for("x")
    y = vis.attribute_for("y")
    color = vis.attribute_for("color")
    all_attrs = tuple(range(vis.result_schema.arity()))

    if vis.vis_type.name == "table":
        if interaction == "click":
            return [EventStream("record", all_attrs, "point")]
        return []

    streams: list[EventStream] = []
    if interaction == "click":
        streams.append(EventStream("record", _present((x, y, color)), "point"))
        if x is not None:
            streams.append(EventStream("x-value", (x,), "point"))
        if color is not None:
            streams.append(EventStream("color-value", (color,), "point"))
    elif interaction == "multi-click":
        streams.append(EventStream("records", _present((x, y, color)), "set"))
        if x is not None:
            streams.append(EventStream("x-values", (x,), "set"))
    elif interaction == "brush-x" and x is not None:
        streams.append(EventStream("x-range", (x, x), "range"))
        streams.append(EventStream("records", all_attrs, "set"))
    elif interaction == "brush-y" and y is not None:
        streams.append(EventStream("y-range", (y, y), "range"))
        streams.append(EventStream("records", all_attrs, "set"))
    elif interaction == "brush-xy" and x is not None and y is not None:
        streams.append(EventStream("x-range", (x, x), "range"))
        streams.append(EventStream("y-range", (y, y), "range"))
        streams.append(EventStream("records", all_attrs, "set"))
    elif interaction in ("pan", "zoom") and x is not None:
        streams.append(EventStream("x-range", (x, x), "range"))
        if y is not None:
            streams.append(EventStream("y-range", (y, y), "range"))
    return streams


def _present(indices: tuple[Optional[int], ...]) -> tuple[int, ...]:
    return tuple(i for i in indices if i is not None)


def stream_schema(vis: VisMapping, stream: EventStream) -> SchemaExpr:
    """The PI2 schema of an event stream (in result-attribute terms)."""
    assert vis.result_schema is not None
    exprs = []
    for idx in stream.attr_indices:
        attr = vis.result_schema.attribute(idx)
        exprs.append(TypeExpr(attr.pitype))
    return TupleSchema(tuple(exprs))


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------


def interaction_targets(
    tree: Difftree, catalog: Optional[Catalog] = None
) -> list[tuple[Node, SchemaExpr, frozenset[int]]]:
    """One tree's interaction-bindable dynamic nodes: (node, schema, cover).

    This is the per-tree half of candidate generation — it depends only on
    the tree and the catalogue, so the mapper memoizes it per tree key.
    """
    targets: list[tuple[Node, SchemaExpr, frozenset[int]]] = []
    for node in tree.dynamic_nodes():
        cover = _choice_cover(node)
        if not cover:
            continue
        targets.append((node, tree.node_schema(node, catalog), cover))
    return targets


#: One pair fragment: interaction name → [(bound streams, node, cover, cost)]
#: in the target tree's dynamic-node order.
PairFragments = dict[str, list[tuple[list[EventStream], Node, frozenset[int], float]]]


def pair_interaction_fragments(
    source_tree: Difftree,
    vis: VisMapping,
    target_tree: Difftree,
    targets: list[tuple[Node, SchemaExpr, frozenset[int]]],
    executor: Optional[Executor] = None,
    check_safety: bool = True,
) -> PairFragments:
    """Valid (and safe) interaction bindings of one source visualization onto
    one target tree's dynamic nodes.

    The fragment depends only on (source tree, its visualization mapping,
    target tree) — not on where either tree sits in the interface — so the
    mapper memoizes it per (source key, vis key, target key) and a one-tree
    delta between search states recomputes only the pairs involving the
    changed tree.  The safety check (which executes the source queries) runs
    here, at fragment-build time, exactly once per pair.
    """
    fragments: PairFragments = {}
    if vis.result_schema is None:
        return fragments
    for interaction in vis.vis_type.interactions:
        streams = interaction_streams(vis, interaction)
        if not streams:
            continue
        base_cost = INTERACTION_COSTS.get(interaction, 0.5)
        entries = []
        for node, schema, cover in targets:
            binding = _bind_streams(vis, streams, schema, node)
            if binding is None:
                continue
            if check_safety and executor is not None:
                probe = InteractionCandidate(
                    interaction=interaction,
                    source_tree_index=0,
                    vis=vis,
                    stream_bindings=[(s, node, 0) for s in binding],
                    cover=cover,
                    cost=base_cost,
                )
                if not is_safe(probe, source_tree, target_tree, executor):
                    continue
            entries.append((binding, node, cover, base_cost))
        if entries:
            fragments[interaction] = entries
    return fragments


def assemble_interaction_candidates(
    trees: Sequence[Difftree],
    vis_mappings: Sequence[VisMapping],
    fragments: list[list[PairFragments]],
) -> dict[int, list[InteractionCandidate]]:
    """Combine per-pair fragments into the per-choice-node candidate map.

    ``fragments[s][t]`` holds the fragments of source ``s``'s visualization
    bound onto tree ``t``.  Candidate order — source-major, then interaction,
    then target tree/node — reproduces the order a monolithic enumeration
    produces, which matters because downstream pruning breaks cost ties by
    insertion order.
    """
    candidates: dict[int, list[InteractionCandidate]] = {}
    for source_idx, vis in enumerate(vis_mappings):
        if vis.result_schema is None:
            continue
        for interaction in vis.vis_type.interactions:
            for target_idx in range(len(trees)):
                pair = fragments[source_idx][target_idx]
                for binding, node, cover, cost in pair.get(interaction, ()):
                    candidate = InteractionCandidate(
                        interaction=interaction,
                        source_tree_index=source_idx,
                        vis=vis,
                        stream_bindings=[(s, node, target_idx) for s in binding],
                        cover=cover,
                        cost=cost,
                    )
                    for cid in cover:
                        candidates.setdefault(cid, []).append(candidate)
    return candidates


def candidate_interactions(
    trees: Sequence[Difftree],
    vis_mappings: Sequence[VisMapping],
    catalog: Optional[Catalog] = None,
    executor: Optional[Executor] = None,
    check_safety: bool = True,
) -> dict[int, list[InteractionCandidate]]:
    """Interaction candidates per choice-node id, across all Difftrees.

    ``vis_mappings[i]`` is the visualization chosen for ``trees[i]``; the
    interactions it supports may bind to dynamic nodes of *any* tree.  This
    convenience entry point derives every fragment fresh; the mapper uses the
    decomposed functions above so fragments can be memoized per tree pair.
    """
    targets = [interaction_targets(tree, catalog) for tree in trees]
    fragments = [
        [
            pair_interaction_fragments(
                tree, vis, trees[t], targets[t], executor, check_safety
            )
            for t in range(len(trees))
        ]
        for tree, vis in zip(trees, vis_mappings)
    ]
    return assemble_interaction_candidates(trees, vis_mappings, fragments)


def _bind_streams(
    vis: VisMapping,
    streams: list[EventStream],
    node_schema_expr: SchemaExpr,
    node: Node,
) -> Optional[list[EventStream]]:
    """Choose the stream(s) whose schema matches the dynamic node's schema.

    Returns the list of streams to bind (usually one; two for pan/zoom over a
    conjunction of two range predicates), or ``None`` when no match exists.
    """
    if not _binds_values(node):
        return None

    # direct match of a single stream
    for stream in streams:
        if stream_schema(vis, stream).compatible_with(node_schema_expr) or (
            node_schema_expr.compatible_with(stream_schema(vis, stream))
        ):
            return [stream]

    # multi-stream match: the node is a conjunction whose dynamic children each
    # match one distinct stream (e.g. pan emitting x-range and y-range binding
    # a WHERE clause with two BETWEEN predicates)
    if isinstance(node_schema_expr, TupleSchema) and len(node_schema_expr.exprs) >= 2:
        chosen: list[EventStream] = []
        used: set[str] = set()
        for expr in node_schema_expr.exprs:
            matched = None
            for stream in streams:
                if stream.name in used:
                    continue
                sschema = stream_schema(vis, stream)
                if sschema.compatible_with(expr) or expr.compatible_with(sschema):
                    matched = stream
                    break
            if matched is None:
                return None
            used.add(matched.name)
            chosen.append(matched)
        return chosen
    return None


def _binds_values(node: Node) -> bool:
    """Interactions emit data *values*, so they can only bind choice nodes
    whose alternatives are values: VAL nodes or ANYs over literals.  A choice
    between arbitrary syntax structures (e.g. which attribute to group by)
    needs a widget instead."""
    from .widgets import top_choice_nodes

    choice_children = top_choice_nodes(node)
    if not choice_children:
        return False
    for choice in choice_children:
        if isinstance(choice, ValNode):
            continue
        if isinstance(choice, OptNode):
            return False
        if isinstance(choice, AnyNode):
            non_empty = choice.non_empty_children()
            if choice.is_opt:
                return False
            if all(
                c.label in (L.LITERAL_NUM, L.LITERAL_STR, L.LITERAL_BOOL)
                for c in non_empty
            ):
                continue
            return False
        return False
    return True


# ---------------------------------------------------------------------------
# safety (paper Section 4.2.2)
# ---------------------------------------------------------------------------


def is_safe(
    candidate: InteractionCandidate,
    source_tree: Difftree,
    target_tree: Difftree,
    executor: Executor,
) -> bool:
    """Check that the interaction can express every query binding.

    We instantiate the source visualization with each input query's result
    and check whether there is one query whose result lets the interaction
    express every binding value of the covered choice nodes.
    """
    from .widgets import top_choice_nodes

    bindings = target_tree.query_bindings()
    needed: dict[int, list[object]] = {}
    for _, node, _ in candidate.stream_bindings:
        for choice in top_choice_nodes(node):
            if choice.node_id in bindings:
                values = [
                    v
                    for v in bindings[choice.node_id]
                    if isinstance(v, (int, float, str)) and not isinstance(v, bool)
                ]
                if values and isinstance(choice, (ValNode,)):
                    needed[choice.node_id] = values
                elif values and isinstance(choice, AnyNode) and not isinstance(
                    choice, (OptNode,)
                ):
                    literal_children = [
                        c.value
                        for c in choice.children
                        if c.label in (L.LITERAL_NUM, L.LITERAL_STR)
                    ]
                    if literal_children and len(literal_children) == len(
                        choice.non_empty_children()
                    ):
                        needed[choice.node_id] = [
                            literal_children[int(v)]
                            for v in values
                            if isinstance(v, int) and 0 <= int(v) < len(literal_children)
                        ]
    if not needed:
        return True

    attr_indices = sorted(
        {i for stream, _, _ in candidate.stream_bindings for i in stream.attr_indices}
    )
    range_kind = any(
        stream.kind == "range" for stream, _, _ in candidate.stream_bindings
    )
    if candidate.interaction in ("pan", "zoom"):
        # pan / zoom are not limited to the rendered data extent
        return True

    for query in source_tree.expressible_queries() or source_tree.queries:
        try:
            result = executor.execute(query)
        except Exception:
            continue
        expressible: set[object] = set()
        lo: Optional[float] = None
        hi: Optional[float] = None
        for idx in attr_indices:
            if idx >= len(result.columns):
                continue
            values = result.values(result.columns[idx].name)
            expressible.update(v for v in values if v is not None)
            numeric = [v for v in values if isinstance(v, (int, float))]
            if numeric:
                lo = min(numeric) if lo is None else min(lo, min(numeric))
                hi = max(numeric) if hi is None else max(hi, max(numeric))
        ok = True
        for values in needed.values():
            for value in values:
                if range_kind and isinstance(value, (int, float)):
                    if lo is None or hi is None or not (lo <= value <= hi):
                        ok = False
                        break
                elif value not in expressible:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def conflicting(a: InteractionCandidate, b: InteractionCandidate) -> bool:
    """Two interaction candidates conflict when they use incompatible
    interactions on the same visualization, or reuse the same interaction."""
    if a.source_tree_index != b.source_tree_index:
        return False
    if a.interaction == b.interaction:
        return True
    return frozenset({a.interaction, b.interaction}) in CONFLICTS
