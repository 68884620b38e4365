"""Widget library and widget mapping candidates (paper Section 4.2, Table 2).

Each widget template declares a *schema* (what structural variation it can
express), an optional *constraint* over the dynamic node's query bindings
(e.g. a range slider needs ``start <= end``), a manipulation-domain size used
by the cost model, and an estimated pixel size used by the layout / Fitts'
law model.

A widget mapping ``δ → w`` is **valid** when the dynamic node's schema
matches the widget's schema and the node's query bindings satisfy the
widget's constraints; it is always **safe** because widgets are initialised
with the node's query bindings (Section 4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..database.catalog import Catalog
from ..difftree.nodes import (
    AnyNode,
    ChoiceNode,
    MultiNode,
    OptNode,
    SubsetNode,
    ValNode,
)
from ..difftree.schema import (
    OptExpr,
    RepExpr,
    SchemaExpr,
    TupleSchema,
    TypeExpr,
    WildcardExpr,
)
from ..difftree.tree import Difftree
from ..sqlparser.ast_nodes import L, Node
from ..sqlparser.render import to_pseudo_sql


@dataclass(frozen=True)
class WidgetType:
    """A widget template.

    Attributes:
        name: widget name (radio, dropdown, slider, …).
        schema: the widget schema from Table 2 (``_`` is the wildcard).
        constraint: optional predicate over the node's query-binding tuples.
        base_width / base_height: estimated pixel footprint; enumerated
            widgets additionally grow by ``per_option`` pixels per option.
        per_option: growth per option (vertical for radio/checkbox lists).
        enumerates_options: True when the widget's manipulation-domain size is
            the number of options (radio, dropdown, checkbox); False for
            free-form widgets (textbox, slider) whose |w.d| is 0 in the paper.
        is_layout_widget: True for widgets that also act as layout containers
            (toggles / tab-like widgets wrapping nested sub-interfaces).
    """

    name: str
    schema: SchemaExpr
    constraint: Optional[Callable[[Sequence[object]], bool]] = None
    base_width: int = 160
    base_height: int = 28
    per_option: int = 22
    enumerates_options: bool = True
    is_layout_widget: bool = False
    base_cost: float = 1.0


def _num() -> TypeExpr:
    from ..difftree.types import PiType

    return TypeExpr(PiType.num())


def _range_constraint(bindings: Sequence[object]) -> bool:
    """Range-slider constraint: every binding tuple must satisfy start <= end."""
    for binding in bindings:
        if isinstance(binding, (tuple, list)) and len(binding) == 2:
            lo, hi = binding
            try:
                if lo is not None and hi is not None and lo > hi:
                    return False
            except TypeError:
                return False
    return True


#: The prototype's widget library (paper Table 2 plus button/adder).
BUTTON = WidgetType(
    "button", TupleSchema((WildcardExpr(),)), base_width=90, base_height=30, base_cost=1.1
)
RADIO = WidgetType("radio", TupleSchema((WildcardExpr(),)), base_width=150, base_height=24)
DROPDOWN = WidgetType(
    "dropdown", TupleSchema((WildcardExpr(),)), base_width=170, base_height=32, per_option=0
)
TEXTBOX = WidgetType(
    "textbox",
    TupleSchema((WildcardExpr(),)),
    base_width=170,
    base_height=30,
    per_option=0,
    enumerates_options=False,
    base_cost=2.6,
)
TOGGLE = WidgetType(
    "toggle",
    TupleSchema((OptExpr(WildcardExpr()),)),
    base_width=70,
    base_height=28,
    per_option=0,
    is_layout_widget=True,
)
CHECKBOX = WidgetType(
    "checkbox", TupleSchema((RepExpr(WildcardExpr()),)), base_width=160, base_height=24
)
SLIDER = WidgetType(
    "slider",
    TupleSchema((_num(),)),
    base_width=220,
    base_height=34,
    per_option=0,
    enumerates_options=False,
    base_cost=1.2,
)
RANGE_SLIDER = WidgetType(
    "range_slider",
    TupleSchema((_num(), _num())),
    constraint=_range_constraint,
    base_width=240,
    base_height=36,
    per_option=0,
    enumerates_options=False,
    base_cost=1.4,
)
ADDER = WidgetType(
    "adder",
    TupleSchema((RepExpr(WildcardExpr()),)),
    base_width=200,
    base_height=40,
    per_option=0,
    enumerates_options=False,
    base_cost=2.2,
)

WIDGET_TYPES: list[WidgetType] = [
    BUTTON,
    RADIO,
    DROPDOWN,
    TEXTBOX,
    TOGGLE,
    CHECKBOX,
    SLIDER,
    RANGE_SLIDER,
    ADDER,
]

def register_widget(widget: WidgetType) -> None:
    """Add a widget template to the library (extensibility hook).

    Call at import/setup time, before any search runs: worker processes
    see only the widgets registered before they start.
    """
    WIDGET_TYPES.append(widget)


# ---------------------------------------------------------------------------
# widget candidates
# ---------------------------------------------------------------------------


@dataclass
class WidgetCandidate:
    """A valid widget mapping for one dynamic node.

    Attributes:
        widget: the widget template.
        node: the dynamic node it binds to.
        cover: choice-node ids covered by this widget (the node's choice
            descendants, or the node itself when it is a choice node).
        options: the option labels / values presented by the widget.
        domain: (min, max) numeric domain for sliders, if applicable.
        label: human readable widget label used in the rendered interface.
    """

    widget: WidgetType
    node: Node
    cover: frozenset[int]
    options: list[object] = field(default_factory=list)
    domain: Optional[tuple[object, object]] = None
    label: str = ""

    @property
    def domain_size(self) -> int:
        """|w.d| in the paper's manipulation cost: options for enumerating
        widgets, zero for free-form widgets."""
        return len(self.options) if self.widget.enumerates_options else 0

    def estimated_size(self) -> tuple[int, int]:
        width = self.widget.base_width
        height = self.widget.base_height + self.widget.per_option * len(self.options)
        return width, height

    def describe(self) -> str:
        target = self.label or f"node#{sorted(self.cover)}"
        return f"{self.widget.name}[{target}]"


def top_choice_nodes(node: Node) -> list[ChoiceNode]:
    """The *topmost* choice nodes in the subtree rooted at ``node``.

    These are the choice nodes a mapping on ``node`` actually binds: an event
    tuple routed to an ancestor dynamic node is distributed to its dynamic
    children, stopping at the first choice node on each path (paper §4.2:
    "the event tuples generated by the range slider that are bound to the
    node will be routed to its child ANY nodes").  Choice nodes nested deeper
    (e.g. a VAL inside one alternative of an ANY) still need their own
    mapping.
    """
    if isinstance(node, ChoiceNode):
        return [node]
    result: list[ChoiceNode] = []
    for child in node.children:
        result.extend(top_choice_nodes(child))
    return result


def _choice_cover(node: Node) -> frozenset[int]:
    """The choice-node ids a mapping on ``node`` binds (its exact cover)."""
    return frozenset(n.node_id for n in top_choice_nodes(node))


def _schema_matches(node_schema: SchemaExpr, widget: WidgetType) -> bool:
    """Schema match: same arity and pairwise-compatible type expressions."""
    return node_schema.compatible_with(widget.schema)


def _binding_tuples(
    tree: Difftree, node: Node, bindings: dict[int, list[object]]
) -> list[object]:
    """Query-binding tuples for a dynamic node (used for constraint checks).

    For an ancestor dynamic node covering several choice nodes, the tuple is
    the per-choice-node binding values zipped positionally.
    """
    choice_children = top_choice_nodes(node)
    if len(choice_children) == 1:
        return list(bindings.get(choice_children[0].node_id, []))
    per_node = [bindings.get(c.node_id, []) for c in choice_children]
    width = max((len(v) for v in per_node), default=0)
    tuples = []
    for i in range(width):
        tuples.append(tuple(v[i] if i < len(v) else None for v in per_node))
    return tuples


def _option_labels(node: Node) -> list[str]:
    """Human readable option labels for an enumerating widget."""
    if isinstance(node, ValNode):
        return [str(v) for v in node.observed_values()]
    if isinstance(node, (AnyNode, SubsetNode)):
        labels = []
        for child in node.children:
            if child.label == L.EMPTY:
                labels.append("(none)")
            else:
                labels.append(to_pseudo_sql(child))
        return labels
    if isinstance(node, (OptNode,)):
        return ["on", "off"]
    if isinstance(node, MultiNode):
        return [to_pseudo_sql(node.template)]
    return [to_pseudo_sql(node)]


def candidate_widgets(
    tree: Difftree,
    node: Node,
    catalog: Optional[Catalog] = None,
    bindings: Optional[dict[int, list[object]]] = None,
) -> list[WidgetCandidate]:
    """All valid widget mappings for one dynamic node of a Difftree."""
    bindings = bindings if bindings is not None else tree.query_bindings()
    schema = tree.node_schema(node, catalog)
    if isinstance(schema, TypeExpr):
        return []
    cover = _choice_cover(node)
    if not cover:
        return []
    tuples = _binding_tuples(tree, node, bindings)
    candidates: list[WidgetCandidate] = []

    for widget in WIDGET_TYPES:
        if isinstance(node, SubsetNode) and widget.name in ("checkbox", "adder"):
            # a SUBSET schema <c1?, .., ck?> is naturally expressed by a
            # checkbox list even though its arity differs from <v:_*>
            pass
        elif not _schema_matches(schema, widget):
            continue
        if widget.constraint is not None and not widget.constraint(tuples):
            continue
        candidate = _instantiate(widget, tree, node, cover, tuples, catalog)
        if candidate is not None:
            candidates.append(candidate)
    return candidates


def _instantiate(
    widget: WidgetType,
    tree: Difftree,
    node: Node,
    cover: frozenset[int],
    binding_tuples: list[object],
    catalog: Optional[Catalog],
) -> Optional[WidgetCandidate]:
    """Initialise a widget candidate with options / domain for the node."""
    label = _node_label(node)
    options: list[object] = []
    domain: Optional[tuple[object, object]] = None

    if widget.name in ("slider", "range_slider"):
        domain = _numeric_domain(node, binding_tuples, catalog)
        if domain is None:
            return None
    elif widget.enumerates_options:
        options = _option_labels(node)
        if not options:
            options = [str(t) for t in binding_tuples] or ["(default)"]
    else:
        options = []

    return WidgetCandidate(
        widget=widget,
        node=node,
        cover=cover,
        options=options,
        domain=domain,
        label=label,
    )


def _node_label(node: Node) -> str:
    """A short label describing what the widget controls."""
    if isinstance(node, ValNode) and node.pitype and node.pitype.attribute:
        return node.pitype.attribute
    for descendant in node.walk():
        if descendant.label == L.COLUMN:
            return str(descendant.value)
        if isinstance(descendant, ValNode) and descendant.pitype and descendant.pitype.attribute:
            return descendant.pitype.attribute
    return node.label.lower()


def _numeric_domain(
    node: Node, binding_tuples: list[object], catalog: Optional[Catalog]
) -> Optional[tuple[object, object]]:
    """The slider initialisation domain: the attribute's domain from the
    catalogue when known (paper Section 2), else the observed binding range."""
    attr = None
    for descendant in node.walk():
        if isinstance(descendant, (ValNode, AnyNode)) and descendant.pitype is not None:
            if descendant.pitype.attribute:
                attr = descendant.pitype.attribute
                break
    if attr is not None and catalog is not None:
        try:
            lo, hi = catalog.domain(attr)
            if lo is not None and hi is not None:
                return (lo, hi)
        except Exception:
            pass
    values: list[float] = []
    for t in binding_tuples:
        items = t if isinstance(t, (tuple, list)) else (t,)
        for v in items:
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                values.append(v)
    if not values:
        return None
    return (min(values), max(values))
