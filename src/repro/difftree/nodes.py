"""Choice nodes: the Difftree extension of plain abstract syntax trees.

A Difftree (paper Section 3.1) is an AST extended with four kinds of choice
nodes, each corresponding to a PEG production rule:

* ``ANY(c1,..,ck)`` — ordered choice; resolves to one child.  The special
  case with an empty child is exposed as ``OPT``.
* ``VAL(c1,..,ck)`` — a literal placeholder whose domain is the union of its
  children's types; resolves to whatever value it is bound to.
* ``MULTI[sep](c)`` — one-or-more repetition of its single child.
* ``SUBSET[sep](c1,..,ck)`` — any subset of its children, in order.

Choice nodes reuse the generic :class:`repro.sqlparser.ast_nodes.Node`
structure (so rendering, traversal and transformation rules stay uniform) and
add a stable ``node_id`` used to key query bindings and interaction mappings.
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Iterator, Optional, Sequence

from ..sqlparser.ast_nodes import L, Node, empty
from .types import PiType

#: Global counter producing unique choice-node identifiers.
_NODE_COUNTER = itertools.count(1)

#: The counter :func:`node_id_space` pins in place of ``_NODE_COUNTER``.
_id_override: Optional[Iterator[int]] = None

#: Stride between per-worker id spaces.  Worker ``w`` of a parallel search
#: allocates ids from ``(w + 1) * NODE_ID_SPAN`` so that the ids it mints are
#: identical no matter which backend (serial round-robin or worker processes)
#: runs it, and never collide with another worker's or with the main space
#: (ids below ``NODE_ID_SPAN``).
NODE_ID_SPAN = 1 << 40


def worker_id_counter(worker_index: int) -> Iterator[int]:
    """The private id counter for parallel-search worker ``worker_index``."""
    return itertools.count((worker_index + 1) * NODE_ID_SPAN)


@contextlib.contextmanager
def node_id_space(counter: Optional[Iterator[int]]):
    """Allocate choice-node ids from ``counter`` inside the ``with`` block.

    Each search worker pins its own id space around its steps.  ``None``
    leaves the ambient allocator (usually the global counter) in place.
    """
    global _id_override
    if counter is None:
        yield
        return
    previous = _id_override
    _id_override = counter
    try:
        yield
    finally:
        _id_override = previous


def next_node_id() -> int:
    """Allocate a fresh choice-node identifier."""
    counter = _id_override
    if counter is not None:
        return next(counter)
    return next(_NODE_COUNTER)


class ChoiceNode(Node):
    """Base class of all choice nodes.

    Attributes:
        node_id: stable identifier, unique per live node instance.  Copies of
            a node keep the same ``node_id`` so that interaction mappings
            computed on a copied tree still refer to the same logical choice.
        sep: separator used by MULTI / SUBSET when concatenating children.
        pitype: optional type annotation (used by VAL nodes and by ANY nodes
            whose children are all static literals).
    """

    __slots__ = ("node_id", "sep", "pitype")

    def __init__(
        self,
        label: str,
        children: Sequence[Node],
        sep: str = ", ",
        pitype: Optional[PiType] = None,
        node_id: Optional[int] = None,
    ) -> None:
        super().__init__(label, None, children)
        self.node_id = node_id if node_id is not None else next_node_id()
        self.sep = sep
        self.pitype = pitype

    def copy(self) -> "ChoiceNode":
        cls = type(self)
        children = [c.copy() for c in self.children]
        if cls is ChoiceNode:
            return ChoiceNode(
                self.label,
                children,
                sep=self.sep,
                pitype=self.pitype,
                node_id=self.node_id,
            )
        # concrete subclasses take the children as their first argument
        return cls(
            children, sep=self.sep, pitype=self.pitype, node_id=self.node_id
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.label}#{self.node_id}({len(self.children)} children)"


class AnyNode(ChoiceNode):
    """Ordered choice over its children (production ``ANY → c1 | .. | ck``)."""

    def __init__(
        self,
        children: Sequence[Node],
        sep: str = ", ",
        pitype: Optional[PiType] = None,
        node_id: Optional[int] = None,
        label: str = L.ANY,
    ) -> None:
        super().__init__(L.ANY, children, sep=sep, pitype=pitype, node_id=node_id)

    @property
    def is_opt(self) -> bool:
        """True when one of the children is the empty subtree (OPT semantics)."""
        return any(c.label == L.EMPTY for c in self.children)

    def non_empty_children(self) -> list[Node]:
        return [c for c in self.children if c.label != L.EMPTY]


class OptNode(ChoiceNode):
    """Optional subtree: resolves to its single child or to nothing."""

    def __init__(
        self,
        children: Sequence[Node],
        sep: str = ", ",
        pitype: Optional[PiType] = None,
        node_id: Optional[int] = None,
        label: str = L.OPT,
    ) -> None:
        if len(children) != 1:
            raise ValueError("OPT takes exactly one child")
        super().__init__(L.OPT, children, sep=sep, pitype=pitype, node_id=node_id)

    @property
    def child(self) -> Node:
        return self.children[0]


class ValNode(ChoiceNode):
    """Literal placeholder; resolves to any bound value of its type.

    The children are the literal nodes observed in the input queries; the
    ``pitype`` records the (possibly attribute-specialised) value domain.
    """

    def __init__(
        self,
        children: Sequence[Node],
        sep: str = ", ",
        pitype: Optional[PiType] = None,
        node_id: Optional[int] = None,
        label: str = L.VAL,
    ) -> None:
        super().__init__(L.VAL, children, sep=sep, pitype=pitype, node_id=node_id)

    def observed_values(self) -> list[object]:
        """Literal values of the children (the values seen in input queries)."""
        return [c.value for c in self.children]


class MultiNode(ChoiceNode):
    """One-or-more repetition of its single child (production ``c (sep c)*``)."""

    def __init__(
        self,
        children: Sequence[Node],
        sep: str = ", ",
        pitype: Optional[PiType] = None,
        node_id: Optional[int] = None,
        label: str = L.MULTI,
    ) -> None:
        if len(children) != 1:
            raise ValueError("MULTI takes exactly one child template")
        super().__init__(L.MULTI, children, sep=sep, pitype=pitype, node_id=node_id)

    @property
    def template(self) -> Node:
        return self.children[0]


class SubsetNode(ChoiceNode):
    """Any subset of its children, in order (production ``c1? .. ck?``)."""

    def __init__(
        self,
        children: Sequence[Node],
        sep: str = ", ",
        pitype: Optional[PiType] = None,
        node_id: Optional[int] = None,
        label: str = L.SUBSET,
    ) -> None:
        super().__init__(L.SUBSET, children, sep=sep, pitype=pitype, node_id=node_id)


#: Mapping from choice label to the concrete node class (used when copying
#: or rebuilding trees generically).
CHOICE_CLASSES = {
    L.ANY: AnyNode,
    L.OPT: OptNode,
    L.VAL: ValNode,
    L.MULTI: MultiNode,
    L.SUBSET: SubsetNode,
}


def make_choice(label: str, children: Sequence[Node], **kwargs) -> ChoiceNode:
    """Construct a choice node of the given label."""
    cls = CHOICE_CLASSES[label]
    return cls(children, **kwargs)


def make_opt(child: Node, **kwargs) -> AnyNode:
    """Build an OPT as the paper defines it: an ANY with an empty child."""
    return AnyNode([child, empty()], **kwargs)


def is_choice_node(node: Node) -> bool:
    """True when the node is one of the Difftree choice nodes."""
    return isinstance(node, ChoiceNode)


def choice_nodes(root: Node) -> list[ChoiceNode]:
    """All choice nodes in the subtree, in pre-order."""
    return [n for n in root.walk() if isinstance(n, ChoiceNode)]


def dynamic_nodes(root: Node) -> list[Node]:
    """All dynamic nodes: choice nodes and their ancestors (paper 3.2.3)."""
    result = []
    for node in root.walk():
        if node.contains_choice():
            result.append(node)
    return result


def is_dynamic(node: Node) -> bool:
    """A node is dynamic if it is a choice node or an ancestor of one."""
    return node.contains_choice()
