"""Generic abstract-syntax-tree nodes for the SQL substrate.

PI2 is database agnostic: it manipulates queries purely as labelled syntax
trees (the paper only assumes "access to a lightly annotated language
grammar").  We therefore use a single generic :class:`Node` class with a
``label`` (the grammar production it came from), an optional ``value``
payload for leaves, and an ordered ``children`` list.  The Difftree layer
(:mod:`repro.difftree`) extends the very same representation with choice
nodes, which keeps tree alignment, transformation rules, and rendering
uniform.

Label constants are collected in :class:`L`; helper constructors at the
bottom of the module build well-formed nodes for each production.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence


class L:
    """Node label constants (grammar production names)."""

    # statements / clauses
    SELECT_STMT = "select_stmt"
    SELECT_CLAUSE = "select_clause"
    SELECT_ITEM = "select_item"
    FROM_CLAUSE = "from_clause"
    TABLE_REF = "table_ref"
    TABLE_NAME = "table_name"
    SUBQUERY = "subquery"
    JOIN = "join"
    JOIN_ON = "join_on"
    WHERE_CLAUSE = "where_clause"
    GROUPBY_CLAUSE = "groupby_clause"
    HAVING_CLAUSE = "having_clause"
    ORDERBY_CLAUSE = "orderby_clause"
    ORDER_ITEM = "order_item"
    LIMIT_CLAUSE = "limit_clause"
    ALIAS = "alias"

    # expressions
    AND = "and"
    OR = "or"
    NOT = "not"
    BINOP = "binop"
    BETWEEN = "between"
    IN_LIST = "in_list"
    IN_QUERY = "in_query"
    IS_NULL = "is_null"
    FUNC = "func"
    CASE = "case"
    WHEN = "when"
    COLUMN = "column"
    STAR = "star"
    LITERAL_NUM = "literal_num"
    LITERAL_STR = "literal_str"
    LITERAL_BOOL = "literal_bool"
    LITERAL_NULL = "literal_null"
    NEG = "neg"
    PARAM = "param"

    # choice-node labels (used by the Difftree layer; defined here so that
    # rendering and traversal code can recognise them without importing the
    # difftree package)
    ANY = "ANY"
    OPT = "OPT"
    VAL = "VAL"
    MULTI = "MULTI"
    SUBSET = "SUBSET"
    EMPTY = "EMPTY"
    CO_OPT = "CO_OPT"

    CHOICE_LABELS = frozenset({ANY, OPT, VAL, MULTI, SUBSET})

    #: labels whose children form a variable-length list (candidates for the
    #: MULTI / SUBSET transformation rules)
    LIST_LABELS = frozenset(
        {SELECT_CLAUSE, FROM_CLAUSE, GROUPBY_CLAUSE, ORDERBY_CLAUSE, AND, OR, IN_LIST}
    )

    #: list labels and the separator used when rendering them back to SQL
    LIST_SEPARATORS = {
        SELECT_CLAUSE: ", ",
        FROM_CLAUSE: ", ",
        GROUPBY_CLAUSE: ", ",
        ORDERBY_CLAUSE: ", ",
        AND: " AND ",
        OR: " OR ",
        IN_LIST: ", ",
    }


class Node:
    """A generic labelled syntax-tree node.

    Attributes:
        label: the grammar production name (one of the constants in :class:`L`
            for plain SQL, or a choice-node label for Difftrees).
        value: leaf payload (identifier text, literal value, operator, …) or
            ``None`` for pure structural nodes.
        children: ordered list of child nodes.
    """

    __slots__ = ("label", "value", "children")

    def __init__(
        self,
        label: str,
        value: object = None,
        children: Optional[Sequence["Node"]] = None,
    ) -> None:
        self.label = label
        self.value = value
        self.children: list[Node] = list(children) if children else []

    # -- structural helpers ---------------------------------------------

    @property
    def is_choice(self) -> bool:
        """True when the node is a Difftree choice node."""
        return self.label in L.CHOICE_LABELS

    def signature(self) -> tuple:
        """A (label, value) pair identifying the node kind.

        Two nodes with equal signatures are considered to have "the same
        root" for the purposes of the PushANY transformation rule.
        """
        return (self.label, self.value)

    def copy(self) -> "Node":
        """Deep copy of the subtree rooted at this node."""
        return Node(self.label, self.value, [c.copy() for c in self.children])

    def replace_child(self, old: "Node", new: "Node") -> None:
        """Replace the first occurrence of ``old`` (by identity) with ``new``."""
        for i, child in enumerate(self.children):
            if child is old:
                self.children[i] = new
                return
        raise ValueError("old node is not a child of this node")

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the subtree rooted at this node."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def walk_with_parent(
        self, parent: Optional["Node"] = None
    ) -> Iterator[tuple["Node", Optional["Node"]]]:
        """Pre-order traversal yielding (node, parent) pairs."""
        yield self, parent
        for child in self.children:
            yield from child.walk_with_parent(self)

    def find_all(self, predicate: Callable[["Node"], bool]) -> list["Node"]:
        """All nodes in the subtree satisfying ``predicate`` (pre-order)."""
        return [n for n in self.walk() if predicate(n)]

    def find_first(self, predicate: Callable[["Node"], bool]) -> Optional["Node"]:
        """First node in pre-order satisfying ``predicate`` or None."""
        for n in self.walk():
            if predicate(n):
                return n
        return None

    def find_label(self, label: str) -> list["Node"]:
        """All descendants (including self) with the given label."""
        return self.find_all(lambda n: n.label == label)

    def size(self) -> int:
        """Number of nodes in the subtree."""
        return sum(1 for _ in self.walk())

    def depth(self) -> int:
        """Height of the subtree (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(c.depth() for c in self.children)

    def contains_choice(self) -> bool:
        """True if any node in the subtree is a choice node."""
        return any(n.is_choice for n in self.walk())

    # -- equality / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        if self.label != other.label or self.value != other.value:
            return False
        if len(self.children) != len(other.children):
            return False
        return all(a == b for a, b in zip(self.children, other.children))

    def __hash__(self) -> int:
        return hash((self.label, self.value, tuple(hash(c) for c in self.children)))

    def fingerprint(self) -> str:
        """A canonical string uniquely identifying the subtree's structure."""
        if not self.children:
            return f"{self.label}:{self.value!r}"
        inner = ",".join(c.fingerprint() for c in self.children)
        return f"{self.label}:{self.value!r}({inner})"

    # -- debugging --------------------------------------------------------

    def pretty(self, indent: int = 0) -> str:
        """Multi-line indented rendering of the subtree for debugging."""
        pad = "  " * indent
        head = f"{pad}{self.label}"
        if self.value is not None:
            head += f"={self.value!r}"
        lines = [head]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        val = f", {self.value!r}" if self.value is not None else ""
        return f"Node({self.label}{val}, {len(self.children)} children)"


# ---------------------------------------------------------------------------
# Constructor helpers.  These keep parser code terse and give tests a single
# obvious way to build well-formed nodes by hand.
# ---------------------------------------------------------------------------


def select_stmt(*clauses: Node) -> Node:
    """A full SELECT statement with the given clause children (in order)."""
    return Node(L.SELECT_STMT, None, list(clauses))


def select_clause(items: Sequence[Node], distinct: bool = False) -> Node:
    """The projection list; ``value`` is "DISTINCT" when DISTINCT was given."""
    return Node(L.SELECT_CLAUSE, "DISTINCT" if distinct else None, list(items))


def select_item(expr: Node, alias: Optional[str] = None) -> Node:
    children = [expr]
    if alias is not None:
        children.append(Node(L.ALIAS, alias))
    return Node(L.SELECT_ITEM, None, children)


def from_clause(refs: Sequence[Node]) -> Node:
    return Node(L.FROM_CLAUSE, None, list(refs))


def table_ref(source: Node, alias: Optional[str] = None) -> Node:
    children = [source]
    if alias is not None:
        children.append(Node(L.ALIAS, alias))
    return Node(L.TABLE_REF, None, children)


def table_name(name: str) -> Node:
    return Node(L.TABLE_NAME, name)


def subquery(stmt: Node) -> Node:
    return Node(L.SUBQUERY, None, [stmt])


def where_clause(expr: Node) -> Node:
    return Node(L.WHERE_CLAUSE, None, [expr])


def groupby_clause(exprs: Sequence[Node]) -> Node:
    return Node(L.GROUPBY_CLAUSE, None, list(exprs))


def having_clause(expr: Node) -> Node:
    return Node(L.HAVING_CLAUSE, None, [expr])


def orderby_clause(items: Sequence[Node]) -> Node:
    return Node(L.ORDERBY_CLAUSE, None, list(items))


def order_item(expr: Node, direction: str = "ASC") -> Node:
    return Node(L.ORDER_ITEM, direction.upper(), [expr])


def limit_clause(count: Node) -> Node:
    return Node(L.LIMIT_CLAUSE, None, [count])


def and_(*exprs: Node) -> Node:
    return Node(L.AND, None, list(exprs))


def or_(*exprs: Node) -> Node:
    return Node(L.OR, None, list(exprs))


def not_(expr: Node) -> Node:
    return Node(L.NOT, None, [expr])


def binop(op: str, left: Node, right: Node) -> Node:
    return Node(L.BINOP, op, [left, right])


def between(expr: Node, lo: Node, hi: Node) -> Node:
    return Node(L.BETWEEN, None, [expr, lo, hi])


def in_list(expr: Node, values: Sequence[Node]) -> Node:
    return Node(L.IN_LIST, None, [expr, *values])


def in_query(expr: Node, sub: Node) -> Node:
    return Node(L.IN_QUERY, None, [expr, sub])


def is_null(expr: Node, negated: bool = False) -> Node:
    return Node(L.IS_NULL, "NOT" if negated else None, [expr])


def func(name: str, args: Sequence[Node], distinct: bool = False) -> Node:
    node = Node(L.FUNC, name.lower(), list(args))
    if distinct:
        node = Node(L.FUNC, f"{name.lower()} distinct", list(args))
    return node


def column(name: str, table: Optional[str] = None) -> Node:
    qualified = f"{table}.{name}" if table else name
    return Node(L.COLUMN, qualified)


def star() -> Node:
    return Node(L.STAR, "*")


def literal_num(value: float | int) -> Node:
    return Node(L.LITERAL_NUM, value)


def literal_str(value: str) -> Node:
    return Node(L.LITERAL_STR, value)


def literal_bool(value: bool) -> Node:
    return Node(L.LITERAL_BOOL, value)


def literal_null() -> Node:
    return Node(L.LITERAL_NULL, None)


def neg(expr: Node) -> Node:
    return Node(L.NEG, None, [expr])


def empty() -> Node:
    """The empty subtree used as the second child of OPT choice nodes."""
    return Node(L.EMPTY, None)
