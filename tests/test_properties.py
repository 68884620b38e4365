"""Property-based tests (hypothesis) for the core data structures and invariants.

Invariants checked:

* SQL rendering round-trips through the parser for randomly generated queries.
* Difftree resolution / matching are inverse operations: any AST produced by
  resolving a Difftree under random bindings is matched by that Difftree, and
  replaying the derivation reproduces the AST exactly.
* The PI2 type union is commutative, associative and idempotent, and
  compatibility is transitive along the primitive chain.
* The executor's WHERE clause semantics: filtering never invents rows and is
  monotone when predicates are relaxed.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.database import DataType
from repro.difftree import match_query, resolve_with_derivation
from repro.difftree.nodes import AnyNode, MultiNode, SubsetNode, ValNode, make_opt
from repro.difftree.resolve import FlatBindingSource, resolve
from repro.difftree.types import PiType
from repro.sqlparser import ast_nodes as A
from repro.sqlparser import parse, to_sql
from repro.sqlparser.ast_nodes import L, Node

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_IDENTIFIERS = ("a", "b", "p", "hp", "mpg", "origin", "total")
_TABLES = ("T", "Cars", "sales")

literals = st.one_of(
    st.integers(min_value=-100, max_value=1000).map(A.literal_num),
    st.floats(
        min_value=-100, max_value=1000, allow_nan=False, allow_infinity=False
    ).map(lambda v: A.literal_num(round(v, 3))),
    st.sampled_from(["USA", "Japan", "x y", "it's"]).map(A.literal_str),
)

columns = st.sampled_from(_IDENTIFIERS).map(A.column)


@st.composite
def predicates(draw):
    kind = draw(st.sampled_from(["binop", "between", "in_list"]))
    column = draw(columns)
    if kind == "binop":
        op = draw(st.sampled_from(["=", ">", "<", ">=", "<=", "<>"]))
        return A.binop(op, column, draw(literals))
    if kind == "between":
        lo = draw(st.integers(min_value=0, max_value=50))
        hi = draw(st.integers(min_value=50, max_value=100))
        return A.between(column, A.literal_num(lo), A.literal_num(hi))
    values = draw(st.lists(literals, min_size=1, max_size=3))
    return A.in_list(column, values)


@st.composite
def select_statements(draw):
    n_items = draw(st.integers(min_value=1, max_value=3))
    items = [A.select_item(draw(columns)) for _ in range(n_items)]
    clauses = [A.select_clause(items, distinct=draw(st.booleans()))]
    clauses.append(A.from_clause([A.table_ref(A.table_name(draw(st.sampled_from(_TABLES))))]))
    if draw(st.booleans()):
        preds = draw(st.lists(predicates(), min_size=1, max_size=3))
        clauses.append(A.where_clause(A.and_(*preds)))
    if draw(st.booleans()):
        clauses.append(A.groupby_clause([draw(columns)]))
    return A.select_stmt(*clauses)


@st.composite
def difftrees_over_predicates(draw):
    """A small Difftree over a WHERE conjunction using every choice-node kind."""
    elements = []
    n = draw(st.integers(min_value=1, max_value=3))
    for _ in range(n):
        kind = draw(st.sampled_from(["plain", "any", "val", "opt"]))
        if kind == "plain":
            elements.append(draw(predicates()))
        elif kind == "any":
            alts = draw(st.lists(predicates(), min_size=2, max_size=3))
            elements.append(AnyNode(alts))
        elif kind == "val":
            column = draw(columns)
            observed = draw(st.lists(
                st.integers(min_value=0, max_value=50).map(A.literal_num),
                min_size=1, max_size=3,
            ))
            elements.append(
                A.binop("=", column, ValNode(observed, pitype=PiType.num()))
            )
        else:
            elements.append(make_opt(draw(predicates())))
    structure = draw(st.sampled_from(["and", "subset", "multi"]))
    if structure == "and":
        return Node(L.AND, None, elements)
    if structure == "subset":
        plain = [e for e in elements if not isinstance(e, AnyNode)]
        if not plain:
            plain = [draw(predicates())]
        return Node(L.AND, None, [SubsetNode(plain, sep=" AND ")])
    template = AnyNode(draw(st.lists(predicates(), min_size=1, max_size=2)))
    return Node(L.AND, None, [MultiNode([template], sep=" AND ")])


@st.composite
def random_bindings(draw, tree):
    """Random parameters for every choice node of a Difftree."""
    params = {}
    for node in tree.walk():
        if isinstance(node, ValNode):
            params[node.node_id] = draw(st.integers(min_value=0, max_value=99))
        elif isinstance(node, MultiNode):
            params[node.node_id] = draw(st.integers(min_value=1, max_value=3))
        elif isinstance(node, SubsetNode):
            k = len(node.children)
            indices = draw(
                st.lists(
                    st.integers(min_value=0, max_value=k - 1),
                    min_size=0,
                    max_size=k,
                    unique=True,
                )
            )
            params[node.node_id] = tuple(sorted(indices))
        elif isinstance(node, AnyNode):
            non_empty = [
                i for i, c in enumerate(node.children) if c.label != L.EMPTY
            ]
            choices = non_empty + (
                [i for i, c in enumerate(node.children) if c.label == L.EMPTY]
            )
            params[node.node_id] = draw(st.sampled_from(choices))
    return params


# ---------------------------------------------------------------------------
# parser / renderer
# ---------------------------------------------------------------------------


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(select_statements())
def test_render_parse_roundtrip(ast):
    """Rendering an AST and parsing it back yields an equivalent AST."""
    sql = to_sql(ast)
    assert parse(sql) == ast


@settings(max_examples=60, deadline=None)
@given(select_statements())
def test_fingerprint_is_stable_under_copy(ast):
    assert ast.copy().fingerprint() == ast.fingerprint()
    assert ast.copy() == ast


# ---------------------------------------------------------------------------
# Difftree resolution / matching inverse property
# ---------------------------------------------------------------------------


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.data())
def test_resolve_then_match_roundtrip(data):
    tree = data.draw(difftrees_over_predicates())
    params = data.draw(random_bindings(tree))
    try:
        concrete = resolve(tree, FlatBindingSource(params))
    except Exception:
        # an empty SUBSET inside a single-element AND can produce an empty
        # conjunction, which is not a resolvable AST — skip those draws
        return
    if any(len(n.children) == 0 and n.label == L.AND for n in concrete.walk()):
        return
    derivation = match_query(tree, concrete)
    assert derivation is not None, (
        f"tree cannot express its own resolution: {to_sql(concrete)}"
    )
    replayed = resolve_with_derivation(tree, derivation)
    assert replayed == concrete


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_match_never_accepts_foreign_structure(data):
    tree = data.draw(difftrees_over_predicates())
    foreign = Node(L.OR, None, [A.binop("=", A.column("zz"), A.literal_num(1))])
    assert match_query(tree, foreign) is None


# ---------------------------------------------------------------------------
# type system algebra
# ---------------------------------------------------------------------------

pitypes = st.one_of(
    st.just(PiType.ast()),
    st.just(PiType.str_()),
    st.just(PiType.num()),
    st.sampled_from(["T.a", "T.b", "Cars.hp"]).map(
        lambda q: PiType.attr(q, DataType.INT)
    ),
    st.sampled_from(["Cars.origin", "sales.city"]).map(
        lambda q: PiType.attr(q, DataType.STR)
    ),
)


@settings(max_examples=100, deadline=None)
@given(pitypes, pitypes)
def test_union_commutative(a, b):
    assert a.union(b) == b.union(a)


@settings(max_examples=100, deadline=None)
@given(pitypes, pitypes, pitypes)
def test_union_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


@settings(max_examples=50, deadline=None)
@given(pitypes)
def test_union_idempotent_and_compatible(a):
    assert a.union(a) == a
    assert a.compatible_with(a)
    assert a.compatible_with(PiType.ast())
    assert a.compatible_with(a.union(PiType.str_()) if not a.is_attribute else a)


@settings(max_examples=100, deadline=None)
@given(pitypes, pitypes)
def test_types_are_compatible_with_their_union(a, b):
    union = a.union(b)
    assert a.compatible_with(union)
    assert b.compatible_with(union)


# ---------------------------------------------------------------------------
# executor filter semantics
# ---------------------------------------------------------------------------


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(
    st.integers(min_value=40, max_value=120),
    st.integers(min_value=120, max_value=240),
)
def test_where_filter_monotone(executor_module, lo, hi):
    executor = executor_module
    narrow = executor.execute_sql(
        f"SELECT hp FROM Cars WHERE hp BETWEEN {lo} AND {hi}"
    )
    wide = executor.execute_sql(
        f"SELECT hp FROM Cars WHERE hp BETWEEN {lo - 10} AND {hi + 10}"
    )
    everything = executor.execute_sql("SELECT hp FROM Cars")
    assert len(narrow) <= len(wide) <= len(everything)
    assert all(lo <= row[0] <= hi for row in narrow.rows)


# hypothesis needs a non-function-scoped fixture workaround: build one executor
import pytest  # noqa: E402


@pytest.fixture(scope="module")
def executor_module():
    from repro.database import Executor, standard_catalog

    return Executor(standard_catalog(seed=23, scale=0.1))
