"""Differential generator: correlated subqueries on both SQL engines.

Hypothesis draws queries over the standard catalogue that place a correlated
scalar or IN subquery in WHERE, the select list, a CASE, a JOIN ON, HAVING,
inside the subquery's own FROM subquery, or two scopes out, correlated on one
or two outer columns with ``=``, ``<`` or ``>``.  The AST interpreter is the
oracle: the columnar engine, which runs a correlated scalar subquery once per
distinct binding of its outer references, must return the same columns,
dtypes and rows, in the same order.
"""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.database import DataType, Executor, PlanCache, standard_catalog

CATALOG = standard_catalog(seed=3, scale=0.12)

#: tables small enough for the interpreter's per-row re-runs (10-72 rows)
_TABLES = ("T", "Cars", "galaxy", "specObj", "sales")
#: the row-multiplying scopes (JOIN partners, the middle of a two-scope chain)
_SMALL = ("T", "Cars", "galaxy", "specObj")

_NUMERIC = (DataType.INT, DataType.FLOAT)
_TEXT = (DataType.STR, DataType.DATE)


def _columns(table: str, kinds: tuple) -> list[str]:
    return [c.name for c in CATALOG.table(table).columns if c.dtype in kinds]


def _kinds(outer: str, inner: str) -> list[tuple]:
    """The column kinds both tables carry (every table has a numeric one)."""
    return [k for k in (_NUMERIC, _TEXT) if _columns(outer, k) and _columns(inner, k)]


@st.composite
def _ref(draw, alias: str, name: str, inner_tables: tuple) -> str:
    """An outer reference, qualified or — when no inner scope shadows the
    name — sometimes bare."""
    shadowed = any(name in _columns(t, _NUMERIC + _TEXT) for t in inner_tables)
    if not shadowed and draw(st.booleans()):
        return name
    return f"{alias}.{name}"


@st.composite
def _correlation(draw, inner: str, ia: str, outer: str, oa: str, scopes: tuple) -> str:
    """One or two ``inner op outer`` conjuncts over comparable columns; a
    self-correlation often pairs a column with itself, so ``=`` matches."""
    conjuncts = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(_kinds(outer, inner)))
        oc = draw(st.sampled_from(_columns(outer, kind)))
        same = inner == outer and draw(st.booleans())
        ic = oc if same else draw(st.sampled_from(_columns(inner, kind)))
        op = draw(st.sampled_from(["=", "<", ">"]))
        conjuncts.append(f"{ia}.{ic} {op} {draw(_ref(oa, oc, scopes))}")
    return " AND ".join(conjuncts)


@st.composite
def _scalar(draw, outer: str, oa: str, nesting: str) -> tuple[str, tuple, str]:
    """A correlated scalar subquery over ``outer``, the kind it yields and
    the inner column it reads.

    ``nesting`` places the correlation in the subquery's own WHERE
    (``plain``), in its FROM subquery (``from_subquery``, the Sales shape),
    or one subquery further in (``two_scopes``).
    """
    tables = _SMALL if nesting == "two_scopes" else _TABLES
    inner = outer if outer in tables and draw(st.booleans()) else draw(st.sampled_from(tables))
    kind = draw(st.sampled_from(_kinds(inner, inner)))
    col = draw(st.sampled_from(_columns(inner, kind)))
    aggs = ["count", "max", "min", "first"] + (["sum", "avg"] if kind is _NUMERIC else [])
    agg = draw(st.sampled_from(aggs))
    item = {"count": "count(*)", "first": f"i.{col}"}.get(agg, f"{agg}(i.{col})")
    result = _NUMERIC if agg == "count" else kind
    if nesting == "from_subquery":
        corr = draw(_correlation(inner, "i", outer, oa, (inner,)))
        body = f"SELECT {item} AS t FROM {inner} AS i WHERE {corr}"
        if agg not in ("count", "first") and draw(st.booleans()):
            key = draw(st.sampled_from(_columns(inner, _NUMERIC + _TEXT)))
            body += f" GROUP BY i.{key}"
        if draw(st.booleans()):
            return f"(SELECT count(*) FROM ({body}) AS d)", _NUMERIC, col
        return f"(SELECT max(d.t) FROM ({body}) AS d)", result, col
    if nesting == "two_scopes":
        deep = draw(st.sampled_from(_SMALL))
        dkind = draw(st.sampled_from(_kinds(inner, deep)))
        dcol = draw(st.sampled_from(_columns(deep, dkind)))
        icol = draw(st.sampled_from(_columns(inner, dkind)))
        corr = draw(_correlation(deep, "k", outer, oa, (inner, deep)))
        op = draw(st.sampled_from(["=", "<", ">"]))
        innermost = f"(SELECT max(k.{dcol}) FROM {deep} AS k WHERE {corr})"
        sql = f"(SELECT {item} FROM {inner} AS i WHERE i.{icol} {op} {innermost})"
        return sql, result, col
    corr = draw(_correlation(inner, "i", outer, oa, (inner,)))
    return f"(SELECT {item} FROM {inner} AS i WHERE {corr})", result, col


@st.composite
def _predicate(draw, outer: str, oa: str, nesting: str = "plain") -> str:
    """``outer_col op (scalar subquery)`` or ``outer_col IN (subquery)``;
    the outer column is often the one the subquery aggregates, as in the
    Sales log's ``sum(total) >= (SELECT max(t) ...)``."""
    if nesting != "plain" or draw(st.booleans()):
        sub, kind, inner_col = draw(_scalar(outer, oa, nesting))
        cols = _columns(outer, kind) or _columns(outer, _NUMERIC)
        col = inner_col if inner_col in cols and draw(st.booleans()) else draw(
            st.sampled_from(cols)
        )
        op = draw(st.sampled_from(["<", ">", ">=", "<>", "="]))
        return f"{oa}.{col} {op} {sub}"
    inner = outer if draw(st.booleans()) else draw(st.sampled_from(_TABLES))
    kind = draw(st.sampled_from(_kinds(outer, inner)))
    col = draw(st.sampled_from(_columns(outer, kind)))
    member = draw(st.sampled_from(_columns(inner, kind)))
    corr = draw(_correlation(inner, "i", outer, oa, (inner,)))
    return f"{oa}.{col} IN (SELECT i.{member} FROM {inner} AS i WHERE {corr})"


@st.composite
def correlated_queries(draw) -> str:
    placement = draw(st.sampled_from([
        "where", "select", "case", "join_on", "having", "from_subquery", "two_scopes",
    ]))
    outer = draw(st.sampled_from(_SMALL if placement == "join_on" else _TABLES))
    cols = ", ".join(f"o.{c}" for c in _columns(outer, _NUMERIC + _TEXT)[:2])
    if placement in ("from_subquery", "two_scopes"):
        pred = draw(_predicate(outer, "o", placement))
        return f"SELECT {cols} FROM {outer} AS o WHERE {pred}"
    if placement == "having":
        key = draw(st.sampled_from(_columns(outer, _NUMERIC + _TEXT)))
        sub, _, _ = draw(_scalar(outer, "o", "plain"))
        agg = draw(st.sampled_from(["count(*)", f"min(o.{key})", f"max(o.{key})"]))
        op = draw(st.sampled_from(["=", "<", ">", ">="]))
        return (
            f"SELECT o.{key}, count(*) FROM {outer} AS o GROUP BY o.{key} "
            f"HAVING {agg} {op} {sub}"
        )
    if placement == "join_on":
        pred = draw(_predicate(outer, "o"))
        return f"SELECT {cols}, j.p FROM {outer} AS o JOIN T AS j ON j.a < j.b AND {pred}"
    if placement == "select":
        if draw(st.booleans()):
            sub, _, _ = draw(_scalar(outer, "o", "plain"))
            return f"SELECT {cols}, {sub} AS s FROM {outer} AS o"
        return f"SELECT {cols}, {draw(_predicate(outer, 'o'))} FROM {outer} AS o"
    if placement == "case":
        pred = draw(_predicate(outer, "o"))
        return f"SELECT {cols}, CASE WHEN {pred} THEN 'y' ELSE 'n' END FROM {outer} AS o"
    return f"SELECT {cols} FROM {outer} AS o WHERE {draw(_predicate(outer, 'o'))}"


@seed(20261017)
@settings(max_examples=60, deadline=None)
@given(sql=correlated_queries())
def test_correlated_subqueries_match_interpreter(sql):
    interpreted = Executor(CATALOG, enable_cache=False, use_planner=False)
    columnar = Executor(CATALOG, enable_cache=False, plan_cache=PlanCache())
    expected = interpreted.execute_sql(sql)
    actual = columnar.execute_sql(sql)
    assert [(c.name, c.dtype) for c in expected.columns] == [
        (c.name, c.dtype) for c in actual.columns
    ], sql
    assert expected.rows == actual.rows, sql
