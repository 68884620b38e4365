"""Differential generators: the SQL engines on generated queries.

Hypothesis draws two families of queries over the standard catalogue:

* correlated ones, which place a correlated scalar or IN subquery in WHERE,
  the select list, a CASE, a JOIN ON, HAVING, inside the subquery's own FROM
  subquery, or two scopes out, correlated on one or two outer columns with
  ``=``, ``<`` or ``>``;
* uncorrelated ones: 2-3-table comma joins on equality keys, explicit INNER /
  LEFT / RIGHT joins with an equi key and a residual, plain and grouped FROM
  subqueries filtered by the outer WHERE, GROUP BY / HAVING and DISTINCT,
  ORDER BY with and without LIMIT, and uncorrelated scalar and IN subqueries.

The AST interpreter is the oracle: the columnar engine must return the same
columns, dtypes and rows, in the same order.  No plan reorders a join, so
row order is part of the contract even without an ORDER BY.
"""

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.database import CatalogCache, DataType, Executor, standard_catalog

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


def _assert_engines_agree(sql: str) -> None:
    interpreted = Executor(CATALOG, enable_cache=False, use_planner=False)
    columnar = Executor(CATALOG, enable_cache=False, plan_cache=CatalogCache())
    expected = interpreted.execute_sql(sql)
    actual = columnar.execute_sql(sql)
    assert [(c.name, c.dtype) for c in expected.columns] == [
        (c.name, c.dtype) for c in actual.columns
    ], sql
    assert expected.rows == actual.rows, sql


@seed(20261017)
@settings(max_examples=60, deadline=None)
@given(sql=correlated_queries())
def test_correlated_subqueries_match_interpreter(sql):
    _assert_engines_agree(sql)


# -- uncorrelated shapes --------------------------------------------------------

#: integer key columns whose value domains overlap across tables (1-28)
_KEYS = {
    "T": ("p", "a", "b"),
    "Cars": ("id",),
    "galaxy": ("objID",),
    "specObj": ("bestObjID",),
    "sales": ("invoice",),
}
#: comma-join tables: a three-way cross product of them stays below 20k rows
_JOINABLE = ("T", "Cars", "galaxy", "specObj")
#: single-table shapes may also read the larger tables (72-180 rows)
_SINGLE = _TABLES + ("flights", "covid", "sp500")
#: each column's distinct values, sorted: literals are drawn from them
_VALUES = {
    (t.name, c.name): sorted(set(t.values(c.name)))
    for t in CATALOG.tables()
    for c in t.columns
}


def _all_columns(table: str) -> list[str]:
    return [c.name for c in CATALOG.table(table).columns]


def _literal(value) -> str:
    return f"'{value}'" if isinstance(value, str) else repr(value)


@st.composite
def _compare(draw, table: str, col: str, ref: str) -> str:
    """A conjunct over ``ref`` (column ``col`` of ``table``) against values
    the column holds: a comparison, BETWEEN, an IN list or IS NOT NULL."""
    values = _VALUES[(table, col)]
    value = draw(st.sampled_from(values))
    shape = draw(st.sampled_from(["cmp", "cmp", "between", "in", "not_null"]))
    if shape == "between":
        other = draw(st.sampled_from(values))
        lo, hi = min(value, other), max(value, other)
        return f"{ref} BETWEEN {_literal(lo)} AND {_literal(hi)}"
    if shape == "in":
        more = draw(st.lists(st.sampled_from(values), max_size=2))
        return f"{ref} IN ({', '.join(_literal(v) for v in [value, *more])})"
    if shape == "not_null":
        return f"{ref} IS NOT NULL"
    op = draw(st.sampled_from(["<", ">", "<=", ">=", "=", "<>"]))
    return f"{ref} {op} {_literal(value)}"


@st.composite
def _conjunct(draw, table: str, alias: str) -> str:
    col = draw(st.sampled_from(_all_columns(table)))
    return draw(_compare(table, col, f"{alias}.{col}"))


@st.composite
def _projection(draw, tables: list, aliases: list) -> list[str]:
    refs = [f"{a}.{c}" for t, a in zip(tables, aliases) for c in _all_columns(t)]
    return draw(st.lists(st.sampled_from(refs), min_size=1, max_size=3, unique=True))


@st.composite
def _tail(draw, outputs: list[str], width: int = 0) -> str:
    """ORDER BY (output names or ordinals) and / or LIMIT [OFFSET], or nothing.

    ``width`` is the output's column count when ``outputs`` cannot name
    them (a ``*`` projection).
    """
    parts = []
    if draw(st.booleans()):
        keys = [str(i + 1) for i in range(max(width, len(outputs)))] + outputs
        items = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2, unique=True))
        parts.append("ORDER BY " + ", ".join(
            item + draw(st.sampled_from(["", " ASC", " DESC"])) for item in items
        ))
    if draw(st.booleans()):
        limit = f"LIMIT {draw(st.integers(1, 8))}"
        if draw(st.booleans()):
            limit += f" OFFSET {draw(st.integers(1, 4))}"
        parts.append(limit)
    return "".join(" " + part for part in parts)


@st.composite
def _comma_join(draw) -> str:
    """2-3 tables (three distinct ones) joined on key equalities (sometimes
    one missing: a cross join) plus single-table conjuncts, in any order."""
    n = draw(st.integers(2, 3))
    if n == 3:
        tables = draw(st.permutations(_JOINABLE))[:3]
    else:
        tables = [draw(st.sampled_from(_JOINABLE + ("sales",))) for _ in range(2)]
    aliases = [f"t{i}" for i in range(n)]
    conjuncts = []
    for j in range(1, n):
        if j > 1 and draw(st.integers(0, 3)) == 0:
            continue
        i = draw(st.integers(0, j - 1))
        left = f"{aliases[i]}.{draw(st.sampled_from(_KEYS[tables[i]]))}"
        right = f"{aliases[j]}.{draw(st.sampled_from(_KEYS[tables[j]]))}"
        conjuncts.append(f"{left} = {right}" if draw(st.booleans()) else f"{right} = {left}")
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, n - 1))
        conjuncts.append(draw(_conjunct(tables[k], aliases[k])))
    conjuncts = draw(st.permutations(conjuncts))
    from_items = ", ".join(f"{t} AS {a}" for t, a in zip(tables, aliases))
    where = f"FROM {from_items} WHERE {' AND '.join(conjuncts)}"
    if draw(st.integers(0, 3)) == 0:
        # every column of every table, unpruned
        width = sum(len(_all_columns(t)) for t in tables)
        return f"SELECT * {where}{draw(_tail([], width))}"
    outputs = draw(_projection(tables, aliases))
    distinct = "DISTINCT " if draw(st.integers(0, 4)) == 0 else ""
    return f"SELECT {distinct}{', '.join(outputs)} {where}{draw(_tail(outputs))}"


@st.composite
def _explicit_join(draw) -> str:
    """``JOIN ... ON`` an equi key plus a residual: a single-side conjunct or
    a non-equi comparison of the two sides; sometimes an outer WHERE."""
    lt, rt = draw(st.sampled_from(_JOINABLE)), draw(st.sampled_from(_JOINABLE))
    kind = draw(st.sampled_from(["JOIN", "INNER JOIN", "LEFT JOIN", "RIGHT JOIN"]))
    on = [f"l.{draw(st.sampled_from(_KEYS[lt]))} = r.{draw(st.sampled_from(_KEYS[rt]))}"]
    residual = draw(st.sampled_from(["left", "right", "cross", "none"]))
    if residual == "cross":
        lc = draw(st.sampled_from(_columns(lt, _NUMERIC)))
        rc = draw(st.sampled_from(_columns(rt, _NUMERIC)))
        on.append(f"l.{lc} {draw(st.sampled_from(['<', '>', '<>']))} r.{rc}")
    elif residual != "none":
        table, alias = (lt, "l") if residual == "left" else (rt, "r")
        on.append(draw(_conjunct(table, alias)))
    sql = f" FROM {lt} AS l {kind} {rt} AS r ON {' AND '.join(draw(st.permutations(on)))}"
    if draw(st.booleans()):
        table, alias = draw(st.sampled_from([(lt, "l"), (rt, "r")]))
        sql += f" WHERE {draw(_conjunct(table, alias))}"
    outputs = draw(_projection([lt, rt], ["l", "r"]))
    return f"SELECT {', '.join(outputs)}{sql}{draw(_tail(outputs))}"


@st.composite
def _from_subquery(draw) -> str:
    """A plain (optionally filtered or truncated) or grouped FROM subquery,
    filtered by the outer WHERE and sometimes joined to a base table on a key
    it projects."""
    table = draw(st.sampled_from(_TABLES))
    cols = _all_columns(table)
    outer: list[str] = []
    if draw(st.booleans()):
        key = draw(st.sampled_from(cols))
        measure = draw(st.sampled_from(_columns(table, _NUMERIC)))
        agg = draw(st.sampled_from(["count", "sum", "min", "max", "avg"]))
        item = "count(*)" if agg == "count" else f"{agg}({measure})"
        body = f"SELECT {key}, {item} AS m FROM {table} GROUP BY {key}"
        if draw(st.booleans()):
            body += f" HAVING count(*) >= {draw(st.integers(1, 3))}"
        names = [key, "m"]
        if draw(st.booleans()):
            outer.append(draw(_compare(table, key, f"sub.{key}")))
        if draw(st.booleans()):
            if agg == "count":
                op = draw(st.sampled_from(["<", ">="]))
                outer.append(f"sub.m {op} {draw(st.integers(1, 4))}")
            else:
                outer.append(draw(_compare(table, measure, "sub.m")))
    else:
        names = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=3, unique=True))
        body = f"SELECT {', '.join(names)} FROM {table}"
        if draw(st.booleans()):
            body += f" WHERE {draw(_conjunct(table, table))}"
        if draw(st.integers(0, 3)) == 0:
            body += f" LIMIT {draw(st.integers(1, 12))}"
        for _ in range(draw(st.integers(1, 2))):
            col = draw(st.sampled_from(names))
            ref = draw(st.sampled_from([f"sub.{col}", col]))
            outer.append(draw(_compare(table, col, ref)))
    outputs = [f"sub.{name}" for name in names]
    from_items = f"({body}) AS sub"
    keys = [name for name in names if name in _KEYS.get(table, ())]
    if keys and draw(st.booleans()):
        other = draw(st.sampled_from(_JOINABLE))
        outer.append(f"sub.{draw(st.sampled_from(keys))} = j.{draw(st.sampled_from(_KEYS[other]))}")
        from_items += f", {other} AS j"
        outputs.append(f"j.{draw(st.sampled_from(_all_columns(other)))}")
    where = f" WHERE {' AND '.join(outer)}" if outer else ""
    return f"SELECT {', '.join(outputs)} FROM {from_items}{where}{draw(_tail(outputs))}"


@st.composite
def _grouped(draw) -> str:
    """GROUP BY 1-2 keys with aggregates and an optional HAVING, or a
    DISTINCT projection, over one table with an optional WHERE."""
    table = draw(st.sampled_from(_SINGLE))
    cols = _all_columns(table)
    where = f" WHERE {draw(_conjunct(table, table))}" if draw(st.booleans()) else ""
    if draw(st.integers(0, 2)) == 0:
        outputs = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=2, unique=True))
        sql = f"SELECT DISTINCT {', '.join(outputs)} FROM {table}{where}"
        return sql + draw(_tail(outputs))
    keys = draw(st.lists(st.sampled_from(cols), min_size=1, max_size=2, unique=True))
    measure = draw(st.sampled_from(_columns(table, _NUMERIC)))
    aggs = draw(st.lists(st.sampled_from([
        "count(*)", f"sum({measure})", f"min({measure})", f"max({measure})",
        f"avg({measure})", f"count(DISTINCT {draw(st.sampled_from(cols))})",
    ]), min_size=1, max_size=2, unique=True))
    sql = f"SELECT {', '.join(keys + aggs)} FROM {table}{where} GROUP BY {', '.join(keys)}"
    if draw(st.booleans()):
        having = draw(st.sampled_from(["count(*)", f"max({measure})", f"min({measure})"]))
        if having == "count(*)":
            op = draw(st.sampled_from([">", "<="]))
            sql += f" HAVING count(*) {op} {draw(st.integers(1, 3))}"
        else:
            sql += f" HAVING {draw(_compare(table, measure, having))}"
    return sql + draw(_tail(keys))


@st.composite
def _uncorrelated_subquery(draw) -> str:
    """An uncorrelated scalar subquery (aggregate or first row) or IN
    subquery in WHERE, the select list or HAVING."""
    outer, inner = draw(st.sampled_from(_TABLES)), draw(st.sampled_from(_SINGLE))
    kind = draw(st.sampled_from(_kinds(outer, inner)))
    ocol = draw(st.sampled_from(_columns(outer, kind)))
    icol = draw(st.sampled_from(_columns(inner, kind)))
    inner_where = ""
    if draw(st.booleans()):
        inner_where = f" WHERE {draw(_conjunct(inner, 'i'))}"
    aggs = ["max", "min", "count", "first"] + (["avg", "sum"] if kind is _NUMERIC else [])
    agg = draw(st.sampled_from(aggs))
    item = {"count": "count(*)", "first": f"i.{icol}"}.get(agg, f"{agg}(i.{icol})")
    scalar = f"(SELECT {item} FROM {inner} AS i{inner_where})"
    placement = draw(st.sampled_from(["where", "in", "select", "having"]))
    outputs = [f"o.{c}" for c in draw(
        st.lists(st.sampled_from(_all_columns(outer)), min_size=1, max_size=2, unique=True)
    )]
    op = draw(st.sampled_from(["<", ">", ">=", "<>", "="]))
    if placement == "having":
        sql = (
            f"SELECT o.{ocol}, count(*) FROM {outer} AS o GROUP BY o.{ocol} "
            f"HAVING max(o.{ocol}) {op} {scalar}"
        )
        return sql + draw(_tail([f"o.{ocol}"]))
    if placement == "select":
        sql = f"SELECT {', '.join(outputs)}, {scalar} AS s FROM {outer} AS o"
    elif placement == "in":
        negate = "NOT " if draw(st.booleans()) else ""
        sql = (
            f"SELECT {', '.join(outputs)} FROM {outer} AS o WHERE o.{ocol} {negate}IN "
            f"(SELECT i.{icol} FROM {inner} AS i{inner_where})"
        )
    else:
        sql = f"SELECT {', '.join(outputs)} FROM {outer} AS o WHERE o.{ocol} {op} {scalar}"
    return sql + draw(_tail(outputs))


def uncorrelated_queries():
    return st.one_of(
        _comma_join(), _explicit_join(), _from_subquery(), _grouped(),
        _uncorrelated_subquery(),
    )


#: three-table key chains pinned as examples: random draws reach few of them,
#: and a join key attached without its item's column offset passes two-table
#: joins and chains whose keys hold equal values
@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(sql=uncorrelated_queries())
@example(
    sql="SELECT * FROM Cars AS t0, specObj AS t1, galaxy AS t2 "
    "WHERE t1.bestObjID = t0.id AND t2.objID = t1.bestObjID"
)
@example(
    sql="SELECT * FROM specObj AS t0, Cars AS t1, galaxy AS t2 "
    "WHERE t2.objID = t0.bestObjID AND t0.bestObjID = t1.id"
)
@example(
    sql="SELECT t0.objID, t2.id FROM galaxy AS t0, specObj AS t1, Cars AS t2 "
    "WHERE t1.bestObjID = t0.objID AND t2.id = t0.objID"
)
@example(
    sql="SELECT * FROM T AS t0, Cars AS t1, galaxy AS t2 "
    "WHERE t0.a = t1.id AND t2.objID = t0.b"
)
def test_uncorrelated_shapes_match_interpreter(sql):
    _assert_engines_agree(sql)
