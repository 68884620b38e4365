"""Plan layer tests: hash joins, predicate pushdown, projection pruning.

The core property: for every query the system supports, planned execution on
the vectorized columnar engine must produce a ``ResultTable`` identical to
the pre-plan AST interpreter: same column names, types, sources and aggregate
flags, and the same rows in the same order (order matters: ``LIMIT`` without
``ORDER BY`` is only deterministic if planned joins preserve the
interpreter's row order).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.database import CatalogCache, Executor, standard_catalog
from repro.database.planner import (
    CrossJoinOp,
    HashJoinOp,
    NestedLoopJoinOp,
    Planner,
    ScanOp,
    SubqueryScanOp,
)
from repro.sqlparser import parse
from repro.workloads.logs import WORKLOADS

CATALOG = standard_catalog(seed=3, scale=0.12)

#: every query of every workload log (the paper's Listings 1-7)
WORKLOAD_QUERIES = [
    pytest.param(query, id=f"{name}-{i}")
    for name, workload in sorted(WORKLOADS.items())
    for i, query in enumerate(workload.queries)
]

#: a comma join whose larger table comes first in FROM order
JOIN_SQL = (
    "SELECT T.p, flights.delay FROM flights, T "
    "WHERE flights.hour = T.a AND flights.delay > 3"
)

#: extra join / pushdown shapes not exercised by the logs
EXTRA_QUERIES = [
    # explicit inner join with an extra non-equi residual conjunct
    "SELECT gal.u, s.z FROM galaxy as gal JOIN specObj as s "
    "ON s.bestObjID = gal.objID AND s.ra > 213.5",
    # outer joins (both paddings), equi and non-equi conditions
    "SELECT t.p, s.ra FROM T as t LEFT JOIN specObj as s ON t.p = s.specObjID",
    "SELECT t.p, s.ra FROM T as t RIGHT JOIN specObj as s ON t.p = s.specObjID",
    "SELECT t.p, c.hp FROM T as t LEFT JOIN Cars as c ON t.p > c.id",
    # three-way comma join with mixed equality and pushdown conjuncts
    "SELECT t.p, c.id, gal.objID FROM T as t, Cars as c, galaxy as gal "
    "WHERE t.p = c.id AND c.id = gal.objID AND c.hp > 60",
    # comma join without any equality: must stay a cross join
    "SELECT t.a, c.origin FROM T as t, Cars as c WHERE t.a > 3 LIMIT 7",
    # self join with aliases
    "SELECT a.id, b.id FROM Cars as a, Cars as b "
    "WHERE a.id = b.id AND a.hp > 120",
    # join feeding grouping and HAVING
    "SELECT gal.objID, count(*) FROM galaxy as gal, specObj as s "
    "WHERE s.bestObjID = gal.objID GROUP BY gal.objID HAVING count(*) >= 1",
    # LIMIT without ORDER BY over a join: row order must be preserved
    "SELECT gal.objID, s.ra FROM galaxy as gal, specObj as s "
    "WHERE s.bestObjID = gal.objID LIMIT 5",
    # subquery in FROM alongside pushdown on the outer query
    "SELECT t FROM (SELECT sum(total) as t FROM sales GROUP BY city) sub "
    "WHERE t > 0",
    # IN subquery and scalar subquery conjuncts are never pushed
    "SELECT hour FROM flights WHERE hour IN "
    "(SELECT hour FROM flights WHERE hour < 3) AND delay > 0",
    "SELECT total FROM sales WHERE total >= (SELECT max(total) FROM sales)",
    # DISTINCT + ORDER BY + LIMIT over a planned join
    "SELECT DISTINCT gal.objID, s.dec FROM galaxy as gal, specObj as s "
    "WHERE s.bestObjID = gal.objID ORDER BY s.dec LIMIT 9",
    # unqualified equality that resolves within a single table: pushed, not a key
    "SELECT p FROM T WHERE a = b",
    # projection pruning with aggregates only
    "SELECT count(*) FROM flights WHERE dist > 500",
    # ORDER BY over a three-table comma join, joined in FROM order
    "SELECT gal.objID, s.ra, t.p FROM galaxy as gal, specObj as s, T as t "
    "WHERE s.bestObjID = gal.objID AND t.p = gal.objID "
    "ORDER BY gal.objID, s.ra, t.p",
    # single-table conjuncts over a FROM-subquery alias: filtered directly
    # above the subquery scan
    "SELECT sub.hour, sub.delay FROM (SELECT hour, delay FROM flights) sub "
    "WHERE sub.delay > 30 AND sub.hour < 5",
    "SELECT h FROM (SELECT hour as h, dist FROM flights) sub "
    "WHERE h BTWN 2 & 9 AND dist > 300 LIMIT 11",
    # subquery alias joined to a base table through its static schema
    "SELECT sub.id, c.hp FROM (SELECT id, mpg FROM Cars) sub, Cars as c "
    "WHERE sub.id = c.id AND sub.mpg > 20",
    # LIMIT inside the subquery: the outer filter runs on its truncated rows
    "SELECT v FROM (SELECT hp as v FROM Cars LIMIT 17) sub WHERE v > 100",
    # expression-heavy projection and CASE on the columnar path
    "SELECT hp * 2 + 1, CASE WHEN hp > 120 THEN 'big' ELSE 'small' END "
    "FROM Cars WHERE mpg IS NOT NULL",
    # scalar functions, IN lists and LIKE on the columnar path
    "SELECT upper(origin), length(origin) FROM Cars "
    "WHERE origin LIKE '%an%' OR id IN (1, 2, 3)",
    # grouped aggregates combined in arithmetic and compared in HAVING
    "SELECT origin, sum(hp) / count(*) FROM Cars GROUP BY origin "
    "HAVING count(*) > 2 AND avg(mpg) > 10",
    # count(DISTINCT ...) and aggregates over an empty relation
    "SELECT count(DISTINCT origin) FROM Cars",
    "SELECT count(*), sum(hp), min(hp) FROM Cars WHERE hp > 100000",
    # outer joins with residual ON conjuncts (padding after the residual)
    "SELECT t.p, s.ra FROM T as t LEFT JOIN specObj as s "
    "ON t.p = s.specObjID AND s.ra > 213.5",
    "SELECT t.p, s.ra FROM T as t RIGHT JOIN specObj as s "
    "ON t.p = s.specObjID AND s.ra > 213.5",
    # non-equi outer joins: block-wise nested loop + padding
    "SELECT t.p, c.hp FROM T as t RIGHT JOIN Cars as c ON t.p > c.id",
    "SELECT t.a, c.mpg FROM T as t LEFT JOIN Cars as c ON t.a > c.mpg",
    # uncorrelated subqueries in vectorized stages: evaluated once, broadcast
    "SELECT hp FROM Cars WHERE hp > (SELECT avg(hp) FROM Cars) "
    "AND mpg < (SELECT max(mpg) FROM Cars)",
    "SELECT (SELECT max(hp) FROM Cars), origin FROM Cars "
    "WHERE id IN (SELECT id FROM Cars WHERE hp > 100)",
    "SELECT city, sum(total) FROM sales GROUP BY city "
    "HAVING sum(total) >= (SELECT avg(total) FROM sales)",
    "SELECT origin, count(*) FROM Cars "
    "WHERE hp IN (SELECT hp FROM Cars WHERE mpg > 30) GROUP BY origin",
    # grouped FROM subquery: static schema, hash join, filters above the scan
    "SELECT sub.city, s.total FROM "
    "(SELECT city, sum(total) as t FROM sales GROUP BY city) sub, sales as s "
    "WHERE sub.city = s.city AND s.total > 400",
    "SELECT city, t FROM "
    "(SELECT city, sum(total) as t FROM sales GROUP BY city) sub "
    "WHERE city LIKE '%a%' AND t > 0",
    "SELECT c, t FROM (SELECT city as c, count(*) as t, avg(total) FROM sales "
    "GROUP BY city HAVING count(*) > 1) sub WHERE c LIKE '%a%'",
    # correlated scalar subqueries: re-run per row of their stage, in WHERE,
    # the projection, a CASE, a JOIN ON, over a hash join, inside an
    # aggregate argument and in HAVING
    "SELECT id, hp FROM Cars as c WHERE hp > "
    "(SELECT avg(d.hp) FROM Cars as d WHERE d.origin = c.origin)",
    "SELECT id, (SELECT count(*) FROM Cars as d WHERE d.hp > c.hp) FROM Cars as c",
    "SELECT id, CASE WHEN (SELECT count(*) FROM Cars as d WHERE d.hp > c.hp) > 5 "
    "THEN 'top' ELSE 'rest' END FROM Cars as c",
    "SELECT t.p, c.hp FROM T as t JOIN Cars as c "
    "ON c.hp > (SELECT min(d.hp) FROM Cars as d WHERE d.id = t.p)",
    "SELECT t.p, c.hp FROM T as t LEFT JOIN Cars as c ON t.p = c.id "
    "AND c.hp > (SELECT avg(d.hp) FROM Cars as d WHERE d.origin = c.origin)",
    "SELECT gal.objID, s.ra FROM galaxy as gal, specObj as s "
    "WHERE s.bestObjID = gal.objID AND s.ra >= "
    "(SELECT avg(x.ra) FROM specObj as x WHERE x.bestObjID = gal.objID)",
    "SELECT origin, sum((SELECT count(*) FROM Cars as d WHERE d.hp > c.hp)) "
    "FROM Cars as c GROUP BY origin",
    "SELECT origin, count(*) FROM Cars as c GROUP BY origin HAVING count(*) > "
    "(SELECT count(*) FROM Cars as d WHERE d.origin = c.origin AND d.hp > 100)",
    # a reference two scopes out: the innermost subquery reads the outer row
    "SELECT id FROM Cars as c WHERE hp > (SELECT avg(d.hp) FROM Cars as d "
    "WHERE d.mpg > (SELECT min(e.mpg) FROM Cars as e WHERE e.origin = c.origin))",
    # correlated IN subqueries, in WHERE and tested against an aggregate
    "SELECT id FROM Cars as c WHERE id IN "
    "(SELECT d.id FROM Cars as d WHERE d.origin = c.origin AND d.hp > 100)",
    "SELECT origin, max(hp) FROM Cars as c GROUP BY origin "
    "HAVING max(hp) IN (SELECT d.hp FROM Cars as d WHERE d.origin = c.origin)",
    # aggregates outside a grouping stage: every row is a one-row group
    "SELECT hp FROM Cars WHERE hp > max(mpg)",
    "SELECT hp FROM Cars WHERE min(hp) > 100",
    # the larger table first in FROM order, alone and under a LIMIT, which
    # makes its row order a row-set difference
    JOIN_SQL,
    JOIN_SQL + " LIMIT 5",
    # a FROM subquery over that join under an outer LIMIT
    f"SELECT p, delay FROM ({JOIN_SQL}) sub LIMIT 5",
    # a scalar subquery over a join: its value is the join's first row
    "SELECT p FROM T WHERE a = (SELECT T.a FROM flights, T WHERE flights.hour = T.a)",
]


@pytest.fixture(scope="module")
def interpreted():
    return Executor(CATALOG, enable_cache=False, use_planner=False)


@pytest.fixture(scope="module")
def columnar():
    return Executor(CATALOG, enable_cache=False, use_planner=True)


def assert_equivalent(interpreted, columnar, sql):
    expected = interpreted.execute_sql(sql)
    actual = columnar.execute_sql(sql)
    assert [
        (c.name, c.dtype, c.source, c.is_aggregate) for c in expected.columns
    ] == [(c.name, c.dtype, c.source, c.is_aggregate) for c in actual.columns]
    assert expected.rows == actual.rows, f"row mismatch for: {sql}"


@pytest.mark.parametrize("sql", WORKLOAD_QUERIES)
def test_workload_query_equivalence(interpreted, columnar, sql):
    """Property: columnar plans are result-identical to the interpreter —
    including row order — on every query of the paper's workload logs."""
    assert_equivalent(interpreted, columnar, sql)


@pytest.mark.parametrize("sql", EXTRA_QUERIES)
def test_join_and_pushdown_equivalence(interpreted, columnar, sql):
    assert_equivalent(interpreted, columnar, sql)


@settings(max_examples=25, deadline=None)
@given(
    ra_lo=st.floats(212.5, 214.5),
    ra_span=st.floats(0.0, 1.5),
    dec_lo=st.floats(-1.2, 0.2),
    dec_span=st.floats(0.0, 0.8),
)
def test_sdss_join_equivalence_property(ra_lo, ra_span, dec_lo, dec_span):
    """Hash-join + pushdown plans match the interpreter for arbitrary
    range predicates over the SDSS join (the paper's Listing 5 shape)."""
    interpreted = Executor(CATALOG, enable_cache=False, use_planner=False)
    columnar = Executor(CATALOG, enable_cache=False, use_planner=True)
    sql = (
        "SELECT DISTINCT gal.objID, gal.u, s.ra, s.dec "
        "FROM galaxy as gal, specObj as s "
        f"WHERE s.bestObjID = gal.objID AND s.ra BETWEEN {ra_lo} AND {ra_lo + ra_span} "
        f"AND s.dec BETWEEN {dec_lo} AND {dec_lo + dec_span}"
    )
    assert_equivalent(interpreted, columnar, sql)


#: value pools for the mixed NULL/NaN sweep: join keys and measures drawn
#: from a small domain so joins, groups and aggregates all hit collisions
_KEY_POOL = st.one_of(
    st.none(),
    st.just(float("nan")),
    st.integers(0, 3),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
)
_MEASURE_POOL = st.one_of(st.none(), st.just(float("nan")), st.integers(-5, 5))
#: one NaN object: IN-list membership matches it by identity, unlike another NaN
_NAN = float("nan")


@settings(max_examples=40, deadline=None)
@given(
    left=st.lists(st.tuples(_KEY_POOL, _MEASURE_POOL), max_size=12),
    right=st.lists(st.tuples(_KEY_POOL, _MEASURE_POOL), max_size=12),
)
@example(
    left=[(1, 1), (1.0, 1), (0.0, 1), (-0.0, 1), (None, 1)],
    right=[(1, 0), (0.0, 0)],
)
@example(left=[(_NAN, 1), (_NAN, 1), (float("nan"), 1)], right=[(_NAN, 0), (_NAN, 0)])
def test_null_nan_equivalence_property(left, right):
    """Both engines agree — rows and order — over columns mixing NULLs,
    NaNs, ints, floats and signed zeros: the join-key skip rules,
    NULL-rejecting comparisons, NULL-skipping aggregates and correlated runs
    shared per outer binding must line up exactly."""
    from repro.database import Catalog, Column, DataType, Table

    catalog = Catalog(
        [
            Table.from_rows(
                "lt",
                [Column("k", DataType.FLOAT), Column("v", DataType.FLOAT)],
                [tuple(r) for r in left],
            ),
            Table.from_rows(
                "rt",
                [Column("k", DataType.FLOAT), Column("w", DataType.FLOAT)],
                [tuple(r) for r in right],
            ),
        ]
    )
    interpreted = Executor(catalog, enable_cache=False, use_planner=False)
    columnar = Executor(catalog, enable_cache=False, plan_cache=CatalogCache())
    queries = [
        "SELECT lt.v, rt.w FROM lt, rt WHERE lt.k = rt.k",
        "SELECT k, count(*), count(v), sum(v), avg(v), min(v), max(v) "
        "FROM lt GROUP BY k",
        "SELECT v FROM lt WHERE v > 0 OR v IS NULL",
        "SELECT count(DISTINCT k) FROM lt WHERE k >= 0",
        "SELECT lt.k, rt.w FROM lt, rt WHERE lt.k = rt.k AND rt.w <= 2",
        # outer joins: NULL/NaN keys never match, unmatched preserved rows
        # come back NULL-padded, and padding order matches the interpreter
        "SELECT lt.k, lt.v, rt.w FROM lt LEFT JOIN rt ON lt.k = rt.k",
        "SELECT lt.v, rt.k, rt.w FROM lt RIGHT JOIN rt ON lt.k = rt.k",
        "SELECT lt.k, rt.w FROM lt LEFT JOIN rt ON lt.k = rt.k AND rt.w > 0",
        # non-equi joins (vectorized nested loop), inner and both paddings
        "SELECT lt.v, rt.w FROM lt JOIN rt ON lt.v > rt.w",
        "SELECT lt.k, rt.w FROM lt LEFT JOIN rt ON lt.v > rt.w",
        "SELECT lt.k, rt.w FROM lt RIGHT JOIN rt ON lt.v < rt.w",
        # correlated subquery: NULL / NaN outer keys reach the inner filter
        "SELECT k, v FROM lt WHERE v >= (SELECT max(w) FROM rt WHERE rt.k = lt.k)",
        # the result renders the outer value: rows binding 1 and 1.0, or 0.0
        # and -0.0, compare equal yet must not share one subquery run
        "SELECT k, (SELECT count(*) || ':' || lt.k FROM rt WHERE rt.k = lt.k) FROM lt",
        # nor may rows binding two NaN objects, which IN tells apart
        "SELECT (SELECT count(*) FROM rt WHERE rt.k IN (lt.k)) FROM lt",
    ]
    for sql in queries:
        expected = interpreted.execute_sql(sql)
        actual = columnar.execute_sql(sql)
        assert _nansafe(expected.rows) == _nansafe(actual.rows), sql


def _nansafe(rows):
    """Rows with NaNs made comparable (nan != nan breaks list equality)."""
    return [
        tuple("<nan>" if isinstance(v, float) and v != v else v for v in row)
        for row in rows
    ]


# -- plan shape ---------------------------------------------------------------


def plan_for(sql):
    return Planner(CATALOG).plan(parse(sql).children[0] if parse(sql).label == "subquery" else parse(sql))


def test_comma_join_compiles_to_hash_join():
    plan = plan_for(
        "SELECT gal.objID FROM galaxy as gal, specObj as s "
        "WHERE s.bestObjID = gal.objID"
    )
    assert isinstance(plan.source, HashJoinOp)
    assert plan.residual_where is None


def test_explicit_join_compiles_to_hash_join_with_residual():
    plan = plan_for(
        "SELECT gal.u FROM galaxy as gal JOIN specObj as s "
        "ON s.bestObjID = gal.objID AND s.ra > 213.5"
    )
    assert isinstance(plan.source, HashJoinOp)
    assert plan.source.residual is not None


def test_non_equi_join_falls_back_to_nested_loop():
    plan = plan_for(
        "SELECT t.p FROM T as t JOIN Cars as c ON t.p > c.id"
    )
    assert isinstance(plan.source, NestedLoopJoinOp)


def test_comma_join_without_equality_stays_cross():
    plan = plan_for("SELECT t.a FROM T as t, Cars as c WHERE t.a > 3")
    assert isinstance(plan.source, CrossJoinOp)


def test_single_table_predicates_are_pushed_to_scans():
    plan = plan_for(
        "SELECT gal.objID FROM galaxy as gal, specObj as s "
        "WHERE s.bestObjID = gal.objID AND s.ra > 213.5 AND gal.u < 20"
    )
    join = plan.source
    assert isinstance(join, HashJoinOp)
    assert plan.residual_where is None
    scans = [join.left, join.right]
    pushed = [p for scan in scans if isinstance(scan, ScanOp) for p in scan.predicates]
    assert len(pushed) == 2


def test_subquery_predicates_are_never_pushed():
    plan = plan_for(
        "SELECT total FROM sales WHERE total >= (SELECT max(total) FROM sales)"
    )
    assert isinstance(plan.source, ScanOp)
    assert plan.source.predicates == []
    assert plan.residual_where is not None


def test_scans_prune_unreferenced_columns():
    plan = plan_for("SELECT hp FROM Cars WHERE mpg > 20")
    scan = plan.source
    assert isinstance(scan, ScanOp)
    assert scan.column_indices is not None
    assert [c.name for c in scan.schema] == ["hp", "mpg"]


def test_star_projection_disables_pruning():
    plan = plan_for("SELECT * FROM Cars WHERE mpg > 20")
    scan = plan.source
    assert isinstance(scan, ScanOp)
    assert scan.column_indices is None


def test_correlated_references_keep_columns():
    # `ss.city` is referenced only inside the HAVING subquery; the outer
    # scan must still materialise it
    plan = plan_for(
        "SELECT product, sum(total) FROM sales as ss GROUP BY product "
        "HAVING sum(total) >= (SELECT max(total) FROM sales as s "
        "WHERE s.city = ss.city)"
    )
    scan = plan.source
    assert isinstance(scan, ScanOp)
    assert "city" in [c.name for c in scan.schema]


def test_explain_renders_plan_stages():
    ex = Executor(CATALOG)
    text = ex.explain_sql(
        "SELECT gal.objID, count(*) FROM galaxy as gal, specObj as s "
        "WHERE s.bestObjID = gal.objID AND s.ra > 213.5 "
        "GROUP BY gal.objID ORDER BY gal.objID LIMIT 10"
    )
    for stage in ("Limit", "OrderBy", "GroupAggregate", "HashJoin", "Scan"):
        assert stage in text, text


def test_plan_stats_are_collected():
    # a private plan cache keeps the counters deterministic regardless of
    # what other tests have already compiled into the shared cache
    ex = Executor(CATALOG, enable_cache=False, plan_cache=CatalogCache())
    ex.execute_sql(
        "SELECT gal.objID FROM galaxy as gal, specObj as s "
        "WHERE s.bestObjID = gal.objID AND s.ra > 213.5"
    )
    assert ex.stats.plans_compiled >= 1
    assert ex.stats.hash_joins_planned >= 1
    assert ex.stats.hash_joins_executed >= 1
    assert ex.stats.predicates_pushed >= 1
    assert ex.stats.columnar_executions >= 1
    # re-execution reuses the compiled plan
    ex.execute_sql(
        "SELECT gal.objID FROM galaxy as gal, specObj as s "
        "WHERE s.bestObjID = gal.objID AND s.ra > 213.5"
    )
    assert ex.stats.plan_cache_hits >= 1


def test_tied_orderby_join_equivalence():
    """Tied ORDER BY keys keep the join's FROM-order row order, which LIMIT
    turns into a row-set difference: both engines must agree on it."""
    from repro.database import Catalog, Column, DataType, Table

    catalog = Catalog(
        [
            Table.from_rows(
                "a",
                [Column("k", DataType.INT), Column("v", DataType.INT)],
                [(1, 10), (2, 10), (3, 10)],
            ),
            Table.from_rows(
                "b",
                [Column("k", DataType.INT), Column("w", DataType.INT)],
                [(2, 200), (1, 100)],
            ),
        ]
    )
    interpreted = Executor(catalog, enable_cache=False, use_planner=False)
    planned = Executor(catalog, enable_cache=False, plan_cache=CatalogCache())
    for sql in (
        "SELECT a.v, b.w FROM a, b WHERE a.k = b.k ORDER BY a.v",
        "SELECT a.v, b.w FROM a, b WHERE a.k = b.k ORDER BY a.v LIMIT 1",
    ):
        assert interpreted.execute_sql(sql).rows == planned.execute_sql(sql).rows, sql


def test_scalar_function_with_stray_distinct_over_aggregate():
    """Regression: round(DISTINCT sum(x)) must not crash the columnar group
    evaluator — the interpreter ignores the stray DISTINCT, so must we."""
    interpreted = Executor(CATALOG, enable_cache=False, use_planner=False)
    columnar = Executor(CATALOG, enable_cache=False, plan_cache=CatalogCache())
    sql = "SELECT origin, round(DISTINCT sum(hp)) FROM Cars GROUP BY origin"
    assert interpreted.execute_sql(sql).rows == columnar.execute_sql(sql).rows
    assert columnar.stats.columnar_executions == 1


def test_static_subquery_schema_enables_hash_join():
    plan = plan_for(
        "SELECT sub.id, c.hp FROM (SELECT id, mpg FROM Cars) sub, Cars as c "
        "WHERE sub.id = c.id"
    )
    assert isinstance(plan.source, HashJoinOp)


def test_uncorrelated_subquery_predicates_stay_columnar():
    """A self-contained subquery is evaluated once and broadcast: one
    execution for the outer statement and one for the subquery, however many
    rows the outer scan has."""
    for sql, executions in (
        ("SELECT total FROM sales WHERE total >= (SELECT max(total) FROM sales)", 2),
        ("SELECT hour FROM flights WHERE hour IN (SELECT hour FROM flights)", 2),
        ("SELECT hp FROM Cars WHERE mpg > 20", 1),
        # FROM subqueries execute separately, once
        ("SELECT hour FROM (SELECT hour FROM flights) sub WHERE hour > 1", 2),
    ):
        ex = Executor(CATALOG, enable_cache=False, plan_cache=CatalogCache())
        ex.execute_sql(sql)
        assert ex.stats.columnar_executions == executions, sql


def test_grouped_subquery_gets_static_schema_and_hash_join():
    """Aggregate / GROUP BY FROM subqueries now derive their schema
    statically, so they participate in hash joins like a base scan."""
    plan = plan_for(
        "SELECT sub.city, s.total FROM "
        "(SELECT city, sum(total) as t FROM sales GROUP BY city) sub, "
        "sales as s WHERE sub.city = s.city"
    )
    assert isinstance(plan.source, HashJoinOp)
    sub = plan.source.left
    assert isinstance(sub, SubqueryScanOp)
    names = [c.name for c in sub.schema]
    assert names == ["city", "t"]
    assert sub.schema[1].is_aggregate is True


def test_nan_join_keys_never_match():
    """nan == nan is false, so hash joins must skip NaN keys exactly like the
    interpreter's `=` does (a dict lookup would match NaN via identity)."""
    from repro.database import Catalog, Column, DataType, Table

    table = Table.from_rows(
        "m",
        [Column("k", DataType.FLOAT), Column("v", DataType.INT)],
        [(float("nan"), 1), (2.0, 2)],
    )
    catalog = Catalog([table])
    sql = "SELECT a.v, b.v FROM m as a, m as b WHERE a.k = b.k"
    interpreted = Executor(catalog, enable_cache=False, use_planner=False)
    planned = Executor(catalog, enable_cache=False, use_planner=True)
    assert interpreted.execute_sql(sql).rows == planned.execute_sql(sql).rows == [(2, 2)]
