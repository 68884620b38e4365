"""Columnar storage, vectorized execution, and the shared plan cache."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.database import (
    Catalog,
    CatalogCache,
    Column,
    DataType,
    Executor,
    SHARED_PLAN_CACHE,
    Table,
    standard_catalog,
)
from repro.database.columnar import _compare_vector_scalar
from repro.database.table import ResultColumn, ResultTable
from repro.database.values import COMPARISON_OPS, compare_values
from repro.sqlparser import parse

CATALOG = standard_catalog(seed=7, scale=0.12)


# -- columnar Table ------------------------------------------------------------


def test_table_stores_columns_and_materialises_rows_lazily():
    t = Table("x", [Column("a", DataType.INT), Column("b", DataType.STR)])
    t.insert((1, "p"))
    t.insert((2, "q"))
    assert t.column_data(0) == [1, 2]
    assert t.column_data(1) == ["p", "q"]
    assert t._rows_cache is None  # nothing materialised yet
    assert t.rows == [(1, "p"), (2, "q")]
    assert t._rows_cache is not None
    t.insert((3, "r"))  # insert invalidates the cache
    assert t.rows == [(1, "p"), (2, "q"), (3, "r")]
    assert len(t) == 3
    assert list(iter(t)) == t.rows


def test_table_values_returns_fresh_list():
    t = Table("x", [Column("a", DataType.INT)])
    t.insert((1,))
    values = t.values("a")
    values.append(99)
    assert t.values("a") == [1]


# -- ResultTable ---------------------------------------------------------------


def test_result_table_column_index_is_dict_backed():
    rt = ResultTable(
        [ResultColumn("a", DataType.INT), ResultColumn("b", DataType.INT)],
        [(1, 2)],
    )
    assert rt.column_index("a") == 0
    assert rt.column_index("b") == 1
    assert rt._index == {"a": 0, "b": 1}
    with pytest.raises(KeyError):
        rt.column_index("missing")
    # duplicate names resolve to the first occurrence, like the linear scan did
    dup = ResultTable(
        [ResultColumn("a", DataType.INT), ResultColumn("a", DataType.INT)],
        [(1, 2)],
    )
    assert dup.column_index("a") == 0


def test_result_table_from_columns_materialises_rows_lazily():
    rt = ResultTable.from_columns(
        [ResultColumn("a", DataType.INT), ResultColumn("b", DataType.INT)],
        [[1, 2, 3], [4, 5, 6]],
    )
    assert len(rt) == 3
    assert rt.values("b") == [4, 5, 6]  # column access without materialising
    assert rt._rows_cache is None
    assert rt.rows == [(1, 4), (2, 5), (3, 6)]
    assert rt.to_dicts()[0] == {"a": 1, "b": 4}


def test_result_table_copy_is_defensive():
    rt = ResultTable.from_columns([ResultColumn("a", DataType.INT)], [[1, 2]])
    cp = rt.copy()
    cp.rows.append((99,))
    cp.columns[0].name = "renamed"
    assert rt.rows == [(1,), (2,)]
    assert rt.columns[0].name == "a"


# -- vectorized execution ------------------------------------------------------


def make_pair():
    """The interpreter (the oracle) and a columnar executor on a private
    plan cache."""
    interp = Executor(CATALOG, enable_cache=False, use_planner=False)
    col = Executor(CATALOG, enable_cache=False, plan_cache=CatalogCache())
    return interp, col


def test_columnar_runs_supported_queries():
    _, col = make_pair()
    col.execute_sql("SELECT hour, count(*) FROM flights GROUP BY hour")
    assert col.stats.columnar_executions == 1


def test_multi_conjunct_filter_chains_selection_vector():
    """Chained pushed predicates gather columns once, not once per conjunct."""
    interp, col = make_pair()
    sql = (
        "SELECT id, hp, mpg, disp, origin FROM Cars "
        "WHERE hp > 100 AND mpg > 12 AND disp > 150"
    )
    assert interp.execute_sql(sql).rows == col.execute_sql(sql).rows
    assert col.stats.columnar_executions >= 1
    # the per-predicate strategy re-gathers all five columns after each
    # dropping conjunct; the shared selection vector gathers once at the end
    assert col.stats.filter_gathers_saved > 0
    assert interp.stats.filter_gathers_saved == 0  # interpreter is untouched


def test_filter_chain_handles_all_rows_dropped():
    interp, col = make_pair()
    sql = "SELECT hp, mpg FROM Cars WHERE hp > 40 AND mpg < -1 AND disp > 50"
    assert interp.execute_sql(sql).rows == col.execute_sql(sql).rows
    assert col.execute_sql(sql).rows == []


def test_columnar_result_matches_row_plan_on_join():
    interp, col = make_pair()
    sql = (
        "SELECT gal.objID, s.ra FROM galaxy as gal, specObj as s "
        "WHERE s.bestObjID = gal.objID AND s.ra > 213.0"
    )
    assert interp.execute_sql(sql).rows == col.execute_sql(sql).rows
    assert col.stats.hash_joins_executed == 1


def test_outer_hash_join_runs_columnar_with_null_padding():
    interp, col = make_pair()
    for sql in (
        "SELECT t.p, s.ra FROM T as t LEFT JOIN specObj as s ON t.p = s.specObjID",
        "SELECT t.p, s.ra FROM T as t RIGHT JOIN specObj as s ON t.p = s.specObjID",
    ):
        expected = interp.execute_sql(sql)
        actual = col.execute_sql(sql)
        assert expected.rows == actual.rows, sql
        # unmatched preserved rows really are there, NULL-padded
        assert any(None in r for r in actual.rows), sql
    assert col.stats.hash_joins_executed == 2


def test_non_equi_join_runs_vectorized_nested_loop():
    interp, col = make_pair()
    for sql in (
        "SELECT t.p, c.hp FROM T as t JOIN Cars as c ON t.p > c.id",
        "SELECT t.p, c.hp FROM T as t LEFT JOIN Cars as c ON t.p > c.id AND c.hp > 80",
    ):
        assert interp.execute_sql(sql).rows == col.execute_sql(sql).rows, sql
    assert col.stats.nested_loop_joins_columnar == 2


def test_uncorrelated_subquery_predicates_run_columnar():
    interp, col = make_pair()
    for sql in (
        "SELECT total FROM sales WHERE total >= (SELECT max(total) FROM sales)",
        "SELECT hour FROM flights WHERE hour IN "
        "(SELECT hour FROM flights WHERE hour < 3) AND delay > 0",
    ):
        assert interp.execute_sql(sql).rows == col.execute_sql(sql).rows, sql
    # the subquery is evaluated once through the executor and broadcast:
    # one outer and one inner execution per statement
    assert col.stats.columnar_executions == 4


def test_correlated_subquery_runs_columnar():
    """A correlated subquery keeps its statement on the columnar engine: the
    outer statement runs vectorized and a scalar subquery runs once per
    distinct binding of its outer references — ``ss.city`` here — each run
    columnar too.  Scopes the planner cannot derive and correlated IN
    subqueries keep one run per row of their stage."""
    interp, col = make_pair()
    cities = len(interp.execute_sql("SELECT DISTINCT city FROM sales").rows)
    sql = (
        "SELECT total FROM sales as ss WHERE total >= "
        "(SELECT max(total) FROM sales as s WHERE s.city = ss.city)"
    )
    assert interp.execute_sql(sql).rows == col.execute_sql(sql).rows
    assert col.stats.columnar_executions == 1 + cities

    # the Sales log's shape: the HAVING subquery and its FROM subquery run
    # once per city, not once per (city, product) group
    interp, col = make_pair()
    sql = (
        "SELECT city, product, sum(total) FROM sales as ss "
        "GROUP BY city, product HAVING sum(total) >= (SELECT max(t) FROM "
        "(SELECT sum(total) as t FROM sales as s WHERE s.city = ss.city "
        "GROUP BY s.city, s.product))"
    )
    assert interp.execute_sql(sql).rows == col.execute_sql(sql).rows
    assert col.stats.columnar_executions == 1 + 2 * cities

    # a computed item leaves the FROM subquery without a static schema, so
    # the outer references cannot be derived: one run per row
    interp, col = make_pair()
    sub = (
        "SELECT max(x) FROM (SELECT total * 1 as x, city FROM sales) as s "
        "WHERE s.city = ss.city"
    )
    assert col.planner.outer_refs(parse(sub)) is None
    sql = f"SELECT total FROM sales as ss WHERE total >= ({sub})"
    assert interp.execute_sql(sql).rows == col.execute_sql(sql).rows
    assert col.stats.columnar_executions == 1 + 2 * len(CATALOG.table("sales"))

    # a correlated IN subquery: one membership set per row
    interp, col = make_pair()
    sql = (
        "SELECT total FROM sales as ss WHERE total IN "
        "(SELECT max(total) FROM sales as s WHERE s.city = ss.city)"
    )
    assert interp.execute_sql(sql).rows == col.execute_sql(sql).rows
    assert col.stats.columnar_executions == 1 + len(CATALOG.table("sales"))


def test_workload_sweep_has_zero_columnar_fallbacks():
    """Coverage regression gate: every statement of every workload log —
    the Sales log's correlated HAVING subqueries included — runs on the
    columnar engine, one execution per planned statement."""
    from repro.workloads.logs import WORKLOADS

    ex = Executor(CATALOG, enable_cache=False, plan_cache=CatalogCache())
    for workload in WORKLOADS.values():
        for sql in workload.queries:
            ex.execute_sql(sql)
    assert ex.stats.columnar_executions == (
        ex.stats.plans_compiled + ex.stats.plan_cache_hits
    )


def test_columnar_hash_join_builds_on_smaller_side():
    """Build-side selection must not change results or row order."""
    small = Table.from_rows(
        "small", [Column("k", DataType.INT)], [(2,), (1,), (2,)]
    )
    big = Table.from_rows(
        "big",
        [Column("k", DataType.INT), Column("v", DataType.INT)],
        [(i % 3, i) for i in range(20)],
    )
    catalog = Catalog([small, big])
    private = CatalogCache()
    expected = Executor(catalog, enable_cache=False, use_planner=False).execute_sql(
        "SELECT small.k, big.v FROM small, big WHERE small.k = big.k"
    )
    for sql in (
        "SELECT small.k, big.v FROM small, big WHERE small.k = big.k",
        "SELECT big.v, small.k FROM big, small WHERE small.k = big.k",
    ):
        col = Executor(catalog, enable_cache=False, plan_cache=private)
        actual = col.execute_sql(sql)
        oracle = Executor(catalog, enable_cache=False, use_planner=False).execute_sql(sql)
        assert actual.rows == oracle.rows
    assert expected.rows  # sanity: the join is not empty


def test_columnar_results_are_snapshots_of_base_storage():
    """A projected result must not alias the table's column storage: rows
    inserted after the query ran may not appear in an already-built result."""
    t = Table.from_rows("snap", [Column("a", DataType.INT)], [(1,), (2,)])
    catalog = Catalog([t])
    ex = Executor(catalog, enable_cache=False, plan_cache=CatalogCache())
    result = ex.execute_sql("SELECT a FROM snap")
    t.insert((3,))
    assert result.values("a") == [1, 2]
    assert result.rows == [(1,), (2,)]


#: comparison operands: strings that coerce to numbers and ones that do not,
#: ints, floats with NaN and a signed zero, bools and NULL
_OPERANDS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 3.0, 2.5, float("nan")]),
    st.sampled_from(["3.0", "3", "1", "abc", ""]),
)


@settings(max_examples=300, deadline=None)
@given(
    op=st.sampled_from(sorted(COMPARISON_OPS)),
    values=st.lists(_OPERANDS, max_size=8),
    scalar=_OPERANDS,
)
@example(op="=", values=["3.0", 3, None], scalar=3)
@example(op="<>", values=["abc", 1.0], scalar="1")
def test_compare_vector_scalar_matches_compare_values(op, values, scalar):
    """The vector fast paths agree with the scalar comparison, coercion,
    NULL rejection and all: a vector that mixes kinds must still coerce."""
    try:
        expected = [compare_values(op, v, scalar) for v in values]
    except TypeError:  # unorderable operands fail the same way on both paths
        with pytest.raises(TypeError):
            _compare_vector_scalar(op, values, scalar)
        return
    assert _compare_vector_scalar(op, values, scalar) == expected


# -- shared plan cache ---------------------------------------------------------


def test_plan_cache_is_shared_across_executors():
    catalog = standard_catalog(seed=11, scale=0.1)
    cache = CatalogCache()
    first = Executor(catalog, enable_cache=False, plan_cache=cache)
    second = Executor(catalog, enable_cache=False, plan_cache=cache)
    sql = "SELECT hp FROM Cars WHERE mpg > 20"
    first.execute_sql(sql)
    assert first.stats.plans_compiled == 1
    second.execute_sql(sql)
    # the second executor never compiles: it reuses the first one's plan
    assert second.stats.plans_compiled == 0
    assert second.stats.plan_cache_hits == 1
    assert cache.size(catalog) == 1


def test_plan_cache_is_partitioned_by_catalog():
    cache = CatalogCache()
    cat_a = standard_catalog(seed=11, scale=0.1)
    cat_b = standard_catalog(seed=12, scale=0.1)
    sql = "SELECT hp FROM Cars"
    Executor(cat_a, enable_cache=False, plan_cache=cache).execute_sql(sql)
    ex_b = Executor(cat_b, enable_cache=False, plan_cache=cache)
    ex_b.execute_sql(sql)
    # same fingerprint, different catalogue: must compile its own plan
    assert ex_b.stats.plans_compiled == 1
    assert cache.size(cat_a) == 1 and cache.size(cat_b) == 1


def test_plan_cache_entries_die_with_their_catalog():
    cache = CatalogCache()
    catalog = standard_catalog(seed=11, scale=0.1)
    Executor(catalog, enable_cache=False, plan_cache=cache).execute_sql(
        "SELECT hp FROM Cars"
    )
    assert cache.size() == 1
    del catalog
    import gc

    gc.collect()
    assert cache.size() == 0


def test_plan_cache_lru_bound():
    cache = CatalogCache(max_size_per_catalog=2)
    catalog = standard_catalog(seed=11, scale=0.1)
    ex = Executor(catalog, enable_cache=False, plan_cache=cache)
    ex.execute_sql("SELECT hp FROM Cars")
    ex.execute_sql("SELECT mpg FROM Cars")
    ex.execute_sql("SELECT disp FROM Cars")
    assert cache.size(catalog) == 2


def test_default_executor_uses_process_wide_cache():
    ex = Executor(standard_catalog(seed=13, scale=0.1))
    assert ex.plan_cache is SHARED_PLAN_CACHE


def test_clear_cache_only_drops_own_catalog_plans():
    cache = CatalogCache()
    cat_a = standard_catalog(seed=11, scale=0.1)
    cat_b = standard_catalog(seed=12, scale=0.1)
    ex_a = Executor(cat_a, enable_cache=False, plan_cache=cache)
    ex_b = Executor(cat_b, enable_cache=False, plan_cache=cache)
    ex_a.execute_sql("SELECT hp FROM Cars")
    ex_b.execute_sql("SELECT hp FROM Cars")
    ex_a.clear_cache()
    assert cache.size(cat_a) == 0
    assert cache.size(cat_b) == 1
