"""Columnar engine scaling — vectorized plans vs the AST interpreter.

The MCTS reward loop's query traffic is dominated by small filter, aggregate
and join queries; the columnar engine runs compiled plans over whole columns
in tight loops, while the interpreter (the equivalence oracle) builds a
Python tuple and an environment per row and cross-products every join.  This
benchmark runs three workload shapes (pushed-down range filters, grouped
aggregation, hash join + filter) at catalogue scales 1–4 on both and checks
that

* every query returns identical results (rows and order) on both at every
  scale, and
* columnar execution is at least 3× faster than the interpreter on the
  aggregate-heavy workload at catalogue scale 4.

The columnar plans are warmed before timing, so its numbers are pure
execution; the interpreter never plans.
"""

import time

from conftest import print_table

from repro.database import CatalogCache, Executor
from repro.database.datasets import standard_catalog

SCALES = [1.0, 2.0, 4.0]
SPEEDUP_SCALE = 4.0
REQUIRED_SPEEDUP = 3.0

#: the three traffic shapes the reward loop generates, heaviest first
WORKLOAD_SHAPES = {
    "filter": [
        "SELECT hour, delay, dist FROM flights "
        "WHERE delay BTWN 0 & 50 AND dist BTWN 400 & 800",
        "SELECT date, price FROM sp500 "
        "WHERE date > '2001-01-01' AND date < '2003-01-01'",
        "SELECT hp, mpg, origin FROM Cars WHERE hp BTWN 60 & 90 AND mpg BTWN 16 & 30",
    ],
    "aggregate": [
        "SELECT hour, count(*) FROM flights "
        "WHERE delay BTWN 0 & 50 AND dist BTWN 400 & 800 GROUP BY hour",
        "SELECT dist, count(*), avg(delay) FROM flights GROUP BY dist",
        "SELECT city, product, sum(total) FROM sales GROUP BY city, product",
        "SELECT count(*), avg(delay), min(dist), max(dist) FROM flights "
        "WHERE hour BTWN 6 & 18",
    ],
    "join": [
        "SELECT gal.objID, gal.u, s.z, s.ra FROM galaxy as gal, specObj as s "
        "WHERE s.bestObjID = gal.objID AND s.ra BTWN 213.1 & 214.0",
        "SELECT gal.objID, count(*) FROM galaxy as gal, specObj as s "
        "WHERE s.bestObjID = gal.objID GROUP BY gal.objID",
    ],
}


def _executors(catalog):
    """The interpreter and a columnar executor on a private plan cache."""
    interp = Executor(catalog, enable_cache=False, use_planner=False)
    col = Executor(catalog, enable_cache=False, plan_cache=CatalogCache())
    return interp, col


def _time_queries(executor: Executor, queries, repeats: int = 3) -> float:
    """Best-of-N wall time of one pass over ``queries`` (plans stay warm)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for sql in queries:
            executor.execute_sql(sql)
        best = min(best, time.perf_counter() - start)
    return best


def test_columnar_speedup_over_interpreter():
    rows = []
    agg_speedups = {}
    for scale in SCALES:
        catalog = standard_catalog(seed=42, scale=scale)
        interp, col = _executors(catalog)
        for shape, queries in WORKLOAD_SHAPES.items():
            # equivalence at every scale: identical rows in identical order
            for sql in queries:
                expected = interp.execute_sql(sql)
                actual = col.execute_sql(sql)
                assert expected.rows == actual.rows, (scale, sql)
                assert expected.column_names() == actual.column_names()

            interp_t = _time_queries(interp, queries)
            col_t = _time_queries(col, queries)
            speedup = interp_t / max(col_t, 1e-9)
            if shape == "aggregate":
                agg_speedups[scale] = speedup
            rows.append(
                [
                    f"x{scale:g}",
                    shape,
                    f"{interp_t * 1000:.1f}ms",
                    f"{col_t * 1000:.1f}ms",
                    f"{speedup:.1f}x",
                ]
            )

    print_table(
        "Columnar scaling: vectorized plans vs the AST interpreter",
        ["scale", "workload", "interpreter", "columnar", "speedup"],
        rows,
    )

    assert agg_speedups[SPEEDUP_SCALE] >= REQUIRED_SPEEDUP, (
        f"columnar execution only {agg_speedups[SPEEDUP_SCALE]:.1f}x faster than "
        f"the interpreter on the aggregate workload at scale {SPEEDUP_SCALE:g} "
        f"(required ≥ {REQUIRED_SPEEDUP:g}x)"
    )


def test_columnar_stats_show_vectorized_execution():
    catalog = standard_catalog(seed=42, scale=1.0)
    _, col = _executors(catalog)
    for queries in WORKLOAD_SHAPES.values():
        for sql in queries:
            col.execute_sql(sql)
    total = sum(len(q) for q in WORKLOAD_SHAPES.values())
    assert col.stats.columnar_executions == total
    assert col.stats.hash_joins_executed >= 2


def test_shared_plan_cache_amortises_planning_across_executors():
    """Ten executors over one catalogue compile each query exactly once."""
    catalog = standard_catalog(seed=42, scale=1.0)
    plans = CatalogCache()
    queries = WORKLOAD_SHAPES["aggregate"]
    compiled = hits = 0
    for _ in range(10):
        ex = Executor(catalog, enable_cache=False, plan_cache=plans)
        for sql in queries:
            ex.execute_sql(sql)
        compiled += ex.stats.plans_compiled
        hits += ex.stats.plan_cache_hits
    assert compiled == len(queries)
    assert hits == 9 * len(queries)
