"""Outer-join / nested-loop join scaling — vectorized plans vs the interpreter.

The columnar scaling benchmark covers the filter / aggregate /
inner-hash-join shapes; this one covers LEFT / RIGHT hash joins (typed-NULL
padding after the residual filter) and non-equi ON conditions (block-wise
vectorized nested loop).  The workload runs the columnar engine and the AST
interpreter (the equivalence oracle, which cross-products every join) at
catalogue scale 4 and checks that

* every query returns identical results (rows and order) on both,
* every query runs on the columnar engine, and
* vectorized execution is at least 3× faster than the interpreter over the
  whole outer-join/nested-loop workload.

The columnar plans are warmed before timing, so its numbers are pure
execution.  The measured numbers are written to ``BENCH_columnar_joins.json``
at the repo root (uploaded as a CI artifact) so the perf trajectory is
tracked per run.
"""

from __future__ import annotations

import time

from conftest import print_table, write_bench_json

from repro.database import CatalogCache, Executor
from repro.database.datasets import standard_catalog

SCALE = 4.0
REQUIRED_SPEEDUP = 3.0

#: outer hash joins and non-equi joins
WORKLOAD = {
    "outer-hash": [
        # LEFT with a residual ON conjunct: pad after the residual filter
        "SELECT gal.objID, gal.u, s.ra FROM galaxy as gal "
        "LEFT JOIN specObj as s ON s.bestObjID = gal.objID AND s.ra > 213.8",
        "SELECT gal.objID, s.ra, s.dec FROM galaxy as gal "
        "RIGHT JOIN specObj as s ON s.bestObjID = gal.objID",
        "SELECT t.p, c.hp FROM T as t "
        "LEFT JOIN Cars as c ON t.p = c.id AND c.hp > 150",
    ],
    "nested-loop": [
        # non-equi conditions: block-wise cross product + vector compare
        "SELECT t.p, c.id FROM T as t JOIN Cars as c ON t.p > c.id",
        "SELECT t.a, c.mpg FROM T as t LEFT JOIN Cars as c ON t.a > c.mpg",
        "SELECT t.b, c.hp FROM T as t RIGHT JOIN Cars as c ON t.b >= c.mpg",
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


def test_columnar_outer_and_nested_loop_join_speedup():
    catalog = standard_catalog(seed=42, scale=SCALE)
    interp, col = _executors(catalog)

    # equivalence first: identical rows in identical order, NULL padding
    # included, on every query
    queries_total = 0
    for queries in WORKLOAD.values():
        for sql in queries:
            expected = interp.execute_sql(sql)
            actual = col.execute_sql(sql)
            assert expected.rows == actual.rows, sql
            assert expected.column_names() == actual.column_names()
            queries_total += 1
    assert col.stats.columnar_executions == queries_total
    assert col.stats.nested_loop_joins_columnar >= len(WORKLOAD["nested-loop"])

    rows = []
    shape_times = {}
    for shape, queries in WORKLOAD.items():
        interp_t = _time_queries(interp, queries)
        col_t = _time_queries(col, queries)
        shape_times[shape] = (interp_t, col_t)
        rows.append(
            [
                shape,
                f"{interp_t * 1000:.1f}ms",
                f"{col_t * 1000:.1f}ms",
                f"{interp_t / max(col_t, 1e-9):.1f}x",
            ]
        )
    total_interp = sum(t for t, _ in shape_times.values())
    total_col = sum(t for _, t in shape_times.values())
    speedup = total_interp / max(total_col, 1e-9)
    rows.append(
        [
            "total",
            f"{total_interp * 1000:.1f}ms",
            f"{total_col * 1000:.1f}ms",
            f"{speedup:.1f}x",
        ]
    )
    print_table(
        f"Outer-join / nested-loop workload at scale x{SCALE:g}: "
        "interpreter vs columnar",
        ["shape", "interpreter", "columnar", "speedup"],
        rows,
    )

    payload = {
        "benchmark": "columnar_joins",
        "catalog_scale": SCALE,
        "queries": {shape: len(qs) for shape, qs in WORKLOAD.items()},
        "interpreter_seconds": {s: t[0] for s, t in shape_times.items()},
        "columnar_seconds": {s: t[1] for s, t in shape_times.items()},
        "total_interpreter_seconds": total_interp,
        "total_columnar_seconds": total_col,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "nested_loop_joins_columnar": col.stats.nested_loop_joins_columnar,
        "hash_joins_columnar": col.stats.hash_joins_executed,
    }
    write_bench_json(
        "columnar_joins", payload, required={"speedup": REQUIRED_SPEEDUP}
    )

    assert speedup >= REQUIRED_SPEEDUP, (
        f"columnar outer/nested-loop joins only {speedup:.1f}x faster than "
        f"the interpreter at scale {SCALE:g} (required ≥ {REQUIRED_SPEEDUP:g}x)"
    )
