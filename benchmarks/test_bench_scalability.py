"""Section 7.3 scalability — runtime as the number of input queries grows.

The paper duplicates the Filter log from 9 up to 900 queries and observes
roughly linear runtime growth (a few seconds → ≈2000 s).  The reduced sweep
here scales the Filter log ×1, ×2 and ×4 (9 → 36 queries) and checks that the
growth stays clearly sub-quadratic, printing the series the paper plots.
"""

import time

import pytest
from conftest import bench_config, print_table

from repro.core.pipeline import generate_interface
from repro.workloads import WORKLOADS, scale_workload

QUERY_COUNTS = [9, 18, 36]


@pytest.fixture(scope="module")
def scalability_results(bench_catalog):
    config = bench_config(early_stop=8, max_iterations=24)
    results = []
    for count in QUERY_COUNTS:
        workload = scale_workload(WORKLOADS["filter"], count, seed=5)
        start = time.perf_counter()
        result = generate_interface(
            list(workload.queries), catalog=bench_catalog, config=config
        )
        elapsed = time.perf_counter() - start
        results.append((count, elapsed, result))
    return results


def test_scalability_roughly_linear(benchmark, bench_catalog, scalability_results):
    rows = [
        [count, f"{elapsed:.1f}s", f"{result.search_seconds:.1f}s",
         f"{result.mapping_seconds:.1f}s", result.interface.num_views()]
        for count, elapsed, result in scalability_results
    ]
    print_table(
        "Scalability: runtime vs number of input queries (Filter log duplicated)",
        ["queries", "total", "mcts", "mapping", "views"],
        rows,
    )

    counts = [c for c, _, _ in scalability_results]
    times = [t for _, t, _ in scalability_results]

    # runtime grows with the log size …
    assert times[-1] >= times[0] * 0.8
    # … but clearly sub-quadratically: quadrupling the queries must cost less
    # than ~10x the time (the paper reports roughly linear growth)
    ratio = times[-1] / max(times[0], 1e-6)
    assert ratio <= (counts[-1] / counts[0]) ** 2, f"superlinear blow-up: {ratio:.1f}x"

    # every scaled interface still expresses its (larger) log
    for _, _, result in scalability_results:
        assert result.interface.is_complete()

    # benchmark the base (9-query) configuration
    config = bench_config(early_stop=8, max_iterations=24)
    result = benchmark.pedantic(
        generate_interface,
        args=(list(WORKLOADS["filter"].queries),),
        kwargs={"catalog": bench_catalog, "config": config},
        rounds=1,
        iterations=1,
    )
    assert result.interface.num_views() >= 3
