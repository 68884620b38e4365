"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(see DESIGN.md's per-experiment index).  Absolute numbers differ from the
paper (different hardware, a Python substrate instead of the authors' C++/JS
stack, down-scaled search budgets), but each benchmark prints the same rows /
series the paper reports and asserts that the qualitative shape holds.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import generate_for_workload
from repro.database.datasets import standard_catalog
from repro.mapping.mapper import MapperConfig
from repro.search.config import SearchConfig
from repro.workloads import WORKLOADS

#: Reduced but representative search budgets used by the benchmark sweeps.
BENCH_SCALE = 0.15

#: Format version of the ``BENCH_*.json`` perf-trajectory artifacts; bump
#: when the schema block or the meaning of stamped fields changes.
BENCH_SCHEMA_VERSION = 3

#: Repo root — every ``BENCH_*.json`` lands here so CI's artifact glob
#: (``BENCH_*.json``) picks all of them up without per-benchmark wiring.
BENCH_ROOT = Path(__file__).resolve().parent.parent


def write_bench_json(
    bench: str,
    payload: dict,
    *,
    required: dict | None = None,
    units: str = "seconds",
) -> Path:
    """Write ``BENCH_<bench>.json`` with a stamped schema block.

    Replaces the per-benchmark copy-pasted writers: every artifact opens
    with the same ``schema`` header — format version, bench name, the units
    measured values are in, the thresholds the benchmark asserts
    (``required``), and the machine facts a number needs to be compared:
    the git commit and whether ``src/`` or ``benchmarks/`` differed from it
    (``dirty``; both ``null`` outside a checkout), the Python version and
    the cores this process may run on — so downstream perf tracking can
    parse any artifact without knowing which benchmark wrote it.  The
    measured ``payload`` follows verbatim.
    """
    target = BENCH_ROOT / f"BENCH_{bench}.json"
    doc = {
        "schema": {
            "version": BENCH_SCHEMA_VERSION,
            "bench": bench,
            "units": units,
            "required": dict(required or {}),
            "commit": _git(["rev-parse", "HEAD"]) or None,
            "dirty": _git_dirty(),
            "python": platform.python_version(),
            "usable_cores": len(os.sched_getaffinity(0)),
        },
    }
    doc.update(payload)
    target.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {target.name}")
    return target


def _git(args: list[str]) -> str | None:
    """The stripped stdout of ``git <args>`` in the repo, or ``None`` when
    git is unavailable or the repo is not a checkout."""
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=BENCH_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip()


def _git_dirty() -> bool | None:
    """Whether ``src/`` or ``benchmarks/`` has uncommitted changes.

    The measured code lives there; the ``BENCH_*.json`` and ``trace.json``
    files a run rewrites at the repo root do not mark the tree dirty.
    """
    status = _git(["status", "--porcelain", "--", "src", "benchmarks"])
    return None if status is None else bool(status)


def bench_config(
    seed: int = 42,
    early_stop: int = 16,
    workers: int = 1,
    sync_interval: int = 8,
    max_iterations: int = 48,
) -> PipelineConfig:
    """A pipeline configuration for benchmark runs (keeps sweeps tractable)."""
    return PipelineConfig(
        search=SearchConfig(
            max_iterations=max_iterations,
            early_stop=early_stop,
            workers=workers,
            sync_interval=sync_interval,
            rollout_depth=12,
            reward_mappings=2,
            seed=seed,
        ),
        mapper=MapperConfig(
            top_k=5,
            max_vis_per_tree=3,
            max_joint_vis=8,
            max_searchm_calls=1500,
        ),
        catalog_scale=BENCH_SCALE,
        seed=seed,
    )


@dataclass
class WorkloadRun:
    """Metrics of one pipeline run, mirroring the paper's reporting."""

    workload: str
    total_seconds: float
    search_seconds: float
    mapping_seconds: float
    cost: float
    views: int
    widgets: tuple
    interactions: tuple
    interface: object = field(repr=False, default=None)


def run_workload(name: str, catalog, config: PipelineConfig) -> WorkloadRun:
    start = time.perf_counter()
    result = generate_for_workload(WORKLOADS[name], catalog=catalog, config=config)
    elapsed = time.perf_counter() - start
    interface = result.interface
    return WorkloadRun(
        workload=name,
        total_seconds=elapsed,
        search_seconds=result.search_seconds,
        mapping_seconds=result.mapping_seconds,
        cost=interface.cost.total,
        views=interface.num_views(),
        widgets=tuple(sorted(interface.widget_kinds())),
        interactions=tuple(sorted(interface.interaction_kinds())),
        interface=interface,
    )


@pytest.fixture(scope="session")
def bench_catalog():
    return standard_catalog(seed=42, scale=BENCH_SCALE)


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Print a result table in a compact fixed-width format."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
