"""Reward-memoization benchmark: states-evaluated/sec with the mapping memo
on vs off (PR 3's tentpole).

The harness reproduces the MCTS reward loop's traffic shape directly: a pool
of search states generated by random rule applications from each workload's
refactored initial state, evaluated with the paper's K=5 random mappings per
state.  The pool is evaluated in two passes — parallel search runs p workers
whose reward caches are private, so every worker re-evaluates the states it
shares with its peers, and pass two models that cross-worker overlap.

Requirements enforced here (ISSUE 3 acceptance):

* memoized evaluation ≥ 2× states/sec over the memo-disabled baseline, at
  catalogue scale 2;
* memoized and unmemoized runs produce identical rewards, and an end-to-end
  pipeline run produces byte-identical best interfaces.

The measured numbers are written to ``BENCH_reward_memo.json`` at the repo
root (uploaded as a CI artifact) so the perf trajectory is tracked per run.
"""

from __future__ import annotations

import json
import random
import time

from conftest import print_table, write_bench_json

from repro.core.config import PipelineConfig
from repro.core.pipeline import best_interface_cost, generate_for_workload
from repro.cost.model import CostModel
from repro.database import CatalogCache, Executor, standard_catalog
from repro.difftree.builder import (
    cluster_by_result_schema,
    initial_difftrees,
    merge_difftrees,
    parse_queries,
)
from repro.mapping.mapper import InterfaceMapper, MapperConfig
from repro.search.config import SearchConfig
from repro.search.state import SearchState
from repro.transform.engine import TransformEngine
from repro.workloads import WORKLOADS

CATALOG_SCALE = 2.0
WORKLOAD_NAMES = ["filter", "sdss", "covid"]
POOL_SIZE = 40
REWARD_MAPPINGS = 5  # the paper's K
PASSES = 2  # simulated workers sharing the memo but not a reward cache
REQUIRED_SPEEDUP = 2.0


def _mapper_config(memoize: bool) -> MapperConfig:
    return MapperConfig(
        top_k=5, max_vis_per_tree=3, max_joint_vis=8, memoize=memoize
    )


def _state_pool(workload: str, catalog, executor):
    """The initial refactored state plus a sample of its rule neighbourhood."""
    asts = parse_queries(list(WORKLOADS[workload].queries))
    trees = initial_difftrees(asts)
    if len(trees) > 1:
        trees = [merge_difftrees(c) for c in cluster_by_result_schema(trees, executor)]
    engine = TransformEngine(catalog, executor, max_applications=48)
    trees = engine.refactor_to_fixpoint(trees)

    rng = random.Random(1)
    states = [SearchState(trees)]
    seen = {states[0].trees_fingerprint()}
    tries = 0
    while len(states) < POOL_SIZE and tries < POOL_SIZE * 10:
        tries += 1
        base = rng.choice(states)
        applications = engine.applications(base.trees, rng)
        if not applications:
            continue
        new_trees = engine.apply(rng.choice(applications))
        if new_trees is None:
            continue
        state = SearchState(new_trees)
        if state.trees_fingerprint() in seen:
            continue
        seen.add(state.trees_fingerprint())
        states.append(state)
    return asts, states


def _evaluate_pool(catalog, plan_cache, asts, states, memoize: bool):
    """Reward-evaluate every state ``PASSES`` times; returns metrics."""
    executor = Executor(catalog, plan_cache=plan_cache)
    memo = CatalogCache() if memoize else None
    mapper = InterfaceMapper(
        catalog,
        executor,
        CostModel(asts),
        _mapper_config(memoize),
        memo=memo,
    )
    rng = random.Random(7)
    rewards = []
    start = time.perf_counter()
    for _ in range(PASSES):
        for state in states:
            interfaces = mapper.random_interfaces(state.trees, REWARD_MAPPINGS, rng)
            rewards.append(-best_interface_cost(interfaces))
    elapsed = time.perf_counter() - start
    evaluated = len(states) * PASSES
    return {
        "states_evaluated": evaluated,
        "seconds": elapsed,
        "states_per_second": evaluated / elapsed,
        "derivations": mapper.stats.candidate_derivations,
        "rewards": rewards,
    }


def test_reward_memo_states_per_second():
    rows = []
    report = {"catalog_scale": CATALOG_SCALE, "workloads": {}}
    total = {True: [0, 0.0, 0], False: [0, 0.0, 0]}  # states, seconds, derivations

    for workload in WORKLOAD_NAMES:
        runs = {}
        pool_size = 0
        for memoize in (False, True):
            # each mode runs fully cold: its own catalogue partition, private
            # plan cache, and freshly built tree instances, so neither mode
            # inherits the other's warmed plan / schema caches — the measured
            # delta is the mapping memo alone.  The seeded pool construction
            # is deterministic, so both modes evaluate identical states.
            catalog = standard_catalog(seed=42, scale=CATALOG_SCALE)
            plan_cache = CatalogCache()
            setup_executor = Executor(catalog, plan_cache=plan_cache)
            asts, states = _state_pool(workload, catalog, setup_executor)
            pool_size = len(states)
            runs[memoize] = _evaluate_pool(catalog, plan_cache, asts, states, memoize)
            total[memoize][0] += runs[memoize]["states_evaluated"]
            total[memoize][1] += runs[memoize]["seconds"]
            total[memoize][2] += runs[memoize]["derivations"]

        # transparency: memoization must not change a single reward estimate
        assert runs[True]["rewards"] == runs[False]["rewards"]

        speedup = runs[True]["states_per_second"] / runs[False]["states_per_second"]
        deriv_ratio = runs[False]["derivations"] / max(1, runs[True]["derivations"])
        rows.append(
            [
                workload,
                pool_size,
                f"{runs[False]['states_per_second']:.1f}",
                f"{runs[True]['states_per_second']:.1f}",
                f"{speedup:.2f}x",
                f"{deriv_ratio:.1f}x",
            ]
        )
        report["workloads"][workload] = {
            "pool_size": pool_size,
            "baseline_states_per_second": runs[False]["states_per_second"],
            "memo_states_per_second": runs[True]["states_per_second"],
            "speedup": speedup,
            "baseline_derivations": runs[False]["derivations"],
            "memo_derivations": runs[True]["derivations"],
            "derivation_ratio": deriv_ratio,
        }

    overall = (total[True][0] / total[True][1]) / (total[False][0] / total[False][1])
    overall_deriv = total[False][2] / max(1, total[True][2])
    rows.append(
        ["(overall)", "", "", "", f"{overall:.2f}x", f"{overall_deriv:.1f}x"]
    )
    print_table(
        "Reward evaluation: mapping memo on vs off "
        f"(scale {CATALOG_SCALE}, K={REWARD_MAPPINGS}, {PASSES} passes)",
        ["workload", "pool", "base/s", "memo/s", "speedup", "fewer derivations"],
        rows,
    )
    report["overall_speedup"] = overall
    report["overall_derivation_ratio"] = overall_deriv

    # end-to-end: the memoized pipeline must emit the identical interface
    signatures = {}
    search_seconds = {}
    for memoize in (False, True):
        catalog = standard_catalog(seed=42, scale=CATALOG_SCALE)
        config = PipelineConfig(
            search=SearchConfig(
                max_iterations=24,
                early_stop=12,
                workers=2,
                sync_interval=8,
                rollout_depth=10,
                reward_mappings=REWARD_MAPPINGS,
                seed=42,
            ),
            mapper=_mapper_config(memoize),
            catalog_scale=CATALOG_SCALE,
            seed=42,
        )
        result = generate_for_workload(
            WORKLOADS["filter"], catalog=catalog, config=config
        )
        signatures[memoize] = json.dumps(
            result.interface.to_dict(), sort_keys=True, default=str
        )
        search_seconds[memoize] = result.search_seconds
    assert signatures[True] == signatures[False]
    report["pipeline_search_seconds"] = {
        "baseline": search_seconds[False],
        "memo": search_seconds[True],
    }
    print(
        f"\npipeline search_seconds (filter): "
        f"baseline={search_seconds[False]:.2f}s memo={search_seconds[True]:.2f}s"
    )

    write_bench_json(
        "reward_memo", report, required={"speedup": REQUIRED_SPEEDUP}
    )

    assert overall >= REQUIRED_SPEEDUP, (
        f"reward memoization speedup {overall:.2f}x below required "
        f"{REQUIRED_SPEEDUP}x"
    )
