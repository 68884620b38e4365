"""Tests for Algorithm 1: the interface mapping search."""

import random

from repro.difftree import initial_difftrees, merge_difftrees
from repro.mapping import InterfaceMapper, MapperConfig
from repro.transform import TransformEngine

EXPLORE = [
    "SELECT hp, mpg, origin FROM Cars WHERE hp BETWEEN 50 AND 60 "
    "AND mpg BETWEEN 27 AND 38",
    "SELECT hp, mpg, origin FROM Cars WHERE hp BETWEEN 60 AND 90 "
    "AND mpg BETWEEN 16 AND 30",
]

SECTION2 = [
    "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
    "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
    "SELECT a, count(*) FROM T GROUP BY a",
]


def refined(catalog, executor, queries):
    engine = TransformEngine(catalog, executor)
    return engine.refactor_to_fixpoint(
        [merge_difftrees(initial_difftrees(list(queries)))]
    )


def test_generate_returns_complete_interfaces(catalog, executor, make_mapper):
    trees = refined(catalog, executor, EXPLORE)
    mapper = make_mapper(EXPLORE)
    interfaces = mapper.generate(trees)
    assert interfaces
    for interface in interfaces:
        assert interface.is_complete()
        assert interface.cost is not None
        assert interface.layout is not None
    costs = [i.cost.total for i in interfaces]
    assert costs == sorted(costs)


def test_explore_best_interface_uses_pan_or_zoom(catalog, executor, make_mapper):
    trees = refined(catalog, executor, EXPLORE)
    mapper = make_mapper(EXPLORE)
    best = mapper.best_interface(trees)
    assert best.interaction_kinds() & {"pan", "zoom", "brush-xy"}
    assert best.num_views() == 1
    assert best.views[0].vis.vis_type.name == "point"


def test_section2_interface_covers_every_choice_node(catalog, executor, make_mapper):
    trees = refined(catalog, executor, SECTION2)
    mapper = make_mapper(SECTION2)
    best = mapper.best_interface(trees)
    assert best.is_complete()
    assert best.covered_choice_node_ids() == best.choice_node_ids()
    assert best.mapping_for(min(best.choice_node_ids())) is not None


def test_static_trees_need_no_widgets(catalog, executor, make_mapper):
    trees = initial_difftrees(["SELECT hp, mpg FROM Cars"])
    mapper = make_mapper(["SELECT hp, mpg FROM Cars"])
    best = mapper.best_interface(trees)
    assert best.is_complete()
    assert not best.widgets and not best.interactions
    assert best.num_views() == 1


def test_random_interfaces_are_valid_and_costed(catalog, executor, make_mapper):
    trees = refined(catalog, executor, EXPLORE)
    mapper = make_mapper(EXPLORE)
    rng = random.Random(3)
    samples = mapper.random_interfaces(trees, 4, rng)
    assert len(samples) == 4
    for interface in samples:
        assert interface.cost is not None
        assert interface.layout is not None
    # the first (greedy) sample should not be worse than every random one
    greedy = samples[0].cost.total
    assert greedy <= max(i.cost.total for i in samples)


def test_top_k_limits_result_count(catalog, executor, make_mapper):
    trees = refined(catalog, executor, EXPLORE)
    mapper = make_mapper(EXPLORE, top_k=3)
    assert len(mapper.generate(trees)) <= 3


def test_pruning_statistics_recorded(catalog, executor, make_mapper):
    trees = refined(catalog, executor, SECTION2)
    mapper = make_mapper(SECTION2)
    mapper.generate(trees)
    assert mapper.stats.vis_combinations >= 1
    assert mapper.stats.searchm_calls > 0
    assert mapper.stats.interfaces_evaluated > 0


def test_exact_cover_no_choice_node_bound_twice(catalog, executor, make_mapper):
    trees = refined(catalog, executor, SECTION2)
    mapper = make_mapper(SECTION2)
    for interface in mapper.generate(trees):
        seen = set()
        for mapping in interface.all_mappings():
            assert not (seen & mapping.cover)
            seen |= mapping.cover


def test_safety_check_toggle_changes_candidates(catalog, executor, make_mapper):
    trees = refined(catalog, executor, EXPLORE)
    unsafe_mapper = make_mapper(EXPLORE, check_safety=False)
    safe_mapper = make_mapper(EXPLORE, check_safety=True)
    unsafe = unsafe_mapper.generate(trees)
    safe = safe_mapper.generate(trees)
    assert unsafe and safe  # both complete; safety may only remove candidates


def test_multi_view_mapping_cross_filter(catalog, executor, make_mapper):
    queries = [
        "SELECT hour, count(*) FROM flights GROUP BY hour",
        "SELECT hour, count(*) FROM flights "
        "WHERE delay BETWEEN 0 AND 50 GROUP BY hour",
        "SELECT delay, count(*) FROM flights GROUP BY delay",
        "SELECT delay, count(*) FROM flights "
        "WHERE hour BETWEEN 10 AND 16 GROUP BY delay",
    ]
    from repro.difftree.builder import cluster_by_result_schema

    engine = TransformEngine(catalog, executor)
    clusters = cluster_by_result_schema(initial_difftrees(queries), executor)
    trees = engine.refactor_to_fixpoint([merge_difftrees(c) for c in clusters])
    mapper = make_mapper(queries)
    best = mapper.best_interface(trees)
    assert best.num_views() == 2
    assert best.is_complete()
    # at least one mapping must come from a visualization interaction or a
    # widget bound across the predicate structure
    assert best.all_mappings()


def test_mapper_without_executor_falls_back_to_tables(catalog, make_mapper):
    from repro.cost.model import CostModel
    from repro.difftree.builder import parse_queries

    queries = ["SELECT hp FROM Cars"]
    mapper = InterfaceMapper(
        catalog, None, CostModel(parse_queries(queries)), MapperConfig()
    )
    best = mapper.best_interface(initial_difftrees(queries))
    assert best.views[0].vis.vis_type.name == "table"


def test_searchm_leaves_are_complete_by_construction(
    catalog, executor, make_mapper, monkeypatch
):
    """searchM prices its leaves without an ``is_complete()`` filter: ``F``
    returns exact widget covers of the choice nodes that the pairwise
    disjoint interactions leave uncovered.  Check every leaf searchM prices
    on the initial, merged and refactored states of every log, and on a few
    states one rule application away from the refactored one."""
    from repro.cost.model import CostModel
    from repro.workloads import WORKLOADS

    leaves: list[tuple[bool, int, int]] = []
    searching = [False]
    manipulation_cost = CostModel.manipulation_cost
    search_m = InterfaceMapper._search_m

    def recording_cost(self, interface, penalize_uncovered=True):
        if searching[0] and penalize_uncovered:
            leaves.append(
                (
                    interface.is_complete(),
                    len(interface.widgets),
                    len(interface.interactions),
                )
            )
        return manipulation_cost(self, interface, penalize_uncovered)

    def flagged_search(self, *args):
        searching[0] = True
        try:
            return search_m(self, *args)
        finally:
            searching[0] = False

    monkeypatch.setattr(CostModel, "manipulation_cost", recording_cost)
    monkeypatch.setattr(InterfaceMapper, "_search_m", flagged_search)
    engine = TransformEngine(catalog, executor)
    for workload in sorted(WORKLOADS):
        queries = list(WORKLOADS[workload].queries)
        initial = initial_difftrees(queries)
        merged = [merge_difftrees(initial)]
        refactored = engine.refactor_to_fixpoint(merged)
        states = [initial, merged, refactored]
        for app in engine.applications(refactored, random.Random(0)):
            if len(states) == 8:
                break
            neighbour = engine.apply(app)
            if neighbour is not None:
                states.append(neighbour)
        mapper = make_mapper(queries)
        for trees in states:
            mapper.generate(trees)
    assert all(complete for complete, _, _ in leaves)
    # the leaves include mixed covers: several widgets next to interactions
    assert sum(1 for _, w, i in leaves if w >= 2 and i >= 1) > 50
