"""Tests for the layout tree, Fitts' law model and interface cost model (§4.3, §5)."""

import pytest

from repro.cost import (
    CostModel,
    CostModelConfig,
    FITTS_A,
    FITTS_B,
    centroid_distance,
    fitts_time,
    interface_quality,
)
from repro.difftree.builder import parse_queries
from repro.mapping import (
    HORIZONTAL,
    VERTICAL,
    LayoutLeaf,
    LayoutNode,
    LayoutTree,
    build_layout_tree,
    optimize_layout,
)


# -- Fitts' law ---------------------------------------------------------------


def test_fitts_constants_match_paper():
    assert FITTS_A == 1.0 and FITTS_B == 25.0


def test_fitts_time_monotone_in_distance():
    assert fitts_time(100, 50) < fitts_time(400, 50)
    assert fitts_time(0, 50) == FITTS_A
    assert fitts_time(100, 200) <= fitts_time(100, 20)
    assert fitts_time(100, 0) > 0  # degenerate width guarded


def test_centroid_distance():
    assert centroid_distance((0, 0), (3, 4)) == pytest.approx(5.0)


# -- layout tree -----------------------------------------------------------------


def make_leaves():
    vis = LayoutLeaf("vis", object(), 300, 200, label="chart")
    w1 = LayoutLeaf("widget", object(), 150, 30, label="radio")
    w2 = LayoutLeaf("widget", object(), 150, 40, label="slider")
    return vis, w1, w2


def test_vertical_and_horizontal_boxes():
    vis, w1, w2 = make_leaves()
    node = LayoutNode([w1, w2, vis], direction=VERTICAL)
    tree = LayoutTree(node)
    width, height = tree.compute_boxes()
    assert width == 300
    assert height > 200 + 30 + 40
    node.direction = HORIZONTAL
    width_h, height_h = tree.compute_boxes()
    assert width_h > width
    assert height_h == 200


def test_build_layout_tree_structure_and_positions():
    vis, w1, w2 = make_leaves()
    tree = build_layout_tree([(vis, [w1, w2])])
    assert len(tree.leaves()) == 3
    assert tree.leaf_for(w1.ref) is w1
    assert tree.leaf_for(object()) is None
    # widgets sit in a column to the left of the chart by default
    assert w1.x < vis.x or w1.y != vis.y
    assert "view-0" in tree.describe()


def test_optimize_layout_picks_cheapest_direction():
    vis, w1, w2 = make_leaves()
    tree = build_layout_tree([(vis, [w1, w2])])

    def prefer_wide(layout: LayoutTree) -> float:
        width, height = layout.size()
        return height  # minimising height forces horizontal layouts

    optimized, cost = optimize_layout(tree, prefer_wide)
    assert cost == pytest.approx(optimized.size()[1])
    assert all(
        node.direction == HORIZONTAL for node in optimized.root.internal_nodes()
    ) or optimized.size()[1] <= 300


# -- cost model ----------------------------------------------------------------------


@pytest.fixture()
def explore_interface(catalog, executor, make_mapper):
    from repro.difftree import initial_difftrees, merge_difftrees
    from repro.transform import TransformEngine

    queries = [
        "SELECT hp, mpg, origin FROM Cars WHERE hp BETWEEN 50 AND 60 "
        "AND mpg BETWEEN 27 AND 38",
        "SELECT hp, mpg, origin FROM Cars WHERE hp BETWEEN 60 AND 90 "
        "AND mpg BETWEEN 16 AND 30",
    ]
    engine = TransformEngine(catalog, executor)
    trees = engine.refactor_to_fixpoint(
        [merge_difftrees(initial_difftrees(queries))]
    )
    mapper = make_mapper(queries)
    return mapper, mapper.generate(trees), queries


def test_widget_cost_polynomial():
    model = CostModel([], CostModelConfig(a0=1.0, a1=0.1, a2=0.01))
    from repro.interface.spec import AppliedWidget
    from repro.mapping.widgets import RADIO, WidgetCandidate
    from repro.sqlparser import ast_nodes as A

    few = AppliedWidget(
        WidgetCandidate(RADIO, A.column("a"), frozenset({1}), options=[1, 2]), 0
    )
    many = AppliedWidget(
        WidgetCandidate(RADIO, A.column("a"), frozenset({1}), options=list(range(10))),
        0,
    )
    assert model.widget_manipulation_cost(few) < model.widget_manipulation_cost(many)


def test_interface_cost_breakdown(explore_interface):
    mapper, interfaces, queries = explore_interface
    best = interfaces[0]
    assert best.cost is not None
    assert best.cost.total == pytest.approx(
        best.cost.manipulation + best.cost.navigation + best.cost.layout_penalty
    )
    # the pan-based interface has low manipulation cost
    assert best.cost.manipulation < 10


def test_interactive_interface_beats_static_charts(
    explore_interface, catalog, executor
):
    mapper, interfaces, queries = explore_interface
    from repro.core import best_static_interface
    from repro.core.config import PipelineConfig

    static = best_static_interface(
        queries, catalog=catalog, config=PipelineConfig.fast()
    )
    assert interfaces[0].cost.total < static.cost.total


def test_layout_penalty_applies_above_maximum(explore_interface):
    mapper, interfaces, queries = explore_interface
    best = interfaces[0]
    asts = parse_queries(queries)
    tight = CostModel(asts, CostModelConfig(max_width=50, max_height=50))
    loose = CostModel(asts, CostModelConfig())
    assert tight.layout_penalty(best) > 0
    assert loose.layout_penalty(best) == 0


def test_incomplete_interface_heavily_penalised(explore_interface):
    mapper, interfaces, queries = explore_interface
    best = interfaces[0]
    asts = parse_queries(queries)
    model = CostModel(asts)
    stripped = type(best)(views=best.views, widgets=[], interactions=[])
    assert model.manipulation_cost(stripped) >= 50.0
    assert model.manipulation_cost(stripped, penalize_uncovered=False) < 50.0


def test_binding_plans_follow_each_trees_own_queries(section2_asts):
    """The split rule can build two trees with the same root and choice-node
    ids but different query lists; each keeps a binding plan of its own
    queries, and each query is expressed by a view whose tree owns it."""
    from repro.difftree import Difftree, initial_difftrees, merge_difftrees
    from repro.interface.spec import Interface, View

    merged = merge_difftrees(initial_difftrees(section2_asts))
    wide = Difftree(merged.root.copy(), section2_asts)
    narrow = Difftree(merged.root.copy(), section2_asts[2:])
    assert wide.fingerprint() == narrow.fingerprint()
    assert wide.choice_nodes() and wide.choice_node_ids() == narrow.choice_node_ids()

    model = CostModel(section2_asts)
    fps = [q.fingerprint() for q in section2_asts]
    assert set(model._binding_plan(wide)) == set(fps)
    assert set(model._binding_plan(narrow)) == {fps[2]}
    # vis mappings play no part in which view expresses a query
    views = [View(narrow, None), View(wide, None)]
    plan = model.query_plan(Interface(views=views))
    assert [view_index for view_index, _ in plan] == [1, 1, 0]


def test_interface_quality_metric():
    assert interface_quality(10.0, 10.0) == 1.0
    assert interface_quality(20.0, 10.0) == 0.5
    assert interface_quality(0.0, 10.0) == 1.0
    assert 0.0 <= interface_quality(1e9, 10.0) <= 0.01
