"""Tests for the widget library, interaction model and safety check (§4.2, Table 2)."""

from repro.difftree import initial_difftrees, merge_difftrees
from repro.difftree.nodes import AnyNode, ValNode
from repro.mapping import (
    WIDGET_TYPES,
    candidate_interactions,
    candidate_visualizations,
    candidate_widgets,
    conflicting,
    interaction_streams,
    is_safe,
    stream_schema,
)
from repro.mapping.widgets import (
    RADIO,
    RANGE_SLIDER,
    TEXTBOX,
    TOGGLE,
    WidgetType,
    register_widget,
    top_choice_nodes,
)
from repro.sqlparser.ast_nodes import L
from repro.transform import TransformEngine


def refined_tree(catalog, executor, queries):
    engine = TransformEngine(catalog, executor)
    trees = engine.refactor_to_fixpoint(
        [merge_difftrees(initial_difftrees(list(queries)))]
    )
    return trees[0]


# -- Table 2 widget schemas -----------------------------------------------------


def test_table2_widget_schemas_and_constraints():
    names = {w.name for w in WIDGET_TYPES}
    assert {"radio", "dropdown", "textbox", "toggle", "checkbox", "slider",
            "range_slider", "button", "adder"} <= names
    assert RANGE_SLIDER.constraint is not None
    assert RANGE_SLIDER.constraint([(1, 3), (2, 4)])
    assert not RANGE_SLIDER.constraint([(5, 3)])
    assert not TEXTBOX.enumerates_options
    assert TOGGLE.is_layout_widget


def test_register_widget_extensibility():
    custom = WidgetType("colorpicker", TEXTBOX.schema)
    register_widget(custom)
    try:
        assert custom in WIDGET_TYPES
    finally:
        WIDGET_TYPES.remove(custom)


# -- widget candidates --------------------------------------------------------------


def test_val_node_gets_slider_with_catalog_domain(catalog, executor):
    tree = refined_tree(
        catalog,
        executor,
        [
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE a = 3 GROUP BY p",
        ],
    )
    val = next(n for n in tree.root.walk() if isinstance(n, ValNode))
    cands = candidate_widgets(tree, val, catalog)
    names = {c.widget.name for c in cands}
    assert "slider" in names and "radio" in names
    slider = next(c for c in cands if c.widget.name == "slider")
    lo, hi = slider.domain
    assert lo <= 1 and hi >= 3
    assert slider.cover == frozenset({val.node_id})


def test_string_val_has_no_slider(catalog, executor):
    tree = refined_tree(
        catalog,
        executor,
        [
            "SELECT date, cases FROM covid WHERE state = 'CA'",
            "SELECT date, cases FROM covid WHERE state = 'WA'",
        ],
    )
    vals = [n for n in tree.root.walk() if isinstance(n, ValNode)]
    assert vals
    for val in vals:
        names = {c.widget.name for c in candidate_widgets(tree, val, catalog)}
        assert "slider" not in names
        assert {"radio", "dropdown"} <= names


def test_opt_node_gets_toggle(catalog, executor):
    tree = refined_tree(
        catalog,
        executor,
        ["SELECT date, price FROM sp500",
         "SELECT date, price FROM sp500 WHERE date > '2001-01-01'"],
    )
    opt = next(
        n for n in tree.root.walk() if isinstance(n, AnyNode) and n.is_opt
    )
    names = {c.widget.name for c in candidate_widgets(tree, opt, catalog)}
    assert "toggle" in names
    toggle = next(
        c for c in candidate_widgets(tree, opt, catalog) if c.widget.name == "toggle"
    )
    assert toggle.cover == frozenset({opt.node_id})


def test_range_slider_on_between_ancestor(catalog, executor, explore_asts):
    tree = refined_tree(catalog, executor, [
        "SELECT hp, mpg FROM Cars WHERE hp BETWEEN 50 AND 60",
        "SELECT hp, mpg FROM Cars WHERE hp BETWEEN 60 AND 90",
    ])
    between = next(n for n in tree.root.walk() if n.label == L.BETWEEN)
    cands = candidate_widgets(tree, between, catalog)
    names = {c.widget.name for c in cands}
    assert "range_slider" in names
    rs = next(c for c in cands if c.widget.name == "range_slider")
    assert len(rs.cover) == 2


def test_top_choice_nodes_stops_at_first_choice(catalog, executor):
    tree = refined_tree(
        catalog,
        executor,
        ["SELECT date, price FROM sp500",
         "SELECT date, price FROM sp500 WHERE date > '2001-01-01'"],
    )
    opt = next(n for n in tree.root.walk() if isinstance(n, AnyNode) and n.is_opt)
    tops = top_choice_nodes(opt)
    assert tops == [opt]
    tops_root = top_choice_nodes(tree.root)
    assert opt in tops_root and len(tops_root) >= 1


def test_widget_options_and_size_estimates(catalog, executor, section2_asts):
    tree = refined_tree(catalog, executor, [
        "SELECT p, count(*) FROM T GROUP BY p",
        "SELECT a, count(*) FROM T GROUP BY a",
    ])
    any_node = next(
        n for n in tree.root.walk()
        if isinstance(n, AnyNode) and not n.is_opt and not isinstance(n, ValNode)
    )
    radio = next(
        c for c in candidate_widgets(tree, any_node, catalog)
        if c.widget.name == "radio"
    )
    assert len(radio.options) == len(any_node.children)
    width, height = radio.estimated_size()
    assert width > 0 and height > RADIO.base_height
    assert radio.domain_size == len(radio.options)
    assert "radio" in radio.describe()


# -- interaction candidates and safety ----------------------------------------------


def make_explore_setup(catalog, executor):
    tree = refined_tree(catalog, executor, [
        "SELECT hp, mpg, origin FROM Cars WHERE hp BETWEEN 50 AND 60 "
        "AND mpg BETWEEN 27 AND 38",
        "SELECT hp, mpg, origin FROM Cars WHERE hp BETWEEN 60 AND 90 "
        "AND mpg BETWEEN 16 AND 30",
    ])
    vis = candidate_visualizations(tree.result_schema(executor), catalog)[0]
    return tree, vis


def test_interaction_streams_depend_on_vis_mapping(catalog, executor):
    tree, vis = make_explore_setup(catalog, executor)
    assert vis.vis_type.name == "point"
    pan = interaction_streams(vis, "pan")
    names = {s.name for s in pan}
    assert names == {"x-range", "y-range"}
    click = interaction_streams(vis, "click")
    assert any(s.kind == "point" for s in click)
    # stream schemas are expressed over the result attributes
    schema = stream_schema(vis, pan[0])
    assert schema.arity() == 2


def test_pan_candidate_covers_both_range_predicates(catalog, executor):
    tree, vis = make_explore_setup(catalog, executor)
    icand = candidate_interactions([tree], [vis], catalog, executor)
    pan_candidates = [
        c for cands in icand.values() for c in cands if c.interaction == "pan"
    ]
    assert pan_candidates
    assert any(len(c.cover) == 4 for c in pan_candidates)


def test_interactions_do_not_bind_structural_choices(catalog, executor):
    tree = refined_tree(catalog, executor, [
        "SELECT p, count(*) FROM T GROUP BY p",
        "SELECT a, count(*) FROM T GROUP BY a",
    ])
    vis = candidate_visualizations(tree.result_schema(executor), catalog)[0]
    icand = candidate_interactions([tree], [vis], catalog, executor)
    # the projection/group-by ANY chooses between attributes, not values, so it
    # must not receive any visualization-interaction candidates
    structural = [
        n for n in tree.root.walk()
        if isinstance(n, AnyNode) and not n.is_opt
        and any(c.label == L.COLUMN for c in n.children)
    ]
    for node in structural:
        assert not icand.get(node.node_id)


def test_safety_rejects_unreachable_bindings(catalog, executor):
    """A VAL binding outside the rendered data cannot be expressed by clicking."""
    tree = refined_tree(catalog, executor, [
        "SELECT hour, count(*) FROM flights WHERE hour BETWEEN 0 AND 5 GROUP BY hour",
        "SELECT hour, count(*) FROM flights WHERE hour BETWEEN 2 AND 90 GROUP BY hour",
    ])
    vis = candidate_visualizations(tree.result_schema(executor), catalog)[0]
    icand_checked = candidate_interactions([tree], [vis], catalog, executor, check_safety=True)
    icand_unchecked = candidate_interactions([tree], [vis], catalog, executor, check_safety=False)
    checked_total = sum(len(v) for v in icand_checked.values())
    unchecked_total = sum(len(v) for v in icand_unchecked.values())
    # the literal 90 lies outside the hour domain (0–23), so at least the
    # data-bounded interactions (brush/click) must be filtered out
    assert checked_total <= unchecked_total


def test_is_safe_accepts_pan_always(catalog, executor):
    tree, vis = make_explore_setup(catalog, executor)
    icand = candidate_interactions([tree], [vis], catalog, executor, check_safety=False)
    pan = next(
        c for cands in icand.values() for c in cands if c.interaction == "pan"
    )
    assert is_safe(pan, tree, tree, executor)


def test_conflicting_interactions_on_same_view(catalog, executor):
    tree, vis = make_explore_setup(catalog, executor)
    icand = candidate_interactions([tree], [vis], catalog, executor, check_safety=False)
    all_cands = [c for cands in icand.values() for c in cands]
    pans = [c for c in all_cands if c.interaction == "pan"]
    brushes = [c for c in all_cands if c.interaction.startswith("brush")]
    if pans and brushes:
        assert conflicting(pans[0], brushes[0])
    assert conflicting(pans[0], pans[0])
