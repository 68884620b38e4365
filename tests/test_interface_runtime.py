"""Tests for the interface spec, headless runtime, exporter, PI1 baseline and
taxonomy classifier."""

import json

import pytest

from repro.baselines import pi1_generate
from repro.difftree import initial_difftrees, merge_difftrees
from repro.difftree.builder import parse_queries
from repro.interface import InterfaceRuntime, export_html, interface_to_html, interface_to_json
from repro.taxonomy import classify_interface
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


@pytest.fixture()
def explore_setup(catalog, executor, make_mapper):
    engine = TransformEngine(catalog, executor)
    trees = engine.refactor_to_fixpoint(
        [merge_difftrees(initial_difftrees(EXPLORE))]
    )
    mapper = make_mapper(EXPLORE)
    interface = mapper.best_interface(trees)
    return interface, InterfaceRuntime(interface, executor)


@pytest.fixture()
def section2_setup(catalog, executor, make_mapper):
    engine = TransformEngine(catalog, executor)
    trees = engine.refactor_to_fixpoint(
        [merge_difftrees(initial_difftrees(SECTION2))]
    )
    mapper = make_mapper(SECTION2)
    interface = mapper.best_interface(trees)
    return interface, InterfaceRuntime(interface, executor)


# -- interface spec ------------------------------------------------------------


def test_interface_describe_and_to_dict(explore_setup):
    interface, _ = explore_setup
    text = interface.describe()
    assert "view 0" in text and "cost" in text
    payload = interface.to_dict()
    assert payload["views"] and "cost" in payload
    assert interface.size()[0] > 0


def test_interface_mapping_lookup(section2_setup):
    interface, _ = section2_setup
    for node_id in interface.choice_node_ids():
        assert interface.mapping_for(node_id) is not None
    assert interface.mapping_for(10**9) is None


# -- runtime -----------------------------------------------------------------------


def test_initial_refresh_executes_all_views(explore_setup):
    _, runtime = explore_setup
    for state in runtime.view_states:
        assert state.error is None
        assert state.result is not None
        assert state.sql.startswith("SELECT")


def test_replay_every_input_query(explore_setup, section2_setup):
    for interface, runtime in (explore_setup, section2_setup):
        total = len({q.fingerprint() for v in interface.views for q in v.tree.queries})
        for index in range(total):
            assert runtime.replay_query(index), f"query {index} not reproduced"


def test_pan_interaction_updates_predicates(explore_setup, executor):
    interface, runtime = explore_setup
    pans = [i for i in interface.interactions if i.candidate.interaction in ("pan", "zoom")]
    if not pans:
        pytest.skip("interface did not use pan/zoom")
    affected = runtime.trigger_interaction(pans[0], ((100, 150), (15, 25)))
    assert affected == [0]
    sql = runtime.view_states[0].sql
    assert "BETWEEN 100 AND 150" in sql
    assert "BETWEEN 15 AND 25" in sql
    assert runtime.view_states[0].error is None
    assert runtime.event_log[-1].kind == "interaction"


def test_widget_event_changes_projection(section2_setup):
    interface, runtime = section2_setup
    widgets = [
        w
        for w in interface.widgets
        if w.candidate.widget.enumerates_options and len(w.candidate.options) >= 2
    ]
    if not widgets:
        pytest.skip("no enumerating widget in the generated interface")
    widget = widgets[0]
    before = runtime.view_states[widget.view_index].sql
    runtime.set_widget(widget, 1)
    after = runtime.view_states[widget.view_index].sql
    assert before != after or len(widget.candidate.options) == 1


def test_snapshot_round_trips_to_json(explore_setup):
    _, runtime = explore_setup
    snapshot = runtime.snapshot()
    assert json.dumps(snapshot)
    assert snapshot["views"][0]["rows"] >= 0


# -- export -------------------------------------------------------------------------


def test_html_export_contains_views_and_widgets(tmp_path, section2_setup):
    interface, runtime = section2_setup
    html_text = interface_to_html(interface, runtime, title="Section 2 demo")
    assert "<svg" in html_text or "table" in html_text
    assert "Section 2 demo" in html_text
    path = export_html(interface, str(tmp_path / "iface.html"), runtime)
    assert (tmp_path / "iface.html").exists()
    assert path.endswith("iface.html")


def test_json_export_is_valid_json(explore_setup):
    interface, runtime = explore_setup
    payload = json.loads(interface_to_json(interface, runtime))
    assert "views" in payload and "runtime" in payload


# -- PI1 baseline ---------------------------------------------------------------------


def test_pi1_produces_flat_widget_set(catalog):
    result = pi1_generate(SECTION2, catalog=catalog)
    assert result.widgets
    assert not result.supports_visualizations
    assert not result.supports_layout
    assert result.tree.expresses_all()
    assert "PI1" in result.describe()


def test_pi1_manipulation_cost_positive(catalog):
    result = pi1_generate(SECTION2, catalog=catalog)
    asts = parse_queries(SECTION2)
    assert result.manipulation_cost(asts) > 0


def test_pi2_offers_interactions_pi1_cannot(catalog, executor, make_mapper):
    """The Figure-1 comparison: PI2 supports visualization interactions."""
    engine = TransformEngine(catalog, executor)
    trees = engine.refactor_to_fixpoint(
        [merge_difftrees(initial_difftrees(EXPLORE))]
    )
    pi2 = make_mapper(EXPLORE).best_interface(trees)
    pi1 = pi1_generate(EXPLORE, catalog=catalog)
    assert pi2.interaction_kinds()          # PI2: pan / zoom / brush
    assert not pi1.supports_visualizations  # PI1: widgets only


# -- taxonomy ----------------------------------------------------------------------------


def test_taxonomy_classification_explore(explore_setup):
    interface, _ = explore_setup
    report = classify_interface(interface)
    assert report.covers("select", "explore")
    assert "explore" in report.describe()


def test_taxonomy_filter_category_from_widgets(section2_setup):
    interface, _ = section2_setup
    report = classify_interface(interface)
    assert "select" in report.categories
    assert report.evidence
