"""Tests for the Difftree transformation rules and engine (Section 6.1)."""

import random

from repro.difftree import initial_difftrees, merge_difftrees, split_difftree
from repro.difftree.builder import cluster_by_result_schema, parse_queries
from repro.difftree.nodes import AnyNode, MultiNode, SubsetNode, ValNode, choice_nodes
from repro.sqlparser import parse, to_sql
from repro.sqlparser.ast_nodes import L
from repro.workloads import WORKLOADS
from repro.transform import (
    DEFAULT_RULES,
    AnyToMultiRule,
    AnyToSubsetRule,
    AnyToValRule,
    MergeAnyRule,
    MergeTreesRule,
    NoopRule,
    PartitionRule,
    PushAnyRule,
    PushOptListRule,
    SplitTreeRule,
    TransformContext,
    TransformEngine,
    iter_paths,
    node_at,
    parent_of,
    replace_at,
)

Q_EXPLORE = [
    "SELECT hp, mpg FROM Cars WHERE hp BETWEEN 50 AND 60",
    "SELECT hp, mpg FROM Cars WHERE hp BETWEEN 60 AND 90",
]


def ctx(catalog, executor):
    return TransformContext(catalog, executor)


def apply_first(rule, trees, context):
    apps = rule.applications(trees, context)
    assert apps, f"{rule.name} found no applications"
    return apps[0].apply()


# -- path helpers -------------------------------------------------------------


def test_path_addressing_roundtrip():
    ast = parse("SELECT a FROM t WHERE a = 1")
    paths = dict(iter_paths(ast))
    for path, node in paths.items():
        assert node_at(ast, path) is node
    some_path = next(p for p, n in paths.items() if n.label == L.LITERAL_NUM)
    assert parent_of(ast, some_path).label == L.BINOP
    new_root = replace_at(ast, some_path, parse("SELECT b FROM t").children[0])
    assert new_root is ast


def test_replace_at_root():
    ast = parse("SELECT a FROM t")
    other = parse("SELECT b FROM t")
    assert replace_at(ast, (), other) is other


# -- individual rules -----------------------------------------------------------


def test_push_any_same_arity(catalog, executor, section2_asts):
    trees = [merge_difftrees(initial_difftrees(section2_asts[:2]))]
    new_trees = apply_first(PushAnyRule(), trees, ctx(catalog, executor))
    tree = new_trees[0]
    assert tree.root.label == L.SELECT_STMT
    assert tree.expresses_all()
    # the difference (the literal 1 vs 2) is now isolated below an ANY
    anys = [n for n in tree.root.walk() if isinstance(n, AnyNode)]
    assert anys and all(len(a.children) >= 2 for a in anys)


def test_push_any_label_alignment_creates_opt(catalog, executor):
    queries = parse_queries(
        ["SELECT date, price FROM sp500",
         "SELECT date, price FROM sp500 WHERE date > '2001-01-01'"]
    )
    trees = [merge_difftrees(initial_difftrees(queries))]
    new_trees = apply_first(PushAnyRule(), trees, ctx(catalog, executor))
    tree = new_trees[0]
    assert tree.expresses_all()
    opt_anys = [n for n in tree.root.walk() if isinstance(n, AnyNode) and n.is_opt]
    assert opt_anys, "missing WHERE clause should become an optional ANY"


def test_push_any_predicate_key_alignment(catalog, executor):
    queries = parse_queries(
        ["SELECT date, cases FROM covid WHERE state = 'CA'",
         "SELECT date, cases FROM covid WHERE state = 'WA' AND date > '2021-06-01'"]
    )
    engine = TransformEngine(catalog, executor)
    trees = engine.refactor_to_fixpoint(
        [merge_difftrees(initial_difftrees(queries))]
    )
    tree = trees[0]
    assert tree.expresses_all()
    text = tree.pseudo_sql()
    # the state literal difference and the optional date predicate are isolated
    assert "state" in text and "VAL" in text or "ANY" in text


def test_push_opt_list_rule(catalog, executor):
    queries = parse_queries(
        ["SELECT a FROM T WHERE a = 1 AND b = 2", "SELECT a FROM T"]
    )
    engine = TransformEngine(catalog, executor)
    trees = engine.refactor_to_fixpoint([merge_difftrees(initial_difftrees(queries))])
    rule = PushOptListRule()
    apps = rule.applications(trees, ctx(catalog, executor))
    if apps:  # the OPT sits above the AND list
        new_trees = apps[0].apply()
        assert new_trees[0].expresses_all()


def test_partition_groups_heterogeneous_children(catalog, executor):
    queries = parse_queries(
        [
            "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p",
            "SELECT a FROM T",
        ]
    )
    trees = [merge_difftrees(initial_difftrees(queries))]
    # make signatures differ by pushing nothing: children are all select_stmt,
    # so Partition does not apply at the root …
    assert not PartitionRule().applications(trees, ctx(catalog, executor))
    # … but it applies to an ANY over predicates with different roots
    from repro.sqlparser import ast_nodes as A

    mixed = AnyNode(
        [
            A.binop("=", A.column("a"), A.literal_num(1)),
            A.binop("=", A.column("b"), A.literal_num(2)),
            A.between(A.column("c"), A.literal_num(1), A.literal_num(2)),
        ]
    )
    from repro.difftree import Difftree

    tree = Difftree(mixed, [])
    apps = PartitionRule().applications([tree], ctx(catalog, executor))
    assert apps
    new_tree = apps[0].apply()[0]
    root = new_tree.root
    assert isinstance(root, AnyNode)
    assert any(isinstance(c, AnyNode) for c in root.children)


def test_any_to_val_generalises_literals(catalog, executor, section2_asts):
    engine = TransformEngine(catalog, executor)
    trees = [merge_difftrees(initial_difftrees(section2_asts[:2]))]
    # push twice to expose the literal ANY, then generalise
    state = trees
    for _ in range(6):
        apps = PushAnyRule().applications(state, ctx(catalog, executor))
        if not apps:
            break
        state = engine.apply(apps[0]) or state
    apps = AnyToValRule().applications(state, ctx(catalog, executor))
    assert apps
    new_state = apps[0].apply()
    vals = [n for n in new_state[0].root.walk() if isinstance(n, ValNode)]
    assert vals and vals[0].pitype is not None
    assert vals[0].pitype.attribute == "T.a"
    assert new_state[0].expresses_all()


def test_any_to_subset_rule(catalog, executor):
    queries = parse_queries(
        [
            "SELECT a FROM T WHERE a = 1 AND b = 2",
            "SELECT a FROM T WHERE a = 1",
        ]
    )
    trees = [merge_difftrees(initial_difftrees(queries))]
    state = trees
    context = ctx(catalog, executor)
    # push ANY down to the conjunction level first
    for _ in range(3):
        apps = PushAnyRule().applications(state, context)
        if not apps:
            break
        state = apps[0].apply()
    apps = AnyToSubsetRule().applications(state, context)
    if apps:
        new_state = apps[0].apply()
        subsets = [
            n for n in new_state[0].root.walk() if isinstance(n, SubsetNode)
        ]
        assert subsets
        assert new_state[0].expresses_all()


def test_any_to_multi_rule(catalog, executor):
    queries = parse_queries(
        ["SELECT a, a FROM T", "SELECT b FROM T"]
    )
    trees = [merge_difftrees(initial_difftrees(queries))]
    context = ctx(catalog, executor)
    state = trees
    for _ in range(2):
        apps = PushAnyRule().applications(state, context)
        if not apps:
            break
        state = apps[0].apply()
    apps = AnyToMultiRule().applications(state, context)
    assert apps
    new_state = apps[0].apply()
    multis = [n for n in new_state[0].root.walk() if isinstance(n, MultiNode)]
    assert multis
    assert new_state[0].expresses_all()


def test_noop_removes_redundant_any(catalog, executor):
    duplicated = AnyNode([parse("SELECT a FROM T"), parse("SELECT a FROM T")])
    from repro.difftree import Difftree

    tree = Difftree(duplicated, [parse("SELECT a FROM T")])
    apps = NoopRule().applications([tree], ctx(catalog, executor))
    assert apps
    new_tree = apps[0].apply()[0]
    assert not isinstance(new_tree.root, AnyNode)
    assert new_tree.expresses_all()


def test_merge_any_flattens_cascade(catalog, executor):
    inner = AnyNode([parse("SELECT a FROM T"), parse("SELECT b FROM T")])
    outer = AnyNode([inner, parse("SELECT p FROM T")])
    from repro.difftree import Difftree

    tree = Difftree(outer, [parse("SELECT a FROM T")])
    apps = MergeAnyRule().applications([tree], ctx(catalog, executor))
    assert apps
    new_root = apps[0].apply()[0].root
    assert isinstance(new_root, AnyNode)
    assert len(new_root.children) == 3


def test_merge_trees_requires_union_compatibility(catalog, executor):
    compatible = initial_difftrees(Q_EXPLORE)
    incompatible = initial_difftrees(
        ["SELECT hp FROM Cars", "SELECT hp, mpg FROM Cars"]
    )
    rule = MergeTreesRule()
    assert rule.applications(compatible, ctx(catalog, executor))
    assert not rule.applications(incompatible, ctx(catalog, executor))
    merged_state = rule.applications(compatible, ctx(catalog, executor))[0].apply()
    assert len(merged_state) == 1
    assert merged_state[0].expresses_all()


def test_split_tree_rule(catalog, executor, section2_asts):
    merged = merge_difftrees(initial_difftrees(section2_asts))
    apps = SplitTreeRule().applications([merged], ctx(catalog, executor))
    assert apps
    new_state = apps[0].apply()
    assert len(new_state) == 3
    assert all(len(t.queries) == 1 for t in new_state)


def test_split_difftree_helper(section2_asts):
    merged = merge_difftrees(initial_difftrees(section2_asts))
    parts = split_difftree(merged)
    assert len(parts) == 3
    static = split_difftree(initial_difftrees(section2_asts)[0])
    assert len(static) == 1


# -- engine ----------------------------------------------------------------------


def test_engine_applications_are_bounded_and_cached(catalog, executor, section2_asts):
    engine = TransformEngine(catalog, executor, max_applications=5)
    trees = initial_difftrees(section2_asts)
    rng = random.Random(0)
    apps = engine.applications(trees, rng)
    assert len(apps) <= 5
    assert engine.applications(trees, rng) is apps  # cache hit


def test_engine_apply_preserves_query_coverage(catalog, executor, section2_asts):
    engine = TransformEngine(catalog, executor)
    trees = merge_difftrees(initial_difftrees(section2_asts))
    rng = random.Random(1)
    state = [trees]
    for _ in range(12):
        apps = engine.applications(state, rng)
        if not apps:
            break
        new_state = engine.apply(rng.choice(apps))
        if new_state is None:
            continue
        state = new_state
        assert engine.covers_all_queries(state)


def test_refactor_to_fixpoint_reaches_figure4_structure(catalog, executor, section2_asts):
    """The Section-2 example should refactor into the Figure-4 Difftree shape."""
    engine = TransformEngine(catalog, executor)
    trees = engine.refactor_to_fixpoint(
        [merge_difftrees(initial_difftrees(section2_asts))]
    )
    assert len(trees) == 1
    tree = trees[0]
    assert tree.expresses_all()
    text = tree.pseudo_sql()
    assert "VAL" in text or "ANY" in text
    # every input query can be recovered exactly
    for i in range(3):
        assert to_sql(tree.resolve_query(i)) == to_sql(section2_asts[i])


def test_refactor_explore_isolates_range_literals(catalog, executor, explore_asts):
    engine = TransformEngine(catalog, executor)
    trees = engine.refactor_to_fixpoint(
        [merge_difftrees(initial_difftrees(explore_asts))]
    )
    vals = [n for n in trees[0].root.walk() if isinstance(n, ValNode)]
    assert len(vals) == 4  # two BETWEEN predicates → four literals
    assert trees[0].expresses_all()


def test_cluster_by_result_schema_strict_vs_loose(executor):
    queries = parse_queries(
        [
            "SELECT hour, count(*) FROM flights GROUP BY hour",
            "SELECT delay, count(*) FROM flights GROUP BY delay",
        ]
    )
    trees = initial_difftrees(queries)
    strict = cluster_by_result_schema(trees, executor, strict=True)
    loose = cluster_by_result_schema(trees, executor, strict=False)
    assert len(strict) == 2
    assert len(loose) == 1


# -- Difftree cache lifetime --------------------------------------------------


def _states_around(engine, queries):
    """A log's initial state, its merged state (and a merge of one query
    with itself, which the Noop rule simplifies), every state refactoring
    passes through, and every state one rule application away from those."""
    initial = initial_difftrees(parse_queries(list(queries)))
    merged = [merge_difftrees(initial)]
    states = [initial, merged, [merge_difftrees([initial[0], initial[0]])]]
    refactor_apply = engine.apply

    def recording_apply(application, verify=True):
        new_trees = refactor_apply(application, verify)
        if new_trees is not None:
            states.append(new_trees)
        return new_trees

    engine.apply = recording_apply
    engine.refactor_to_fixpoint(merged)
    return states + [
        app.apply()
        for trees in states
        for rule in DEFAULT_RULES
        for app in rule.applications(trees, engine.ctx)
    ]


def test_rules_never_mutate_source_trees(catalog, executor):
    """A Difftree derives its choice nodes and fingerprint once and keeps
    them (see the Difftree docstring).  That is sound only if no rule
    mutates the trees it was enumerated on: on the states around every log,
    fill the caches, apply every application of every rule once, then check
    each source tree's cached facts against a fresh walk of its root."""
    fired = set()
    for workload in sorted(WORKLOADS):
        engine = TransformEngine(catalog, executor)
        states = _states_around(engine, WORKLOADS[workload].queries)
        for trees in states:
            for tree in trees:
                tree.mapping_key()
                tree.choice_node_ids()
        for trees in states:
            for rule in DEFAULT_RULES:
                for app in rule.applications(trees, engine.ctx):
                    app.apply()
                    fired.add(rule.name)
        for trees in states:
            for tree in trees:
                fresh = choice_nodes(tree.root)
                assert [id(n) for n in tree.choice_nodes()] == [id(n) for n in fresh]
                assert tree.choice_node_ids() == {n.node_id for n in fresh}
                assert tree.fingerprint() == tree.root.fingerprint()
    assert fired == {rule.name for rule in DEFAULT_RULES}
