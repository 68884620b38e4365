"""Tests for type annotation, node schemas and result schemas (Section 3.2)."""

from repro.database.types import DataType
from repro.difftree import (
    Difftree,
    initial_difftrees,
    merge_difftrees,
    node_schema,
    result_schema_for_queries,
    union_result_schemas,
)
from repro.difftree.nodes import AnyNode, MultiNode, SubsetNode, ValNode, make_opt
from repro.difftree.schema import (
    OptExpr,
    OrExpr,
    RepExpr,
    TupleSchema,
    TypeAnnotator,
    TypeExpr,
    WildcardExpr,
    result_schema_of_result,
)
from repro.difftree.types import PiType
from repro.sqlparser import ast_nodes as A
from repro.sqlparser import parse
from repro.sqlparser.ast_nodes import L


# -- type annotation ---------------------------------------------------------------


def test_literal_and_column_types(catalog):
    ast = parse("SELECT hp FROM Cars WHERE origin = 'USA'")
    annotator = TypeAnnotator(catalog)
    annotator.annotate(ast)
    column = ast.find_first(lambda n: n.label == L.COLUMN and n.value == "origin")
    assert annotator.type_of(column) == PiType.str_()
    assert annotator.attribute_of(column) == "Cars.origin"


def test_equality_specialises_literal_to_attribute_type(catalog):
    ast = parse("SELECT p FROM T WHERE a = 1")
    annotator = TypeAnnotator(catalog)
    annotator.annotate(ast)
    literal = ast.find_first(lambda n: n.label == L.LITERAL_NUM)
    assert annotator.type_of(literal) == PiType.attr("T.a", DataType.INT)


def test_between_specialises_both_bounds(catalog):
    ast = parse("SELECT hp FROM Cars WHERE hp BETWEEN 50 AND 60")
    annotator = TypeAnnotator(catalog)
    annotator.annotate(ast)
    literals = ast.find_label(L.LITERAL_NUM)
    for lit in literals:
        assert annotator.type_of(lit).attribute == "Cars.hp"


def test_alias_qualified_column_resolution(catalog):
    ast = parse("SELECT s.ra FROM specObj as s WHERE s.ra BETWEEN 213 AND 214")
    annotator = TypeAnnotator(catalog)
    annotator.annotate(ast)
    column = ast.find_first(lambda n: n.label == L.COLUMN and n.value == "s.ra")
    assert annotator.attribute_of(column) == "specObj.ra"


def test_function_type_from_catalog(catalog):
    ast = parse("SELECT count(*) FROM T")
    annotator = TypeAnnotator(catalog)
    annotator.annotate(ast)
    func = ast.find_first(lambda n: n.label == L.FUNC)
    assert annotator.type_of(func) == PiType.num()


def test_annotator_without_catalog_defaults():
    ast = parse("SELECT a FROM t WHERE a = 1")
    annotator = TypeAnnotator(None)
    annotator.annotate(ast)
    literal = ast.find_first(lambda n: n.label == L.LITERAL_NUM)
    assert annotator.type_of(literal) == PiType.num()


# -- node schemas --------------------------------------------------------------------


def _annotator(catalog, root):
    annotator = TypeAnnotator(catalog)
    annotator.annotate(root)
    return annotator


def test_any_over_static_literals_has_union_type_schema(catalog):
    ast = parse("SELECT p FROM T WHERE a = 1")
    literal = ast.find_first(lambda n: n.label == L.LITERAL_NUM)
    any_node = AnyNode([literal.copy(), A.literal_num(2)])
    parent = ast.find_first(lambda n: n.label == L.BINOP)
    parent.children[1] = any_node
    schema = node_schema(any_node, _annotator(catalog, ast))
    assert isinstance(schema, TupleSchema) and schema.arity() == 1
    assert isinstance(schema.exprs[0], TypeExpr)
    assert schema.exprs[0].pitype.attribute == "T.a"


def test_any_over_dynamic_children_is_or_schema(catalog):
    inner = ValNode([A.literal_num(1)], pitype=PiType.num())
    any_node = AnyNode([A.binop("=", A.column("a"), inner), A.column("b")])
    schema = node_schema(any_node, _annotator(catalog, any_node))
    assert isinstance(schema.exprs[0], OrExpr)


def test_opt_multi_subset_schemas(catalog):
    pred = A.binop("=", A.column("a"), A.literal_num(1))
    opt = make_opt(pred.copy())
    schema = node_schema(opt, _annotator(catalog, opt))
    assert isinstance(schema.exprs[0], OptExpr)

    multi = MultiNode([A.column("a")])
    schema = node_schema(multi, _annotator(catalog, multi))
    assert isinstance(schema.exprs[0], RepExpr)

    subset = SubsetNode([pred.copy(), A.binop("=", A.column("b"), A.literal_num(2))])
    schema = node_schema(subset, _annotator(catalog, subset))
    assert len(schema.exprs) == 2
    assert all(isinstance(e, OptExpr) for e in schema.exprs)


def test_ancestor_dynamic_node_schema_is_cross_product(catalog):
    ast = parse("SELECT hp FROM Cars WHERE hp BETWEEN 50 AND 60")
    between = ast.find_first(lambda n: n.label == L.BETWEEN)
    between.children[1] = ValNode([A.literal_num(50)], pitype=PiType.attr("Cars.hp", DataType.INT))
    between.children[2] = ValNode([A.literal_num(60)], pitype=PiType.attr("Cars.hp", DataType.INT))
    schema = node_schema(between, _annotator(catalog, ast))
    assert isinstance(schema, TupleSchema) and schema.arity() == 2
    assert all(isinstance(e, TypeExpr) for e in schema.exprs)


def test_schema_compatibility_rules():
    num = TypeExpr(PiType.num())
    attr = TypeExpr(PiType.attr("T.a", DataType.INT))
    wild = WildcardExpr()
    assert attr.compatible_with(num)
    assert not num.compatible_with(attr)
    assert num.compatible_with(wild)
    assert OptExpr(attr).compatible_with(OptExpr(wild))
    assert not OptExpr(attr).compatible_with(num)
    assert RepExpr(num).compatible_with(RepExpr(wild))
    assert TupleSchema((num, num)).compatible_with(TupleSchema((wild, wild)))
    assert not TupleSchema((num,)).compatible_with(TupleSchema((num, num)))
    assert OrExpr((num, attr)).compatible_with(wild)


# -- result schemas --------------------------------------------------------------------


def test_result_schema_of_single_query(executor):
    ast = parse("SELECT hour, count(*) FROM flights GROUP BY hour")
    result = executor.execute(ast)
    schema = result_schema_of_result(result, ast)
    assert schema.arity() == 2
    assert schema.attribute(0).grouped
    assert schema.attribute(1).is_aggregate
    assert schema.attribute(0).sources == ("flights.hour",)


def test_union_result_schema_merges_names_and_types(executor):
    asts = [
        parse("SELECT p, count(*) FROM T GROUP BY p"),
        parse("SELECT a, count(*) FROM T GROUP BY a"),
    ]
    schema = result_schema_for_queries(asts, executor)
    assert schema is not None
    assert set(schema.attribute(0).names) == {"p", "a"}
    assert schema.attribute(0).pitype == PiType.num()


def test_union_incompatible_arity_is_none(executor):
    asts = [
        parse("SELECT p FROM T"),
        parse("SELECT p, a FROM T"),
    ]
    assert result_schema_for_queries(asts, executor) is None


def test_union_incompatible_types_is_none(executor):
    asts = [
        parse("SELECT origin FROM Cars"),
        parse("SELECT hp FROM Cars"),
    ]
    assert result_schema_for_queries(asts, executor) is None


def test_union_result_schemas_empty():
    assert union_result_schemas([]) is None


def test_difftree_result_schema_uses_expressible_queries(executor, section2_asts):
    merged = merge_difftrees(initial_difftrees(section2_asts))
    schema = merged.result_schema(executor)
    assert schema is not None
    assert schema.arity() == 2
    assert str(schema)  # human-readable form renders


def test_unexecutable_query_gives_none_schema(executor):
    bad = Difftree(parse("SELECT missing_col FROM Cars WHERE missing_col = 1"), [
        parse("SELECT missing_col FROM Cars WHERE missing_col = 1")
    ])
    assert bad.result_schema(executor) is None
