"""A planned relational query executor over the in-memory catalogue.

Execution is split into layers.  :mod:`repro.database.planner` compiles each
SELECT AST into a small logical plan — scan → filter → join → group →
project → order → limit — and :mod:`repro.database.columnar` runs those plans
column-at-a-time over the column-major base tables; this module owns the
public API, the DISTINCT / ORDER BY / LIMIT tail, and the AST interpreter.
The plan layer exists because interface generation's MCTS reward loop
executes thousands of small queries per run: hash equi-joins replace the
interpreter's cross-product + filter (O(|L|+|R|) instead of O(|L|·|R|)),
single-table WHERE conjuncts are pushed below joins onto their FROM item,
and scans materialise only the columns a statement references.  Every plan
joins in FROM order, so one plan per statement serves every caller.

Compiled plans are cached by AST fingerprint in a **process-wide** cache
(:data:`repro.database.plancache.SHARED_PLAN_CACHE`) shared across every
``Executor`` over the same catalogue, so the many executors the pipeline,
interface runtime and benchmarks build over one catalogue compile each
distinct query exactly once — and correlated subqueries re-executed per
outer binding plan once.

The original AST interpreter is retained behind ``use_planner=False`` and
serves as the equivalence oracle: planned execution must produce identical
``ResultTable``s (columns, types, sources, and row order) for every supported
query.  The columnar engine runs every planned statement: a subquery without
outer references evaluates once, and a correlated one once per distinct outer
binding (IN: per row) through this module's own expression evaluator.
Supported SQL surface:

* projections with expressions, aliases, ``DISTINCT``, ``*``
* comma joins, explicit ``JOIN ... ON`` (inner / left / right), subqueries
  in ``FROM``
* ``WHERE`` / ``HAVING`` with boolean logic, comparisons, ``BETWEEN``,
  ``IN`` (value lists and subqueries), ``IS NULL``, ``LIKE``
* grouping and the aggregates ``count/sum/avg/min/max`` (with ``DISTINCT``)
* scalar subqueries, including correlated subqueries
* ``ORDER BY`` and ``LIMIT``/``OFFSET``

Results are returned as :class:`repro.database.table.ResultTable`, whose
columns carry inferred types and, when possible, the fully qualified source
attribute — which is what the Difftree schema layer consumes.  Cached results
are returned as defensive copies (fresh columns / rows containers, shared row
tuples) and the result cache is LRU-bounded, so callers can mutate what they
receive without poisoning later cache hits and the cache cannot grow without
limit under heavy traffic.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..obs import span
from ..sqlparser import L, Node, parse, to_sql
from .catalog import Catalog
from .functions import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    is_aggregate,
)
from .plancache import SHARED_PLAN_CACHE, CatalogCache
from .planner import Plan, Planner, PlanStats, contains_aggregate
from .table import RelColumn, Relation, ResultColumn, ResultTable
from .types import DataType, aggregate_result_type, infer_value_type, unify_all
from .values import arith_values, compare_values, like, null_safe_key


class ExecutionError(Exception):
    """Raised when a query cannot be executed against the catalogue."""


class Environment:
    """A chained variable scope used for correlated subqueries.

    Lookup first consults the local row of the current relation and then the
    parent environment (the enclosing query's current row / group).
    """

    def __init__(
        self,
        relation: Optional[Relation] = None,
        row: Optional[tuple] = None,
        parent: Optional["Environment"] = None,
    ) -> None:
        self.relation = relation
        self.row = row
        self.parent = parent

    def lookup(self, name: str) -> tuple[bool, object]:
        """Return ``(found, value)`` for a possibly-qualified column name."""
        if self.relation is not None and self.row is not None:
            qualifier, bare = None, name
            if "." in name:
                qualifier, bare = name.split(".", 1)
            idx = self.relation.find(bare, qualifier)
            if idx is not None:
                return True, self.row[idx]
        if self.parent is not None:
            return self.parent.lookup(name)
        return False, None


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


class Executor:
    """Executes parsed SQL ASTs against a :class:`Catalog`.

    Args:
        catalog: the catalogue to execute against.
        enable_cache: cache results by AST fingerprint (top-level queries
            only; correlated executions are never cached).
        use_planner: run compiled plans on the columnar engine (the
            default).  ``False`` falls back to direct AST interpretation —
            kept as the equivalence oracle for tests and as the baseline for
            the join and columnar benchmarks.
        cache_size: LRU bound on the result cache.
        plan_cache: compiled-plan cache; defaults to the process-wide
            :data:`~repro.database.plancache.SHARED_PLAN_CACHE` so executors
            over the same catalogue share one compiled plan set.  Pass a
            private :class:`~repro.database.plancache.CatalogCache` to isolate
            an executor (e.g. when benchmarking plan compilation itself).
    """

    def __init__(
        self,
        catalog: Catalog,
        enable_cache: bool = True,
        use_planner: bool = True,
        cache_size: int = 1024,
        plan_cache: Optional[CatalogCache] = None,
    ) -> None:
        self.catalog = catalog
        self.enable_cache = enable_cache
        self.use_planner = use_planner
        self.cache_size = max(1, cache_size)
        self._cache: "OrderedDict[str, ResultTable]" = OrderedDict()
        self.stats = PlanStats()
        self.planner = Planner(catalog, self.stats)
        self.plan_cache = plan_cache if plan_cache is not None else SHARED_PLAN_CACHE
        from .columnar import ColumnarEngine  # deferred: columnar imports this module

        self._columnar_engine = ColumnarEngine(self)

    # -- public API --------------------------------------------------------

    def execute_sql(self, sql: str) -> ResultTable:
        """Parse and execute a SQL string."""
        return self.execute(parse(sql))

    def execute(self, node: Node, env: Optional[Environment] = None) -> ResultTable:
        """Execute a SELECT statement AST and return its result table.

        ``env`` is the enclosing statement's scope when the statement runs
        as a subquery; only statements run without one are cached.
        """
        if node.label == L.SUBQUERY:
            node = node.children[0]
        if node.label != L.SELECT_STMT:
            raise ExecutionError(f"cannot execute node {node.label!r}")

        cache_key = None
        if self.enable_cache and env is None:
            cache_key = node.fingerprint()
            cached = self._cache.get(cache_key)
            if cached is not None:
                self._cache.move_to_end(cache_key)
                self.stats.result_cache_hits += 1
                return cached.copy()
            self.stats.result_cache_misses += 1

        with span("executor.execute"):
            result = self._execute_select(node, env)
        if cache_key is not None:
            self._cache[cache_key] = result
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
            # hand out a copy so caller mutations cannot poison the cache
            return result.copy()
        return result

    def clear_cache(self) -> None:
        """Drop this executor's cached results and its catalogue's plans."""
        self._cache.clear()
        self.plan_cache.clear(self.catalog)

    def explain_sql(self, sql: str) -> str:
        """The compiled plan of a SQL string, rendered for inspection."""
        node = parse(sql)
        if node.label == L.SUBQUERY:
            node = node.children[0]
        return self._plan_for(node).explain()

    # -- select pipeline ------------------------------------------------------

    def _execute_select(self, stmt: Node, env: Optional[Environment]) -> ResultTable:
        if not self.use_planner:
            return self._execute_select_interpreted(stmt, env)
        plan = self._plan_for(stmt)
        result = self._columnar_engine.execute_plan(plan, env)
        self.stats.columnar_executions += 1
        if plan.distinct:
            result = self._distinct(result)
        if plan.orderby is not None:
            result = self._order(result, plan.orderby, env)
        if plan.limit is not None:
            result = self._limit(result, plan.limit, env)
        return result

    def _plan_for(self, stmt: Node) -> Plan:
        key = stmt.fingerprint()
        hit, plan = self.plan_cache.lookup(self.catalog, key)
        if hit:
            self.stats.plan_cache_hits += 1
            return plan
        with span("executor.plan"):
            plan = self.planner.plan(stmt)
        self.plan_cache.put(self.catalog, key, plan)
        return plan

    # -- FROM interpretation (the pre-plan oracle path) -------------------------

    def _execute_select_interpreted(
        self, stmt: Node, env: Optional[Environment]
    ) -> ResultTable:
        """Interpret the AST clause by clause (no planning).

        This is the original executor strategy — every join is a cross
        product followed by a filter.  It is kept as the equivalence oracle
        for the plan layer and as the baseline of the join benchmarks.
        """
        clauses = {child.label: child for child in stmt.children}
        select = clauses.get(L.SELECT_CLAUSE)
        if select is None:
            raise ExecutionError("SELECT statement without a projection list")

        relation = self._eval_from(clauses.get(L.FROM_CLAUSE), env)

        where = clauses.get(L.WHERE_CLAUSE)
        if where is not None:
            relation = self._filter(relation, where.children[0], env)

        groupby = clauses.get(L.GROUPBY_CLAUSE)
        having = clauses.get(L.HAVING_CLAUSE)
        has_aggregates = contains_aggregate(select) or having is not None

        if groupby is not None or has_aggregates:
            result = self._execute_grouped(relation, select, groupby, having, env)
        else:
            result = self._project(relation, select, env)

        if select.value == "DISTINCT":
            result = self._distinct(result)

        orderby = clauses.get(L.ORDERBY_CLAUSE)
        if orderby is not None:
            result = self._order(result, orderby, env)

        limit = clauses.get(L.LIMIT_CLAUSE)
        if limit is not None:
            result = self._limit(result, limit, env)

        return result

    def _eval_from(
        self, from_clause: Optional[Node], env: Optional[Environment]
    ) -> Relation:
        if from_clause is None:
            # SELECT without FROM: a single empty row so expressions evaluate once
            return Relation(columns=[], rows=[tuple()])
        relation: Optional[Relation] = None
        for ref in from_clause.children:
            rel = self._eval_table_ref(ref, env)
            relation = rel if relation is None else self._cross_join(relation, rel)
        assert relation is not None
        return relation

    def _eval_table_ref(self, ref: Node, env: Optional[Environment]) -> Relation:
        if ref.label == L.JOIN:
            return self._eval_join(ref, env)
        if ref.label != L.TABLE_REF:
            raise ExecutionError(f"unexpected FROM element {ref.label!r}")
        source = ref.children[0]
        alias = None
        if len(ref.children) > 1 and ref.children[1].label == L.ALIAS:
            alias = ref.children[1].value

        if source.label == L.TABLE_NAME:
            table = self.catalog.table(str(source.value))
            qualifier = alias or table.name
            columns = [
                RelColumn(
                    name=c.name,
                    qualifier=qualifier,
                    dtype=c.dtype,
                    source=f"{table.name}.{c.name}",
                )
                for c in table.columns
            ]
            return Relation(columns=columns, rows=list(table.rows))

        if source.label == L.SUBQUERY:
            sub_result = self.execute(source.children[0], env)
            qualifier = alias
            columns = [
                RelColumn(
                    name=c.name,
                    qualifier=qualifier,
                    dtype=c.dtype,
                    source=c.source,
                    is_aggregate=c.is_aggregate,
                )
                for c in sub_result.columns
            ]
            return Relation(columns=columns, rows=list(sub_result.rows))

        raise ExecutionError(f"unsupported table reference {source.label!r}")

    def _eval_join(self, join: Node, env: Optional[Environment]) -> Relation:
        left = self._eval_table_ref(join.children[0], env)
        right = self._eval_table_ref(join.children[1], env)
        combined = self._cross_join(left, right)
        condition = join.children[2].children[0]
        filtered = self._filter(combined, condition, env)
        if (join.value or "INNER") == "INNER":
            return filtered
        # LEFT / RIGHT outer joins: add unmatched rows padded with NULLs
        if join.value == "LEFT":
            return self._pad_outer(left, right, combined, filtered, left_side=True)
        if join.value == "RIGHT":
            return self._pad_outer(left, right, combined, filtered, left_side=False)
        return filtered

    def _pad_outer(
        self,
        left: Relation,
        right: Relation,
        combined: Relation,
        filtered: Relation,
        left_side: bool,
    ) -> Relation:
        preserved = left if left_side else right
        other = right if left_side else left
        width_other = len(other.columns)
        matched_keys = set()
        offset = 0 if left_side else len(left.columns)
        for row in filtered.rows:
            matched_keys.add(row[offset : offset + len(preserved.columns)])
        rows = list(filtered.rows)
        for prow in preserved.rows:
            if tuple(prow) not in matched_keys:
                nulls = (None,) * width_other
                rows.append(tuple(prow) + nulls if left_side else nulls + tuple(prow))
        return Relation(columns=combined.columns, rows=rows)

    @staticmethod
    def _cross_join(left: Relation, right: Relation) -> Relation:
        columns = left.columns + right.columns
        rows = [lrow + rrow for lrow in left.rows for rrow in right.rows]
        return Relation(columns=columns, rows=rows)

    # -- WHERE --------------------------------------------------------------------

    def _filter(
        self, relation: Relation, predicate: Node, env: Optional[Environment]
    ) -> Relation:
        kept = []
        for row in relation.rows:
            row_env = Environment(relation, row, parent=env)
            if self._truthy(self._eval_expr(predicate, row_env)):
                kept.append(row)
        return Relation(columns=relation.columns, rows=kept)

    # -- projection (no grouping) ----------------------------------------------------

    def _project(
        self, relation: Relation, select: Node, env: Optional[Environment]
    ) -> ResultTable:
        out_columns = self._output_columns(relation, select)
        rows = []
        for row in relation.rows:
            row_env = Environment(relation, row, parent=env)
            values = []
            for item in self._expanded_select_items(relation, select):
                values.append(self._eval_expr(item.children[0], row_env))
            rows.append(tuple(values))
        return self._finalise(out_columns, rows)

    # -- grouping ----------------------------------------------------------------------

    def _execute_grouped(
        self,
        relation: Relation,
        select: Node,
        groupby: Optional[Node],
        having: Optional[Node],
        env: Optional[Environment],
    ) -> ResultTable:
        groups: dict[tuple, list[tuple]] = {}
        order: list[tuple] = []
        group_exprs = list(groupby.children) if groupby is not None else []
        for row in relation.rows:
            row_env = Environment(relation, row, parent=env)
            key = tuple(self._eval_expr(e, row_env) for e in group_exprs)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)

        if not group_exprs and not groups:
            # aggregates over an empty relation still yield one output row
            groups[()] = []
            order.append(())

        out_columns = self._output_columns(relation, select, grouped=True)
        rows = []
        for key in order:
            group_rows = groups[key]
            first_row = group_rows[0] if group_rows else tuple(
                None for _ in relation.columns
            )
            group_env = Environment(relation, first_row, parent=env)
            if having is not None:
                keep = self._eval_expr(
                    having.children[0], group_env, group_rows=group_rows,
                    relation=relation,
                )
                if not self._truthy(keep):
                    continue
            values = []
            for item in self._expanded_select_items(relation, select):
                values.append(
                    self._eval_expr(
                        item.children[0],
                        group_env,
                        group_rows=group_rows,
                        relation=relation,
                    )
                )
            rows.append(tuple(values))
        return self._finalise(out_columns, rows)

    # -- DISTINCT / ORDER BY / LIMIT ---------------------------------------------------

    @staticmethod
    def _distinct(result: ResultTable) -> ResultTable:
        seen = set()
        rows = []
        for row in result.rows:
            key = tuple(row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        return ResultTable(result.columns, rows)

    def _order(
        self, result: ResultTable, orderby: Node, env: Optional[Environment]
    ) -> ResultTable:
        # Evaluate order expressions against the *output* columns first (SQL
        # semantics allow ordering by aliases), falling back to row position.
        rows = list(result.rows)
        # apply sorts right-to-left so earlier keys dominate, honouring DESC
        for item in reversed(orderby.children):
            expr = item.children[0]
            rows.sort(
                key=lambda r: null_safe_key(self._eval_output_expr(expr, result, r)),
                reverse=item.value == "DESC",
            )
        return ResultTable(result.columns, rows)

    def _eval_output_expr(self, expr: Node, result: ResultTable, row: tuple) -> object:
        if expr.label == L.COLUMN:
            name = str(expr.value)
            bare = name.split(".")[-1]
            for i, col in enumerate(result.columns):
                if col.name == name or col.name == bare:
                    return row[i]
        if expr.label == L.LITERAL_NUM and isinstance(expr.value, int):
            # ORDER BY ordinal position
            idx = int(expr.value) - 1
            if 0 <= idx < len(row):
                return row[idx]
        # fall back: build a pseudo relation over the output columns
        relation = Relation(
            columns=[
                RelColumn(c.name, None, c.dtype, c.source) for c in result.columns
            ],
            rows=[row],
        )
        return self._eval_expr(expr, Environment(relation, row))

    def _limit(
        self, result: ResultTable, limit: Node, env: Optional[Environment]
    ) -> ResultTable:
        count = int(self._eval_expr(limit.children[0], Environment(parent=env)))
        offset = 0
        if len(limit.children) > 1:
            offset = int(self._eval_expr(limit.children[1], Environment(parent=env)))
        return ResultTable(result.columns, result.rows[offset : offset + count])

    # -- output schema ---------------------------------------------------------------

    def _expanded_select_items(self, relation: Relation, select: Node) -> list[Node]:
        """Expand ``*`` into one select item per relation column."""
        items: list[Node] = []
        for item in select.children:
            expr = item.children[0]
            if expr.label == L.STAR and expr.value in ("*", None):
                for col in relation.columns:
                    items.append(
                        Node(
                            L.SELECT_ITEM,
                            None,
                            [Node(L.COLUMN, col.qualified or col.name)],
                        )
                    )
            else:
                items.append(item)
        return items

    def _output_columns(
        self, relation: Relation, select: Node, grouped: bool = False
    ) -> list[ResultColumn]:
        columns: list[ResultColumn] = []
        for item in self._expanded_select_items(relation, select):
            expr = item.children[0]
            alias = None
            if len(item.children) > 1 and item.children[1].label == L.ALIAS:
                alias = str(item.children[1].value)
            name, dtype, source, is_agg = self._describe_expr(expr, relation)
            columns.append(
                ResultColumn(
                    name=alias or name,
                    dtype=dtype,
                    source=source,
                    is_aggregate=is_agg,
                )
            )
        # de-duplicate output names deterministically
        seen: dict[str, int] = {}
        for col in columns:
            if col.name in seen:
                seen[col.name] += 1
                col.name = f"{col.name}_{seen[col.name]}"
            else:
                seen[col.name] = 0
        return columns

    def _describe_expr(
        self, expr: Node, relation: Relation
    ) -> tuple[str, DataType, Optional[str], bool]:
        """(output name, type, source attribute, is_aggregate) of an expression."""
        if expr.label == L.COLUMN:
            name = str(expr.value)
            qualifier, bare = None, name
            if "." in name:
                qualifier, bare = name.split(".", 1)
            idx = relation.find(bare, qualifier)
            if idx is not None:
                col = relation.columns[idx]
                return bare, col.dtype, col.source, col.is_aggregate
            return bare, self.catalog.attribute_type(name), self.catalog.qualified_name(name), False
        if expr.label == L.FUNC:
            fname = str(expr.value)
            base = fname.removesuffix(" distinct")
            if is_aggregate(fname):
                dtype = self._aggregate_type(expr, relation)
                return base, dtype, None, True
            return base, self.catalog.function_type(fname), None, False
        if expr.label in (L.LITERAL_NUM,):
            return to_sql(expr), infer_value_type(expr.value), None, False
        if expr.label in (L.LITERAL_STR,):
            return to_sql(expr), infer_value_type(expr.value), None, False
        if expr.label in (L.IN_LIST, L.IN_QUERY, L.BETWEEN, L.IS_NULL, L.AND, L.OR, L.NOT):
            return to_sql(expr), DataType.BOOL, None, False
        if expr.label == L.BINOP:
            if expr.value in ("=", "<>", "!=", ">", "<", ">=", "<=", "LIKE"):
                return to_sql(expr), DataType.BOOL, None, False
            return to_sql(expr), DataType.FLOAT, None, contains_aggregate(expr)
        if expr.label == L.SUBQUERY:
            return to_sql(expr), DataType.ANY, None, False
        if expr.label == L.CASE:
            return to_sql(expr), DataType.ANY, None, False
        return to_sql(expr), DataType.ANY, None, False

    def _aggregate_type(self, expr: Node, relation: Relation) -> DataType:
        # count → INT, avg → FLOAT; sum/min/max follow their argument's type
        arg_dtype: Optional[DataType] = None
        if expr.children and expr.children[0].label == L.COLUMN:
            _, arg_dtype, _, _ = self._describe_expr(expr.children[0], relation)
        return aggregate_result_type(str(expr.value), arg_dtype)

    def _finalise(self, columns: list[ResultColumn], rows: list[tuple]) -> ResultTable:
        # refine ANY column types from observed values
        for i, col in enumerate(columns):
            if col.dtype is DataType.ANY and rows:
                observed = [row[i] for row in rows if row[i] is not None]
                if observed:
                    col.dtype = unify_all(infer_value_type(v) for v in observed)
        return ResultTable(columns, rows)

    def _finalise_columns(
        self, columns: list[ResultColumn], vectors: list[list], nrows: int
    ) -> ResultTable:
        """Column-vector counterpart of :meth:`_finalise` (same refinement)."""
        if nrows:
            for col, vec in zip(columns, vectors):
                if col.dtype is DataType.ANY:
                    observed = [v for v in vec if v is not None]
                    if observed:
                        col.dtype = unify_all(infer_value_type(v) for v in observed)
        return ResultTable.from_columns(columns, vectors, nrows)

    # -- expression evaluation ----------------------------------------------------------

    def _eval_expr(
        self,
        node: Node,
        env: Environment,
        group_rows: Optional[list[tuple]] = None,
        relation: Optional[Relation] = None,
    ) -> object:
        label = node.label

        if label == L.LITERAL_NUM or label == L.LITERAL_STR or label == L.LITERAL_BOOL:
            return node.value
        if label == L.LITERAL_NULL:
            return None
        if label == L.COLUMN:
            found, value = env.lookup(str(node.value))
            if not found:
                raise ExecutionError(f"unknown column {node.value!r}")
            return value
        if label == L.STAR:
            return 1  # count(*) argument
        if label == L.NEG:
            value = self._eval_expr(node.children[0], env, group_rows, relation)
            return None if value is None else -value
        if label == L.AND:
            for child in node.children:
                if not self._truthy(
                    self._eval_expr(child, env, group_rows, relation)
                ):
                    return False
            return True
        if label == L.OR:
            for child in node.children:
                if self._truthy(self._eval_expr(child, env, group_rows, relation)):
                    return True
            return False
        if label == L.NOT:
            return not self._truthy(
                self._eval_expr(node.children[0], env, group_rows, relation)
            )
        if label == L.BINOP:
            return self._eval_binop(node, env, group_rows, relation)
        if label == L.BETWEEN:
            value = self._eval_expr(node.children[0], env, group_rows, relation)
            lo = self._eval_expr(node.children[1], env, group_rows, relation)
            hi = self._eval_expr(node.children[2], env, group_rows, relation)
            if value is None or lo is None or hi is None:
                return False
            return lo <= value <= hi
        if label == L.IN_LIST:
            value = self._eval_expr(node.children[0], env, group_rows, relation)
            options = [
                self._eval_expr(c, env, group_rows, relation)
                for c in node.children[1:]
            ]
            return value in options
        if label == L.IN_QUERY:
            value = self._eval_expr(node.children[0], env, group_rows, relation)
            sub = self.execute(node.children[1], env)
            if not sub.columns:
                return False
            return value in set(row[0] for row in sub.rows)
        if label == L.IS_NULL:
            value = self._eval_expr(node.children[0], env, group_rows, relation)
            result = value is None
            return not result if node.value == "NOT" else result
        if label == L.FUNC:
            return self._eval_func(node, env, group_rows, relation)
        if label == L.SUBQUERY:
            sub = self.execute(node, env)
            # scalar context: take the first value (matches SQLite behaviour)
            return sub.rows[0][0] if sub.rows else None
        if label == L.CASE:
            for child in node.children:
                if child.label == L.WHEN:
                    cond, result = child.children
                    if self._truthy(self._eval_expr(cond, env, group_rows, relation)):
                        return self._eval_expr(result, env, group_rows, relation)
                else:
                    return self._eval_expr(child, env, group_rows, relation)
            return None
        raise ExecutionError(f"cannot evaluate expression node {label!r}")

    def _eval_binop(
        self,
        node: Node,
        env: Environment,
        group_rows: Optional[list[tuple]],
        relation: Optional[Relation],
    ) -> object:
        op = str(node.value)
        left = self._eval_expr(node.children[0], env, group_rows, relation)
        right = self._eval_expr(node.children[1], env, group_rows, relation)
        if op in ("=", "<>", "!=", ">", "<", ">=", "<="):
            return compare_values(op, left, right)
        if op == "LIKE":
            return like(left, right)
        if left is None or right is None:
            return None
        if op in ("+", "-", "*", "/", "%", "||"):
            return arith_values(op, left, right)
        raise ExecutionError(f"unsupported operator {op!r}")

    def _eval_func(
        self,
        node: Node,
        env: Environment,
        group_rows: Optional[list[tuple]],
        relation: Optional[Relation],
    ) -> object:
        name = str(node.value)
        base = name.removesuffix(" distinct")
        distinct = name.endswith(" distinct")

        if is_aggregate(name):
            if group_rows is None or relation is None:
                # aggregate outside a grouping context: treat the current row
                # as a single-row group (occurs in scalar subqueries)
                group_rows = [env.row] if env.row is not None else []
                relation = env.relation
            arg_values = []
            for row in group_rows:
                row_env = Environment(relation, row, parent=env.parent)
                if node.children and node.children[0].label != L.STAR:
                    arg_values.append(self._eval_expr(node.children[0], row_env))
                else:
                    arg_values.append(1)
            if distinct:
                seen = set()
                unique = []
                for v in arg_values:
                    if v not in seen:
                        seen.add(v)
                        unique.append(v)
                arg_values = unique
            return AGGREGATE_FUNCTIONS[base](arg_values)

        if base not in SCALAR_FUNCTIONS:
            raise ExecutionError(f"unknown function {base!r}")
        args = [
            self._eval_expr(c, env, group_rows, relation) for c in node.children
        ]
        return SCALAR_FUNCTIONS[base](*args)

    @staticmethod
    def _truthy(value: object) -> bool:
        return bool(value)

