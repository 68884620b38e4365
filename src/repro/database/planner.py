"""Logical query plans for the SELECT executor.

The planner compiles a parsed SELECT AST into a small logical plan — a tree
of relational operators (scan → filter → join → group → project → order →
limit) in the style of Opteryx's AST → plan → execute DAG — which the
columnar engine (:mod:`repro.database.columnar`) then runs.  Planning is
where the optimisations that matter for the MCTS reward loop's query
traffic live:

* **hash equi-joins** — ``JOIN ... ON a = b`` conditions and comma-join
  ``WHERE`` equality conjuncts become :class:`HashJoinOp` nodes (build on the
  right input, probe from the left, preserving nested-loop row order), so a
  two-table join costs O(|L| + |R| + |out|) instead of O(|L|·|R|);
* **predicate pushdown** — ``WHERE`` conjuncts that reference a single FROM
  item are evaluated directly above that item's scan, before any join
  multiplies rows;
* **projection pruning** — base-table scans materialise only the columns the
  statement actually references;
* **static FROM-subquery schemas** — a FROM subquery that projects columns
  and aggregates of one base table gets its output schema at plan time, so
  it takes part in hash joins and its single-item conjuncts filter directly
  above its scan.

Joins always run in FROM order, left-deep, with no cost-based reordering,
so every plan emits rows in the interpreter's order.  The planner is
deliberately conservative: any construct it cannot prove safe (subqueries
inside candidate predicates, FROM subqueries with statically unknown
schemas, non-equi join conditions, dtype combinations whose equality
semantics rely on the executor's value coercion) falls back to the
cross-join + filter strategy of the original interpreter, so planned
execution is result-identical — including row order — to interpreting the
AST node by node.  The planner's :meth:`Planner.outer_refs` scope analysis
also tells the columnar engine which outer columns an expression subquery
reads, so the engine runs it once per distinct binding of them — once in all
when there are none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence, Union

from ..sqlparser import L, Node, to_sql
from .catalog import Catalog
from .functions import is_aggregate
from .table import RelColumn, Relation
from .types import DataType, aggregate_result_type


class PlanningError(Exception):
    """Raised when a SELECT AST cannot be compiled into a plan."""


# ---------------------------------------------------------------------------
# plan statistics (wired into PipelineResult diagnostics by core.pipeline)
# ---------------------------------------------------------------------------


@dataclass
class PlanStats:
    """Counters describing planner and executor activity.

    ``core.pipeline`` attaches the executor's instance of this object to
    :class:`repro.core.config.PipelineResult` so benchmarks and callers can
    see how much work the plan layer saved.
    """

    plans_compiled: int = 0
    plan_cache_hits: int = 0
    hash_joins_planned: int = 0
    nested_loop_joins_planned: int = 0
    cross_joins_planned: int = 0
    predicates_pushed: int = 0
    columns_pruned: int = 0
    hash_joins_executed: int = 0
    cross_joins_executed: int = 0
    #: vectorized block-wise nested-loop joins executed
    nested_loop_joins_columnar: int = 0
    columnar_executions: int = 0
    #: column gathers avoided by chaining multi-conjunct filters over one
    #: shared selection-index vector instead of re-gathering per predicate
    filter_gathers_saved: int = 0
    result_cache_hits: int = 0
    result_cache_misses: int = 0

    #: constant zeros, kept readable for callers that sum them: every
    #: planned statement runs on the columnar engine, so none is plan-gated
    #: or falls back
    columnar_plan_gated: ClassVar[int] = 0
    columnar_fallbacks: ClassVar[int] = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


# ---------------------------------------------------------------------------
# plan operators
# ---------------------------------------------------------------------------


@dataclass
class ScanOp:
    """Scan a base table, keeping only the referenced columns."""

    table: str
    qualifier: str
    schema: list[RelColumn]
    #: indices into the base table's column list; ``None`` keeps every column
    column_indices: Optional[list[int]] = None
    #: single-table predicates pushed below the join (applied after the scan)
    predicates: list[Node] = field(default_factory=list)


@dataclass
class SubqueryScanOp:
    """Execute a FROM-clause subquery.

    ``schema`` is derived statically when the subquery is a plain projection
    of a single base table (which also makes the item eligible for hash joins
    and predicate classification); otherwise it stays ``None`` and the schema
    is only known at run time.
    """

    stmt: Node
    alias: Optional[str]
    schema: Optional[list[RelColumn]] = None


@dataclass
class FilterOp:
    """Apply pushed predicates above an operator whose scans cannot hold them."""

    child: "PlanOp"
    predicates: list[Node]
    schema: Optional[list[RelColumn]] = None


@dataclass
class HashJoinOp:
    """Equi-join: build a hash table on the right input, probe from the left.

    Probing left rows in order and emitting right matches in right-row order
    reproduces the exact row order of the interpreter's cross-join + filter,
    so planned results are byte-identical.  ``residual`` holds non-equi ON
    conjuncts, applied after matching and (for outer joins) before padding.
    """

    left: "PlanOp"
    right: "PlanOp"
    left_key_idx: list[int]
    right_key_idx: list[int]
    join_type: str = "INNER"  # INNER / LEFT / RIGHT
    residual: Optional[Node] = None
    schema: Optional[list[RelColumn]] = None


@dataclass
class NestedLoopJoinOp:
    """Fallback join: cross product + predicate filter (+ outer padding)."""

    left: "PlanOp"
    right: "PlanOp"
    condition: Optional[Node]
    join_type: str = "INNER"
    schema: Optional[list[RelColumn]] = None


@dataclass
class CrossJoinOp:
    """Cartesian product of two inputs (no usable join predicate)."""

    left: "PlanOp"
    right: "PlanOp"
    schema: Optional[list[RelColumn]] = None


PlanOp = Union[ScanOp, SubqueryScanOp, FilterOp, HashJoinOp, NestedLoopJoinOp, CrossJoinOp]


@dataclass
class Plan:
    """A compiled SELECT: a source operator tree plus the clause stages."""

    source: Optional[PlanOp]           # None for FROM-less selects
    residual_where: Optional[Node]     # conjuncts not pushed / not join keys
    select: Node
    groupby: Optional[Node] = None
    having: Optional[Node] = None
    orderby: Optional[Node] = None
    limit: Optional[Node] = None
    distinct: bool = False
    has_aggregates: bool = False

    # -- debugging / diagnostics ----------------------------------------

    def explain(self) -> str:
        """A compact indented rendering of the plan (top stage first)."""
        lines: list[str] = []
        if self.limit is not None:
            lines.append("Limit")
        if self.orderby is not None:
            lines.append("OrderBy")
        if self.distinct:
            lines.append("Distinct")
        if self.groupby is not None or self.has_aggregates:
            lines.append("GroupAggregate")
        lines.append("Project")
        if self.residual_where is not None:
            lines.append(f"Filter: {to_sql(self.residual_where)}")
        out = [f"{'  ' * i}{name}" for i, name in enumerate(lines)]
        depth = len(lines)
        if self.source is None:
            out.append(f"{'  ' * depth}SingleRow")
        else:
            out.extend(_explain_op(self.source, depth))
        return "\n".join(out)


def _explain_op(op: PlanOp, depth: int) -> list[str]:
    pad = "  " * depth
    if isinstance(op, ScanOp):
        cols = "*" if op.column_indices is None else ", ".join(
            c.name for c in op.schema
        )
        line = f"{pad}Scan {op.table} [{cols}]"
        if op.predicates:
            preds = " AND ".join(to_sql(p) for p in op.predicates)
            line += f" filter: {preds}"
        return [line]
    if isinstance(op, SubqueryScanOp):
        return [f"{pad}SubqueryScan as {op.alias or '?'}"]
    if isinstance(op, FilterOp):
        preds = " AND ".join(to_sql(p) for p in op.predicates)
        return [f"{pad}Filter: {preds}"] + _explain_op(op.child, depth + 1)
    if isinstance(op, HashJoinOp):
        keys = ", ".join(
            f"{op.left.schema[li].qualified} = {op.right.schema[ri].qualified}"
            for li, ri in zip(op.left_key_idx, op.right_key_idx)
        )
        head = f"{pad}HashJoin[{op.join_type}] on {keys}"
        if op.residual is not None:
            head += f" residual: {to_sql(op.residual)}"
        return [head] + _explain_op(op.left, depth + 1) + _explain_op(op.right, depth + 1)
    if isinstance(op, NestedLoopJoinOp):
        cond = to_sql(op.condition) if op.condition is not None else "true"
        return (
            [f"{pad}NestedLoopJoin[{op.join_type}] on {cond}"]
            + _explain_op(op.left, depth + 1)
            + _explain_op(op.right, depth + 1)
        )
    if isinstance(op, CrossJoinOp):
        return (
            [f"{pad}CrossJoin"]
            + _explain_op(op.left, depth + 1)
            + _explain_op(op.right, depth + 1)
        )
    raise PlanningError(f"unknown plan operator {op!r}")


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------


class Planner:
    """Compiles SELECT statement ASTs into :class:`Plan` objects.

    Args:
        catalog: the schemas scans and FROM subqueries are planned against.
        stats: shared counters (defaults to a private instance).
    """

    def __init__(self, catalog: Catalog, stats: Optional[PlanStats] = None) -> None:
        self.catalog = catalog
        self.stats = stats or PlanStats()

    # -- public API --------------------------------------------------------

    def plan(self, stmt: Node) -> Plan:
        if stmt.label != L.SELECT_STMT:
            raise PlanningError(f"cannot plan node {stmt.label!r}")
        clauses = {child.label: child for child in stmt.children}
        select = clauses.get(L.SELECT_CLAUSE)
        if select is None:
            raise PlanningError("SELECT statement without a projection list")

        referenced = self._referenced_columns(stmt, select)
        where = clauses.get(L.WHERE_CLAUSE)
        predicate = where.children[0] if where is not None else None

        from_clause = clauses.get(L.FROM_CLAUSE)
        if from_clause is None:
            source, residual = None, predicate
        else:
            source, residual = self._plan_from(from_clause, predicate, referenced)

        groupby = clauses.get(L.GROUPBY_CLAUSE)
        having = clauses.get(L.HAVING_CLAUSE)
        self.stats.plans_compiled += 1
        return Plan(
            source=source,
            residual_where=residual,
            select=select,
            groupby=groupby,
            having=having,
            orderby=clauses.get(L.ORDERBY_CLAUSE),
            limit=clauses.get(L.LIMIT_CLAUSE),
            distinct=select.value == "DISTINCT",
            has_aggregates=contains_aggregate(select) or having is not None,
        )

    # -- subquery correlation -------------------------------------------------

    def outer_refs(self, stmt: Node, outer_scopes: tuple = ()) -> Optional[frozenset]:
        """The column names ``stmt`` reads from enclosing scopes.

        Collects every column reference — in the statement's own
        expressions, in its expression subqueries (checked recursively with
        the scope chain extended), and in its FROM subqueries and LIMIT
        (checked against ``outer_scopes`` only: they run without the
        statement's relation) — that resolves nowhere inside the statement's
        own scope chain.  An empty set means the statement never consults an
        outer row; ``None`` means the scope cannot be derived (unknown table,
        FROM subquery without a static schema).  The columnar engine runs an
        expression subquery once per distinct binding of these names.
        """
        if stmt.label == L.SUBQUERY:
            stmt = stmt.children[0]
        scope = self._stmt_scope(stmt)
        if scope is None:
            return None
        bare, qualified, from_substmts = scope
        scopes = ((bare, qualified), *outer_scopes)
        refs: set = set()
        stack: list[tuple[Node, tuple]] = [(sub, outer_scopes) for sub in from_substmts]
        for clause in stmt.children:
            if clause.label == L.FROM_CLAUSE:
                # table refs were consumed by _stmt_scope; only the JOIN ON
                # conditions carry expressions to check at this scope level
                stack.extend((on, scopes) for on in _iter_join_conditions(clause))
            else:
                limit = clause.label == L.LIMIT_CLAUSE
                stack.append((clause, outer_scopes if limit else scopes))
        while stack:
            n, visible = stack.pop()
            if n.label in (L.SUBQUERY, L.SELECT_STMT):
                inner = self.outer_refs(n, visible)
                if inner is None:
                    return None
                refs |= inner
                continue
            if n.label == L.COLUMN and not _scopes_resolve(visible, str(n.value)):
                refs.add(str(n.value))
            stack.extend((c, visible) for c in n.children)
        return frozenset(refs)

    def _stmt_scope(
        self, stmt: Node
    ) -> Optional[tuple[set, set, list[Node]]]:
        """Column names visible inside one statement's own FROM clause.

        Returns ``(bare_names, (qualifier, name) pairs, FROM-subquery
        statements)`` or ``None`` when the scope cannot be derived (unknown
        table, FROM subquery without a statically derivable schema).
        """
        if stmt.label != L.SELECT_STMT:
            return None
        from_clause = next(
            (c for c in stmt.children if c.label == L.FROM_CLAUSE), None
        )
        bare: set = set()
        qualified: set = set()
        substmts: list[Node] = []
        if from_clause is None:
            return bare, qualified, substmts
        stack = list(from_clause.children)
        while stack:
            ref = stack.pop()
            if ref.label == L.JOIN:
                stack.extend(ref.children[:2])
                continue
            if ref.label != L.TABLE_REF:
                return None
            source = ref.children[0]
            alias = None
            if len(ref.children) > 1 and ref.children[1].label == L.ALIAS:
                alias = str(ref.children[1].value)
            if source.label == L.TABLE_NAME:
                name = str(source.value)
                if not self.catalog.has_table(name):
                    return None
                table = self.catalog.table(name)
                qualifier = (alias or table.name).lower()
                for col in table.columns:
                    bare.add(col.name)
                    qualified.add((qualifier, col.name))
            elif source.label == L.SUBQUERY:
                op = SubqueryScanOp(source.children[0], alias)
                self._derive_subquery_schema(op)
                if op.schema is None:
                    return None
                for col in op.schema:
                    bare.add(col.name)
                    if col.qualifier is not None:
                        qualified.add((col.qualifier.lower(), col.name))
                substmts.append(source.children[0])
            else:
                return None
        return bare, qualified, substmts

    # -- projection pruning -------------------------------------------------

    def _referenced_columns(
        self, stmt: Node, select: Node
    ) -> Optional[tuple[set, set]]:
        """Column names referenced anywhere in the statement.

        Returns ``(bare_names, qualified_pairs)`` where ``qualified_pairs``
        holds lowercase ``(qualifier, name)`` tuples, or ``None`` when a bare
        ``*`` projection forces every column to be materialised.  The walk
        includes subqueries, so correlated references keep their columns.
        """
        for item in select.children:
            expr = item.children[0]
            if expr.label == L.STAR and expr.value in ("*", None):
                return None
        bare: set = set()
        qualified: set = set()
        for node in stmt.walk():
            if node.label != L.COLUMN:
                continue
            name = str(node.value)
            if "." in name:
                q, b = name.split(".", 1)
                qualified.add((q.lower(), b))
            else:
                bare.add(name)
        return bare, qualified

    # -- FROM planning -------------------------------------------------------

    def _plan_from(
        self,
        from_clause: Node,
        predicate: Optional[Node],
        referenced: Optional[tuple[set, set]],
    ) -> tuple[PlanOp, Optional[Node]]:
        items = [self._plan_table_ref(ref, referenced) for ref in from_clause.children]
        schemas = [op.schema for op in items]
        known = all(s is not None for s in schemas)

        conjuncts = _split_conjuncts(predicate) if predicate is not None else []
        pushed: list[list[Node]] = [[] for _ in items]
        join_keys: list[tuple[int, int, int, int]] = []  # (i, li, j, lj), i < j
        residual: list[Node] = []

        if known:
            for conj in conjuncts:
                target = self._classify_conjunct(conj, schemas)
                if target is None:
                    residual.append(conj)
                elif isinstance(target, int):
                    pushed[target].append(conj)
                    self.stats.predicates_pushed += 1
                else:
                    join_keys.append(target)
        else:
            residual = list(conjuncts)

        # attach single-item predicates directly above their item
        for idx, preds in enumerate(pushed):
            if not preds:
                continue
            op = items[idx]
            if isinstance(op, ScanOp):
                op.predicates.extend(preds)
            else:
                items[idx] = FilterOp(op, preds, schema=op.schema)

        # left-deep chain in FROM order: a join key attaches at its later item
        acc = items[0]
        offsets = [0]
        for j in range(1, len(items)):
            offsets.append(offsets[-1] + len(schemas[j - 1] or []))
            keys = [(offsets[i] + li, lj) for (i, li, b, lj) in join_keys if b == j]
            right = items[j]
            if keys:
                acc = HashJoinOp(
                    acc,
                    right,
                    [k[0] for k in keys],
                    [k[1] for k in keys],
                    "INNER",
                    schema=acc.schema + right.schema,
                )
                self.stats.hash_joins_planned += 1
            else:
                acc = CrossJoinOp(
                    acc,
                    right,
                    schema=(acc.schema + right.schema) if known else None,
                )
                self.stats.cross_joins_planned += 1
        return acc, _combine_conjuncts(residual)

    def _plan_table_ref(
        self, ref: Node, referenced: Optional[tuple[set, set]]
    ) -> PlanOp:
        if ref.label == L.JOIN:
            return self._plan_join(ref, referenced)
        if ref.label != L.TABLE_REF:
            raise PlanningError(f"unexpected FROM element {ref.label!r}")
        source = ref.children[0]
        alias = None
        if len(ref.children) > 1 and ref.children[1].label == L.ALIAS:
            alias = str(ref.children[1].value)

        if source.label == L.TABLE_NAME:
            return self._plan_scan(str(source.value), alias, referenced)
        if source.label == L.SUBQUERY:
            op = SubqueryScanOp(source.children[0], alias)
            self._derive_subquery_schema(op)
            return op
        raise PlanningError(f"unsupported table reference {source.label!r}")

    def _derive_subquery_schema(self, op: SubqueryScanOp) -> None:
        """Statically derive the output schema of a simple FROM subquery.

        Succeeds for a (optionally DISTINCT) projection of columns, ``*`` and
        aggregate calls over a single base table — including GROUP BY /
        HAVING shapes — exactly the forms whose runtime ``ResultTable``
        schema the planner can predict, column for column.  On success the
        subquery item participates in predicate classification and hash
        joins like a base scan, and :meth:`outer_refs` can resolve names
        against it.
        """
        stmt = op.stmt
        if stmt.label != L.SELECT_STMT:
            return
        clauses = {c.label: c for c in stmt.children}
        select = clauses.get(L.SELECT_CLAUSE)
        from_clause = clauses.get(L.FROM_CLAUSE)
        if select is None or from_clause is None or len(from_clause.children) != 1:
            return
        ref = from_clause.children[0]
        if ref.label != L.TABLE_REF or ref.children[0].label != L.TABLE_NAME:
            return
        table_name = str(ref.children[0].value)
        if not self.catalog.has_table(table_name):
            return
        table = self.catalog.table(table_name)
        inner_alias = None
        if len(ref.children) > 1 and ref.children[1].label == L.ALIAS:
            inner_alias = str(ref.children[1].value)
        inner_qualifier = inner_alias or table.name

        # (output name, dtype, source, is_agg)
        out: list[tuple[str, DataType, Optional[str], bool]] = []
        for item in select.children:
            expr = item.children[0]
            item_alias = None
            if len(item.children) > 1 and item.children[1].label == L.ALIAS:
                item_alias = str(item.children[1].value)
            if expr.label == L.STAR and expr.value in ("*", None):
                if item_alias is not None:
                    return
                out.extend(
                    (c.name, c.dtype, f"{table.name}.{c.name}", False)
                    for c in table.columns
                )
                continue
            if expr.label == L.COLUMN:
                bare = _table_column(expr, table, inner_qualifier)
                if bare is None:
                    return
                col = table.column(bare)
                out.append(
                    (item_alias or bare, col.dtype, f"{table.name}.{col.name}", False)
                )
                continue
            if expr.label == L.FUNC and is_aggregate(str(expr.value)):
                dtype = self._static_aggregate_type(expr, table, inner_qualifier)
                if dtype is None:
                    return
                base = str(expr.value).removesuffix(" distinct")
                out.append((item_alias or base, dtype, None, True))
                continue
            return

        # deduplicate output names exactly like the executor's output schema
        seen: dict[str, int] = {}
        schema: list[RelColumn] = []
        for out_name, dtype, source, is_agg in out:
            if out_name in seen:
                seen[out_name] += 1
                out_name = f"{out_name}_{seen[out_name]}"
            else:
                seen[out_name] = 0
            schema.append(
                RelColumn(
                    name=out_name,
                    qualifier=op.alias,
                    dtype=dtype,
                    source=source,
                    is_aggregate=is_agg,
                )
            )
        op.schema = schema

    def _static_aggregate_type(
        self, expr: Node, table, qualifier: str
    ) -> Optional[DataType]:
        """Plan-time output type of an aggregate call, or ``None`` to bail.

        Supports ``count(*)`` and aggregates over a plain column of the
        subquery's table; anything else (computed arguments, unresolvable
        columns) leaves the schema underivable so the item conservatively
        keeps its run-time-only schema.
        """
        base = str(expr.value).removesuffix(" distinct")
        arg_dtype: Optional[DataType] = None
        if expr.children and expr.children[0].label != L.STAR:
            arg = expr.children[0]
            if arg.label != L.COLUMN:
                return None
            bare = _table_column(arg, table, qualifier)
            if bare is None:
                return None
            arg_dtype = table.column(bare).dtype
        elif base in ("sum", "min", "max", "avg") and not expr.children:
            return None
        if base in ("sum", "min", "max") and arg_dtype is None:
            return None
        return aggregate_result_type(str(expr.value), arg_dtype)

    def _plan_scan(
        self,
        table_name: str,
        alias: Optional[str],
        referenced: Optional[tuple[set, set]],
    ) -> ScanOp:
        table = self.catalog.table(table_name)
        qualifier = alias or table.name
        keep: Optional[list[int]] = None
        if referenced is not None:
            bare, qualified = referenced
            q = qualifier.lower()
            keep = [
                i
                for i, c in enumerate(table.columns)
                if c.name in bare or (q, c.name) in qualified
            ]
            if len(keep) == len(table.columns):
                keep = None
            else:
                self.stats.columns_pruned += len(table.columns) - len(keep)
        columns = table.columns if keep is None else [table.columns[i] for i in keep]
        schema = [
            RelColumn(
                name=c.name,
                qualifier=qualifier,
                dtype=c.dtype,
                source=f"{table.name}.{c.name}",
            )
            for c in columns
        ]
        return ScanOp(
            table=table.name,
            qualifier=qualifier,
            schema=schema,
            column_indices=keep,
        )

    def _plan_join(self, join: Node, referenced: Optional[tuple[set, set]]) -> PlanOp:
        left = self._plan_table_ref(join.children[0], referenced)
        right = self._plan_table_ref(join.children[1], referenced)
        condition = join.children[2].children[0]
        join_type = str(join.value or "INNER")

        if left.schema is None or right.schema is None:
            self.stats.nested_loop_joins_planned += 1
            return NestedLoopJoinOp(left, right, condition, join_type)

        keys: list[tuple[int, int]] = []
        residual: list[Node] = []
        for conj in _split_conjuncts(condition):
            key = self._equi_key(conj, left.schema, right.schema)
            if key is not None:
                keys.append(key)
            else:
                residual.append(conj)
        if not keys:
            self.stats.nested_loop_joins_planned += 1
            return NestedLoopJoinOp(
                left, right, condition, join_type, schema=left.schema + right.schema
            )
        self.stats.hash_joins_planned += 1
        return HashJoinOp(
            left,
            right,
            [k[0] for k in keys],
            [k[1] for k in keys],
            join_type,
            residual=_combine_conjuncts(residual),
            schema=left.schema + right.schema,
        )

    # -- conjunct classification ---------------------------------------------

    def _classify_conjunct(
        self, conj: Node, schemas: Sequence[Optional[list[RelColumn]]]
    ) -> Optional[object]:
        """Classify one WHERE conjunct against the top-level FROM items.

        Returns an item index (pushable single-item predicate), an
        ``(i, li, j, lj)`` join-key tuple with ``i < j`` (hash-joinable
        equality), or ``None`` (residual).
        """
        columns = _collect_columns(conj)
        if columns is None or not columns:
            return None
        located = []
        for name in columns:
            loc = _resolve_item(schemas, name)
            if loc is None:
                return None  # outer / unknown reference: keep at the top
            located.append(loc)
        item_indices = {item for item, _ in located}
        if len(item_indices) == 1:
            return located[0][0]
        # two-item equality between plain columns → hash-join key candidate
        if (
            len(item_indices) == 2
            and conj.label == L.BINOP
            and conj.value == "="
            and len(conj.children) == 2
            and conj.children[0].label == L.COLUMN
            and conj.children[1].label == L.COLUMN
        ):
            (i, li), (j, lj) = located[0], located[1]
            if i != j and _hash_compatible(
                schemas[i][li].dtype, schemas[j][lj].dtype
            ):
                if i < j:
                    return (i, li, j, lj)
                return (j, lj, i, li)
        return None

    def _equi_key(
        self, conj: Node, left: list[RelColumn], right: list[RelColumn]
    ) -> Optional[tuple[int, int]]:
        """``(left_idx, right_idx)`` when the conjunct is a hashable equality."""
        if not (
            conj.label == L.BINOP
            and conj.value == "="
            and len(conj.children) == 2
            and conj.children[0].label == L.COLUMN
            and conj.children[1].label == L.COLUMN
        ):
            return None
        # resolve over the combined schema exactly as the interpreter's
        # first-match lookup over the cross-joined relation would
        combined = left + right
        a = _resolve_in_schema(combined, str(conj.children[0].value))
        b = _resolve_in_schema(combined, str(conj.children[1].value))
        if a is None or b is None:
            return None
        if a < len(left) and b >= len(left):
            li, ri = a, b - len(left)
        elif b < len(left) and a >= len(left):
            li, ri = b, a - len(left)
        else:
            return None  # both bind to the same side: not a join predicate
        if not _hash_compatible(left[li].dtype, right[ri].dtype):
            return None
        return li, ri


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _table_column(expr: Node, table, qualifier: str) -> Optional[str]:
    """The bare column name when ``expr`` is a plain reference to ``table``.

    Accepts an unqualified name or one qualified by the item's alias / table
    name (case-insensitively); returns ``None`` for anything else.
    """
    if expr.label != L.COLUMN:
        return None
    name = str(expr.value)
    col_qualifier, bare = None, name
    if "." in name:
        col_qualifier, bare = name.split(".", 1)
    if col_qualifier is not None and col_qualifier.lower() != qualifier.lower():
        return None
    if not table.has_column(bare):
        return None
    return bare


def _iter_join_conditions(from_clause: Node):
    """The ON conditions of a FROM clause's explicit JOIN trees.

    Descends only through the JOIN structure (children 0 and 1), never into
    the conditions themselves — a JOIN inside a subquery in an ON condition
    belongs to that subquery's scope, not this one.
    """
    stack = list(from_clause.children)
    while stack:
        ref = stack.pop()
        if ref.label == L.JOIN:
            stack.extend(ref.children[:2])
            if len(ref.children) > 2:
                yield ref.children[2]


def _scopes_resolve(scopes: tuple, name: str) -> bool:
    """True when a (possibly qualified) column name resolves in any scope.

    Mirrors the executor's chained :class:`Environment` lookup: bare names
    match any column of any scope; qualified names match case-insensitively
    on the qualifier.
    """
    qualifier: Optional[str] = None
    bare = name
    if "." in name:
        qualifier, bare = name.split(".", 1)
        qualifier = qualifier.lower()
    for bares, qualifieds in scopes:
        if qualifier is None:
            if bare in bares:
                return True
        elif (qualifier, bare) in qualifieds:
            return True
    return False


def _split_conjuncts(node: Node) -> list[Node]:
    """Flatten nested AND nodes into a conjunct list."""
    if node.label == L.AND:
        out: list[Node] = []
        for child in node.children:
            out.extend(_split_conjuncts(child))
        return out
    return [node]


def _combine_conjuncts(conjuncts: list[Node]) -> Optional[Node]:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return Node(L.AND, None, conjuncts)


def _collect_columns(node: Node) -> Optional[list[str]]:
    """All column names in a predicate, or ``None`` when it has a subquery.

    Subqueries may contain correlated references into sibling FROM items, so
    predicates containing them are never pushed or turned into join keys.
    """
    columns: list[str] = []
    for n in node.walk():
        if n.label in (L.SUBQUERY, L.IN_QUERY):
            return None
        if n.label == L.COLUMN:
            columns.append(str(n.value))
    return columns


def _resolve_in_schema(schema: list[RelColumn], name: str) -> Optional[int]:
    """First-match column resolution, delegating to ``Relation.find`` so the
    planner's name binding can never drift from the executor's lookup."""
    qualifier: Optional[str] = None
    bare = name
    if "." in name:
        qualifier, bare = name.split(".", 1)
    return Relation(columns=schema).find(bare, qualifier)


def _resolve_item(
    schemas: Sequence[Optional[list[RelColumn]]], name: str
) -> Optional[tuple[int, int]]:
    """Resolve a column over the concatenated item schemas, in item order.

    Mirrors the interpreter's lookup over the cross-joined relation: the
    first matching column (left to right) wins.
    """
    for item, schema in enumerate(schemas):
        if schema is None:
            return None
        idx = _resolve_in_schema(schema, name)
        if idx is not None:
            return item, idx
    return None


def _hash_compatible(a: DataType, b: DataType) -> bool:
    """True when raw-value hashing matches the executor's ``=`` semantics.

    Numeric pairs are safe because Python guarantees ``hash(1) == hash(1.0)``;
    textual pairs compare as strings on both paths.  Mixed numeric / textual
    pairs go through the executor's value coercion, which a hash table cannot
    reproduce, so they fall back to nested-loop evaluation.
    """
    numeric = (DataType.INT, DataType.FLOAT, DataType.BOOL)
    textual = (DataType.STR, DataType.DATE)
    if a in numeric and b in numeric:
        return True
    if a in textual and b in textual:
        return True
    return False


def contains_aggregate(node: Node) -> bool:
    """True when the expression contains an aggregate call of its own.

    Aggregates inside subqueries belong to the subquery.  Shared by the
    planner (grouping-stage detection) and the executor's schema description.
    """
    if node.label == L.SUBQUERY:
        return False
    if node.label == L.FUNC and is_aggregate(str(node.value)):
        return True
    return any(contains_aggregate(c) for c in node.children)
