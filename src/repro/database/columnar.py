"""Vectorized (column-major) plan execution.

This module runs the logical plans of :mod:`repro.database.planner` on whole
columns in tight loops instead of per-row tuple indexing; it executes every
planned statement, and :mod:`repro.database.executor` keeps only the AST
interpreter (the equivalence oracle) and the shared DISTINCT / ORDER BY /
LIMIT tail.  Base tables already store their data column-major, so scans are
zero-copy column references; pushed-down filters become one selection-index
pass per predicate; hash joins build on the smaller input and gather both
sides by index vectors; grouping evaluates each aggregate argument once over
the whole relation and then slices it per group.

Equivalence contract: for every supported query the columnar engine produces
a ``ResultTable`` identical — columns, dtypes, sources, and *row order* — to
the AST interpreter.  All scalar semantics (comparison coercion, NULL
propagation, LIKE, NaN join keys) are delegated to
:mod:`repro.database.values`, the single source of truth shared with the
interpreter.  LEFT / RIGHT hash joins pad unmatched preserved rows with typed
NULL columns after the residual filter, and non-equi ON conditions run
through a block-wise vectorized nested-loop join — both reproduce the
interpreter's emission order exactly.  A scalar or IN subquery with no outer
references is executed once through the owning executor and broadcast; a
correlated scalar one runs once per distinct binding of its outer references
(per group's first row under grouping) through the interpreter's own
expression evaluator, and a correlated IN one once per row.  An aggregate
outside a grouping stage treats each row as a one-row group, as the
interpreter does.
"""

from __future__ import annotations

from typing import Optional

from ..obs import span
from ..sqlparser import L, Node
from .functions import AGGREGATE_FUNCTIONS, SCALAR_FUNCTIONS, is_aggregate
from .executor import Environment, ExecutionError, Executor
from .planner import (
    CrossJoinOp,
    FilterOp,
    HashJoinOp,
    NestedLoopJoinOp,
    Plan,
    PlanOp,
    ScanOp,
    SubqueryScanOp,
    contains_aggregate,
)
from .table import RelColumn, Relation, ResultTable
from .values import (
    ARITHMETIC_OPS,
    COMPARISON_OPS,
    arith_values,
    compare_values,
    is_null_key,
    like,
    like_matcher,
    null_vector,
)


class ColumnarRelation:
    """An intermediate relation stored column-major.

    ``cols`` holds one value list per schema column; ``nrows`` is tracked
    explicitly because zero-column relations (FROM-less selects) still have
    a row count.  Column lists may be shared with base tables or other
    relations — operators must never mutate them in place.
    """

    __slots__ = ("columns", "cols", "nrows")

    def __init__(self, columns: list[RelColumn], cols: list[list], nrows: int) -> None:
        self.columns = columns
        self.cols = cols
        self.nrows = nrows

    def find(self, name: str, qualifier: Optional[str] = None) -> Optional[int]:
        return Relation(columns=self.columns).find(name, qualifier)

    def gather(self, indices: list[int]) -> "ColumnarRelation":
        """A new relation keeping only the given row positions, in order."""
        return ColumnarRelation(
            self.columns,
            [[col[i] for i in indices] for col in self.cols],
            len(indices),
        )


class _LazyCols:
    """Column accessor that gathers base columns through a selection vector
    on first access, caching per column index."""

    __slots__ = ("base", "sel", "cache")

    def __init__(self, base: list[list], sel: list[int]) -> None:
        self.base = base
        self.sel = sel
        self.cache: dict[int, list] = {}

    def __getitem__(self, idx: int) -> list:
        col = self.cache.get(idx)
        if col is None:
            base_col = self.base[idx]
            col = [base_col[i] for i in self.sel]
            self.cache[idx] = col
        return col

    def __len__(self) -> int:
        return len(self.base)


class _SelectionView(ColumnarRelation):
    """A row-selected view of a relation used while chaining filter conjuncts.

    Presents the rows named by ``sel`` without materialising them: columns
    gather lazily, so a predicate that references two of ten columns costs
    two gathers instead of ten.
    """

    def __init__(self, base: ColumnarRelation, sel: list[int]) -> None:
        self.columns = base.columns
        self.cols = _LazyCols(base.cols, sel)
        self.nrows = len(sel)


# vector results are tagged: (True, list_of_n_values) or (False, scalar)
_VECTOR = True
_SCALAR = False


def _broadcast(tagged: tuple, n: int) -> list:
    is_vec, payload = tagged
    return payload if is_vec else [payload] * n


class _Group:
    """One output group: its key, member row indices, and first-row index."""

    __slots__ = ("key", "indices")

    def __init__(self, key: tuple, indices: list[int]) -> None:
        self.key = key
        self.indices = indices

    @property
    def first(self) -> Optional[int]:
        return self.indices[0] if self.indices else None


class ColumnarEngine:
    """Runs compiled plans column-at-a-time on behalf of an :class:`Executor`.

    The engine delegates output-schema description, result finalisation,
    correlated-subquery evaluation and the DISTINCT / ORDER BY / LIMIT stages
    to the owning executor, so it shares one implementation with the
    interpreter of everything that is not a per-row hot loop.
    """

    def __init__(self, executor: Executor) -> None:
        self.ex = executor

    # -- plan execution ------------------------------------------------------

    def execute_plan(self, plan: Plan, env: Optional[Environment]) -> ResultTable:
        """Run source → filter → group/project; the executor runs the tail."""
        with span("columnar.execute"):
            return self._execute_plan(plan, env)

    def _execute_plan(self, plan: Plan, env: Optional[Environment]) -> ResultTable:
        stats = self.ex.stats

        def run(op: Optional[PlanOp]) -> ColumnarRelation:
            if op is None:
                return ColumnarRelation([], [], 1)  # FROM-less: one empty row
            if isinstance(op, ScanOp):
                table = self.ex.catalog.table(op.table)
                if op.column_indices is None:
                    cols = [table.column_data(i) for i in range(len(table.columns))]
                else:
                    cols = [table.column_data(i) for i in op.column_indices]
                crel = ColumnarRelation(list(op.schema), cols, len(table))
                return self._filter_chain(crel, op.predicates, env)
            if isinstance(op, SubqueryScanOp):
                sub = self.ex.execute(op.stmt, env)
                columns = [
                    RelColumn(c.name, op.alias, c.dtype, c.source, c.is_aggregate)
                    for c in sub.columns
                ]
                cols = [sub.column_data(i) for i in range(len(sub.columns))]
                return ColumnarRelation(columns, cols, len(sub))
            if isinstance(op, FilterOp):
                crel = run(op.child)
                return self._filter_chain(crel, op.predicates, env)
            if isinstance(op, HashJoinOp):
                stats.hash_joins_executed += 1
                return self._hash_join(run(op.left), run(op.right), op, env)
            if isinstance(op, NestedLoopJoinOp):
                stats.nested_loop_joins_columnar += 1
                return self._nested_loop_join(run(op.left), run(op.right), op, env)
            if isinstance(op, CrossJoinOp):
                stats.cross_joins_executed += 1
                return self._cross_join(run(op.left), run(op.right))
            raise ExecutionError(f"unknown plan operator {op!r}")

        crel = run(plan.source)
        if plan.residual_where is not None:
            crel = self._filter(crel, plan.residual_where, env)

        if plan.groupby is not None or plan.has_aggregates:
            return self._grouped(crel, plan.select, plan.groupby, plan.having, env)
        return self._project(crel, plan.select, env)

    # -- operators -----------------------------------------------------------

    def _filter(
        self,
        crel: ColumnarRelation,
        predicate: Node,
        env: Optional[Environment],
    ) -> ColumnarRelation:
        mask = self._eval(predicate, crel, env)
        if mask[0] is _SCALAR:
            if mask[1]:
                return crel
            return ColumnarRelation(crel.columns, [[] for _ in crel.cols], 0)
        keep = [i for i, v in enumerate(mask[1]) if v]
        if len(keep) == crel.nrows:
            return crel
        return crel.gather(keep)

    def _filter_chain(
        self,
        crel: ColumnarRelation,
        predicates: list[Node],
        env: Optional[Environment],
    ) -> ColumnarRelation:
        """Apply pushed conjuncts over one shared selection-index vector.

        Instead of gathering every column after each predicate, later
        predicates evaluate against a lazily-gathered *view* of the surviving
        rows — only the columns a predicate actually references are gathered
        — and the full relation is gathered exactly once after the last
        predicate.  ``PlanStats.filter_gathers_saved`` counts the per-column
        gathers the gather-per-predicate strategy would have performed on top
        of this one.
        """
        if len(predicates) <= 1:
            for pred in predicates:
                crel = self._filter(crel, pred, env)
            return crel

        ncols = len(crel.cols)
        sel: Optional[list[int]] = None
        view: ColumnarRelation = crel  # rebuilt only when the selection changes
        baseline_gathers = 0  # column gathers of the per-predicate strategy
        actual_gathers = 0

        def view_gathers() -> int:
            return len(view.cols.cache) if view is not crel else 0

        for pred in predicates:
            mask = self._eval(pred, view, env)
            if mask[0] is _SCALAR:
                if mask[1]:
                    continue
                self.ex.stats.filter_gathers_saved += max(
                    0, baseline_gathers - actual_gathers - view_gathers()
                )
                return ColumnarRelation(crel.columns, [[] for _ in crel.cols], 0)
            keep = [i for i, v in enumerate(mask[1]) if v]
            if len(keep) == view.nrows:
                continue  # nothing dropped: selection vector and view unchanged
            baseline_gathers += ncols
            actual_gathers += view_gathers()
            sel = keep if sel is None else [sel[i] for i in keep]
            view = _SelectionView(crel, sel)

        if sel is None:
            return crel
        actual_gathers += view_gathers() + ncols
        self.ex.stats.filter_gathers_saved += max(0, baseline_gathers - actual_gathers)
        return crel.gather(sel)

    def _hash_join(
        self,
        left: ColumnarRelation,
        right: ColumnarRelation,
        op: HashJoinOp,
        env: Optional[Environment],
    ) -> ColumnarRelation:
        """Order-preserving hash join that builds on the smaller input.

        Output row order is always left-major (left rows in order, each with
        its right matches in right-row order) — identical to the interpreter's
        cross-join + filter — regardless of which side the hash table is built
        on, so build-side selection is purely a cost decision.
        """
        lk, rk = op.left_key_idx, op.right_key_idx
        if len(lk) == 1:
            lkeys, rkeys = left.cols[lk[0]], right.cols[rk[0]]
        else:
            lkeys = list(zip(*(left.cols[i] for i in lk)))
            rkeys = list(zip(*(right.cols[i] for i in rk)))
        multi = len(lk) > 1

        out_l: list[int] = []
        out_r: list[int] = []
        if left.nrows <= right.nrows:
            # build on the (smaller) left, probe right, buffer matches so the
            # emission order stays left-major
            buckets: dict = {}
            for i, key in enumerate(lkeys):
                if _key_is_null(key, multi):
                    continue
                buckets.setdefault(key, []).append(i)
            matches: dict[int, list[int]] = {}
            for j, key in enumerate(rkeys):
                if _key_is_null(key, multi):
                    continue
                hit = buckets.get(key)
                if hit:
                    for i in hit:
                        matches.setdefault(i, []).append(j)
            for i in sorted(matches):
                js = matches[i]
                out_l.extend([i] * len(js))
                out_r.extend(js)
        else:
            # classic build-right / probe-left
            buckets = {}
            for j, key in enumerate(rkeys):
                if _key_is_null(key, multi):
                    continue
                buckets.setdefault(key, []).append(j)
            for i, key in enumerate(lkeys):
                if _key_is_null(key, multi):
                    continue
                hit = buckets.get(key)
                if hit:
                    out_l.extend([i] * len(hit))
                    out_r.extend(hit)

        cols = [[col[i] for i in out_l] for col in left.cols]
        cols += [[col[j] for j in out_r] for col in right.cols]
        joined = ColumnarRelation(left.columns + right.columns, cols, len(out_l))
        if op.residual is not None:
            joined = self._filter(joined, op.residual, env)
        return self._apply_outer_padding(left, right, joined, op.join_type)

    #: target cross-product rows materialised per nested-loop block; bounds
    #: peak memory while keeping each vectorized predicate pass long enough
    #: to amortise expression-dispatch overhead
    _NLJ_BLOCK = 4096

    def _nested_loop_join(
        self,
        left: ColumnarRelation,
        right: ColumnarRelation,
        op: NestedLoopJoinOp,
        env: Optional[Environment],
    ) -> ColumnarRelation:
        """Block-wise vectorized nested-loop join (non-equi ON conditions).

        Materialises the cross product a block of left rows at a time,
        evaluates the ON condition once per block over the block's column
        slices (so comparisons run through the vector fast paths instead of
        a per-row environment), and gathers the surviving ``(left, right)``
        index pairs.  Emission order is left-major — identical to the
        interpreter's cross-join + filter — and LEFT / RIGHT padding appends
        the unmatched preserved rows afterwards, exactly like the interpreter.
        """
        nl, nr = left.nrows, right.nrows
        columns = left.columns + right.columns
        out_l: list[int] = []
        out_r: list[int] = []
        if op.condition is None:
            for i in range(nl):
                out_l.extend([i] * nr)
                out_r.extend(range(nr))
        elif nr > 0:
            block = max(1, self._NLJ_BLOCK // nr)
            right_template = [col * block for col in right.cols]
            for start in range(0, nl, block):
                stop = min(start + block, nl)
                b = stop - start
                cols = [
                    [v for v in col[start:stop] for _ in range(nr)]
                    for col in left.cols
                ]
                if b == block:
                    cols += right_template
                else:
                    cols += [col * b for col in right.cols]
                brel = ColumnarRelation(columns, cols, b * nr)
                mask = self._eval(op.condition, brel, env)
                if mask[0] is _SCALAR:
                    if mask[1]:
                        for i in range(start, stop):
                            out_l.extend([i] * nr)
                            out_r.extend(range(nr))
                    continue
                for pos, keep in enumerate(mask[1]):
                    if keep:
                        out_l.append(start + pos // nr)
                        out_r.append(pos % nr)
        cols = [[col[i] for i in out_l] for col in left.cols]
        cols += [[col[j] for j in out_r] for col in right.cols]
        joined = ColumnarRelation(columns, cols, len(out_l))
        return self._apply_outer_padding(left, right, joined, op.join_type)

    def _apply_outer_padding(
        self,
        left: ColumnarRelation,
        right: ColumnarRelation,
        joined: ColumnarRelation,
        join_type: str,
    ) -> ColumnarRelation:
        """Route a filtered join result through LEFT / RIGHT padding."""
        if join_type == "LEFT":
            return self._pad_outer(left, right, joined, left_side=True)
        if join_type == "RIGHT":
            return self._pad_outer(left, right, joined, left_side=False)
        return joined

    @staticmethod
    def _pad_outer(
        left: ColumnarRelation,
        right: ColumnarRelation,
        joined: ColumnarRelation,
        left_side: bool,
    ) -> ColumnarRelation:
        """Append NULL-padded unmatched preserved rows below a filtered join.

        Mirrors the interpreter's :meth:`Executor._pad_outer` exactly,
        including its *value-tuple* matching: a preserved row counts as
        matched when any surviving join row carries the same value tuple on
        the preserved side (so duplicate rows are padded — or not — together,
        and NaN components compare by object identity in both, which agree
        because both gather the very same stored value objects).
        """
        preserved = left if left_side else right
        offset = 0 if left_side else len(left.columns)
        width = len(preserved.columns)
        matched_cols = [joined.cols[offset + c] for c in range(width)]
        matched = set()
        for i in range(joined.nrows):
            matched.add(tuple(col[i] for col in matched_cols))
        pad = [
            i
            for i in range(preserved.nrows)
            if tuple(col[i] for col in preserved.cols) not in matched
        ]
        if not pad:
            return joined
        nulls = null_vector(len(pad))
        cols = []
        for c in range(len(joined.cols)):
            if offset <= c < offset + width:
                pcol = preserved.cols[c - offset]
                cols.append(joined.cols[c] + [pcol[i] for i in pad])
            else:
                cols.append(joined.cols[c] + nulls)
        return ColumnarRelation(joined.columns, cols, joined.nrows + len(pad))

    @staticmethod
    def _cross_join(
        left: ColumnarRelation, right: ColumnarRelation
    ) -> ColumnarRelation:
        nl, nr = left.nrows, right.nrows
        cols = [[v for v in col for _ in range(nr)] for col in left.cols]
        cols += [col * nl for col in right.cols]
        return ColumnarRelation(left.columns + right.columns, cols, nl * nr)

    # -- projection ----------------------------------------------------------

    def _project(
        self,
        crel: ColumnarRelation,
        select: Node,
        env: Optional[Environment],
    ) -> ResultTable:
        relation = Relation(columns=crel.columns)
        out_columns = self.ex._output_columns(relation, select)
        n = crel.nrows
        vectors = [
            _broadcast(self._eval(item.children[0], crel, env), n)
            for item in self.ex._expanded_select_items(relation, select)
        ]
        # a plain column projection returns the relation's own vector, which
        # for an unfiltered scan is the base table's storage; copy so results
        # stay a snapshot (tables are append-only but results may be cached)
        shared = set(map(id, crel.cols))
        vectors = [list(v) if id(v) in shared else v for v in vectors]
        return self.ex._finalise_columns(out_columns, vectors, n)

    # -- grouping ------------------------------------------------------------

    def _grouped(
        self,
        crel: ColumnarRelation,
        select: Node,
        groupby: Optional[Node],
        having: Optional[Node],
        env: Optional[Environment],
    ) -> ResultTable:
        group_exprs = list(groupby.children) if groupby is not None else []
        n = crel.nrows

        if group_exprs:
            key_vecs = [
                _broadcast(self._eval(e, crel, env), n) for e in group_exprs
            ]
            grouped: dict[tuple, list[int]] = {}
            for i, key in enumerate(zip(*key_vecs)):
                bucket = grouped.get(key)
                if bucket is None:
                    grouped[key] = [i]
                else:
                    bucket.append(i)
            groups = [_Group(k, idx) for k, idx in grouped.items()]
        else:
            # a single group over every row; aggregates over an empty
            # relation still yield one output row
            groups = [_Group((), list(range(n)))]

        if having is not None:
            memo: list = [None]  # lazily-built first-rows relation, shared
            keep = self._eval_per_group(having.children[0], crel, groups, env, memo)
            groups = [g for g, k in zip(groups, keep) if bool(k)]

        relation = Relation(columns=crel.columns)
        out_columns = self.ex._output_columns(relation, select, grouped=True)
        memo = [None]  # HAVING may have dropped groups: rebuild on demand
        vectors = [
            self._eval_per_group(item.children[0], crel, groups, env, memo)
            for item in self.ex._expanded_select_items(relation, select)
        ]
        return self.ex._finalise_columns(out_columns, vectors, len(groups))

    def _eval_per_group(
        self,
        expr: Node,
        crel: ColumnarRelation,
        groups: list[_Group],
        env: Optional[Environment],
        memo: list,
    ) -> list:
        """Evaluate one select/HAVING expression to a value per group.

        Aggregate calls slice a single whole-relation argument vector per
        group; non-aggregate subtrees are evaluated against each group's
        first row (matching the interpreter's group environment).  ``memo``
        caches the gathered first-rows relation across the select items and
        HAVING subtrees that share one group list.
        """
        label = expr.label
        if label == L.FUNC and is_aggregate(str(expr.value)):
            name = str(expr.value)
            base = name.removesuffix(" distinct")
            distinct = name.endswith(" distinct")
            if expr.children and expr.children[0].label != L.STAR:
                arg = _broadcast(
                    self._eval(expr.children[0], crel, env), crel.nrows
                )
            else:
                arg = None  # count(*) — every row contributes a 1
            fn = AGGREGATE_FUNCTIONS[base]
            out = []
            for g in groups:
                values = [1] * len(g.indices) if arg is None else [
                    arg[i] for i in g.indices
                ]
                if distinct:
                    seen = set()
                    unique = []
                    for v in values:
                        if v not in seen:
                            seen.add(v)
                            unique.append(v)
                    values = unique
                out.append(fn(values))
            return out

        if not contains_aggregate(expr):
            firsts = self._first_rows(crel, groups, memo)
            return _broadcast(self._eval(expr, firsts, env), len(groups))

        # composite expression over aggregates: recurse per node kind
        if label == L.BINOP:
            op = str(expr.value)
            lv = self._eval_per_group(expr.children[0], crel, groups, env, memo)
            rv = self._eval_per_group(expr.children[1], crel, groups, env, memo)
            if op in COMPARISON_OPS:
                return [compare_values(op, a, b) for a, b in zip(lv, rv)]
            if op == "LIKE":
                return [like(a, b) for a, b in zip(lv, rv)]
            if op in ARITHMETIC_OPS:
                return [
                    None if a is None or b is None else arith_values(op, a, b)
                    for a, b in zip(lv, rv)
                ]
            raise ExecutionError(f"unsupported operator {op!r}")
        if label == L.NEG:
            values = self._eval_per_group(expr.children[0], crel, groups, env, memo)
            return [None if v is None else -v for v in values]
        if label == L.AND:
            parts = [
                self._eval_per_group(c, crel, groups, env, memo)
                for c in expr.children
            ]
            return [all(bool(v) for v in vals) for vals in zip(*parts)]
        if label == L.OR:
            parts = [
                self._eval_per_group(c, crel, groups, env, memo)
                for c in expr.children
            ]
            return [any(bool(v) for v in vals) for vals in zip(*parts)]
        if label == L.NOT:
            values = self._eval_per_group(expr.children[0], crel, groups, env, memo)
            return [not bool(v) for v in values]
        if label == L.BETWEEN:
            value, lo, hi = (
                self._eval_per_group(c, crel, groups, env, memo)
                for c in expr.children
            )
            return [
                False if v is None or a is None or b is None else a <= v <= b
                for v, a, b in zip(value, lo, hi)
            ]
        if label == L.IS_NULL:
            values = self._eval_per_group(expr.children[0], crel, groups, env, memo)
            if expr.value == "NOT":
                return [v is not None for v in values]
            return [v is None for v in values]
        if label == L.IN_LIST:
            values = self._eval_per_group(expr.children[0], crel, groups, env, memo)
            options = [
                self._eval_per_group(c, crel, groups, env, memo)
                for c in expr.children[1:]
            ]
            return [
                v in [o[i] for o in options] for i, v in enumerate(values)
            ]
        if label == L.IN_QUERY:
            values = self._eval_per_group(expr.children[0], crel, groups, env, memo)
            sub = expr.children[1]
            if self.ex.planner.outer_refs(sub) == frozenset():
                members = [self._members(sub, env)] * len(groups)
            else:
                # correlated: one run per group, scoped on its first row
                firsts = self._first_rows(crel, groups, memo)
                members = [self._members(sub, e) for e in _row_envs(firsts, env)]
            return [v in m for v, m in zip(values, members)]
        if label == L.FUNC and str(expr.value).removesuffix(" distinct") in SCALAR_FUNCTIONS:
            # a stray DISTINCT on a scalar call is ignored, like the interpreter
            fn = SCALAR_FUNCTIONS[str(expr.value).removesuffix(" distinct")]
            args = [
                self._eval_per_group(c, crel, groups, env, memo)
                for c in expr.children
            ]
            return [fn(*vals) for vals in zip(*args)] if args else [
                fn() for _ in groups
            ]
        if label == L.CASE:
            return self._case_per_group(expr, crel, groups, env, memo)
        raise ExecutionError(f"cannot evaluate expression node {label!r}")

    def _case_per_group(
        self,
        expr: Node,
        crel: ColumnarRelation,
        groups: list[_Group],
        env: Optional[Environment],
        memo: list,
    ) -> list:
        out: list = [None] * len(groups)
        unset = [True] * len(groups)
        for child in expr.children:
            if child.label == L.WHEN:
                cond, result = child.children
                cond_v = self._eval_per_group(cond, crel, groups, env, memo)
                result_v = self._eval_per_group(result, crel, groups, env, memo)
                for i in range(len(groups)):
                    if unset[i] and bool(cond_v[i]):
                        out[i] = result_v[i]
                        unset[i] = False
            else:
                else_v = self._eval_per_group(child, crel, groups, env, memo)
                for i in range(len(groups)):
                    if unset[i]:
                        out[i] = else_v[i]
                        unset[i] = False
                break
        return out

    @staticmethod
    def _first_rows(
        crel: ColumnarRelation, groups: list[_Group], memo: list
    ) -> ColumnarRelation:
        """One row per group: its first member row (all-NULL for an empty
        group, which only occurs for aggregates over an empty relation),
        gathered once per ``memo``."""
        if memo[0] is None:
            cols = [
                [col[g.first] if g.first is not None else None for g in groups]
                for col in crel.cols
            ]
            memo[0] = ColumnarRelation(crel.columns, cols, len(groups))
        return memo[0]

    def _members(self, sub: Node, env: Optional[Environment]) -> set:
        """The membership set of an IN subquery run in scope ``env``."""
        result = self.ex.execute(sub, env)
        return {row[0] for row in result.rows} if result.columns else set()

    def _per_binding(
        self, node: Node, refs: frozenset, crel: ColumnarRelation, env: Optional[Environment]
    ) -> list:
        """A correlated scalar subquery's value per row, run once per distinct
        binding of its outer references ``refs`` (Hellerstein & Naughton,
        SIGMOD 1996), scoped on the binding's first row.

        Keys are ``(type, repr)`` per value, so ``1`` / ``1.0`` / ``True`` and
        ``0.0`` / ``-0.0`` never share a run; a NaN binding is never shared,
        since membership tests tell NaN objects apart.  A name that resolves
        nowhere reads the same for every row, so it is left out of the key.
        """
        n = crel.nrows
        bound = [_lookup(name, crel, env) for name in refs]
        vecs = [_broadcast(b, n) for b in bound if b is not None]
        relation = Relation(columns=crel.columns)
        cols = [crel.cols[c] for c in range(len(crel.columns))]
        runs: dict = {}
        out = []
        for i, binding in enumerate(zip(*vecs) if vecs else [()] * n):
            key = tuple((type(v), repr(v)) for v in binding)
            if key in runs:
                out.append(runs[key])
                continue
            row = Environment(relation, tuple(col[i] for col in cols), parent=env)
            value = self.ex._eval_expr(node, row)
            if all(v == v for v in binding):
                runs[key] = value
            out.append(value)
        return out

    # -- vectorized expression evaluation -------------------------------------

    def _eval(
        self,
        node: Node,
        crel: ColumnarRelation,
        env: Optional[Environment],
    ) -> tuple:
        """Evaluate an expression over a relation.

        Returns ``(True, values)`` for a per-row vector or ``(False, value)``
        for a row-independent scalar (literals, outer-scope references).
        """
        label = node.label

        if label in (L.LITERAL_NUM, L.LITERAL_STR, L.LITERAL_BOOL):
            return (_SCALAR, node.value)
        if label == L.LITERAL_NULL:
            return (_SCALAR, None)
        if label == L.STAR:
            return (_SCALAR, 1)  # count(*) argument
        if label == L.COLUMN:
            found = _lookup(str(node.value), crel, env)
            if found is None:
                raise ExecutionError(f"unknown column {node.value!r}")
            return found
        if label == L.NEG:
            tag, val = self._eval(node.children[0], crel, env)
            if tag is _SCALAR:
                return (_SCALAR, None if val is None else -val)
            return (_VECTOR, [None if v is None else -v for v in val])
        if label == L.AND:
            return self._eval_logical(node, crel, env, want_all=True)
        if label == L.OR:
            return self._eval_logical(node, crel, env, want_all=False)
        if label == L.NOT:
            tag, val = self._eval(node.children[0], crel, env)
            if tag is _SCALAR:
                return (_SCALAR, not bool(val))
            return (_VECTOR, [not bool(v) for v in val])
        if label == L.BINOP:
            return self._eval_binop(node, crel, env)
        if label == L.BETWEEN:
            value, lo, hi = (self._eval(c, crel, env) for c in node.children)
            if value[0] is _SCALAR and lo[0] is _SCALAR and hi[0] is _SCALAR:
                v, a, b = value[1], lo[1], hi[1]
                ok = False if v is None or a is None or b is None else a <= v <= b
                return (_SCALAR, ok)
            n = crel.nrows
            vv, av, bv = _broadcast(value, n), _broadcast(lo, n), _broadcast(hi, n)
            return (
                _VECTOR,
                [
                    False if v is None or a is None or b is None else a <= v <= b
                    for v, a, b in zip(vv, av, bv)
                ],
            )
        if label == L.IN_LIST:
            value = self._eval(node.children[0], crel, env)
            options = [self._eval(c, crel, env) for c in node.children[1:]]
            if all(o[0] is _SCALAR for o in options):
                opts = [o[1] for o in options]
                if value[0] is _SCALAR:
                    return (_SCALAR, value[1] in opts)
                return (_VECTOR, [v in opts for v in value[1]])
            n = crel.nrows
            vv = _broadcast(value, n)
            ov = [_broadcast(o, n) for o in options]
            return (
                _VECTOR,
                [vv[i] in [o[i] for o in ov] for i in range(n)],
            )
        if label == L.IS_NULL:
            tag, val = self._eval(node.children[0], crel, env)
            negate = node.value == "NOT"
            if tag is _SCALAR:
                hit = val is None
                return (_SCALAR, not hit if negate else hit)
            if negate:
                return (_VECTOR, [v is not None for v in val])
            return (_VECTOR, [v is None for v in val])
        if label == L.FUNC:
            return self._eval_func(node, crel, env)
        if label == L.CASE:
            return self._eval_case(node, crel, env)
        if label == L.SUBQUERY or label == L.IN_QUERY:
            sub = node if label == L.SUBQUERY else node.children[1]
            refs = self.ex.planner.outer_refs(sub)
            if refs and label == L.SUBQUERY:
                return (_VECTOR, self._per_binding(node, refs, crel, env))
            if refs is None or refs:
                # correlated IN, or a scope the planner cannot derive: re-run
                # per row through the interpreter's evaluator, scoped on it
                return (
                    _VECTOR,
                    [self.ex._eval_expr(node, e) for e in _row_envs(crel, env)],
                )
        if label == L.SUBQUERY:
            # self-contained: one execution stands in for the per-row re-runs
            sub = self.ex.execute(node, env)
            return (_SCALAR, sub.rows[0][0] if sub.rows else None)
        if label == L.IN_QUERY:
            value = self._eval(node.children[0], crel, env)
            # membership set built once and broadcast over the vector
            options = self._members(node.children[1], env)
            if value[0] is _SCALAR:
                return (_SCALAR, value[1] in options)
            return (_VECTOR, [v in options for v in value[1]])
        raise ExecutionError(f"cannot evaluate expression node {label!r}")

    def _eval_logical(
        self,
        node: Node,
        crel: ColumnarRelation,
        env: Optional[Environment],
        want_all: bool,
    ) -> tuple:
        parts = [self._eval(c, crel, env) for c in node.children]
        if all(p[0] is _SCALAR for p in parts):
            values = (bool(p[1]) for p in parts)
            return (_SCALAR, all(values) if want_all else any(values))
        n = crel.nrows
        vecs = [_broadcast(p, n) for p in parts]
        if want_all:
            return (_VECTOR, [all(bool(v[i]) for v in vecs) for i in range(n)])
        return (_VECTOR, [any(bool(v[i]) for v in vecs) for i in range(n)])

    def _eval_binop(
        self,
        node: Node,
        crel: ColumnarRelation,
        env: Optional[Environment],
    ) -> tuple:
        op = str(node.value)
        left = self._eval(node.children[0], crel, env)
        right = self._eval(node.children[1], crel, env)

        if op in COMPARISON_OPS:
            if left[0] is _SCALAR and right[0] is _SCALAR:
                return (_SCALAR, compare_values(op, left[1], right[1]))
            if left[0] is _VECTOR and right[0] is _SCALAR:
                return (_VECTOR, _compare_vector_scalar(op, left[1], right[1]))
            if left[0] is _SCALAR and right[0] is _VECTOR:
                flipped = {">": "<", "<": ">", ">=": "<=", "<=": ">="}.get(op, op)
                return (_VECTOR, _compare_vector_scalar(flipped, right[1], left[1]))
            return (
                _VECTOR,
                [compare_values(op, a, b) for a, b in zip(left[1], right[1])],
            )
        if op == "LIKE":
            if right[0] is _SCALAR:
                if left[0] is _SCALAR:
                    return (_SCALAR, like(left[1], right[1]))
                match = like_matcher(right[1])
                return (_VECTOR, [match(v) for v in left[1]])
            n = crel.nrows
            lv, rv = _broadcast(left, n), _broadcast(right, n)
            return (_VECTOR, [like(a, b) for a, b in zip(lv, rv)])
        if op in ARITHMETIC_OPS:
            if left[0] is _SCALAR and right[0] is _SCALAR:
                a, b = left[1], right[1]
                return (
                    _SCALAR,
                    None if a is None or b is None else arith_values(op, a, b),
                )
            n = crel.nrows
            lv, rv = _broadcast(left, n), _broadcast(right, n)
            return (
                _VECTOR,
                [
                    None if a is None or b is None else arith_values(op, a, b)
                    for a, b in zip(lv, rv)
                ],
            )
        raise ExecutionError(f"unsupported operator {op!r}")

    def _eval_func(
        self,
        node: Node,
        crel: ColumnarRelation,
        env: Optional[Environment],
    ) -> tuple:
        name = str(node.value)
        base = name.removesuffix(" distinct")
        if is_aggregate(name):
            # outside a grouping stage (WHERE, ON, GROUP BY keys, aggregate
            # arguments) every row is a one-row group, as in the interpreter
            agg = AGGREGATE_FUNCTIONS[base]
            if not node.children or node.children[0].label == L.STAR:
                return (_SCALAR, agg([1]))
            tag, val = self._eval(node.children[0], crel, env)
            if tag is _SCALAR:
                return (_SCALAR, agg([val]))
            return (_VECTOR, [agg([v]) for v in val])
        if base not in SCALAR_FUNCTIONS:
            raise ExecutionError(f"unknown function {base!r}")
        fn = SCALAR_FUNCTIONS[base]
        args = [self._eval(c, crel, env) for c in node.children]
        if all(a[0] is _SCALAR for a in args):
            return (_SCALAR, fn(*(a[1] for a in args)))
        n = crel.nrows
        vecs = [_broadcast(a, n) for a in args]
        return (_VECTOR, [fn(*vals) for vals in zip(*vecs)])

    def _eval_case(
        self,
        node: Node,
        crel: ColumnarRelation,
        env: Optional[Environment],
    ) -> tuple:
        n = crel.nrows
        out: list = [None] * n
        unset = [True] * n
        for child in node.children:
            if child.label == L.WHEN:
                cond, result = child.children
                cond_v = _broadcast(self._eval(cond, crel, env), n)
                result_v = _broadcast(self._eval(result, crel, env), n)
                for i in range(n):
                    if unset[i] and bool(cond_v[i]):
                        out[i] = result_v[i]
                        unset[i] = False
            else:
                else_v = _broadcast(self._eval(child, crel, env), n)
                for i in range(n):
                    if unset[i]:
                        out[i] = else_v[i]
                        unset[i] = False
                break
        return (_VECTOR, out)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _row_envs(
    crel: ColumnarRelation, env: Optional[Environment]
) -> list[Environment]:
    """One interpreter scope per row of ``crel``, chained onto ``env``."""
    relation = Relation(columns=crel.columns)
    cols = [crel.cols[c] for c in range(len(crel.columns))]
    rows = zip(*cols) if cols else [()] * crel.nrows
    return [Environment(relation, row, parent=env) for row in rows]


def _lookup(
    name: str, crel: ColumnarRelation, env: Optional[Environment]
) -> Optional[tuple]:
    """A column as a row's :class:`Environment` resolves it, or ``None``."""
    qualifier, bare = name.split(".", 1) if "." in name else (None, name)
    idx = crel.find(bare, qualifier)
    if idx is not None:
        return (_VECTOR, crel.cols[idx])
    found, value = env.lookup(name) if env is not None else (False, None)
    return (_SCALAR, value) if found else None


def _key_is_null(key, multi: bool) -> bool:
    """True when a join key contains a NULL or NaN component."""
    if multi:
        return any(is_null_key(v) for v in key)
    return is_null_key(key)


#: per scalar type, the exact element types ``=`` / ``<>`` need not coerce
_NUMBERS = frozenset({int, float, type(None)})
_EQ_KINDS = {str: frozenset({str, type(None)}), int: _NUMBERS, float: _NUMBERS}


def _compare_vector_scalar(op: str, values: list, scalar: object) -> list[bool]:
    """``[compare_values(op, v, scalar) for v in values]`` with fast paths.

    For ordering comparisons against a non-bool numeric scalar,
    ``coerce_pair`` is the identity on numeric and bool vector elements, so
    the comparison collapses to a raw operator inside one comprehension.  A
    string element (which the slow path would coerce to float) raises
    ``TypeError`` and we redo the whole vector through
    :func:`compare_values`, keeping semantics identical.  ``"3.0" == 3`` is
    silently False raw but True after coercion, so equality takes its fast
    path only when every element is NULL or of the scalar's kind (``str``,
    or non-bool ``int`` / ``float``), where ``coerce_pair`` is the identity.
    """
    if scalar is None:
        return [False] * len(values)
    if op in ("=", "<>", "!="):
        kinds = _EQ_KINDS.get(type(scalar))
        if kinds is not None and set(map(type, values)) <= kinds:
            if op == "=":
                return [v is not None and v == scalar for v in values]
            return [v is not None and v != scalar for v in values]
    if (
        op in (">", "<", ">=", "<=")
        and isinstance(scalar, (int, float))
        and not isinstance(scalar, bool)
    ):
        try:
            if op == ">":
                return [v is not None and v > scalar for v in values]
            if op == "<":
                return [v is not None and v < scalar for v in values]
            if op == ">=":
                return [v is not None and v >= scalar for v in values]
            return [v is not None and v <= scalar for v in values]
        except TypeError:
            pass
    return [compare_values(op, v, scalar) for v in values]
