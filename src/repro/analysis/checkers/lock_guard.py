"""``unlocked-shared-mutation``: shared mutable state mutates under its lock.

The three-tier cache hierarchy (plan cache → mapping memo → reward table)
is shared process-wide across search workers and callers; each cache
class owns a ``threading.Lock`` and every mutation of its bookkeeping must
hold it — a caller on another thread can reach these paths concurrently,
and a single unguarded ``dict`` write can corrupt the LRU ordering or drop
entries.

Two structural rules:

1. **Lock-owning classes.** Any class whose ``__init__`` assigns an
   attribute from ``threading.Lock()``/``RLock()``/``Condition()`` is
   lock-owning.  Its *guarded attributes* are the mutable containers
   assigned in ``__init__`` (dict/list/set literals or ``dict()``/
   ``OrderedDict()``/``WeakKeyDictionary()``/… calls) plus any counters
   (int-literal assignments).  In every method other than ``__init__``
   and pickling dunders, a mutation of a guarded attribute —

   * subscript assignment/deletion (``self._d[k] = v``, ``del self._d[k]``),
   * augmented assignment (``self.hits += 1``),
   * rebinding (``self._d = {}``),
   * a mutating method call (``.update``/``.pop``/``.setdefault``/
     ``.append``/``.add``/``.clear``/``.move_to_end``/``.popitem``/…)

   — must sit lexically inside a ``with self.<lock>:`` block.

2. **Module-level shared globals.** A function that mutates a module-level
   ``ALL_CAPS`` mutable container (dict/list/set literal at module scope)
   must do so inside some ``with <lock>:`` block; truly shared singletons
   in this codebase (``SHARED_PLAN_CACHE`` etc.) encapsulate their lock,
   so a bare global container mutated from functions is a red flag.

Read-only access is never flagged: the checker targets writes, the only
operations whose interleaving can corrupt state given CPython's GIL-atomic
single reads.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..core import Checker, FileContext, Finding, register

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

_MUTABLE_FACTORIES = {
    "dict",
    "list",
    "set",
    "OrderedDict",
    "defaultdict",
    "Counter",
    "deque",
    "WeakKeyDictionary",
    "WeakValueDictionary",
}

_MUTATING_METHODS = {
    "update",
    "pop",
    "popitem",
    "setdefault",
    "clear",
    "append",
    "extend",
    "insert",
    "remove",
    "discard",
    "add",
    "move_to_end",
    "appendleft",
    "popleft",
    "__setitem__",
}


def _call_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
    return None


def _is_lock_value(node: ast.AST) -> bool:
    return _call_name(node) in _LOCK_FACTORIES


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                         ast.SetComp)):
        return True
    return _call_name(node) in _MUTABLE_FACTORIES


def _is_counter_value(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
        and not isinstance(node.value, bool)


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.<name>`` -> name."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ClassInfo:
    def __init__(self, node: ast.ClassDef) -> None:
        self.node = node
        self.locks: set[str] = set()
        self.guarded: set[str] = set()
        init = next(
            (
                n
                for n in node.body
                if isinstance(n, ast.FunctionDef) and n.name == "__init__"
            ),
            None,
        )
        if init is None:
            return
        for stmt in ast.walk(init):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                attr = _self_attr(stmt.targets[0])
                if attr is None:
                    continue
                if _is_lock_value(stmt.value):
                    self.locks.add(attr)
                elif _is_mutable_value(stmt.value) or _is_counter_value(stmt.value):
                    self.guarded.add(attr)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                attr = _self_attr(stmt.target)
                if attr is None:
                    continue
                if _is_lock_value(stmt.value):
                    self.locks.add(attr)
                elif _is_mutable_value(stmt.value) or _is_counter_value(stmt.value):
                    self.guarded.add(attr)


#: methods allowed to touch guarded state without the lock: construction,
#: pickling (runs single-threaded on a private copy), and repr/debug output
_EXEMPT_METHODS = {"__init__", "__getstate__", "__setstate__", "__reduce__",
                   "__repr__", "__del__"}


class _MethodWalker:
    """Tracks ``with self.<lock>`` nesting while scanning one method body."""

    def __init__(self, checker: "LockGuardChecker", ctx: FileContext,
                 info: _ClassInfo, method: ast.FunctionDef) -> None:
        self.checker = checker
        self.ctx = ctx
        self.info = info
        self.method = method
        self.findings: list[Finding] = []

    def run(self) -> list[Finding]:
        self._walk(self.method.body, locked=False)
        return self.findings

    # -- lock detection ----------------------------------------------------

    def _is_lock_guard(self, with_node: ast.With) -> bool:
        for item in with_node.items:
            expr = item.context_expr
            attr = _self_attr(expr)
            if attr in self.info.locks:
                return True
            # with self._lock: vs with self._lock.acquire()-style wrappers
            if isinstance(expr, ast.Call):
                attr = _self_attr(expr.func) if isinstance(expr.func, ast.Attribute) \
                    else None
                inner = _self_attr(expr.func.value) if isinstance(
                    expr.func, ast.Attribute
                ) else None
                if inner in self.info.locks:
                    return True
        return False

    # -- mutation detection ------------------------------------------------

    def _mutated_attr(self, node: ast.AST) -> Optional[str]:
        """The guarded ``self.<attr>`` this statement mutates, if any."""
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = self._mutation_target(target)
                if attr is not None:
                    return attr
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return self._mutation_target(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = self._mutation_target(target)
                if attr is not None:
                    return attr
        elif isinstance(node, ast.Expr):
            call = node.value
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute):
                if call.func.attr in _MUTATING_METHODS:
                    attr = _self_attr(call.func.value)
                    if attr in self.info.guarded:
                        return attr
        return None

    def _mutation_target(self, target: ast.AST) -> Optional[str]:
        # self.attr = ... (rebinding) — only mutable containers, counters too
        attr = _self_attr(target)
        if attr in self.info.guarded:
            return attr
        # self.attr[k] = ... / del self.attr[k]
        if isinstance(target, ast.Subscript):
            attr = _self_attr(target.value)
            if attr in self.info.guarded:
                return attr
        return None

    # -- traversal ---------------------------------------------------------

    def _walk(self, body, locked: bool) -> None:
        for stmt in body:
            if isinstance(stmt, ast.With):
                inner = locked or self._is_lock_guard(stmt)
                self._walk(stmt.body, inner)
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scopes escape lexical lock reasoning
            if not locked:
                attr = self._mutated_attr(stmt)
                if attr is not None:
                    self.findings.append(
                        self.checker.finding(
                            self.ctx,
                            stmt,
                            f"mutation of lock-guarded attribute self.{attr} "
                            f"outside a 'with self.{sorted(self.info.locks)[0]}:' "
                            f"block in {self.info.node.name}.{self.method.name}",
                        )
                    )
            # recurse into compound statements, preserving lock state
            for field_body in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field_body, None)
                if sub:
                    self._walk(sub, locked)
            for handler in getattr(stmt, "handlers", ()):
                self._walk(handler.body, locked)


def _module_shared_globals(tree: ast.Module) -> set[str]:
    """ALL_CAPS module-level names bound to bare mutable containers."""
    names: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None or not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id.isupper():
                names.add(target.id)
    return names


class _GlobalMutationWalker(ast.NodeVisitor):
    def __init__(self, checker: "LockGuardChecker", ctx: FileContext,
                 shared: set[str]) -> None:
        self.checker = checker
        self.ctx = ctx
        self.shared = shared
        self.findings: list[Finding] = []
        self._with_depth = 0

    def visit_With(self, node: ast.With) -> None:
        self._with_depth += 1
        self.generic_visit(node)
        self._with_depth -= 1

    def _flag(self, node: ast.AST, name: str) -> None:
        if self._with_depth:
            return  # inside some with-block; assume it is the guarding lock
        self.findings.append(
            self.checker.finding(
                self.ctx,
                node,
                f"mutation of module-level shared global {name} outside any "
                "'with <lock>:' block",
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ) and target.value.id in self.shared:
                self._flag(node, target.value.id)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Subscript) and isinstance(
            node.target.value, ast.Name
        ) and node.target.value.id in self.shared:
            self._flag(node, node.target.value.id)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATING_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.shared
        ):
            self._flag(node, func.value.id)
        self.generic_visit(node)


@register
class LockGuardChecker(Checker):
    rule = "unlocked-shared-mutation"
    description = (
        "lock-owning classes mutate guarded attributes outside 'with <lock>:'"
    )
    dynamic_backstop = (
        "tests/test_backends.py reward-table merge test; "
        "tests/test_reward_memo.py concurrent memo equivalence"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _ClassInfo(node)
            if not info.locks or not info.guarded:
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name in _EXEMPT_METHODS:
                    continue
                findings.extend(_MethodWalker(self, ctx, info, method).run())
        # module-level ALL_CAPS container mutations outside any lock
        shared = _module_shared_globals(ctx.tree)
        if shared:
            walker = _GlobalMutationWalker(self, ctx, shared)
            # visit only outermost function defs: the walker itself recurses,
            # so visiting nested defs again would duplicate findings
            stack: list[ast.AST] = [ctx.tree]
            while stack:
                scope = stack.pop()
                for child in ast.iter_child_nodes(scope):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        walker.visit(child)
                    elif isinstance(child, ast.ClassDef):
                        stack.append(child)
                    elif not isinstance(child, ast.expr):
                        stack.append(child)
            findings.extend(walker.findings)
        return findings
