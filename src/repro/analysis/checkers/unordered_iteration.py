"""``unordered-iteration``: sets must be sorted before their order can leak.

The engines' equivalence contract (ARCHITECTURE.md) and every cache key in
the system assume that identical inputs produce *byte-identical* outputs.
Iterating a ``set``/``frozenset`` breaks that silently: CPython's set order
depends on element hashes and insertion history, and ``PYTHONHASHSEED``
randomizes ``str`` hashes per process — so a loop over a set of column
names can differ between two runs, two workers, or two cache states.

The rule flags iteration (``for``, comprehensions, and order-sensitive
consumers such as ``list()``/``tuple()``/``enumerate()``/``"".join()``)
whose iterable is statically known to be a set:

* a set literal/comprehension, or a ``set(...)``/``frozenset(...)`` call;
* a local name whose every assignment in the enclosing scope is one of the
  above (a name also assigned non-set values stays ambiguous and is never
  flagged — re-used temp names must not produce noise);
* ``dict.keys()/.values()/.items()`` only inside *key-producing* functions
  (name matches ``fingerprint``/``*_key``): dict iteration is insertion-
  ordered and thus deterministic, but a cache key derived from it bakes
  the caller's insertion history into the key, which is exactly the class
  of bug the plan-key/memo-key tests exist to catch.

Wrapping the iterable in ``sorted(...)`` — at any depth — satisfies the
rule.  Membership tests, ``len()``, ``sum()``/``min()``/``max()``/``any()``
/``all()`` and set algebra are order-insensitive and never flagged.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional

from ..core import Checker, FileContext, Finding, register

#: functions whose names mark them as producing fingerprints or cache keys
KEY_PRODUCER_RE = re.compile(r"(^|_)(fingerprint|key|keys)$|fingerprint", re.IGNORECASE)

#: consumers whose output order follows input order
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "reversed"}

#: order-insensitive reducers: iterating a set through these is fine
_ORDER_FREE_CALLS = {
    "len",
    "sum",
    "min",
    "max",
    "any",
    "all",
    "sorted",
    "set",
    "frozenset",
}

_DICT_VIEW_METHODS = {"keys", "values", "items"}


def _is_set_expr(node: ast.AST, set_names: set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra: both operands sets -> result is a set
        return _is_set_expr(node.left, set_names) and _is_set_expr(
            node.right, set_names
        )
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in {"union", "intersection", "difference",
                              "symmetric_difference"}:
            return _is_set_expr(node.func.value, set_names)
    return False


def _is_dict_view(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DICT_VIEW_METHODS
        and not node.args
        and not node.keywords
    )


def _walk_scope(scope: ast.AST):
    """Yield descendants of ``scope`` without entering nested def/class scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _set_names_in_scope(scope: ast.AST) -> set[str]:
    """Names every assignment of which (in this scope) is a set expression."""
    assigned: dict[str, list[ast.AST]] = {}
    for node in _walk_scope(scope):
        targets: list[ast.expr] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], node.value
        for target in targets:
            if isinstance(target, ast.Name):
                assigned.setdefault(target.id, []).append(value)
    names: set[str] = set()
    for name, values in assigned.items():
        if values and all(_is_set_expr(v, set()) for v in values):
            names.add(name)
    return names


class _ScopeVisitor(ast.NodeVisitor):
    """Walks one lexical scope; recurses manually into nested functions."""

    def __init__(self, checker: "UnorderedIterationChecker", ctx: FileContext,
                 in_key_producer: bool) -> None:
        self.checker = checker
        self.ctx = ctx
        self.in_key_producer = in_key_producer
        self.set_names: set[str] = set()
        self.findings: list[Finding] = []

    # -- scope handling ----------------------------------------------------

    def run(self, scope: ast.AST) -> list[Finding]:
        self.set_names = _set_names_in_scope(scope)
        for stmt in ast.iter_child_nodes(scope):
            self.visit(stmt)
        return self.findings

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._nested(node, key_producer=self.in_key_producer)

    def _nested(self, node: ast.AST, key_producer: Optional[bool] = None) -> None:
        if key_producer is None:
            key_producer = bool(KEY_PRODUCER_RE.search(getattr(node, "name", "")))
        sub = _ScopeVisitor(self.checker, self.ctx, key_producer)
        self.findings.extend(sub.run(node))

    # -- iteration sites ---------------------------------------------------

    def _check_iterable(self, iterable: ast.AST, site: ast.AST) -> None:
        if _is_set_expr(iterable, self.set_names):
            self.findings.append(
                self.checker.finding(
                    self.ctx,
                    site,
                    "iteration over a set has no deterministic order; "
                    "wrap the iterable in sorted(...)",
                )
            )
        elif self.in_key_producer and _is_dict_view(iterable):
            self.findings.append(
                self.checker.finding(
                    self.ctx,
                    site,
                    "dict iteration inside a key/fingerprint producer bakes "
                    "insertion order into the key; iterate sorted(...) instead",
                )
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter, node)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iterable(gen.iter, node)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_SetComp = _visit_comp
    visit_DictComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS:
            if node.args:
                self._check_iterable(node.args[0], node)
        elif isinstance(func, ast.Attribute) and func.attr == "join" and node.args:
            self._check_iterable(node.args[0], node)
        self.generic_visit(node)

    def visit_Starred(self, node: ast.Starred) -> None:
        # *spread into an ordered literal is an ordered consumer too
        self._check_iterable(node.value, node)
        self.generic_visit(node)


@register
class UnorderedIterationChecker(Checker):
    rule = "unordered-iteration"
    description = (
        "iteration over set-typed values (or dict views inside key producers) "
        "without sorted(...)"
    )
    dynamic_backstop = (
        "tests/test_planner.py interpreter/columnar equivalence sweep; "
        "tests/test_backends.py byte-identical backend pins"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return _ScopeVisitor(self, ctx, in_key_producer=False).run(ctx.tree)
