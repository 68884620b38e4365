"""``cache-key-field``: every behavior-altering planner flag is in the key.

PR 5's hardest bug class: an ``Executor`` option that changes the *compiled
plan* (join order, pushdown shape) but is missing from
``repro.database.plancache.plan_key`` lets two executors with different
settings exchange plans through the shared process-wide cache — silently,
and only when their fingerprints collide, which no fixed test seed may ever
exercise.  This checker proves the absence of that hole structurally:

1. locate ``Executor.__init__`` and collect the **planner-flag set**: every
   ``__init__`` parameter forwarded as a keyword argument to the
   ``Planner(...)`` construction (those are, by definition, the options the
   compiled artifact depends on);
2. locate ``def plan_key(...)`` in the plan-cache module and collect its
   parameter names;
3. flag any planner flag that is *not* a ``plan_key`` parameter — and any
   ``plan_key(...)`` call site that does not mention every non-fingerprint
   parameter (positionally counted or by keyword / ``self.<flag>``).

The checker is generic over the file set it is given: fixtures simulate the
executor/plancache pair with small snippets, and renaming or moving the real
modules updates the lookup through the project module index.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..core import Checker, FileContext, Finding, Project, register

#: class whose __init__ owns the planner flags, and the planner it builds
EXECUTOR_CLASS = "Executor"
PLANNER_CLASS = "Planner"
KEY_FUNCTION = "plan_key"


def _find_class(ctx: FileContext, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _find_function(ctx: FileContext, name: str) -> Optional[ast.FunctionDef]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


def _init_params(cls: ast.ClassDef) -> list[str]:
    init = next(
        (
            n
            for n in cls.body
            if isinstance(n, ast.FunctionDef) and n.name == "__init__"
        ),
        None,
    )
    if init is None:
        return []
    args = init.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return [n for n in names if n != "self"]


def _planner_flags(cls: ast.ClassDef, init_params: list[str]) -> dict[str, ast.AST]:
    """__init__ params forwarded into ``Planner(...)`` keywords, with call site."""
    flags: dict[str, ast.AST] = {}
    params = set(init_params)
    for node in ast.walk(cls):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id != PLANNER_CLASS:
            continue
        for kw in node.keywords:
            if kw.arg is None:
                continue
            value = kw.value
            source: Optional[str] = None
            if isinstance(value, ast.Name) and value.id in params:
                source = value.id
            elif (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"
                and value.attr in params
            ):
                source = value.attr
            if source is not None:
                flags[source] = node
    return flags


def _names_in(node: ast.AST) -> set[str]:
    """Bare names and ``self.<attr>`` tails mentioned anywhere inside."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            out.add(sub.attr)
    return out


@register
class CacheKeyChecker(Checker):
    rule = "cache-key-field"
    description = (
        "planner flags forwarded from Executor.__init__ must be plan_key "
        "parameters and appear at every plan_key(...) call site"
    )
    dynamic_backstop = (
        "tests/test_planner.py::test_every_planner_flag_partitions_the_plan_cache "
        "cross-option plan-cache isolation"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        executor_ctx = exec_cls = None
        key_ctx = key_fn = None
        for ctx in project:
            if exec_cls is None:
                found = _find_class(ctx, EXECUTOR_CLASS)
                if found is not None and _planner_flags(
                    found, _init_params(found)
                ):
                    executor_ctx, exec_cls = ctx, found
            if key_fn is None:
                found_fn = _find_function(ctx, KEY_FUNCTION)
                if found_fn is not None:
                    key_ctx, key_fn = ctx, found_fn
        if exec_cls is None or executor_ctx is None:
            return []  # nothing to cross-reference in this file set

        findings: list[Finding] = []
        init_params = _init_params(exec_cls)
        flags = _planner_flags(exec_cls, init_params)

        if key_fn is None or key_ctx is None:
            for flag, site in sorted(flags.items()):
                findings.append(
                    self.finding(
                        executor_ctx,
                        site,
                        f"planner flag {flag!r} found but no {KEY_FUNCTION}() "
                        "definition is in the analyzed file set — the plan "
                        "cache cannot be keyed on it",
                    )
                )
            return findings

        key_args = key_fn.args
        key_params = [
            a.arg for a in key_args.posonlyargs + key_args.args + key_args.kwonlyargs
        ]

        # rule 1: every planner flag is a parameter of plan_key
        for flag, site in sorted(flags.items()):
            if flag not in key_params:
                findings.append(
                    self.finding(
                        executor_ctx,
                        site,
                        f"planner flag {flag!r} is forwarded to {PLANNER_CLASS} "
                        f"but is not a parameter of {KEY_FUNCTION}() — executors "
                        "differing only in this flag would share cached plans",
                    )
                )

        # rule 2: every plan_key(...) call site mentions every key parameter
        # (the fingerprint argument is whatever the first positional is)
        required = [p for p in key_params if p not in ("fingerprint",)]
        for ctx in project:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr
                    if isinstance(callee, ast.Attribute)
                    else None
                )
                if name != KEY_FUNCTION or node is key_fn:
                    continue
                mentioned = _names_in(node)
                positional_ok = len(node.args) >= len(key_params)
                for param in required:
                    if positional_ok or param in mentioned or any(
                        kw.arg == param for kw in node.keywords
                    ):
                        continue
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"{KEY_FUNCTION}() call does not thread the "
                            f"{param!r} flag (neither positionally complete "
                            "nor named) — the cached plan would be looked up "
                            "under an incomplete key",
                        )
                    )
        return findings
