"""``unpicklable-worker-state``: the process backend's specs must pickle.

``WorkerPool`` ships a :class:`repro.service.pool.ServiceWorkerSpec` to
every worker process it starts; if the spec — or anything reachable from it
— grows a lambda, a local closure, a ``threading.Lock``, a weakref
container, an open file handle, or a live generator, pickling fails when
the pool is built, and every process search (one-shot or served) is lost.
The dynamic tests only catch this for the catalogues the suite happens to
build; this checker walks the *static* reference graph.

Mechanics:

* **Roots** are classes whose name ends in ``WorkerSpec``.
* From each root the checker traverses to other project classes through
  dataclass field annotations and ``self.<attr> = ClassName(...)``
  constructor assignments, resolving names through each file's imports.
* In every visited class, instance attributes assigned an unpicklable
  value are flagged:

  - ``self.x = lambda ...`` and ``self.x = <locally defined function>``
    (closures do not pickle),
  - ``self.x = threading.Lock()/RLock()/Condition()/Event()``,
  - ``self.x = weakref.ref(...)/WeakKeyDictionary()/WeakValueDictionary()``,
  - ``self.x = open(...)``,
  - ``self.x = (... for ...)`` (generator expressions).

* Attributes that ``__getstate__`` removes (``state.pop("x")``,
  ``state["x"] = None``, ``del state["x"]``) are exempt — that is exactly
  the sanctioned way to carry build-time-only state, and it is how
  ``ServiceWorkerSpec._materialized`` stays out of the pickle stream.

``field(default_factory=lambda: ...)`` is *not* flagged: the factory runs
at construction time and only its (picklable) result lands on instances.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..core import Checker, FileContext, Finding, Project, register

ROOT_SUFFIX = "WorkerSpec"

_LOCK_NAMES = {"Lock", "RLock", "Condition", "Event", "Semaphore",
               "BoundedSemaphore", "Barrier"}
_WEAK_NAMES = {"ref", "proxy", "WeakKeyDictionary", "WeakValueDictionary",
               "WeakSet", "WeakMethod"}


def _imports_of(ctx: FileContext, module: Optional[str]) -> dict[str, str]:
    """Local name -> dotted target for this file's imports."""
    out: dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if module and "." in module else (module or "")
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # resolve `from ..x import y` against this file's package
                parts = package.split(".") if package else []
                if node.level - 1:
                    parts = parts[: -(node.level - 1)] if node.level - 1 <= len(parts) else []
                base = ".".join(parts + ([node.module] if node.module else []))
            for alias in node.names:
                target = f"{base}.{alias.name}" if base else alias.name
                out[alias.asname or alias.name] = target
    return out


class _ClassIndex:
    """Project-wide (module, class name) index with import-aware resolution."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.classes: dict[str, list[tuple[FileContext, ast.ClassDef]]] = {}
        self.modules: dict[int, Optional[str]] = {}
        for ctx in project:
            from ..core import _module_name

            module = _module_name(ctx.path)
            self.modules[id(ctx)] = module
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, []).append((ctx, node))

    def resolve(
        self, ctx: FileContext, name: str
    ) -> Optional[tuple[FileContext, ast.ClassDef]]:
        """Resolve a class name used in ``ctx`` to its project definition."""
        candidates = self.classes.get(name)
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        # prefer the import target's module when the name is ambiguous
        imports = _imports_of(ctx, self.modules[id(ctx)])
        target = imports.get(name)
        if target:
            target_module = target.rsplit(".", 1)[0]
            for cand_ctx, cand_cls in candidates:
                if (self.modules[id(cand_ctx)] or "").endswith(target_module):
                    return cand_ctx, cand_cls
        # fall back to a definition in the same file, then the first one
        for cand_ctx, cand_cls in candidates:
            if cand_ctx is ctx:
                return cand_ctx, cand_cls
        return candidates[0]


def _annotation_names(node: ast.AST) -> set[str]:
    """Class-name identifiers inside an annotation (Optional[X], list[X], …)."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # string annotation: take the head identifier(s)
            for token in sub.value.replace("[", " ").replace("]", " ").replace(
                ",", " "
            ).split():
                out.add(token.split(".")[-1].strip("\"'"))
    return out


def _getstate_exempt(cls: ast.ClassDef) -> set[str]:
    """Attribute names __getstate__ removes from the pickle stream."""
    getstate = next(
        (
            n
            for n in cls.body
            if isinstance(n, ast.FunctionDef) and n.name == "__getstate__"
        ),
        None,
    )
    if getstate is None:
        return set()
    exempt: set[str] = set()
    for node in ast.walk(getstate):
        # state["attr"] = None   /   del state["attr"]
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    exempt.add(target.slice.value)
        # state.pop("attr")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            exempt.add(node.args[0].value)
    return exempt


def _local_function_names(scope: ast.FunctionDef) -> set[str]:
    return {
        n.name
        for n in ast.walk(scope)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n is not scope
    }


def _unpicklable_reason(value: ast.AST, local_defs: set[str]) -> Optional[str]:
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(value, ast.Name) and value.id in local_defs:
        return f"the local closure {value.id!r}"
    if isinstance(value, ast.Call):
        func = value.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name in _LOCK_NAMES:
            return f"a threading.{name}"
        if name in _WEAK_NAMES:
            return f"a weakref {name}"
        if name == "open":
            return "an open file handle"
    return None


@register
class PickleSafetyChecker(Checker):
    rule = "unpicklable-worker-state"
    description = (
        "classes reachable from *WorkerSpec roots must avoid lambdas, local "
        "closures, locks, weakrefs, files, and generators"
    )
    dynamic_backstop = (
        "tests/test_backends.py process-backend determinism pins; "
        "WorkerPool.__init__ pickles the ServiceWorkerSpec before any spawn"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        index = _ClassIndex(project)
        roots = [
            (ctx, cls)
            for name, defs in sorted(index.classes.items())
            if name.endswith(ROOT_SUFFIX)
            for ctx, cls in defs
        ]
        if not roots:
            return []

        findings: list[Finding] = []
        visited: set[tuple[int, str]] = set()
        queue = list(roots)
        while queue:
            ctx, cls = queue.pop(0)
            tag = (id(ctx), cls.name)
            if tag in visited:
                continue
            visited.add(tag)
            exempt = _getstate_exempt(cls)
            referenced: list[str] = []

            # dataclass-style field annotations
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    if stmt.target.id in exempt:
                        continue
                    referenced.extend(sorted(_annotation_names(stmt.annotation)))
                    if stmt.value is not None:
                        reason = _unpicklable_reason(stmt.value, set())
                        if reason is not None:
                            findings.append(
                                self.finding(
                                    ctx,
                                    stmt,
                                    f"{cls.name}.{stmt.target.id} defaults to "
                                    f"{reason}, which cannot be pickled into a "
                                    "worker process",
                                )
                            )

            # instance attributes assigned in methods
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                local_defs = _local_function_names(method)
                for node in ast.walk(method):
                    if not isinstance(node, ast.Assign):
                        continue
                    for target in node.targets:
                        if not (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            continue
                        if target.attr in exempt:
                            continue
                        reason = _unpicklable_reason(node.value, local_defs)
                        if reason is not None:
                            findings.append(
                                self.finding(
                                    ctx,
                                    node,
                                    f"{cls.name}.{target.attr} holds {reason}, "
                                    "which cannot be pickled into a worker "
                                    "process (exempt it in __getstate__ or "
                                    "restructure)",
                                )
                            )
                        if isinstance(node.value, ast.Call) and isinstance(
                            node.value.func, ast.Name
                        ):
                            referenced.append(node.value.func.id)

            for name in referenced:
                resolved = index.resolve(ctx, name)
                if resolved is not None and (
                    id(resolved[0]),
                    resolved[1].name,
                ) not in visited:
                    queue.append(resolved)
        return findings
