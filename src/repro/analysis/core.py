"""The lint framework: findings, file/project contexts, registry, driver.

The analyzer is a thin two-phase driver over Python's :mod:`ast`:

1. every target file is parsed once into a :class:`FileContext` (source,
   AST, and the ``# repro: allow-<rule>`` suppression pragmas it carries);
2. *file checkers* walk each context independently, while *project
   checkers* receive the whole :class:`Project` and cross-reference
   definitions between files (e.g. the plan-cache key against the
   executor's planner flags).

Checkers subclass :class:`Checker` and register themselves with
:func:`register`; the CLI and the test suite both drive them through
:func:`run_checkers`.

Suppression pragmas
-------------------

A finding on line *N* is suppressed when line *N* — or the line directly
above it, for statements too long to carry a trailing comment — contains::

    # repro: allow-<rule-name>[ -- justification]

Several rules may be allowed at once (``# repro: allow-a allow-b``), and
``allow-all`` suppresses every rule on that line.  Suppressions are meant
for *intentional* violations whose justification lives in adjacent code
comments; drive-by noise belongs in the baseline file instead (see
:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

#: ``# repro: allow-<rule>`` — the pragma marker scanned for on each line.
_PRAGMA_RE = re.compile(r"#\s*repro:\s*((?:allow-[A-Za-z0-9_-]+\s*)+)")
_ALLOW_RE = re.compile(r"allow-([A-Za-z0-9_-]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class FileContext:
    """One parsed target file plus its suppression pragmas."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        #: line number -> set of rule names allowed on that line
        self.allowed: dict[int, set[str]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(line)
            if match:
                rules = set(_ALLOW_RE.findall(match.group(1)))
                self.allowed[lineno] = rules

    def is_suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is allowed on ``line`` or the line above it."""
        for candidate in (line, line - 1):
            rules = self.allowed.get(candidate)
            if rules and (rule in rules or "all" in rules):
                return True
        return False


class Project:
    """All parsed files of one analyzer run, addressable by module path."""

    def __init__(self, files: Sequence[FileContext]) -> None:
        self.files = list(files)
        self._by_path = {ctx.path: ctx for ctx in self.files}
        self._by_module: dict[str, FileContext] = {}
        for ctx in self.files:
            module = _module_name(ctx.path)
            if module is not None:
                self._by_module[module] = ctx

    def file(self, path: str) -> Optional[FileContext]:
        return self._by_path.get(path)

    def module(self, dotted: str) -> Optional[FileContext]:
        """Look up a file by (suffix of) its dotted module path."""
        ctx = self._by_module.get(dotted)
        if ctx is not None:
            return ctx
        for module, candidate in sorted(self._by_module.items()):
            if module.endswith("." + dotted) or module == dotted:
                return candidate
        return None

    def __iter__(self) -> Iterator[FileContext]:
        return iter(self.files)


def _module_name(path: str) -> Optional[str]:
    """``src/repro/database/plancache.py`` -> ``repro.database.plancache``."""
    parts = Path(path).with_suffix("").parts
    if not parts:
        return None
    # strip leading non-package segments (src/, absolute prefixes)
    for anchor in ("repro", "tests", "benchmarks"):
        if anchor in parts:
            parts = parts[parts.index(anchor):]
            break
    dotted = ".".join(parts)
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted or None


class Checker:
    """Base class: subclasses set ``rule``/``description`` and override one hook.

    ``check_file`` runs once per :class:`FileContext`; ``check_project`` runs
    once per :class:`Project` after every file parsed.  A checker may
    implement either or both.
    """

    rule: str = ""
    description: str = ""
    #: the dynamic (test-suite) counterpart backing this static rule; shown
    #: by ``--list-rules`` and in the ARCHITECTURE invariants table
    dynamic_backstop: str = ""

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self, project: Project) -> Iterable[Finding]:
        return ()

    # -- helpers shared by the concrete checkers ---------------------------

    def finding(self, ctx_or_path, node_or_line, message: str) -> Finding:
        if isinstance(ctx_or_path, FileContext):
            path = ctx_or_path.path
        else:
            path = str(ctx_or_path)
        if isinstance(node_or_line, ast.AST):
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0) + 1
        else:
            line, col = int(node_or_line), 1
        return Finding(rule=self.rule, path=path, line=line, col=col, message=message)


#: rule name -> checker factory, in registration order
REGISTRY: dict[str, Callable[[], Checker]] = {}


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not cls.rule:
        raise ValueError(f"checker {cls.__name__} has no rule name")
    if cls.rule in REGISTRY:
        raise ValueError(f"duplicate checker rule {cls.rule!r}")
    REGISTRY[cls.rule] = cls
    return cls


def all_checkers(select: Optional[Sequence[str]] = None) -> list[Checker]:
    """Instantiate registered checkers, optionally restricted to ``select``."""
    # importing the package registers the built-in checkers exactly once
    from . import checkers as _checkers  # noqa: F401

    names = list(REGISTRY) if not select else list(select)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown rule(s): {', '.join(sorted(unknown))}")
    return [REGISTRY[name]() for name in names]


@dataclass
class AnalysisResult:
    """Findings of one run, split by suppression state."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    def extend(self, other: "AnalysisResult") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files_checked += other.files_checked


def collect_files(paths: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Sorted so findings — and therefore baseline files and CI output — are
    stable regardless of filesystem enumeration order.
    """
    out: set[str] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(str(p) for p in path.rglob("*.py"))
        elif path.suffix == ".py":
            out.add(str(path))
    return sorted(out)


def build_project(paths: Sequence[str]) -> tuple[Project, list[Finding]]:
    """Parse every target file; syntax errors become ``parse-error`` findings."""
    contexts: list[FileContext] = []
    errors: list[Finding] = []
    for path in collect_files(paths):
        try:
            source = Path(path).read_text()
            contexts.append(FileContext(path, source))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", None) or 1
            errors.append(
                Finding(
                    rule="parse-error",
                    path=path,
                    line=int(line),
                    col=1,
                    message=f"could not parse file: {exc}",
                )
            )
    return Project(contexts), errors


def project_from_sources(sources: dict[str, str]) -> Project:
    """A project over in-memory ``{path: source}`` snippets (test fixtures)."""
    return Project([FileContext(path, src) for path, src in sources.items()])


def run_checkers(
    project: Project, checkers: Optional[Sequence[Checker]] = None
) -> AnalysisResult:
    """Run file and project checkers over ``project``, applying pragmas."""
    active = list(checkers) if checkers is not None else all_checkers()
    result = AnalysisResult(files_checked=len(project.files))
    raw: list[Finding] = []
    for checker in active:
        for ctx in project:
            raw.extend(checker.check_file(ctx))
        raw.extend(checker.check_project(project))
    for finding in sorted(raw, key=Finding.sort_key):
        ctx = project.file(finding.path)
        if ctx is not None and ctx.is_suppressed(finding.rule, finding.line):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result


def analyze_source(
    source: str, path: str = "<snippet>", select: Optional[Sequence[str]] = None
) -> AnalysisResult:
    """Analyze one in-memory snippet (the fixture-test entry point)."""
    project = project_from_sources({path: source})
    return run_checkers(project, all_checkers(select))
