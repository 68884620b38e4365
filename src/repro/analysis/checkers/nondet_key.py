"""``nondeterministic-key``: no process-local values inside keys/fingerprints.

Fingerprints and cache keys outlive the Python process: the reward table is
merged across worker processes, baseline files record them, and the
byte-identical-backends contract requires worker *w* on the serial backend
to derive the same keys as worker *w* in a child process.  A key containing

* ``id(...)`` — an address, unique to one process and recycled within it,
* ``hash(...)`` — salted per process for ``str``/``bytes`` under
  ``PYTHONHASHSEED`` randomization,
* ``os.environ`` / ``os.getenv`` / ``os.getpid`` / platform probes,
* wall-clock (``time.*``, ``datetime.now``/``utcnow``/``today``),
* fresh randomness (``random.*``, ``uuid.*``),
* default ``repr()``/``str()`` of objects (embeds ``0x<address>``)

is only meaningful inside the process (and seed) that minted it.  The rule
fires on those calls in *key contexts*:

* anywhere inside a function whose name marks it as a key producer
  (``fingerprint``/``*_key`` — same convention as ``unordered-iteration``);
* on the right-hand side of an assignment to a name matching
  ``key``/``*_key``/``fingerprint*``, in any function.

A key that deliberately uses identity must keep its referents alive for as
long as the key lives; the suppression pragma records that justification
next to the ``# repro: allow-...`` line.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Optional

from ..core import Checker, FileContext, Finding, register
from .unordered_iteration import KEY_PRODUCER_RE

_KEY_TARGET_RE = re.compile(r"(^|_)(key|keys)$|^fingerprint|fingerprint$",
                            re.IGNORECASE)

_BANNED_BARE = {"id", "hash"}

#: module attr calls that are process- or time-dependent
_BANNED_QUALIFIED = {
    ("os", "getenv"),
    ("os", "getpid"),
    ("os", "urandom"),
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "time_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("random", "random"),
    ("random", "randint"),
    ("random", "randrange"),
    ("random", "getrandbits"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
}


def _banned_call(node: ast.Call) -> Optional[str]:
    func = node.func
    if isinstance(func, ast.Name) and func.id in _BANNED_BARE:
        return f"{func.id}(...)"
    if isinstance(func, ast.Attribute):
        attr = func.attr
        base = func.value
        base_name = base.id if isinstance(base, ast.Name) else None
        if (base_name, attr) in _BANNED_QUALIFIED:
            return f"{base_name}.{attr}(...)"
        # datetime.datetime.now() / random.Random().random() style chains
        if attr in {"now", "utcnow", "today"} and base_name in {"datetime", "date"}:
            return f"{base_name}.{attr}(...)"
    return None


def _banned_environ(node: ast.AST) -> Optional[str]:
    # os.environ[...] / os.environ.get(...)
    if (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    ):
        return "os.environ"
    return None


def _scan(node: ast.AST) -> list[tuple[ast.AST, str]]:
    """(site, what) for every banned construct inside ``node``."""
    hits: list[tuple[ast.AST, str]] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            what = _banned_call(sub)
            if what is not None:
                hits.append((sub, what))
        what = _banned_environ(sub)
        if what is not None:
            hits.append((sub, what))
    return hits


class _Visitor(ast.NodeVisitor):
    def __init__(self, checker: "NondeterministicKeyChecker",
                 ctx: FileContext) -> None:
        self.checker = checker
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._producer_depth = 0
        self._flagged: set[int] = set()

    def _flag(self, site: ast.AST, what: str, where: str) -> None:
        if id(site) in self._flagged:
            return
        self._flagged.add(id(site))
        self.findings.append(
            self.checker.finding(
                self.ctx,
                site,
                f"{what} is process-local and lands in {where}; keys must be "
                "derivable from content alone (serialize structure instead)",
            )
        )

    def _function(self, node) -> None:
        producer = bool(KEY_PRODUCER_RE.search(node.name))
        self._producer_depth += producer
        if producer:
            for site, what in _scan(node):
                self._flag(site, what, f"key producer {node.name}()")
        self.generic_visit(node)
        self._producer_depth -= producer

    visit_FunctionDef = _function
    visit_AsyncFunctionDef = _function

    def visit_Assign(self, node: ast.Assign) -> None:
        key_targets = [
            t.id
            for t in node.targets
            if isinstance(t, ast.Name) and _KEY_TARGET_RE.search(t.id)
        ]
        if key_targets:
            for site, what in _scan(node.value):
                self._flag(site, what, f"assignment to {key_targets[0]!r}")
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        # returns inside key producers are already covered by the scan above
        self.generic_visit(node)


@register
class NondeterministicKeyChecker(Checker):
    rule = "nondeterministic-key"
    description = (
        "id()/hash()/env/time/random values inside fingerprints or cache keys"
    )
    dynamic_backstop = (
        "tests/test_backends.py serial/process byte-identity; "
        "tests/test_reward_memo.py memo-on/off interface identity"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        visitor = _Visitor(self, ctx)
        visitor.visit(ctx.tree)
        return visitor.findings
