"""The correctness gate every timed request passes through.

A request passes when:

* its interface signature is byte-identical to every other request for the
  same log (``new`` and ``hit`` alike);
* the generated interface, driven through ``InterfaceRuntime.replay_query``
  on a fresh executor, reproduces every *distinct* input query exactly —
  ``replay_query`` indexes the de-duplicated query sequence, so a log with
  repeats (Filter x36: 27 distinct of 36) is replayed 27 times, not 36;
* each replayed result matches the first request's results for that log,
  and those match the AST interpreter (``Executor(use_planner=False)``),
  which runs once per distinct log per run, after the timed loop.

Failures are recorded per request and never abort the run.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from repro.database.executor import Executor
from repro.difftree.builder import parse_queries
from repro.interface.runtime import InterfaceRuntime
from repro.sqlparser.render import to_sql


def signature(result) -> str:
    """Digest of everything a user sees of one generation."""
    doc = json.dumps(result.interface.to_dict(), sort_keys=True, default=str)
    blob = f"{doc}|{result.best_reward!r}|{result.state.fingerprint()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def result_digest(table) -> str:
    """Digest of a result table: column metadata plus rows in order."""
    columns = [(c.name, c.dtype, c.source, c.is_aggregate) for c in table.columns]
    rows = [
        tuple("<nan>" if isinstance(v, float) and v != v else v for v in row)
        for row in table.rows
    ]
    return hashlib.sha256(repr((columns, rows)).encode()).hexdigest()


def distinct_queries(queries) -> dict[str, object]:
    """Parsed input queries keyed by fingerprint, first occurrence first."""
    out: dict[str, object] = {}
    for ast in parse_queries(list(queries)):
        out.setdefault(ast.fingerprint(), ast)
    return out


def replay(interface, catalog) -> tuple[float, dict[str, str], list[str]]:
    """Drive ``interface`` through every distinct query it expresses.

    Returns the seconds spent in ``InterfaceRuntime`` (construction plus
    every ``replay_query``; digesting results is not timed), ``{query
    fingerprint: result digest}`` and a list of problems.
    """
    start = time.perf_counter()
    runtime = InterfaceRuntime(interface, Executor(catalog))
    seconds = time.perf_counter() - start
    order: list = []
    seen: set[str] = set()
    for view in interface.views:
        for query in view.tree.queries:
            fp = query.fingerprint()
            if fp not in seen:
                seen.add(fp)
                order.append(query)
    digests: dict[str, str] = {}
    problems: list[str] = []
    for index, query in enumerate(order):
        start = time.perf_counter()
        reproduced = runtime.replay_query(index)
        seconds += time.perf_counter() - start
        if not reproduced:
            problems.append(f"replay_query({index}) did not reproduce its query")
            continue
        expected_sql = to_sql(query)
        shown = [s for s in runtime.view_states if s.sql == expected_sql]
        state = next((s for s in shown if s.result is not None), None)
        if state is None:
            problems.append(f"replay_query({index}) left no view showing its query")
            continue
        digests[query.fingerprint()] = result_digest(state.result)
    return seconds, digests, problems


def oracle(queries, catalog) -> dict[str, str]:
    """Interpreter results of every distinct query of a log."""
    interpreter = Executor(catalog, use_planner=False)
    return {
        fp: result_digest(interpreter.execute(ast))
        for fp, ast in distinct_queries(queries).items()
    }


@dataclass
class LogRecord:
    """What the first request for a log produced; later ones must match."""

    queries: tuple
    signature: str
    digests: dict
    cost: float
    requests: list = field(default_factory=list)


class Gate:
    """Accumulates per-request verdicts; the oracle runs in :meth:`finish`."""

    def __init__(self) -> None:
        self.logs: dict[str, LogRecord] = {}
        self.failures: dict[int, str] = {}

    def fail(self, request: int, reason: str) -> None:
        self.failures.setdefault(request, reason)

    def check(self, request: int, log_id: str, queries, result, catalog) -> float:
        """Signature and replay checks for one request; returns replay seconds."""
        seconds, digests, problems = replay(result.interface, catalog)
        expected = set(distinct_queries(queries))
        if set(digests) != expected and not problems:
            problems.append(
                f"interface expresses {len(digests)} of {len(expected)} distinct queries"
            )
        sig = signature(result)
        record = self.logs.get(log_id)
        if record is None:
            record = LogRecord(tuple(queries), sig, digests, result.interface.cost.total)
            self.logs[log_id] = record
        else:
            if sig != record.signature:
                problems.append("interface signature differs from the log's first request")
            if digests != record.digests:
                problems.append("replayed results differ from the log's first request")
        record.requests.append(request)
        if problems:
            self.fail(request, problems[0])
        return seconds

    def finish(self, catalog_for) -> None:
        """Compare each log's replayed results with the AST interpreter."""
        for log_id, record in self.logs.items():
            try:
                truth = oracle(record.queries, catalog_for(log_id))
            except Exception as exc:  # a failed check fails its requests only
                for request in record.requests:
                    self.fail(request, f"interpreter raised {exc!r}")
                continue
            if truth != record.digests:
                bad = sum(1 for fp in truth if record.digests.get(fp) != truth[fp])
                for request in record.requests:
                    self.fail(request, f"{bad} replayed result(s) differ from the interpreter")

    def interface_cost(self) -> float:
        costs = [record.cost for record in self.logs.values()]
        return sum(costs) / len(costs) if costs else float("nan")
