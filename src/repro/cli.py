"""Command-line interface for the PI2 reproduction.

Examples::

    # list the built-in evaluation workloads
    python -m repro list-workloads

    # generate the interface for a built-in workload and write an HTML preview
    python -m repro generate --workload covid --html covid.html

    # generate an interface from your own queries (one per line in a file,
    # or passed inline) against the synthetic catalogue
    python -m repro generate --query "SELECT hp, mpg FROM Cars WHERE hp BETWEEN 50 AND 60" \
                             --query "SELECT hp, mpg FROM Cars WHERE hp BETWEEN 60 AND 90"

    # inspect a workload's queries
    python -m repro show --workload sales

    # repeat generations over a warm worker pool with cross-run persistence
    python -m repro generate --workload covid --backend process --pool \
                             --repeat 3 --cache-dir ~/.cache/pi2

    # serve queued generation requests (JSON lines on stdin or a file)
    echo '{"workload": "covid"}' | python -m repro serve --backend process
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .core.config import PipelineConfig
from .core.pipeline import generate_interface
from .database.datasets import standard_catalog
from .faults import GenerationFailure
from .database.executor import Executor
from .interface.export import export_html, interface_to_json
from .interface.runtime import InterfaceRuntime
from .search.backends import BACKEND_NAMES
from .taxonomy import classify_interface
from .workloads import WORKLOADS, get_workload

#: Exit code on Ctrl-C — the conventional 128 + SIGINT, *after* an orderly
#: teardown (pool drained, shared memory released, traces flushed).
EXIT_INTERRUPTED = 130

#: Exit code when every rung of the service's degradation ladder failed.
EXIT_GENERATION_FAILED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PI2: generate interactive visualization interfaces from example queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an interface")
    gen.add_argument("--workload", help="name of a built-in workload (see list-workloads)")
    gen.add_argument(
        "--query",
        action="append",
        default=[],
        help="an input query (repeat the flag for a sequence)",
    )
    gen.add_argument("--queries-file", help="file with one SQL query per line")
    gen.add_argument(
        "--config",
        choices=["fast", "paper"],
        default="fast",
        help="search budget: 'fast' (default) or 'paper' (the paper's defaults)",
    )
    gen.add_argument("--seed", type=int, default=42, help="random seed")
    gen.add_argument("--scale", type=float, default=0.3, help="synthetic catalogue scale")
    gen.add_argument(
        "--workers",
        type=int,
        default=None,
        help="number of parallel MCTS workers (default: the config's p)",
    )
    gen.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="search-execution backend: 'serial' (round-robin, default) or "
        "'process' (one OS process per worker on a supervised worker pool — "
        "true wall-clock parallelism; without --pool the pool lives for one "
        "generation)",
    )
    gen.add_argument("--html", help="write a static HTML preview to this path")
    gen.add_argument("--json", dest="json_out", help="write the interface spec as JSON")
    gen.add_argument(
        "--taxonomy",
        action="store_true",
        help="also print the Yi et al. interaction-taxonomy classification",
    )
    gen.add_argument(
        "--pool",
        action="store_true",
        help="run through the persistent generation service: workers stay "
        "alive across --repeat runs (spawn + warm-up paid once)",
    )
    gen.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="generate this many times (with --pool, repeats reuse the warm "
        "pool and the reward table; default 1)",
    )
    gen.add_argument(
        "--cache-dir",
        help="persist the reward table / plan cache / mapping memo under "
        "this directory and reload them on later runs (keyed by catalogue, "
        "workload and config fingerprints)",
    )
    gen.add_argument(
        "--trace",
        help="record spans across the run and write a Chrome trace_event "
        "JSON file to this path (open in Perfetto / chrome://tracing)",
    )
    gen.add_argument(
        "--trace-jsonl",
        help="like --trace, but write the span event log as JSON lines",
    )
    _add_resilience_arguments(gen)

    serve = sub.add_parser(
        "serve",
        help="serve queued generation requests over one warm worker pool",
    )
    serve.add_argument(
        "--requests",
        help="file of JSON-lines requests ({\"workload\": name} or "
        "{\"queries\": [...]}); default: read from stdin",
    )
    serve.add_argument("--config", choices=["fast", "paper"], default="fast")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--scale", type=float, default=0.3)
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="search-execution backend: 'serial' (in-process, default) or "
        "'process' (the service's worker pool, kept alive across requests)",
    )
    serve.add_argument("--cache-dir", help="cross-run cache persistence directory")
    _add_resilience_arguments(serve)

    sub.add_parser("list-workloads", help="list the built-in evaluation workloads")

    show = sub.add_parser("show", help="print a workload's queries")
    show.add_argument("--workload", required=True)

    stats = sub.add_parser(
        "stats",
        help="pretty-print a recorded trace: per-phase wall-clock "
        "attribution and cache hit rates",
    )
    stats.add_argument("trace", help="a file written by generate --trace / --trace-jsonl")

    return parser


def _add_resilience_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per request; when it expires the service "
        "degrades to the serial in-process backend instead of waiting",
    )
    sub.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="supervised task replays after a worker failure before the "
        "pool gives up and the service degrades (default 2)",
    )


def _load_queries(args) -> list[str]:
    queries: list[str] = []
    if args.workload:
        queries.extend(get_workload(args.workload).queries)
    queries.extend(args.query)
    if args.queries_file:
        with open(args.queries_file, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line and not line.startswith("--"):
                    queries.append(line)
    if not queries:
        raise SystemExit("no input queries: pass --workload, --query or --queries-file")
    return queries


def _build_config(args) -> PipelineConfig:
    config = (
        PipelineConfig.paper_defaults(seed=args.seed)
        if args.config == "paper"
        else PipelineConfig.fast(seed=args.seed)
    )
    if args.workers is not None:
        config.search.workers = max(1, args.workers)
    if args.backend is not None:
        config.search.backend = args.backend
    if getattr(args, "cache_dir", None):
        config.cache_dir = args.cache_dir
    if getattr(args, "deadline", None) is not None:
        config.search.request_deadline_seconds = max(0.0, args.deadline)
    if getattr(args, "retries", None) is not None:
        config.search.task_retries = max(0, args.retries)
    return config


def _enable_tracing() -> None:
    """Turn the span tracer on, including in workers spawned later.

    The environment variable must be set *before* any worker process is
    spawned: spawn-method children initialise their tracer from it, so
    setting it here is what makes worker-side spans exist at all.
    """
    import os

    from .obs import TRACE_ENV_VAR, TRACER

    os.environ[TRACE_ENV_VAR] = "1"
    TRACER.enable()


def _write_traces(args, metrics: Optional[dict]) -> None:
    from .obs import TRACER, write_chrome_trace, write_jsonl

    events = TRACER.events()
    if args.trace:
        write_chrome_trace(args.trace, events, metrics=metrics)
        print(f"wrote Chrome trace ({len(events)} spans) to {args.trace}")
    if args.trace_jsonl:
        write_jsonl(args.trace_jsonl, events, metrics=metrics)
        print(f"wrote JSONL trace ({len(events)} spans) to {args.trace_jsonl}")


def _command_generate(args) -> int:
    queries = _load_queries(args)
    config = _build_config(args)
    catalog = standard_catalog(seed=args.seed, scale=args.scale)
    repeats = max(1, args.repeat)
    if args.trace or args.trace_jsonl:
        _enable_tracing()

    print(f"generating an interface from {len(queries)} queries …", file=sys.stderr)
    try:
        if args.pool:
            from .service import GenerationService

            # the context manager is the Ctrl-C guarantee: pool workers are
            # drained and the shared-memory segment unlinked on the way out
            with GenerationService(
                catalog=catalog, config=config, cache_dir=args.cache_dir
            ) as service:
                for run in range(repeats):
                    result = service.generate(queries)
                    print(
                        f"request {run + 1}/{repeats}: {service.requests[-1].summary()}",
                        file=sys.stderr,
                    )
        else:
            for run in range(repeats):
                result = generate_interface(queries, catalog=catalog, config=config)
                if repeats > 1:
                    print(
                        f"request {run + 1}/{repeats}: {result.total_seconds:.3f}s",
                        file=sys.stderr,
                    )
    except KeyboardInterrupt:
        # flush whatever spans were recorded before the interrupt so the
        # partial run stays debuggable, then let main() report the exit code
        if args.trace or args.trace_jsonl:
            _write_traces(args, None)
        raise
    interface = result.interface

    print(interface.describe())
    print(
        f"\ngenerated in {result.total_seconds:.1f}s "
        f"(search {result.search_seconds:.1f}s, mapping {result.mapping_seconds:.1f}s)"
    )
    print(_search_summary(result))
    if args.taxonomy:
        print("\nYi et al. taxonomy coverage:")
        print(classify_interface(interface).describe())

    runtime: Optional[InterfaceRuntime] = None
    if args.html or args.json_out:
        runtime = InterfaceRuntime(interface, Executor(catalog))
    if args.html:
        export_html(interface, args.html, runtime, title="PI2 generated interface")
        print(f"wrote HTML preview to {args.html}")
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(interface_to_json(interface, runtime))
        print(f"wrote JSON spec to {args.json_out}")
    if args.trace or args.trace_jsonl:
        _write_traces(args, result.metrics)
    return 0


def _search_summary(result) -> str:
    """One-line search diagnostics (backend, sharing, per-worker progress),
    plus how many statements the executor ran on the columnar engine."""
    stats = result.search_stats
    per_worker = ",".join(str(n) for n in stats.per_worker_iterations)
    line = (
        f"search: backend={stats.backend} "
        f"workers={len(stats.per_worker_iterations)} "
        f"iterations={stats.iterations} (per-worker {per_worker}) "
        f"sync-rounds={stats.sync_rounds} "
        f"states-evaluated={stats.states_evaluated} "
        f"reward-table-hits={stats.reward_table_hits}"
    )
    if stats.pool is not None:
        # pool-served request: make warm/cold behaviour observable without
        # reading JSON stats — warm requests show the preloaded table size
        line += (
            f" pool={stats.pool} reward_table_loaded={stats.reward_table_loaded}"
        )
    if stats.warmup_seconds:
        line += f" warmup={stats.warmup_seconds:.2f}s"
    line += f"\ncolumnar: executions={result.executor_stats.columnar_executions}"
    workers = (result.metrics or {}).get("workers.executor.columnar_executions")
    if workers is not None:
        # process workers run the reward queries on their own executors;
        # their counts arrive in the run's metrics under workers.*
        line += f" workers={workers}"
    return line


def _command_serve(args) -> int:
    """Multiplex queued generation requests over one persistent service.

    Requests are JSON lines — ``{"workload": "covid"}`` or ``{"queries":
    ["SELECT …", …]}`` — read from ``--requests`` or stdin.  Each reply is a
    JSON line with the request's warm/cold stats; a final summary line
    reports the whole session.
    """
    from .service import GenerationService

    config = _build_config(args)
    catalog = standard_catalog(seed=args.seed, scale=args.scale)

    if args.requests:
        handle = open(args.requests, "r", encoding="utf-8")
    else:
        handle = sys.stdin
    served = failed = 0
    try:
        with GenerationService(
            catalog=catalog, config=config, cache_dir=args.cache_dir
        ) as service:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    request = json.loads(line)
                    if "workload" in request:
                        result = service.generate_workload(request["workload"])
                    elif "queries" in request:
                        result = service.generate(request["queries"])
                    else:
                        raise ValueError(
                            "request needs a 'workload' or 'queries' field"
                        )
                except Exception as exc:
                    failed += 1
                    print(
                        json.dumps({"line": lineno, "error": str(exc)}),
                        flush=True,
                    )
                    continue
                served += 1
                stats = service.requests[-1]
                print(
                    json.dumps(
                        {
                            "line": lineno,
                            "pool": stats.pool,
                            "backend": stats.backend,
                            "seconds": round(stats.seconds, 4),
                            "warmup_seconds": round(stats.warmup_seconds, 4),
                            "reward_table_loaded": stats.reward_table_loaded,
                            "reward_table_hits": stats.reward_table_hits,
                            "retries": stats.retries,
                            "workers_replaced": stats.workers_replaced,
                            "degraded": stats.degraded,
                            "deadline_exceeded": stats.deadline_exceeded,
                            "cost": result.cost,
                            "views": len(result.interface.views),
                        }
                    ),
                    flush=True,
                )
            warm = sum(1 for r in service.requests if r.pool == "warm")
            print(
                f"served {served} request(s) ({warm} warm), {failed} failed",
                file=sys.stderr,
            )
    finally:
        if handle is not sys.stdin:
            handle.close()
    return 0 if failed == 0 else 1


def _command_list_workloads() -> int:
    rows = []
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        rows.append((name, len(workload.queries), workload.description))
    width = max(len(r[0]) for r in rows)
    for name, count, description in rows:
        print(f"{name.ljust(width)}  {count:2d} queries  {description}")
    return 0


def _command_stats(args) -> int:
    """Pretty-print per-phase wall-clock attribution and cache hit rates."""
    from .obs import cache_hit_rates, phase_attribution, read_trace

    events, metrics = read_trace(args.trace)
    if not events:
        print(f"{args.trace}: no span events recorded", file=sys.stderr)
        return 1

    attribution = phase_attribution(events)
    total = sum(attribution.values())
    workers = len({e.pid for e in events})
    print(f"trace: {len(events)} spans across {workers} process(es)")
    print(f"\nphase attribution (self time, {total:.3f}s total):")
    width = max(len(p) for p in attribution)
    for phase_name, seconds in sorted(
        attribution.items(), key=lambda kv: -kv[1]
    ):
        if seconds == 0.0 and phase_name != "other":
            continue
        share = (seconds / total * 100.0) if total else 0.0
        bar = "#" * int(round(share / 2))
        print(f"  {phase_name.ljust(width)}  {seconds:9.4f}s  {share:5.1f}%  {bar}")

    rows = cache_hit_rates(metrics)
    if rows:
        print("\ncache hit rates:")
        name_width = max(len(r["cache"]) for r in rows)
        for row in rows:
            lookups = row["hits"] + row["misses"]
            rate = (
                f"{row['rate'] * 100.0:5.1f}%" if row["rate"] is not None else "    —"
            )
            print(
                f"  {row['cache'].ljust(name_width)}  "
                f"{row['hits']:6d} hits / {lookups:6d} lookups  {rate}"
            )
    return 0


def _command_show(args) -> int:
    workload = get_workload(args.workload)
    print(f"-- {workload.name}: {workload.description}")
    for i, sql in enumerate(workload.queries, 1):
        print(f"Q{i}: {sql}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    ``Ctrl-C`` exits with :data:`EXIT_INTERRUPTED` (130) after an orderly
    teardown — the service context managers inside each command drain the
    worker pool and release shared memory on the way out, and ``generate``
    flushes any recorded trace first.  A request that failed on every
    degradation rung exits with :data:`EXIT_GENERATION_FAILED`.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _command_generate(args)
        if args.command == "serve":
            return _command_serve(args)
        if args.command == "list-workloads":
            return _command_list_workloads()
        if args.command == "show":
            return _command_show(args)
        if args.command == "stats":
            return _command_stats(args)
    except KeyboardInterrupt:
        print("interrupted: pool drained, resources released", file=sys.stderr)
        return EXIT_INTERRUPTED
    except GenerationFailure as exc:
        print(f"generation failed on every rung: {exc}", file=sys.stderr)
        return EXIT_GENERATION_FAILED
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
