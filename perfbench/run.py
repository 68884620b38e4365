"""PI2 reproduction benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload filter_cold --seed 42 --seconds 25 --trace 0

``--trace 0`` runs the timed closed loop untraced and reports the end-to-end
metrics; ``--trace 1`` is a separate run that times every layer's public
entry points from outside (see ``tracing.py``) and reports per-layer metrics.
Every run passes each request through the correctness gate (``gate.py``).
Human-readable lines come first; the last line of stdout is the JSON result.
Latencies are medians over the run's requests, normalised for machine-speed
drift (``drift.py``).  Exit status is 0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: requests a run makes even when ``--seconds`` runs out first, so every
#: metric has samples (one-shot: 1 first + 2 repeats; service: one pattern)
MIN_REQUESTS = 3

#: replay time measured per request: a replay shorter than this (~8 ms on
#: filter_cold) is repeated on fresh executors and the mean is its sample
MIN_REPLAY_S = 0.1


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                line.split(":", 1)[1].strip()
                for line in handle
                if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    code = None
    if (ROOT / ".git").exists():
        try:
            code = "git:" + subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    if code is None:
        # not a git checkout: identify the code by its source tree
        digest = hashlib.sha256()
        for path in sorted((ROOT / "src").rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
        code = "src-sha256:" + digest.hexdigest()[:16]
    return (
        f"nproc={os.cpu_count()} cpu={cpu!r} "
        f"python={platform.python_version()} code={code}"
    )


def _percentile_note(values: list) -> str:
    """The highest percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return "p-high n/a"
    below = n - 10
    return f"p{100 * below // n}={sorted(values)[below - 1]:.4f}"


def _peak_rss_mb(worker_pids) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in worker_pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                kib += next(
                    int(line.split()[1]) for line in handle if line.startswith("VmHWM")
                )
        except (OSError, StopIteration):
            pass
    return kib / 1024.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    ``GenerationService.close`` already joins the pool workers; stragglers
    are terminated here.  The shared-memory catalogue also starts
    multiprocessing's resource tracker, which by design outlives its parent:
    closing its pipe makes it unlink any leftover segment and exit, and it
    is then waited for (killed if it does not end within ``timeout``).
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        tracker._fd = tracker._pid = None
    if fd is None:
        return
    os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG)[0] == 0:
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                break
            time.sleep(0.01)
    except ChildProcessError:
        pass


class Run:
    """One benchmark run: set-up, closed loop, gate, metrics."""

    def __init__(self, args, gate=None, index_base: int = 0) -> None:
        import drift
        import gate as gates
        import workloads

        self.workload = workloads.make(args.workload, args.seed)
        self.ref = drift.Reference(self.workload.worker_pids)
        self.gate = gate if gate is not None else gates.Gate()
        #: added to request indices, so two runs can share one gate
        self.index_base = index_base
        self.records: list[dict] = []
        self.setups: list[dict] = []
        self.attempted = 0
        self.peak_rss_mb = 0.0
        self.tracing = None

    # -- timed pieces ---------------------------------------------------

    def _setup_once(self) -> dict:
        gc.collect()
        with self.ref.window() as window:
            start = time.perf_counter()
            self.workload.setup()
            seconds = time.perf_counter() - start
        record = {"s": window.normalise(seconds)}
        if self.tracing is not None:
            record["layer"] = self.tracing.setup_layers(seconds)
        return record

    def _request(self, request) -> dict:
        import gate as gates

        index = self.index_base + request.index
        record = {"index": index, "cls": request.cls, "repeat": request.repeat}
        self.attempted += 1
        gc.collect()
        try:
            with self.ref.window() as window:
                served = self.workload.serve(request)
        except Exception:
            self.gate.fail(index, "request raised")
            traceback.print_exc(file=sys.stdout)
            return record
        for error in served.class_errors:
            self.gate.fail(index, error)
        record["layer"] = counts(served)
        if self.tracing is not None:
            record["layer"].update(self.tracing.request_layers(served))
        replays: list[float] = []
        try:
            with self.ref.window() as replay_window:
                replays.append(
                    self.gate.check(
                        index, request.log_id, request.queries, served.result, served.catalog
                    )
                )
                while sum(replays) < MIN_REPLAY_S:
                    replays.append(gates.replay(served.result.interface, served.catalog)[0])
        except Exception:
            self.gate.fail(index, "correctness gate raised")
            traceback.print_exc(file=sys.stdout)
        replay_s = statistics.fmean(replays) if replays else None
        if self.tracing is not None:
            self.tracing.replay_layers(record, replays)
        record["gen_raw_s"] = served.gen_s
        record["probes"] = len(window.probes)
        record["speed"] = window.speed()
        record["gen_s"] = window.normalise(served.gen_s)
        if served.build_s is not None:
            record["build_s"] = window.normalise(served.build_s)
        if replay_s is not None:
            record["replay_s"] = replay_window.normalise(replay_s)
        return record

    def loop(self, seconds: float, setups: int, min_requests: int = MIN_REQUESTS) -> None:
        for _ in range(setups):
            self.setups.append(self._setup_once())
        deadline = time.perf_counter() + seconds
        for request in self.workload.requests():
            if time.perf_counter() >= deadline and len(self.records) >= min_requests:
                break
            record = self._request(request)
            self.records.append(record)
            status = self.gate.failures.get(record["index"], "ok")
            print(
                f"request {record['index']:5d} {request.cls:4s} "
                f"gen={record.get('gen_raw_s', float('nan')):.3f}s "
                f"(normalised {record.get('gen_s', float('nan')):.3f}s) "
                f"replay={record.get('replay_s', float('nan')):.3f}s "
                f"probes={record.get('probes', 0)} speed={record.get('speed', 0):.4g} {status}",
                flush=True,
            )
        self.peak_rss_mb = _peak_rss_mb(self.workload.worker_pids())
        print(
            f"# reference loop median {self.ref.median():.5f}s, "
            f"{self.ref.rejected} samples rejected for background CPU"
        )

    # -- results --------------------------------------------------------

    def end_to_end(self) -> dict:
        gen = [r["gen_s"] for r in self.records if "gen_s" in r and r["cls"] != "hit"]
        hit = [r["gen_s"] for r in self.records if "gen_s" in r and r["repeat"]]
        replay = [r["replay_s"] for r in self.records if "replay_s" in r]
        setup = [s["s"] for s in self.setups]
        setup += [r["build_s"] for r in self.records if "build_s" in r]
        ok = self.attempted - len(self.gate.failures)
        metrics = {}
        for name, values in (
            ("setup_s", setup),
            ("gen_p50_s", gen),
            ("hit_p50_s", hit),
            ("replay_p50_s", replay),
        ):
            metrics[name] = (_median(values), "s", f"n={len(values)} {_percentile_note(values)}")
        metrics["interface_cost"] = (self.gate.interface_cost(), "cost", f"logs={len(self.gate.logs)}")
        metrics["ok_frac"] = (ok / max(1, self.attempted), "ratio", f"{ok}/{self.attempted}")
        metrics["peak_rss_mb"] = (self.peak_rss_mb, "MB", "")
        return metrics


def counts(served) -> dict:
    """Per-request work counters reported by the program itself."""
    result = served.result
    mapper, search, plan = result.mapper_stats, result.search_stats, result.executor_stats
    memo = mapper.memo_hits + mapper.memo_misses
    reward_hits = search.reward_cache_hits + search.reward_table_hits
    return {
        "mapping.searchm_calls": mapper.searchm_calls,
        "mapping.widget_cover_states": mapper.widget_cover_states,
        "mapping.interfaces_evaluated": mapper.interfaces_evaluated,
        "mapping.memo_hit_ratio": mapper.memo_hits / memo if memo else 0.0,
        "search.states_evaluated": search.states_evaluated,
        "search.iterations": search.iterations,
        "search.sync_rounds": search.sync_rounds,
        "search.warmup_s": search.warmup_seconds,
        "search.reward_hit_ratio": (
            reward_hits / (reward_hits + search.states_evaluated)
            if reward_hits + search.states_evaluated
            else 0.0
        ),
        "search.reward_table_hits": search.reward_table_hits,
        "transform.rule_applications": search.rule_applications,
        "database.executions": plan.result_cache_hits + plan.result_cache_misses,
        "database.result_cache_hit_ratio": (
            plan.result_cache_hits / (plan.result_cache_hits + plan.result_cache_misses)
            if plan.result_cache_hits + plan.result_cache_misses
            else 0.0
        ),
        "database.plan_cache_hit_ratio": (
            plan.plan_cache_hits / (plan.plan_cache_hits + plan.plans_compiled)
            if plan.plan_cache_hits + plan.plans_compiled
            else 0.0
        ),
        "database.row_engine_executions": plan.columnar_plan_gated + plan.columnar_fallbacks,
        "service.retries": getattr(served.request_stats, "retries", 0),
        "service.workers_replaced": getattr(served.request_stats, "workers_replaced", 0),
        "service.degraded_requests": int(bool(getattr(served.request_stats, "degraded", None))),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program source under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.NAMES:
        _fail(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")

    print(
        f"# perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print(f"# machine {_machine()}", flush=True)

    try:
        if args.trace:
            import tracing

            result, gate, attempted = tracing.traced_run(args, Run)
        else:
            run = Run(args)
            try:
                run.loop(args.seconds, run.workload.SETUPS)
                run.gate.finish(run.workload.catalog_for)
            finally:
                run.workload.close()
            result, gate, attempted = run.end_to_end(), run.gate, run.attempted
    finally:
        _stop_children()

    failures = gate.failures
    for log_id, record in gate.logs.items():
        print(
            f"# log {log_id} requests={len(record.requests)} "
            f"signature={record.signature[:16]} cost={record.cost:.6g}"
        )
    for index, reason in sorted(failures.items()):
        print(f"FAILED request {index}: {reason}")
    metrics = {}
    for name, (value, unit, note) in result.items():
        print(f"metric {name} = {value:.6g} {unit} {note}".rstrip())
        # a run whose every request failed has no cost to report
        metrics[name] = {"value": value if math.isfinite(value) else 0.0, "unit": unit}
    print(
        json.dumps(
            {
                "correct": not failures and attempted > 0,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
