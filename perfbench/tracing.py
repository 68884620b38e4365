"""The traced run: per-layer metrics, separate from the timed runs.

1. An untraced reference phase serves the first request(s) of the seed's
   sequence with no wrappers installed (one-shot: the first request;
   service: its first ``new`` and first ``hit``).
2. The layer wrappers are installed and tracing is enabled *before* the
   service's pool forks, so workers time their layers too; then the usual
   closed loop runs for ``--seconds``.  The tracer is drained after every
   set-up, generation and replay, so its buffer never fills.

Hygiene: the program's own work counters of each traced request must equal
those of the same request untraced, no trace event may be dropped, and the
share of request time no layer entry point covers is reported as
``bench.unattributed_share``.
"""

from __future__ import annotations

import os
import statistics

import layers
from repro.obs.trace import TRACER

#: counters that must not change when tracing is on
HYGIENE_COUNTS = (
    "mapping.searchm_calls",
    "mapping.interfaces_evaluated",
    "search.states_evaluated",
    "database.executions",
)

#: per-layer times reported in seconds and as a share of their request
TIMED = (
    "mapping.final_s",
    "mapping.reward_s",
    "cost.busy_s",
    "search.busy_s",
    "transform.busy_s",
    "database.execute_s",
    "database.plan_s",
    "service.task_wait_s",
    "service.request_overhead_s",
    "difftree.busy_s",
    "sqlparser.busy_s",
)

#: the subset also reported for the repeat class as ``hit.<name>``
HIT_METRICS = (
    "mapping.final_s",
    "mapping.final_share",
    "service.task_wait_s",
    "service.task_wait_share",
    "service.request_overhead_s",
    "search.states_evaluated",
    "search.reward_hit_ratio",
    "bench.unattributed_share",
)


class Tracing:
    """Drains the layer totals around each timed piece."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.full_worker_buffers = 0

    def _drain(self) -> tuple[layers.Totals, layers.Totals]:
        """(parent totals, parent + worker totals) since the last drain."""
        events = TRACER.take_events()
        per_pid: dict = {}
        for event in events:
            per_pid[event.pid] = per_pid.get(event.pid, 0) + 1
        # a worker's tracer drops silently once it holds max_events events
        self.full_worker_buffers += sum(
            1 for pid, n in per_pid.items() if pid != self.pid and n >= TRACER.max_events
        )
        return layers.drain(events)

    def setup_layers(self, seconds: float) -> dict:
        _, a = self._drain()
        spawn = a.self_s.get("service.pool_init", 0.0)
        register = a.inclusive_s.get("service.shm_register", 0.0)
        return {
            "service.spawn_s": spawn,
            "service.spawn_share": spawn / seconds,
            "service.shm_register_s": register,
            "service.shm_register_share": register / seconds,
        }

    def request_layers(self, served) -> dict:
        parent, a = self._drain()
        wall = served.gen_s
        inc = a.inclusive_s
        times = {
            "mapping.final_s": inc.get("mapping.generate", 0.0),
            "mapping.reward_s": inc.get("mapping.random_interfaces", 0.0),
            "cost.busy_s": a.busy("cost"),
            "search.busy_s": a.busy("search"),
            "transform.busy_s": a.busy("transform"),
            "database.execute_s": inc.get("database.execute", 0.0),
            "database.plan_s": inc.get("database.plan", 0.0),
            "service.task_wait_s": inc.get("service.run_task", 0.0),
            "service.request_overhead_s": a.self_s.get("service.generate", 0.0),
            "difftree.busy_s": a.busy("difftree"),
            "sqlparser.busy_s": a.busy("sqlparser"),
        }
        out = {}
        for name, seconds in times.items():
            out[name] = seconds
            out[name[: -len("_s")] + "_share"] = seconds / wall
        out["cost.manipulation_calls"] = a.calls.get("cost.manipulation_cost", 0)
        # the parent's layer self times, minus the pipeline glue root
        attributed = sum(
            v for k, v in parent.self_s.items() if k != "pipeline.generate_interface"
        )
        out["bench.unattributed_share"] = max(0.0, wall - attributed) / wall
        return out

    def replay_layers(self, record: dict, replays: list) -> None:
        """Per replay: ``replay_query`` self time, and its share of the replay."""
        _, a = self._drain()
        seconds = a.self_s.get("interface.replay_query", 0.0)
        record["layer"]["interface.replay_s"] = seconds / len(replays) if replays else 0.0
        record["layer"]["interface.replay_share"] = seconds / sum(replays) if replays else 0.0


def _unit(name: str) -> str:
    if name.endswith("_share"):
        return "share"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def _median(records, name: str) -> float:
    values = [r["layer"][name] for r in records if name in r.get("layer", {})]
    return statistics.median(values) if values else 0.0


#: per-request values reported as medians over the ``gen_p50_s`` class
PER_REQUEST = (
    [t for name in TIMED for t in (name, name[: -len("_s")] + "_share")]
    + [
        "interface.replay_s",
        "interface.replay_share",
        "cost.manipulation_calls",
        "mapping.searchm_calls",
        "mapping.widget_cover_states",
        "mapping.interfaces_evaluated",
        "mapping.memo_hit_ratio",
        "search.states_evaluated",
        "search.iterations",
        "search.sync_rounds",
        "search.reward_hit_ratio",
        "search.warmup_s",
        "transform.rule_applications",
        "database.executions",
        "database.row_engine_executions",
        "database.result_cache_hit_ratio",
        "database.plan_cache_hit_ratio",
        "bench.unattributed_share",
    ]
)

#: per-set-up values (service pool build), medians over the run's set-ups
PER_SETUP = (
    "service.spawn_s",
    "service.spawn_share",
    "service.shm_register_s",
    "service.shm_register_share",
)

#: supervision events, summed over the run
PER_RUN = ("service.retries", "service.workers_replaced", "service.degraded_requests")


def traced_run(args, run_cls):
    """Run both phases; returns (metrics, gate, attempted)."""
    reference = run_cls(args, index_base=10_000)
    setups = min(1, reference.workload.SETUPS)
    try:
        reference.loop(0.0, setups, reference.workload.REFERENCE_REQUESTS)
    finally:
        reference.workload.close()

    originals = layers.install()
    TRACER.clear()
    TRACER.enable()
    run = run_cls(args, gate=reference.gate)
    run.tracing = Tracing()
    try:
        run.loop(args.seconds, setups)
        run.gate.finish(run.workload.catalog_for)
        dropped = TRACER.dropped + run.tracing.full_worker_buffers
    finally:
        TRACER.disable()
        layers.uninstall(originals)
        run.workload.close()

    # hygiene: the program's counters are the same traced and untraced
    untraced = {r["index"] - 10_000: r["layer"] for r in reference.records if "layer" in r}
    for record in run.records:
        twin = untraced.get(record["index"])
        for key in HYGIENE_COUNTS if twin is not None and "layer" in record else ():
            if record["layer"][key] != twin[key]:
                run.gate.fail(
                    record["index"],
                    f"traced {key}={record['layer'][key]} != untraced {twin[key]}",
                )
    if dropped:
        run.gate.fail(-1, f"tracer dropped events ({dropped})")

    primary = [r for r in run.records if r["cls"] != "hit"]
    repeats = [r for r in run.records if r["repeat"]]
    values = {name: _median(primary, name) for name in PER_REQUEST}
    values.update({"hit." + name: _median(repeats, name) for name in HIT_METRICS})
    values.update({name: _median(run.setups, name) for name in PER_SETUP})
    values.update(
        {name: sum(r.get("layer", {}).get(name, 0) for r in run.records) for name in PER_RUN}
    )
    values["service.reward_table_hits"] = _median(repeats, "search.reward_table_hits")
    traced = [r["gen_s"] for r in primary if "gen_s" in r]
    plain = [r["gen_s"] for r in reference.records if "gen_s" in r and r["cls"] != "hit"]
    values["obs.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1 if traced and plain else 0.0
    )
    values["obs.dropped_events"] = dropped
    values["bench.ref_s"] = run.ref.median()
    values["bench.requests"] = len(run.records)
    metrics = {name: (value, _unit(name), "") for name, value in values.items()}
    return metrics, run.gate, run.attempted + reference.attempted
