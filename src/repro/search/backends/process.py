"""The process backend: MCTS workers in OS processes, coordinated over pipes.

:class:`ProcessBackend` runs a search as one task on a
:class:`repro.service.pool.WorkerPool`, the only process-worker lifecycle
(spawn, ready handshake, supervision, replace-and-replay, teardown).  The
generation service keeps its pool alive across requests; a one-shot
``--backend process`` search opens a pool over the request's catalogue, runs
its single task and closes it (:func:`repro.core.pipeline.generate_interface`),
so both paths share one worker main, one protocol and one recovery story.

Wire protocol (pickled tuples over a :func:`multiprocessing.Pipe` pair):

========================  ===================================================
coordinator → worker      meaning
========================  ===================================================
``("task", bytes)``       start a search: the pickled task carries the
                          request context (queries + pipeline config), the
                          search config, initial state, reward-table seed
                          and fault plan
``("round", n, adopt,     run ``n`` iterations; ``adopt`` is ``(state bytes,
  reward, delta)``        reward)`` of the global best or ``None``; ``delta``
                          is the reward-table entries merged last round
``("finish",)``           send final state + stats and return to idle
``("abort",)``            drop the current task (supervision replays it)
``("shutdown",)``         exit
========================  ===================================================

========================  ===================================================
worker → coordinator      meaning
========================  ===================================================
``("ready",)``            catalogue attached; the worker idles for tasks
``("task-ready",          request context built, initial state evaluated
  warmup_s)``
``("sync", seq, fp,       end-of-round report: the round sequence number,
  reward, state?,         best fingerprint + reward, serialized trees only
  pending, stale)``       when the best changed since the last report, this
                          round's reward delta, and the staleness counter
``("done", state, reward, final best state (serialized), reward, and the
  stats)``                worker's :class:`SearchStats`, whose ``metrics``
                          hold this task's ``workers.*`` and ``pool.*`` counts
``("aborted",)``          the task was dropped; the worker is idle again
``("bye",)``              acknowledges ``shutdown``
``("error", repr)``       an exception escaped the worker loop
========================  ===================================================

Supervision: the coordinator never blocks indefinitely on a worker.  Every
receive goes through :func:`supervised_recv`, which multiplexes the pipe
with the worker's process sentinel via :func:`multiprocessing.connection.wait`
under a per-round deadline — a crashed worker is detected the instant its
sentinel fires, a hung one when the deadline lapses, and both surface as
:class:`repro.faults.WorkerFailure` instead of a wedged coordinator.  Sync
replies carry a sequence number so a duplicated message (see
:mod:`repro.faults`) is discarded instead of desynchronizing the protocol,
and a dropped one is caught by the deadline.

The ``round``/``sync``/``finish`` core is :func:`serve_search` (worker side)
and :func:`drive_search` (coordinator side); the pool wraps them with the
``task`` handshake and the replace-and-replay loop.

The protocol is deterministic for a fixed seed / worker count: reward deltas
merge in worker order at barriers, each worker draws node ids from its own id
space, and rewards are a pure function of (seed, state fingerprint) — see
:func:`repro.core.pipeline.make_reward_fn` — so the trajectories are the same
ones the serial backend produces for the same configuration.
"""

from __future__ import annotations

import pickle
import time
from multiprocessing import connection as _mp_connection
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ... import faults
from ...faults import DeadlineExceeded, WorkerFailure
from ...obs import TRACER, span
from ..config import SearchConfig, SearchStats
from ..mcts import MCTSWorker
from ..state import SearchState
from .base import (
    ParallelSearchResult,
    RewardTable,
    SearchJob,
    WorkerSync,
    aggregate_stats,
    dump_state,
    early_stop_after_adopt,
    load_state,
    merge_sync_round,
    round_sizes,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...service.pool import WorkerPool


def supervised_recv(
    conn,
    process,
    deadline_at: Optional[float] = None,
    request_deadline_at: Optional[float] = None,
    worker: Optional[int] = None,
):
    """Receive one worker message without ever blocking indefinitely.

    Multiplexes the connection with the worker's process sentinel through
    :func:`multiprocessing.connection.wait`: a crashed worker raises
    :class:`WorkerFailure` the moment its sentinel fires, a silent one
    raises when ``deadline_at`` (the per-round deadline) lapses, and an
    expired ``request_deadline_at`` raises :class:`DeadlineExceeded` so the
    caller can degrade instead of retrying.  The connection is always
    checked before the sentinel — a worker that replied and *then* died
    still gets its buffered reply delivered.
    """
    while True:
        now = time.monotonic()
        if request_deadline_at is not None and now >= request_deadline_at:
            raise DeadlineExceeded(
                f"request deadline expired waiting on worker {worker}"
            )
        if deadline_at is not None and now >= deadline_at:
            raise WorkerFailure(worker, "hung", "no reply within the round deadline")
        limits = [d for d in (deadline_at, request_deadline_at) if d is not None]
        timeout = (min(limits) - now) if limits else None
        ready = _mp_connection.wait([conn, process.sentinel], timeout=timeout)
        if not ready:
            continue  # loop re-checks which deadline actually tripped
        if conn in ready:
            try:
                return conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerFailure(
                    worker, "crashed", f"connection dropped mid-protocol ({exc!r})"
                ) from exc
        raise WorkerFailure(
            worker,
            "crashed",
            f"process exited (exitcode={process.exitcode}) before replying",
        )


def check_reply(reply, kind: str, worker: Optional[int] = None):
    """Validate a received worker message, unwrapping ``error`` replies."""
    if reply[0] == "error":
        raise WorkerFailure(worker, "faulted", f"search worker process failed: {reply[1]}")
    if reply[0] != kind:
        raise WorkerFailure(worker, "protocol", f"expected {kind!r} reply, got {reply[0]!r}")
    return reply


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def serve_search(
    conn,
    worker: MCTSWorker,
    table: Optional[RewardTable],
    warmup_seconds: float,
    metrics_snapshot: Callable[[], dict],
    worker_index: int,
) -> bool:
    """Serve ``round`` messages for one search until ``finish`` / ``abort``.

    The pool's worker main (:mod:`repro.service.pool`) calls this once per
    task and then returns to its idle loop.  On ``finish`` the worker's
    :class:`SearchStats` carry ``metrics_snapshot()``: this task's
    ``workers.*`` and ``pool.*`` counts, which the coordinator adds up.
    Returns ``True`` when the search finished, ``False`` when the
    coordinator aborted it (supervision is replaying the task after another
    worker failed).
    """
    last_sent_fp: Optional[str] = None
    seq = 0
    while True:
        # worker side: the coordinator's death surfaces as EOFError, caught
        # by the worker main — a deadline here would only limit idle time
        message = conn.recv()  # repro: allow-unbounded-recv -- EOFError on coordinator death is the liveness signal
        if message[0] == "round":
            _, round_size, adopt_bytes, adopt_reward, delta = message
            if table is not None and delta:
                # entries the coordinator merged last round (including
                # other workers' deltas) land in this replica before the
                # round starts, mirroring the serial backend's shared table
                table.seed(delta)
            if adopt_bytes is not None:
                worker.adopt(load_state(adopt_bytes), adopt_reward)
            for _ in range(round_size):
                worker.run_iteration()
            best_fp = worker.best_state.fingerprint()
            state_bytes = None
            if best_fp != last_sent_fp:
                state_bytes = dump_state(worker.best_state)
                last_sent_fp = best_fp
            reply = (
                "sync",
                seq,
                best_fp,
                worker.best_reward,
                state_bytes,
                worker.take_pending_rewards(),
                worker.iterations_since_improvement,
            )
            seq += 1
            faults.maybe_kill("kill-worker-before-sync", worker=worker_index)
            if faults.fire("drop-sync-message", worker=worker_index):
                continue  # the coordinator's round deadline catches this
            conn.send(reply)
            if faults.fire("duplicate-sync-message", worker=worker_index):
                conn.send(reply)  # discarded coordinator-side via seq
        elif message[0] == "abort":
            # supervision is recovering from another worker's failure: drop
            # this task's state and hand control back to the idle loop
            conn.send(("aborted",))
            return False
        elif message[0] == "finish":
            stats = worker.stats
            stats.backend = "process"
            stats.warmup_seconds = warmup_seconds
            stats.metrics = metrics_snapshot()
            if TRACER.enabled:
                # ship this process's span events to the coordinator (drain,
                # so a worker never re-sends a previous task's spans)
                stats.spans = TRACER.take_events()
            conn.send(
                ("done", dump_state(worker.best_state), worker.best_reward, stats)
            )
            return True
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown command {message[0]!r}")


# ---------------------------------------------------------------------------
# coordinator side
# ---------------------------------------------------------------------------


def drive_search(
    connections: list,
    config: SearchConfig,
    table: Optional[RewardTable],
    processes: list,
    request_deadline_at: Optional[float] = None,
) -> tuple[list, int, int, bool]:
    """Drive the round / sync / finish protocol over live worker connections.

    Returns ``(finals, total_iterations, sync_rounds, early_stopped)`` where
    ``finals`` is each worker's ``("done", state, reward, stats)`` reply.
    The caller (the pool) owns the connections; the workers idle afterwards.

    Supervision: every receive watches the worker's process sentinel
    (``processes[index]``) and the config's per-round deadline
    (``round_deadline_seconds``); crashes and hangs raise
    :class:`WorkerFailure` with the failing worker's index, and an expired
    ``request_deadline_at`` raises :class:`DeadlineExceeded`.  Duplicate
    sync replies (stale sequence numbers) are discarded; dropped ones are
    indistinguishable from a hang and handled by the deadline.
    """
    workers = len(connections)
    states: dict[str, bytes] = {}  # best states seen, by fingerprint
    round_deadline = getattr(config, "round_deadline_seconds", None)

    def _send(index: int, message) -> None:
        try:
            connections[index].send(message)
        except OSError as exc:
            raise WorkerFailure(
                index, "crashed", f"send failed ({exc!r})"
            ) from exc

    def _receive(index: int, kind: str, expected_seq: Optional[int] = None):
        deadline_at = (
            time.monotonic() + round_deadline if round_deadline else None
        )
        while True:
            reply = supervised_recv(
                connections[index],
                processes[index],
                deadline_at=deadline_at,
                request_deadline_at=request_deadline_at,
                worker=index,
            )
            if reply[0] == "sync":
                if kind != "sync":
                    continue  # stale sync ahead of a done/aborted reply
                if expected_seq is not None and reply[1] < expected_seq:
                    continue  # duplicate of an earlier round: discard
            reply = check_reply(reply, kind, worker=index)
            if kind == "sync" and expected_seq is not None and reply[1] != expected_seq:
                raise WorkerFailure(
                    index,
                    "protocol",
                    f"sync round {reply[1]} arrived while expecting {expected_seq}",
                )
            return reply

    total_iterations = 0
    sync_rounds = 0
    early_stopped = False
    adopt: Optional[tuple[bytes, float]] = None
    pending_delta: dict[str, float] = {}
    for round_size in round_sizes(config):
        # the coordinator's round span measures wall-clock from broadcast to
        # the last worker's sync reply (the workers' own spans arrive later,
        # attached to their final stats)
        with span("search.round", round=sync_rounds, size=round_size):
            for index in range(workers):
                _send(
                    index,
                    (
                        "round",
                        round_size,
                        adopt[0] if adopt is not None else None,
                        adopt[1] if adopt is not None else 0.0,
                        pending_delta,
                    ),
                )
            syncs: list[WorkerSync] = []
            for index in range(workers):
                _, _seq, fp, reward, state_bytes, pending, stale = _receive(
                    index, "sync", expected_seq=sync_rounds
                )
                if state_bytes is not None:
                    states[fp] = state_bytes
                syncs.append(
                    WorkerSync(
                        best_reward=reward,
                        best_fingerprint=fp,
                        pending_rewards=pending,
                        iterations_since_improvement=stale,
                    )
                )
        total_iterations += round_size * workers
        with span("search.sync", round=sync_rounds):
            sync_rounds += 1
            best_index, merged = merge_sync_round(syncs, table)
            best_sync = syncs[best_index]
            adopt = (states[best_sync.best_fingerprint], best_sync.best_reward)
            pending_delta = merged
            # retain only states that can still be adopted: best rewards
            # are monotone per worker, so a fingerprint no worker
            # currently reports as its best can never be reported again
            current = {sync.best_fingerprint for sync in syncs}
            states = {fp: b for fp, b in states.items() if fp in current}
        if early_stop_after_adopt(syncs, best_sync.best_reward, config.early_stop):
            early_stopped = True
            break

    for index in range(workers):
        _send(index, ("finish",))
    finals = [_receive(index, "done") for index in range(workers)]
    return finals, total_iterations, sync_rounds, early_stopped


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class ProcessBackend:
    """One search as one task on a live :class:`~repro.service.pool.WorkerPool`.

    ``asts`` and ``pipeline_config`` are the request's queries and
    configuration: each worker rebuilds its reward context from them over
    the pool's catalogue.  The pool supervises the task (replace-and-replay
    up to ``SearchConfig.task_retries``) and re-raises what it cannot
    recover from; the caller decides how to degrade.
    """

    name = "process"

    def __init__(self, pool: "WorkerPool", asts: Sequence, pipeline_config) -> None:
        self.pool = pool
        # pickled here, once, and shipped as one opaque blob: workers key
        # their per-process reward-setup cache by its SHA-256, so
        # byte-identical repeat requests skip the rebuild
        self._context = pickle.dumps(
            (list(asts), pipeline_config), protocol=pickle.HIGHEST_PROTOCOL
        )

    def run(self, job: SearchJob) -> ParallelSearchResult:
        config = job.config
        start = time.perf_counter()
        was_warm = self.pool.warm

        # the coordinator keeps the authoritative reward table (the caller's
        # pre-populated one when given); worker replicas start from its
        # snapshot and are refreshed with the merged delta of each round
        table: Optional[RewardTable] = None
        if config.shared_rewards:
            table = job.reward_table if job.reward_table is not None else RewardTable()
        table_seed = table.snapshot() if table is not None else {}

        task = {
            "context": self._context,
            "search_config": config,
            "initial_state": dump_state(SearchState(job.initial_trees)),
            "table_seed": table_seed,
        }
        deadline = config.request_deadline_seconds
        finals, total_iterations, sync_rounds, early_stopped = self.pool.run_task(
            task,
            config,
            table,
            request_deadline_at=time.monotonic() + deadline if deadline else None,
        )

        worker_stats: list[SearchStats] = [f[3] for f in finals]
        # a cold pool reports its spawn plus the slowest worker's context
        # build, so the amortization is visible; a warm pool paid both when
        # it served its first task
        warmup_wall = 0.0
        if not was_warm:
            warmup_wall = self.pool.spawn_seconds + max(
                w.warmup_seconds for w in worker_stats
            )
        for w in worker_stats:
            if was_warm:
                w.warmup_seconds = 0.0
            # adopt worker-process span events into the coordinator's tracer
            # so one exported trace shows every process; drop them from the
            # stats afterwards (they are transport, not a diagnostic)
            if w.spans:
                TRACER.extend(w.spans)
                w.spans = None
        best = max(range(len(finals)), key=lambda w: finals[w][2])
        stats = aggregate_stats(
            self.name,
            worker_stats,
            worker_stats[best],
            finals[best][2],
            total_iterations,
            sync_rounds,
            early_stopped or any(w.early_stopped for w in worker_stats),
            time.perf_counter() - start,
            warmup_seconds=warmup_wall,
        )
        stats.reward_table_loaded = len(table_seed)
        return ParallelSearchResult(
            load_state(finals[best][1]), finals[best][2], stats, worker_stats
        )
