"""The worker pool: the one lifecycle of every process-backend worker.

A :class:`WorkerPool` spawns ``workers`` processes over one catalogue,
supervises them, and serves searches as *tasks* over the round protocol of
:mod:`repro.search.backends.process`.  The generation service keeps one pool
alive across requests; a one-shot ``--backend process`` search opens a pool,
runs its single task and closes it.  Both get the same supervision.

* **spawn once per pool** — workers are created when the pool is built,
  carrying only a tiny :class:`ServiceWorkerSpec` (the manifest of the
  shared-memory segment that holds the pickled catalogue tables, or the
  pickled catalogue itself when shared-memory registration fails), and stay
  alive between tasks;
* **task messages instead of teardown** — each search is a ``task``
  handoff; the worker runs :func:`repro.search.backends.process.serve_search`
  while the coordinator runs :func:`~repro.search.backends.process.drive_search`,
  and ``finish`` returns the worker to an *idle* loop awaiting the next task;
* **warm per-process caches** — the catalogue object, the process-wide plan
  cache and the mapping memo inside each worker persist across tasks, so a
  repeat generation's reward queries hit compiled plans and mapping
  fragments from the previous request.

Worker states: ``spawning → idle ⇄ serving → closed`` (``closed`` via the
``shutdown`` message or pool teardown).

Supervision: the pool never trusts a worker to stay alive.  Every
coordinator receive multiplexes the pipe with the worker's process sentinel
under the config's per-round deadline
(:func:`repro.search.backends.process.supervised_recv`), so crashes and
hangs surface as :class:`repro.faults.WorkerFailure` instead of wedging the
caller.  Recovery is *replace and replay*: dead or hung workers are
respawned **at the same worker index** — the replacement re-enters the same
node-id space and RNG offset, re-attaches the shared-memory catalogue and
rebuilds its request context from the same task bytes — live workers are
sent ``abort`` and drained back to idle, and the whole task is replayed
(with the coordinator's current reward-table snapshot, which by reward
purity changes cost, never trajectories).  Replays are bounded by
``task_retries`` with deterministic jittered backoff; a pool that cannot
recover closes and re-raises, and the caller degrades — the generation
service to a fresh pool or the serial backend (see
:mod:`repro.service.service`), a one-shot search to the serial backend.

Determinism: each task constructs its
:class:`~repro.search.mcts.MCTSWorker` with the serial backend's per-worker
RNG offsets and node-id spaces and the coordinator's reward-table seed, and
rewards are pure functions of (seed, state), so a warm pooled request is
byte-identical to a one-shot and a serial run (``tests/test_service.py``
sweeps this across every workload).
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Optional

from .. import faults
from ..core.pipeline import build_reward_setup, make_reward_fn
from ..database.catalog import Catalog
from ..difftree.nodes import worker_id_counter
from ..faults import DeadlineExceeded, WorkerFailure, backoff_delays
from ..obs import add_counts, span, worker_metrics_snapshot
from ..search.backends.base import RewardTable, load_state
from ..search.backends.process import (
    check_reply,
    drive_search,
    serve_search,
    supervised_recv,
)
from ..search.mcts import MCTSWorker
from ..transform.engine import TransformEngine
from .shm import CatalogManifest, SharedCatalogRegistry, _unlink_segment

__all__ = ["ServiceWorkerSpec", "WorkerPool"]

#: Environment override for the multiprocessing start method.
MP_START_ENV_VAR = "REPRO_MP_START"


def _mp_context():
    """The multiprocessing start method: fork where available (fast, no
    re-import), spawn otherwise; ``REPRO_MP_START`` overrides.

    The override is validated against the platform's supported methods so a
    typo (``REPRO_MP_START=frok``) fails with an actionable error instead of
    leaking an arbitrary string into ``multiprocessing.get_context``.
    """
    method = os.environ.get(MP_START_ENV_VAR)
    if method:
        method = method.strip().lower()
        allowed = multiprocessing.get_all_start_methods()
        if method not in allowed:
            raise ValueError(
                f"invalid {MP_START_ENV_VAR}={method!r}: allowed start "
                f"methods on this platform are {', '.join(sorted(allowed))}"
            )
        return multiprocessing.get_context(method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


@dataclass
class ServiceWorkerSpec:
    """Picklable recipe for a pool worker's *persistent* context.

    It carries only what outlives tasks: the catalogue.  Every worker
    unpickles a private copy of it either way; the manifest points the
    worker at the pool's one shared-memory segment, which holds the
    catalogue's tables pickled once per pool, and the pickled catalogue
    rides in the spec itself only when shared-memory registration failed.
    Per-request context (queries, configs, initial state, reward-table seed)
    arrives later in ``task`` messages.
    """

    #: shared-memory manifest of the catalogue (preferred transport)
    manifest: Optional[CatalogManifest] = None
    #: pickled-catalogue fallback when shared memory is unavailable
    catalog: Optional[Catalog] = None
    #: rebuilt inside the worker process; never pickled
    _materialized: Optional[Catalog] = field(
        default=None, repr=False, compare=False
    )

    def materialize(self) -> Catalog:
        """The worker-process catalogue (attached or unpickled, then kept)."""
        if self._materialized is None:
            if self.manifest is not None:
                self._materialized = SharedCatalogRegistry.attach(self.manifest)
            elif self.catalog is not None:
                self._materialized = self.catalog
            else:
                raise ValueError("ServiceWorkerSpec has neither manifest nor catalog")
        return self._materialized

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_materialized"] = None
        return state


#: per-worker request-context cache size: a pool usually serves a handful of
#: distinct (workload, config) pairs; evicting LRU beyond this bounds memory
_SETUP_CACHE_SIZE = 8


def _zero_counters(stats) -> None:
    """Reset every field of a stats dataclass to its default, in place."""
    for fld in fields(stats):
        setattr(stats, fld.name, fld.default)


def _pooled_worker_main(conn, spec_bytes: bytes, worker_index: int) -> None:
    """Entry point of one pool worker: idle loop serving ``task`` messages.

    Per task the worker rebuilds only the cheap request-scoped objects
    (engine, reward function) over its persistent catalogue — the expensive
    work (process spawn, catalogue materialize, plan-cache and memo warm-up)
    happened at pool build / earlier tasks, and the request-scoped reward
    setup itself is cached by the SHA-256 of the pickled (queries, config)
    context: a byte-identical repeat request reuses exactly the setup a cold
    worker would have built from those bytes, so the cache changes cost,
    never behaviour.
    """
    try:
        spec: ServiceWorkerSpec = pickle.loads(spec_bytes)
        catalog = spec.materialize()
        #: context sha256 -> (reward setup, unpickled pipeline config, engine)
        setups: OrderedDict[str, tuple] = OrderedDict()
        conn.send(("ready",))
        while True:
            # idle loop: the pool owner's death surfaces as EOFError below
            message = conn.recv()  # repro: allow-unbounded-recv -- EOFError on pool-owner death is the liveness signal
            if message[0] == "task":
                task = pickle.loads(message[1])
                search_config = task["search_config"]
                context_bytes = task["context"]
                # per-task fault plan from the coordinator: reaches workers
                # that were spawned before the plan was installed, and
                # restarts hit counters on every (re)play
                faults.install_local(task.get("faults"))

                warmup_start = time.perf_counter()
                context_key = hashlib.sha256(context_bytes).hexdigest()
                cached = setups.get(context_key)
                if cached is None:
                    # this task's counts only: a fresh dict per task
                    counts = {"pool.setup_cache_misses": 1, "pool.tasks": 1}
                    asts, pipeline_config = pickle.loads(context_bytes)
                    setup = build_reward_setup(catalog, asts, pipeline_config)
                    # the engine is cached *per context*, never shared across
                    # contexts: a byte-identical repeat request replays the
                    # identical trajectory, so the cached rule applications —
                    # node ids included — are exactly what a cold worker
                    # would re-derive; a different request misses here and
                    # builds fresh, so no ids leak across workloads
                    engine = TransformEngine(
                        catalog,
                        setup.executor,
                        max_applications=search_config.max_applications,
                    )
                    setups[context_key] = (setup, pipeline_config, engine)
                    while len(setups) > _SETUP_CACHE_SIZE:
                        setups.popitem(last=False)
                else:
                    counts = {"pool.setup_cache_hits": 1, "pool.tasks": 1}
                    setups.move_to_end(context_key)
                    setup, pipeline_config, engine = cached
                # the cached setup's stats count this task only: zero them in
                # place (its planner holds the same PlanStats object)
                _zero_counters(setup.executor.stats)
                _zero_counters(setup.mapper.stats)
                reward_fn = make_reward_fn(setup, pipeline_config, worker_index)
                table = RewardTable() if search_config.shared_rewards else None
                if table is not None and task["table_seed"]:
                    table.seed(task["table_seed"])
                worker = MCTSWorker(
                    load_state(task["initial_state"]),
                    engine,
                    reward_fn,
                    search_config,
                    rng=search_config.rng(offset=worker_index + 1),
                    reward_table=table,
                    id_space=worker_id_counter(worker_index),
                )
                warmup_seconds = time.perf_counter() - warmup_start
                conn.send(("task-ready", warmup_seconds))

                def metrics_snapshot(setup=setup, counts=counts):
                    return worker_metrics_snapshot(
                        setup.executor.stats, setup.mapper.stats, extra=counts
                    )

                serve_search(
                    conn,
                    worker,
                    table,
                    warmup_seconds,
                    metrics_snapshot=metrics_snapshot,
                    worker_index=worker_index,
                )
            elif message[0] == "abort":
                # recovery can reach a worker that is already idle (e.g. the
                # task broadcast died before this worker's send): confirm and
                # keep idling
                conn.send(("aborted",))
            elif message[0] == "shutdown":
                conn.send(("bye",))
                return
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown pool command {message[0]!r}")
    except EOFError:  # pool owner died: exit quietly
        pass
    except Exception as exc:  # pragma: no cover - crash reporting path
        try:
            conn.send(("error", repr(exc)))
        except Exception:
            pass
    finally:
        conn.close()


class WorkerPool:
    """``workers`` live processes over one catalogue, reused across searches.

    The pool owns the catalogue's shared-memory segment (when registration
    succeeded) and the worker processes; close it (context manager,
    :meth:`close`) to release both.  ``spawn_seconds`` records the one-time
    cost a warm request amortizes away.
    """

    #: supervision deadline on worker spawn (catalogue attach + ready reply);
    #: generous — it only has to catch a truly wedged child, not pace it
    SPAWN_DEADLINE_SECONDS = 300.0

    def __init__(self, catalog: Catalog, workers: int) -> None:
        self.catalog = catalog
        self.workers = max(1, workers)
        self.tasks_served = 0
        self.closed = False
        #: coordinator-side supervision counts over the pool's lifetime
        #: (worker failures, respawns, task replays, reclaimed shared-memory
        #: segments); a request reports how much they grew while it ran
        self.supervisor: dict[str, int] = {}
        self._registry: Optional[SharedCatalogRegistry] = None

        spawn_start = time.perf_counter()
        spec = ServiceWorkerSpec()
        try:
            self._registry = SharedCatalogRegistry()
            spec.manifest = self._registry.register(catalog)
            if self._registry.reclaimed_segments:
                self.supervisor["shm.reclaimed_segments"] = (
                    self._registry.reclaimed_segments
                )
        except Exception:
            # no shared memory on this platform: fall back to pickling
            if self._registry is not None:
                self._registry.close()
                self._registry = None
            spec.manifest = None
        if spec.manifest is not None and faults.fire("unlink-shm-segment"):
            # simulate a crashed owner's vanished segment: workers will fail
            # to attach, and pool construction must fail loudly (the service
            # ladder then rebuilds a fresh pool)
            _unlink_segment(spec.manifest.segment)
        if spec.manifest is None:
            spec.catalog = catalog
        self._spec_bytes = pickle.dumps(spec, protocol=pickle.HIGHEST_PROTOCOL)

        self._ctx = _mp_context()
        self._connections = []
        self._processes = []
        try:
            # start every process first (they warm concurrently), then wait
            # for the ready barrier under spawn supervision
            for index in range(self.workers):
                conn, process = self._start_worker(index)
                self._connections.append(conn)
                self._processes.append(process)
            for index in range(self.workers):
                self._await_ready(index)
        except Exception:
            self.close()
            raise
        self.spawn_seconds = time.perf_counter() - spawn_start

    # -- worker lifecycle ---------------------------------------------------

    def _start_worker(self, index: int):
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_pooled_worker_main,
            args=(child_conn, self._spec_bytes, index),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return parent_conn, process

    def _await_ready(self, index: int) -> None:
        reply = supervised_recv(
            self._connections[index],
            self._processes[index],
            deadline_at=time.monotonic() + self.SPAWN_DEADLINE_SECONDS,
            worker=index,
        )
        check_reply(reply, "ready", worker=index)

    def _replace_worker(self, index: int) -> None:
        """Respawn worker ``index`` in place, preserving its identity.

        The replacement runs from the same spec bytes under the same index,
        so it re-enters the worker's node-id space and RNG offset, attaches
        the same shared-memory catalogue and rebuilds request context from
        the same task bytes — replaying a task through it is byte-identical
        to a run that never crashed.
        """
        try:
            self._connections[index].close()
        except OSError:  # pragma: no cover - defensive
            pass
        process = self._processes[index]
        if process.is_alive():
            process.terminate()
        process.join(timeout=10)
        conn, process = self._start_worker(index)
        self._connections[index] = conn
        self._processes[index] = process
        self._await_ready(index)
        add_counts(self.supervisor, {"pool.workers_replaced": 1})

    def _recover(self, search_config) -> None:
        """Bring every worker back to a known-idle state after a failure.

        Dead workers are respawned at their index; live ones are aborted and
        drained (stale sync replies included) until they confirm idleness.
        A live worker that cannot confirm within the round deadline is hung
        mid-round and replaced like a dead one.
        """
        drain_deadline = getattr(search_config, "round_deadline_seconds", None) or 60.0
        for index in range(self.workers):
            process = self._processes[index]
            conn = self._connections[index]
            if not process.is_alive():
                self._replace_worker(index)
                continue
            try:
                conn.send(("abort",))
                limit = time.monotonic() + drain_deadline
                while True:
                    reply = supervised_recv(
                        conn, process, deadline_at=limit, worker=index
                    )
                    if reply[0] == "aborted":
                        break
                    if reply[0] == "error":
                        raise WorkerFailure(index, "faulted", str(reply[1]))
            except (WorkerFailure, OSError):
                self._replace_worker(index)

    def run_task(
        self,
        task: dict,
        search_config,
        coordinator_table: Optional[RewardTable],
        request_deadline_at: Optional[float] = None,
    ) -> tuple[list, int, int, bool]:
        """Run one search over the live workers, surviving worker failures.

        ``task`` is pickled and broadcast; ``coordinator_table`` stays in
        this process (workers get its snapshot as the task's
        ``table_seed``) and is driven through the round protocol.  Returns
        :func:`~repro.search.backends.process.drive_search`'s ``(finals,
        total_iterations, sync_rounds, early_stopped)``; the workers return
        to idle afterwards.

        On :class:`WorkerFailure` the pool recovers (respawn the dead,
        abort + drain the living) and replays the task from its initial
        state — up to ``search_config.task_retries`` times, sleeping a
        deterministic jittered backoff in between.  Because rewards are pure
        and the replay reuses the coordinator's accumulated reward-table
        snapshot, a replayed task produces byte-identical output to an
        undisturbed run, just later.  An exhausted retry budget or an
        expired request deadline closes the pool and re-raises for the
        caller to degrade.
        """
        if self.closed:
            raise RuntimeError("worker pool is closed")
        retries = max(0, int(getattr(search_config, "task_retries", 0) or 0))
        delays = backoff_delays(
            retries,
            float(getattr(search_config, "retry_backoff_seconds", 0.05) or 0.0),
            int(getattr(search_config, "seed", 0)),
        )
        task = dict(task)
        task.setdefault("faults", faults.current_spec())
        attempt = 0
        while True:
            try:
                return self._run_task_once(
                    task, search_config, coordinator_table, request_deadline_at
                )
            except DeadlineExceeded:
                # no budget left to resynchronize the protocol: release the
                # processes; the service degrades to serial instead
                self.close()
                raise
            except WorkerFailure as failure:
                add_counts(
                    self.supervisor,
                    {
                        "pool.worker_failures": 1,
                        f"pool.worker_failures_{failure.kind}": 1,
                    },
                )
                out_of_budget = request_deadline_at is not None and (
                    time.monotonic() >= request_deadline_at
                )
                if attempt >= retries or out_of_budget or self.closed:
                    self.close()
                    raise
                with span(
                    "pool.recover",
                    worker=failure.worker,
                    kind=failure.kind,
                    attempt=attempt,
                ):
                    try:
                        self._recover(search_config)
                    except Exception:
                        self.close()
                        raise failure from None
                if coordinator_table is not None:
                    # carry the rounds that *did* merge into the replay —
                    # pure rewards make this a cost optimisation, not a
                    # behaviour change
                    task["table_seed"] = coordinator_table.snapshot()
                time.sleep(delays[attempt])
                attempt += 1
                add_counts(self.supervisor, {"pool.task_retries": 1})
            except Exception:
                # a non-supervision error desynchronizes the protocol: the
                # pool cannot serve further tasks, so release everything now
                self.close()
                raise

    def _run_task_once(
        self,
        task: dict,
        search_config,
        coordinator_table: Optional[RewardTable],
        request_deadline_at: Optional[float],
    ) -> tuple[list, int, int, bool]:
        task_bytes = pickle.dumps(task, protocol=pickle.HIGHEST_PROTOCOL)
        round_deadline = getattr(search_config, "round_deadline_seconds", None)
        for index, conn in enumerate(self._connections):
            try:
                conn.send(("task", task_bytes))
            except OSError as exc:
                raise WorkerFailure(
                    index, "crashed", f"task broadcast failed ({exc!r})"
                ) from exc
        for index, conn in enumerate(self._connections):
            deadline_at = (
                time.monotonic() + round_deadline if round_deadline else None
            )
            reply = supervised_recv(
                conn,
                self._processes[index],
                deadline_at=deadline_at,
                request_deadline_at=request_deadline_at,
                worker=index,
            )
            check_reply(reply, "task-ready", worker=index)
        outcome = drive_search(
            self._connections,
            search_config,
            coordinator_table,
            self._processes,
            request_deadline_at=request_deadline_at,
        )
        self.tasks_served += 1
        return outcome

    @property
    def warm(self) -> bool:
        """True once the pool has served at least one task."""
        return self.tasks_served > 0

    def close(self) -> None:
        """Shut workers down and unlink the shared-memory segment."""
        if self.closed:
            return
        self.closed = True
        for conn in self._connections:
            try:
                conn.send(("shutdown",))
            except Exception:
                pass
        for conn in self._connections:
            try:
                # drain the "bye" (or whatever a dying worker managed to send)
                if conn.poll(5):
                    conn.recv()
            except Exception:
                pass
            finally:
                try:
                    conn.close()
                except Exception:
                    pass
        for process in self._processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5)
        if self._registry is not None:
            self._registry.close()
            self._registry = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
