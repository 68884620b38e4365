"""repro.faults — deterministic fault injection and supervision errors.

The generation service recovers from worker crashes, hangs, lost messages,
torn cache files and vanished shared-memory segments (see
:mod:`repro.service.pool` and ``ARCHITECTURE.md`` → *Failure modes and
recovery*).  None of those paths are testable without a way to *cause* the
faults on demand — this module is that way.  A fault plan is a small spec
string, installed via :func:`install` or the ``REPRO_FAULTS`` environment
variable::

    REPRO_FAULTS="kill-worker-before-sync:worker=1:once=/tmp/tok"

Grammar: ``spec[;spec...]``, each ``spec`` is ``site[:key=value]*`` with

``worker=<int>``    only fire in the worker with this index (default: any)
``hit=<int>``       first matching call that fires, 1-based (default 1)
``count=<int>``     how many consecutive matching calls fire (default 1)
``seconds=<float>`` sleep duration for hang sites (default 30)
``once=<path>``     a token file claimed with ``O_CREAT|O_EXCL``: across
                    every process and every retry, only the first claimant
                    fires.  This is what keeps injected faults *transient* —
                    a respawned worker replaying the same task does not
                    re-fire, so recovery tests converge deterministically.

Sites threaded through the codebase (grep for ``faults.fire``):

=============================  ============================================
``kill-worker-before-sync``    worker ``os._exit``\\ s before its sync reply
``hang-in-reward-eval``        reward evaluation sleeps ``seconds``
``drop-sync-message``          worker computes a round but never reports it
``duplicate-sync-message``     worker sends the same sync reply twice
``corrupt-persisted-cache``    a saved cache bundle's payload is bit-flipped
``unlink-shm-segment``         the catalogue segment vanishes before attach
=============================  ============================================

Zero overhead when disabled: every hook goes through :func:`fire`, whose
first statement returns when no plan is installed — one ``None`` check on
hot paths, nothing else.  Determinism: firing depends only on the spec, the
per-(process, task) hit counters and the once-token file, never on time or
randomness, so a faulty run is exactly reproducible.

Pooled workers receive the coordinator's spec inside each task message and
(re)install it via :func:`install_local` — environment inheritance only
covers processes forked *after* :func:`install`, while the task channel
reaches workers that were already alive.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "FAULTS_ENV_VAR",
    "KILL_EXIT_CODE",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultSpec",
    "GenerationFailure",
    "WorkerFailure",
    "backoff_delays",
    "current_spec",
    "fire",
    "install",
    "install_local",
    "maybe_hang",
    "maybe_kill",
    "reset",
]

#: Environment variable carrying the fault plan into spawned processes.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Exit status of a worker killed by ``maybe_kill`` — distinct from 0 and
#: from Python's unhandled-exception 1, so supervision logs are unambiguous.
KILL_EXIT_CODE = 57


# ---------------------------------------------------------------------------
# supervision errors (shared vocabulary of pool, backend and service)
# ---------------------------------------------------------------------------


class WorkerFailure(RuntimeError):
    """A worker process crashed, hung past a deadline, or broke protocol.

    ``kind`` is ``"crashed"`` (process exited / connection dropped),
    ``"hung"`` (no reply within the round deadline), ``"faulted"`` (the
    worker reported an exception) or ``"protocol"`` (an out-of-sequence
    reply).  Subclasses ``RuntimeError`` so pre-supervision callers that
    caught worker errors generically keep working.
    """

    def __init__(self, worker: Optional[int], kind: str, detail: str) -> None:
        label = f"worker {worker}" if worker is not None else "worker"
        super().__init__(f"{label} {kind}: {detail}")
        self.worker = worker
        self.kind = kind
        self.detail = detail


class DeadlineExceeded(RuntimeError):
    """The request-level deadline expired while waiting on workers."""


class GenerationFailure(RuntimeError):
    """Every rung of the degradation ladder failed for one request."""


def backoff_delays(attempts: int, base: float, seed: int) -> list[float]:
    """Jittered exponential backoff delays, deterministic for a seed.

    ``delay[i] = base * 2**i * (0.5 + u_i)`` with ``u_i`` drawn from an RNG
    seeded only by ``seed`` — retries spread out (jitter) yet every run of
    the same configuration sleeps the same schedule (determinism).
    """
    import random

    rng = random.Random(seed * 2654435761 % (2**31))
    return [base * (2**i) * (0.5 + rng.random()) for i in range(max(0, attempts))]


# ---------------------------------------------------------------------------
# the fault plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``site[:key=value]*`` clause."""

    site: str
    worker: Optional[int] = None
    hit: int = 1
    count: int = 1
    seconds: float = 30.0
    once: Optional[str] = None


class FaultPlan:
    """Parsed specs plus this process's per-site hit counters."""

    def __init__(self, spec: str) -> None:
        self.spec = spec
        self.specs: list[FaultSpec] = []
        self._counts: dict[tuple[str, Optional[int]], int] = {}
        for clause in spec.split(";"):
            clause = clause.strip()
            if clause:
                self.specs.append(_parse_clause(clause))

    def fire(self, site: str, worker: Optional[int] = None) -> Optional[FaultSpec]:
        """The matching spec when this call should fault, else ``None``."""
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.worker is not None and spec.worker != worker:
                continue
            key = (site, worker)
            self._counts[key] = self._counts.get(key, 0) + 1
            hits = self._counts[key]
            if not (spec.hit <= hits < spec.hit + spec.count):
                continue
            if spec.once is not None and not _claim_token(spec.once):
                continue
            return spec
        return None


def _parse_clause(clause: str) -> FaultSpec:
    parts = clause.split(":")
    site, options = parts[0].strip(), parts[1:]
    kwargs: dict = {}
    for option in options:
        key, _, value = option.partition("=")
        key = key.strip()
        if key == "worker":
            kwargs["worker"] = int(value)
        elif key == "hit":
            kwargs["hit"] = int(value)
        elif key == "count":
            kwargs["count"] = int(value)
        elif key == "seconds":
            kwargs["seconds"] = float(value)
        elif key == "once":
            kwargs["once"] = value
        else:
            raise ValueError(f"unknown fault option {key!r} in {clause!r}")
    return FaultSpec(site=site, **kwargs)


def _claim_token(path: str) -> bool:
    """Atomically claim a cross-process once-token; True for the claimant."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        # unreachable token directory: fail open (fire) rather than silently
        # disabling the fault the test asked for
        return True
    os.close(fd)
    return True


# ---------------------------------------------------------------------------
# module plan + hooks
# ---------------------------------------------------------------------------

_plan: Optional[FaultPlan] = None


def _parse(spec: Optional[str]) -> Optional[FaultPlan]:
    if not spec or not spec.strip():
        return None
    return FaultPlan(spec)


def install(spec: Optional[str]) -> None:
    """Install a fault plan in this process *and* the environment.

    The environment copy is what processes spawned after this call inherit;
    already-running pool workers are reached through the per-task spec the
    coordinator ships instead (see :func:`install_local`).
    """
    global _plan
    _plan = _parse(spec)
    if spec:
        os.environ[FAULTS_ENV_VAR] = spec
    else:
        os.environ.pop(FAULTS_ENV_VAR, None)


def install_local(spec: Optional[str]) -> None:
    """Install (or clear, for ``None``) a plan in this process only.

    Called by pool workers at every task boundary with the spec the
    coordinator embedded in the task message, so the plan is per-task and
    its hit counters restart with each (re)play.
    """
    global _plan
    _plan = _parse(spec)


def reset() -> None:
    """Remove any installed plan (tests)."""
    install(None)


def current_spec() -> Optional[str]:
    """The raw spec string active in this process (for task propagation)."""
    if _plan is not None:
        return _plan.spec
    return os.environ.get(FAULTS_ENV_VAR) or None


def fire(site: str, worker: Optional[int] = None) -> Optional[FaultSpec]:
    """The hook: truthy (the spec) when this call site should fault.

    The disabled path is one global load and a ``None`` check — cheap enough
    for reward-evaluation hot loops.
    """
    if _plan is None:
        return None
    return _plan.fire(site, worker)


def maybe_kill(site: str, worker: Optional[int] = None) -> None:
    """Die instantly — no cleanup, no ``finally`` — when ``site`` fires."""
    if _plan is None:
        return
    if fire(site, worker) is not None:
        os._exit(KILL_EXIT_CODE)


def maybe_hang(site: str, worker: Optional[int] = None) -> None:
    """Sleep through the supervisor's deadline when ``site`` fires."""
    if _plan is None:
        return
    spec = fire(site, worker)
    if spec is not None:
        time.sleep(spec.seconds)


# initialise from the environment at import: spawned children see the
# coordinator's plan without any explicit hand-off
_plan = _parse(os.environ.get(FAULTS_ENV_VAR))
