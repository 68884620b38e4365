"""Pluggable search-execution backends (paper Section 6.2.1).

The parallel MCTS coordinator delegates *how* its ``p`` workers execute to a
backend:

* ``"serial"`` — deterministic round-robin in the calling thread (the
  default, and the reference semantics the process backend must match);
* ``"process"`` — one OS process per worker on a
  :class:`~repro.service.pool.WorkerPool`: each worker rebuilds its reward
  context from the request and exchanges compact sync messages with the
  coordinator (true wall-clock parallelism).

Both backends share one synchronization protocol — best-state broadcast plus
cross-worker reward-table delta merges every ``sync_interval`` iterations —
implemented in :mod:`repro.search.backends.base`.  Select a backend through
:attr:`repro.search.config.SearchConfig.backend` or the
``REPRO_SEARCH_BACKEND`` environment variable.
"""

from __future__ import annotations

import os
from typing import Optional

from .base import (
    ParallelSearchResult,
    RewardTable,
    SearchBackend,
    SearchJob,
    dump_state,
    load_state,
)
from .process import ProcessBackend
from .serial import SerialBackend

#: The values ``SearchConfig.backend``, ``--backend`` and
#: ``REPRO_SEARCH_BACKEND`` accept.
BACKEND_NAMES = ("serial", "process")

#: Environment override consulted by :func:`resolve_backend_name` — lets CI
#: re-run the whole test suite under a different backend without code changes.
BACKEND_ENV_VAR = "REPRO_SEARCH_BACKEND"


def resolve_backend_name(requested: Optional[str]) -> str:
    """The backend to actually run.

    Precedence: ``REPRO_SEARCH_BACKEND`` environment variable, then the
    requested (config) name, then ``"serial"``.
    """
    name = os.environ.get(BACKEND_ENV_VAR) or requested or "serial"
    name = name.strip().lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown search backend {name!r}; choose from {list(BACKEND_NAMES)}"
        )
    return name


__all__ = [
    "BACKEND_ENV_VAR",
    "BACKEND_NAMES",
    "ParallelSearchResult",
    "ProcessBackend",
    "RewardTable",
    "SearchBackend",
    "SearchJob",
    "SerialBackend",
    "dump_state",
    "load_state",
    "resolve_backend_name",
]
