"""Shared-memory catalogue registry.

Every pool worker needs the catalogue: PI2 scores a search state by running
its queries against it.  The registry pickles the catalogue's tables — each
table's name, declared columns and column value lists — **once** into one
``multiprocessing.shared_memory`` segment per catalogue, described by a
tiny picklable :class:`CatalogManifest`.  Workers receive only the
manifest, attach the segment, unpickle the tables and rebuild them with
:meth:`~repro.database.table.Table.from_columns`; one segment serves every
worker of the pool.

The payload holds tables, not the :class:`~repro.database.catalog.Catalog`
object, whose pickle would carry the owner's lazily built caches (column
statistics, each table's materialised rows): an attached catalogue starts
with none of them, like a freshly built one, and the segment holds only the
column data.  Pickle restores every value with its Python type (``1`` stays
an ``int``, NaN a float NaN), which type inference and the cold/warm
determinism guarantee rely on.

Segment lifecycle: the registry that *created* a segment owns it — creation
happens inside a ``try`` that unlinks on failure, :meth:`close` /
``__exit__`` unlink deterministically, and a ``weakref.finalize`` backstop
reclaims the segment even if the owner is dropped without ``close`` (crash
safety).  Attachers never unlink; they close their mapping as soon as the
payload is unpickled.  The ``shm-lifecycle`` rule of :mod:`repro.analysis`
statically enforces this create/cleanup pairing.

Against the backstops failing too (``SIGKILL``, ``os._exit``, power loss),
segments carry recognisable names — ``pi2shm-<owner pid>-<n>`` — and every
new registry sweeps ``/dev/shm`` for repro-owned segments whose owning
process is gone, unlinking them and counting the reclaims in the
``shm.reclaimed_segments`` metric (see :func:`sweep_orphaned_segments`).
"""

from __future__ import annotations

import itertools
import os
import pickle
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

from ..database.catalog import Catalog
from ..database.table import Table
from ..obs import span

__all__ = [
    "CatalogManifest",
    "SharedCatalogRegistry",
    "sweep_orphaned_segments",
]

#: Name prefix of every segment this package creates.  The pid baked into
#: the name is what lets a later process decide whether a leftover segment
#: is an orphan (owner dead) or live (owner still running).
_SEGMENT_PREFIX = "pi2shm"

#: Where POSIX shared memory surfaces as files (Linux); the sweep is a
#: best-effort no-op on platforms without it.
_SHM_DIR = "/dev/shm"

_segment_counter = itertools.count()


def _segment_name() -> str:
    """A fresh repro-owned segment name: ``pi2shm-<pid>-<n>``."""
    return f"{_SEGMENT_PREFIX}-{os.getpid()}-{next(_segment_counter)}"


def _pid_alive(pid: int) -> bool:
    """Liveness probe via signal 0; unknown errors count as alive (safe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # PermissionError etc.: some process has that pid
        return True
    return True


def _unlink_segment(name: str) -> None:
    """Unlink a segment by name (fault injection / orphan sweep)."""
    shm = None
    try:
        shm = _attach_readonly(name)
        shm.unlink()
    except FileNotFoundError:
        pass
    finally:
        if shm is not None:
            shm.close()


def sweep_orphaned_segments() -> int:
    """Unlink repro-owned segments whose owner process is dead.

    Scans ``/dev/shm`` for ``pi2shm-<pid>-*`` entries, probes the embedded
    pid, and unlinks segments of dead owners — the leftovers of a pool
    owner that died without running any of its cleanup paths.  Returns the
    number of segments reclaimed, which a worker pool publishes as its
    ``shm.reclaimed_segments`` counter.  Never raises: a sweep failure must
    not stop a registry from being built.
    """
    reclaimed = 0
    try:
        entries = os.listdir(_SHM_DIR)
    except OSError:  # pragma: no cover - non-Linux platform
        return 0
    for entry in sorted(entries):
        if not entry.startswith(_SEGMENT_PREFIX + "-"):
            continue
        parts = entry.split("-")
        try:
            pid = int(parts[1])
        except (IndexError, ValueError):  # pragma: no cover - foreign name
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, entry))
            reclaimed += 1
        except OSError:  # pragma: no cover - raced with another sweeper
            continue
    return reclaimed


@dataclass
class CatalogManifest:
    """A picklable description of one shared-memory catalogue segment."""

    segment: str  # shared-memory segment name
    total_bytes: int  # length of the pickled payload at the segment's start
    #: content fingerprint of the registered catalogue (the registry's key)
    fingerprint: str = ""


def _attach_readonly(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without taking ownership of it.

    Python 3.13 grew ``track=False`` for exactly this; on 3.11/3.12 the
    attach also registers with the resource tracker, which is harmless here:
    pool workers are multiprocessing children and *share the owner's
    tracker* (the tracker fd travels in the spawn preparation data), so the
    duplicate registration is a set-add no-op, the owner's ``unlink``
    balances it, and — if the owner crashes without ``close`` — the shared
    tracker reclaims the segment at shutdown, which is the crash-safety
    backstop this registry wants.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


class SharedCatalogRegistry:
    """Owns the shared-memory segments of registered catalogues.

    One registry lives in the service / pool owner process; worker processes
    only ever call the static :meth:`attach`.  Use as a context manager (or
    call :meth:`close`) to unlink the segments deterministically; a
    ``weakref.finalize`` backstop unlinks them at interpreter exit even if
    the owner forgets.
    """

    def __init__(self) -> None:
        #: fingerprint -> (SharedMemory, CatalogManifest)
        self._segments: dict[str, tuple[shared_memory.SharedMemory, CatalogManifest]] = {}
        #: orphans of dead owners reclaimed while building this registry
        self.reclaimed_segments = sweep_orphaned_segments()
        self._finalizer = weakref.finalize(
            self, SharedCatalogRegistry._cleanup_segments, self._segments
        )

    # -- owner side ---------------------------------------------------------

    def register(self, catalog: Catalog) -> CatalogManifest:
        """Pickle ``catalog``'s tables into a shared segment; idempotent per content."""
        from .fingerprint import catalog_fingerprint

        fingerprint = catalog_fingerprint(catalog)
        existing = self._segments.get(fingerprint)
        if existing is not None:
            return existing[1]
        with span("shm.register", fingerprint=fingerprint[:16]):
            return self._register_new(catalog, fingerprint)

    def _register_new(self, catalog: Catalog, fingerprint: str) -> CatalogManifest:
        # tables in name order, as the fingerprint reads them: registration
        # is idempotent per fingerprint, so the payload must not depend on
        # the order the tables were added in
        tables = sorted(catalog.tables(), key=lambda t: t.name.lower())
        payload = pickle.dumps(
            [
                (t.name, t.columns, [t.column_data(i) for i in range(len(t.columns))])
                for t in tables
            ],
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        # named creation (pid in the name) so a later sweep can tell orphans
        # from live segments; retry on the (unlikely) collision with a
        # leftover of a previous same-pid process
        while True:
            try:
                shm = shared_memory.SharedMemory(
                    name=_segment_name(), create=True, size=len(payload)
                )
                break
            except FileExistsError:  # pragma: no cover - pid-reuse leftover
                continue
        try:
            shm.buf[:len(payload)] = payload
        except Exception:
            # creation failed mid-populate: reclaim the segment immediately
            shm.close()
            shm.unlink()
            raise
        manifest = CatalogManifest(
            segment=shm.name, total_bytes=len(payload), fingerprint=fingerprint
        )
        self._segments[fingerprint] = (shm, manifest)
        return manifest

    def close(self) -> None:
        """Unlink every owned segment (idempotent)."""
        self._cleanup_segments(self._segments)
        self._finalizer.detach()

    @staticmethod
    def _cleanup_segments(segments: dict) -> None:
        for shm, _manifest in list(segments.values()):
            try:
                shm.close()
            finally:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        segments.clear()

    def __enter__(self) -> "SharedCatalogRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._segments)

    # -- worker side ----------------------------------------------------------

    @staticmethod
    def attach(manifest: CatalogManifest) -> Catalog:
        """Rebuild a catalogue from the manifest's shared segment.

        The mapping is closed as soon as the payload is unpickled; attachers
        never unlink (the registry that created the segment owns it).
        """
        with span("shm.attach", segment=manifest.segment):
            shm = _attach_readonly(manifest.segment)
            try:
                # the slice must be released before close(), which raises
                # BufferError while any view of the mapping is still alive
                with shm.buf[:manifest.total_bytes] as payload:
                    tables = pickle.loads(payload)
            finally:
                shm.close()
            return Catalog(Table.from_columns(*table) for table in tables)
