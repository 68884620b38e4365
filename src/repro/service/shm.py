"""Shared-memory catalogue registry.

Pickling the whole catalogue into every worker's spawn payload would make
each worker pay unpickle cost and hold a private copy.  A worker pool does
better: the registry encodes every column of every table into **one**
``multiprocessing.shared_memory`` segment per catalogue, described by a
picklable :class:`CatalogManifest` (per-column dtype kind, offsets,
lengths, null indexes).  Workers receive only the tiny
manifest, attach the segment, and decode columns straight out of shared
memory — the segment is mapped, never copied or re-pickled, and one segment
serves every worker of the pool.

Column encodings (``kind`` in the manifest) — chosen so the decoded values
are *byte-identical* to the originals, including Python types:

========  ==================================================================
``i8``    every non-null value is an ``int`` (``bool`` excluded) within
          int64 range → little-endian int64 vector
``f8``    every non-null value is a ``float`` → float64 vector (NaN and
          infinities round-trip; float64 is the substrate's only precision)
``b1``    every non-null value is a ``bool`` → byte vector
``str``   every non-null value is a ``str`` → UTF-8 blob + int64 offsets
``pkl``   anything else (dates, mixed-type columns) → pickled value list
========  ==================================================================

Nulls ride separately as an int64 vector of row indexes, so the numeric
encodings stay dense.  Anything the strict kinds cannot represent exactly
falls back to ``pkl`` rather than coercing — a column that decodes to
``1.0`` where the original held ``1`` would change type inference and break
the cold/warm determinism guarantee.

Segment lifecycle: the registry that *created* a segment owns it — creation
happens inside a ``try`` that unlinks on failure, :meth:`close` /
``__exit__`` unlink deterministically, and a ``weakref.finalize`` backstop
reclaims the segment even if the owner is dropped without ``close`` (crash
safety).  Attachers never unlink; they close their mapping as soon as the
columns are decoded.  The ``shm-lifecycle`` rule of :mod:`repro.analysis`
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
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Optional

from ..database.catalog import Catalog
from ..database.table import Table
from ..obs import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

try:  # numpy-backed vector decode; the container bakes numpy in
    import numpy as _np
except Exception:  # pragma: no cover - numpy is a baked-in dependency
    _np = None

__all__ = [
    "CatalogManifest",
    "ColumnManifest",
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
class ColumnManifest:
    """Where and how one column lives inside the catalogue segment."""

    kind: str  # "i8" | "f8" | "b1" | "str" | "pkl"
    length: int  # row count
    offset: int  # byte offset of the primary buffer
    nbytes: int  # byte length of the primary buffer
    #: ``str`` columns: byte offset / length of the int64 offsets vector
    aux_offset: int = 0
    aux_nbytes: int = 0
    #: byte offset / length of the int64 null-row-index vector
    null_offset: int = 0
    null_nbytes: int = 0


@dataclass
class TableManifest:
    name: str
    #: the declared schema travels by value (Column objects are tiny)
    columns: list = field(default_factory=list)
    column_manifests: list = field(default_factory=list)


@dataclass
class CatalogManifest:
    """A picklable description of one shared-memory catalogue segment."""

    segment: str  # shared-memory segment name
    total_bytes: int
    tables: list = field(default_factory=list)
    #: content fingerprint of the encoded catalogue — attachers key their
    #: caches by this, and it pins what the segment must decode back to
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
# column encode / decode
# ---------------------------------------------------------------------------

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _classify(values: list) -> str:
    """The strictest encoding kind that reproduces ``values`` exactly."""
    kind: Optional[str] = None
    for value in values:
        if value is None:
            continue
        if isinstance(value, bool):
            cls = "b1"
        elif isinstance(value, int):
            if not (_INT64_MIN <= value <= _INT64_MAX):
                return "pkl"
            cls = "i8"
        elif isinstance(value, float):
            cls = "f8"
        elif isinstance(value, str):
            cls = "str"
        else:
            return "pkl"
        if kind is None:
            kind = cls
        elif kind != cls:
            return "pkl"
    return kind or "i8"  # all-null column: dense zeros + full null vector


def _encode_column(values: list) -> tuple[str, bytes, bytes, bytes]:
    """``(kind, primary buffer, aux buffer, null-index buffer)``."""
    kind = _classify(values)
    nulls = [i for i, v in enumerate(values) if v is None]
    null_buf = _np.asarray(nulls, dtype="<i8").tobytes() if nulls else b""
    if kind == "pkl":
        return kind, pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL), b"", b""
    if kind == "str":
        blobs = [v.encode("utf-8") if v is not None else b"" for v in values]
        offsets = [0]
        for blob in blobs:
            offsets.append(offsets[-1] + len(blob))
        return (
            kind,
            b"".join(blobs),
            _np.asarray(offsets, dtype="<i8").tobytes(),
            null_buf,
        )
    dtype = {"i8": "<i8", "f8": "<f8", "b1": "|b1"}[kind]
    dense = [
        (0 if kind != "f8" else 0.0) if v is None else v for v in values
    ]
    return kind, _np.asarray(dense, dtype=dtype).tobytes(), b"", null_buf


def _decode_column(buf: memoryview, manifest: ColumnManifest) -> list:
    """Decode one column out of the segment into a fresh value list."""
    start, end = manifest.offset, manifest.offset + manifest.nbytes
    primary = buf[start:end]
    if manifest.kind == "pkl":
        return pickle.loads(primary)
    if manifest.kind == "str":
        offsets = _np.frombuffer(
            buf, dtype="<i8", count=manifest.length + 1, offset=manifest.aux_offset
        )
        blob = bytes(primary)
        values: list = [
            blob[offsets[i]:offsets[i + 1]].decode("utf-8")
            for i in range(manifest.length)
        ]
    else:
        dtype = {"i8": "<i8", "f8": "<f8", "b1": "|b1"}[manifest.kind]
        values = _np.frombuffer(
            buf, dtype=dtype, count=manifest.length, offset=manifest.offset
        ).tolist()
    if manifest.null_nbytes:
        null_count = manifest.null_nbytes // 8
        for index in _np.frombuffer(
            buf, dtype="<i8", count=null_count, offset=manifest.null_offset
        ).tolist():
            values[index] = None
    return values


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
        if _np is None:  # pragma: no cover - numpy is a baked-in dependency
            raise RuntimeError("shared-memory catalogues require numpy")
        #: fingerprint -> (SharedMemory, CatalogManifest)
        self._segments: dict[str, tuple[shared_memory.SharedMemory, CatalogManifest]] = {}
        #: orphans of dead owners reclaimed while building this registry
        self.reclaimed_segments = sweep_orphaned_segments()
        self._finalizer = weakref.finalize(
            self, SharedCatalogRegistry._cleanup_segments, self._segments
        )

    # -- owner side ---------------------------------------------------------

    def register(self, catalog: Catalog) -> CatalogManifest:
        """Encode ``catalog`` into a shared segment; idempotent per content."""
        from .fingerprint import catalog_fingerprint

        fingerprint = catalog_fingerprint(catalog)
        existing = self._segments.get(fingerprint)
        if existing is not None:
            return existing[1]
        with span("shm.register", fingerprint=fingerprint[:16]):
            return self._register_new(catalog, fingerprint)

    def _register_new(self, catalog: Catalog, fingerprint: str) -> CatalogManifest:
        # encode every column first so the segment is sized exactly once
        tables: list[TableManifest] = []
        buffers: list[bytes] = []
        cursor = 0

        def _append(buf: bytes) -> tuple[int, int]:
            nonlocal cursor
            offset = cursor
            buffers.append(buf)
            cursor += len(buf)
            return offset, len(buf)

        for table in sorted(catalog.tables(), key=lambda t: t.name.lower()):
            table_manifest = TableManifest(name=table.name, columns=list(table.columns))
            for index in range(len(table.columns)):
                values = table.column_data(index)
                kind, primary, aux, null_buf = _encode_column(values)
                offset, nbytes = _append(primary)
                aux_offset, aux_nbytes = _append(aux) if aux else (0, 0)
                null_offset, null_nbytes = _append(null_buf) if null_buf else (0, 0)
                table_manifest.column_manifests.append(
                    ColumnManifest(
                        kind=kind,
                        length=len(values),
                        offset=offset,
                        nbytes=nbytes,
                        aux_offset=aux_offset,
                        aux_nbytes=aux_nbytes,
                        null_offset=null_offset,
                        null_nbytes=null_nbytes,
                    )
                )
            tables.append(table_manifest)

        total = max(1, cursor)  # zero-byte segments are not allowed
        # named creation (pid in the name) so a later sweep can tell orphans
        # from live segments; retry on the (unlikely) collision with a
        # leftover of a previous same-pid process
        while True:
            try:
                shm = shared_memory.SharedMemory(
                    name=_segment_name(), create=True, size=total
                )
                break
            except FileExistsError:  # pragma: no cover - pid-reuse leftover
                continue
        try:
            position = 0
            for buf in buffers:
                shm.buf[position:position + len(buf)] = buf
                position += len(buf)
            manifest = CatalogManifest(
                segment=shm.name,
                total_bytes=cursor,
                tables=tables,
                fingerprint=fingerprint,
            )
        except Exception:
            # creation failed mid-populate: reclaim the segment immediately
            shm.close()
            shm.unlink()
            raise
        self._segments[fingerprint] = (shm, manifest)
        return manifest

    def manifest_for(self, catalog: Catalog) -> Optional[CatalogManifest]:
        from .fingerprint import catalog_fingerprint

        entry = self._segments.get(catalog_fingerprint(catalog))
        return entry[1] if entry is not None else None

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
        """Rebuild a catalogue by decoding the manifest's shared segment.

        The mapping is closed as soon as the columns are decoded; attachers
        never unlink (the registry that created the segment owns it).
        """
        with span("shm.attach", segment=manifest.segment):
            shm = _attach_readonly(manifest.segment)
            try:
                buf = shm.buf
                tables = []
                for table_manifest in manifest.tables:
                    col_data = [
                        _decode_column(buf, column)
                        for column in table_manifest.column_manifests
                    ]
                    tables.append(
                        Table.from_columns(
                            table_manifest.name, table_manifest.columns, col_data
                        )
                    )
                del buf
            finally:
                shm.close()
            return Catalog(tables)
