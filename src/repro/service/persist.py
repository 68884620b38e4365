"""Cross-run cache persistence: save / load the search's warm state.

One :class:`CacheStore` bundle holds everything a later run over the same
(catalogue, workload, reward-relevant configuration) can reuse:

* the cross-worker **reward table** (state fingerprint → reward) — the big
  win: every previously explored state is answered from the table instead of
  re-running K interface mappings and their reward queries;
* the catalogue's **compiled plan** entries — plans reference tables by name
  and rebind to any catalogue with the same content fingerprint;
* the catalogue's persistable **mapping-memo fragments** (see
  :data:`repro.mapping.memo.PERSISTABLE_KINDS`).

Keying and validation
---------------------

The bundle's filename is the :func:`persistence_key` — SHA-256 over the
catalogue, workload and config fingerprints — so different content can never
collide on a path.  The file itself is defended in depth: a fixed magic
prefix, then a JSON header carrying the format version, the expected key and
the payload's SHA-256, then the pickled payload.  :meth:`CacheStore.load`
validates *all three* before unpickling a single payload byte; any mismatch
— tampered payload, truncated file, version bump, key collision — rejects
the file and the caller falls back to a cold run.  Rejection is silent by
design: a damaged cache must never be able to fail a generation request.

Writes go through a temp file + ``fsync`` + :func:`os.replace` (and a
best-effort directory fsync) so a crash — or power loss — mid-save leaves
either the old bundle or the complete new one, never a torn file.  The
``corrupt-persisted-cache`` fault site of :mod:`repro.faults` flips a
payload bit *after* the header digest is computed, exercising exactly the
torn-file path the validator must reject.

Because rewards are pure functions of ``(seed, state fingerprint)`` (see
:func:`repro.core.pipeline.make_reward_fn`), reloading a bundle changes how
*fast* states are evaluated, never *which* interface comes out: cold,
warm-pool and persisted-reload runs are byte-identical
(``tests/test_service.py`` sweeps this over every workload).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .. import faults
from ..obs import span
from .fingerprint import catalog_fingerprint, config_fingerprint, workload_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import PipelineConfig
    from ..database.catalog import Catalog
    from ..sqlparser.ast_nodes import Node

__all__ = ["CACHE_VERSION", "CacheBundle", "CacheStore", "persistence_key"]

#: Format / code salt of persisted bundles.  Bump whenever the pickled
#: artifact layout *or the semantics of what is cached* changes (reward
#: function, plan representation, memo key scheme): a version mismatch is a
#: validated rejection at load time, so stale bundles from older code can
#: never alias into a newer process.
CACHE_VERSION = 3

_MAGIC = b"PI2CACHE\x00"


def _fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory so a rename survives power loss."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without dir-fsync
        pass
    finally:
        os.close(fd)


def persistence_key(
    catalog: "Catalog", asts: Sequence["Node"], config: "PipelineConfig"
) -> str:
    """The bundle key: one SHA-256 over the three content fingerprints."""
    digest = hashlib.sha256()
    digest.update(catalog_fingerprint(catalog).encode("ascii") + b"|")
    digest.update(workload_fingerprint(asts).encode("ascii") + b"|")
    digest.update(config_fingerprint(config).encode("ascii"))
    return digest.hexdigest()


@dataclass
class CacheBundle:
    """The warm state one run hands to the next."""

    rewards: dict = field(default_factory=dict)
    plans: list = field(default_factory=list)
    memo: list = field(default_factory=list)


class CacheStore:
    """Directory of persisted cache bundles, one file per persistence key."""

    def __init__(self, root: str) -> None:
        self.root = Path(root)
        #: load/save outcomes for observability (CLI summaries, tests, and
        #: the run metrics' ``persist.*`` counters)
        self.loads = 0
        self.load_rejects = 0
        self.saves = 0
        #: load attempts that found no bundle file at all (cold cache)
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.pi2cache"

    def save(
        self,
        key: str,
        rewards: Optional[dict] = None,
        plans: Optional[list] = None,
        memo: Optional[list] = None,
    ) -> Optional[Path]:
        """Persist a bundle atomically; returns the path, or ``None`` when
        nothing in the bundle could be pickled (persistence is best-effort —
        an unpicklable plan must never fail the generation that produced it).
        """
        bundle = {
            "rewards": dict(rewards or {}),
            "plans": list(plans or []),
            "memo": list(memo or []),
        }
        try:
            payload = pickle.dumps(bundle, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            # drop the unpicklable parts and retry with rewards alone, which
            # are plain {str: float} and always serializable
            try:
                payload = pickle.dumps(
                    {"rewards": bundle["rewards"], "plans": [], "memo": []},
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            except Exception:  # pragma: no cover - rewards are primitives
                return None
        header = json.dumps(
            {
                "version": CACHE_VERSION,
                "key": key,
                "payload_sha256": hashlib.sha256(payload).hexdigest(),
                "payload_bytes": len(payload),
            },
            sort_keys=True,
        ).encode("ascii")

        if faults.fire("corrupt-persisted-cache"):
            # bit-flip the payload *after* the header digest was computed:
            # the file lands with a clean header over dirty bytes, exactly
            # what a torn write produces, and load() must reject it
            payload = bytes([payload[0] ^ 0xFF]) + payload[1:]

        self.root.mkdir(parents=True, exist_ok=True)
        target = self.path_for(key)
        with span("persist.save", key=key[:16], payload_bytes=len(payload)):
            fd, tmp_path = tempfile.mkstemp(
                dir=str(self.root), prefix=f".{key[:16]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(_MAGIC)
                    handle.write(header)
                    handle.write(b"\n")
                    handle.write(payload)
                    # durability, not just atomicity: the data must be on
                    # disk before the rename publishes it
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, target)
                _fsync_dir(self.root)
            except Exception:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        self.saves += 1
        return target

    def load(self, key: str) -> Optional[CacheBundle]:
        """Load and validate the bundle for ``key``; ``None`` on any defect.

        Validation order matters: magic, header well-formedness, format
        version, key match and payload digest are all checked *before* the
        payload is unpickled, so a tampered file is rejected without ever
        deserializing attacker-controlled bytes.
        """
        path = self.path_for(key)
        with span("persist.load", key=key[:16]):
            try:
                blob = path.read_bytes()
            except OSError:
                self.misses += 1
                return None
            bundle = self._validate(key, blob)
        if bundle is None:
            self.load_rejects += 1
        else:
            self.loads += 1
        return bundle

    @staticmethod
    def _validate(key: str, blob: bytes) -> Optional[CacheBundle]:
        if not blob.startswith(_MAGIC):
            return None
        body = blob[len(_MAGIC):]
        newline = body.find(b"\n")
        if newline < 0:
            return None
        try:
            header = json.loads(body[:newline].decode("ascii"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(header, dict):
            return None
        if header.get("version") != CACHE_VERSION:
            return None
        if header.get("key") != key:
            return None
        payload = body[newline + 1:]
        if header.get("payload_bytes") != len(payload):
            return None
        if header.get("payload_sha256") != hashlib.sha256(payload).hexdigest():
            return None
        try:
            data = pickle.loads(payload)
        except Exception:
            return None
        if not isinstance(data, dict):
            return None
        rewards = data.get("rewards")
        if not isinstance(rewards, dict) or not all(
            isinstance(k, str) and isinstance(v, (int, float))
            for k, v in rewards.items()
        ):
            return None
        plans = data.get("plans")
        memo = data.get("memo")
        if not isinstance(plans, list) or not isinstance(memo, list):
            return None
        return CacheBundle(rewards=rewards, plans=plans, memo=memo)
