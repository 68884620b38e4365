"""Content fingerprints keying the persistent-service caches.

Every cross-run artifact the service persists or shares (reward tables,
plan-cache exports, mapping-memo exports, shared-memory catalogue segments)
is keyed by *content*, never by object identity or path: two catalogues with
the same schema and data fingerprint identically no matter how they were
built, and any difference in data, workload or reward-relevant configuration
changes the key.  Stale cache entries therefore cannot alias — they simply
live under a key nobody asks for again.

Three fingerprints compose the persistence key (see
:func:`repro.service.persist.persistence_key`):

* :func:`catalog_fingerprint` — schema (table / column names, declared types,
  primary keys) plus every column's data, streamed through one SHA-256;
* :func:`workload_fingerprint` — the structural fingerprints of the parsed
  query ASTs, in sequence order (the analyst's query order matters to the
  cost model's sequence-sensitive terms);
* :func:`config_fingerprint` — the *reward-relevant* configuration: the seed
  and mapping count that parameterize the pure reward function, and the
  mapper / cost-model knobs that change what a reward evaluation computes.
  Search-schedule knobs (workers, sync interval, iteration budget) are
  deliberately excluded: rewards are pure functions of (seed, state), so a
  table built under one schedule is valid under any other.

All fingerprints are hex SHA-256 strings, independent of
``PYTHONHASHSEED``, process, and platform word size.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import fields, is_dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import PipelineConfig
    from ..database.catalog import Catalog
    from ..sqlparser.ast_nodes import Node

__all__ = [
    "catalog_fingerprint",
    "workload_fingerprint",
    "config_fingerprint",
]


#: catalogue fingerprints are cached per object — the data is immutable once
#: built (tables are append-only and the service registers finished
#: catalogues), and hashing a paper-scale catalogue streams every value
_FINGERPRINT_CACHE: "weakref.WeakKeyDictionary[Catalog, str]" = (
    weakref.WeakKeyDictionary()
)


def _hash_value(value: object, update) -> None:
    """Feed one cell value into the digest, tagged by type.

    The type tag makes ``1``, ``1.0`` and ``True`` hash differently: reward
    evaluations observe value *types* (type inference, chart constraints),
    so catalogues differing only in a column's value types must not share
    cached artifacts.
    """
    if value is None:
        update(b"\x00N")
    elif value is True:
        update(b"\x00T")
    elif value is False:
        update(b"\x00F")
    elif isinstance(value, int):
        update(b"\x00i" + str(value).encode("ascii"))
    elif isinstance(value, float):
        update(b"\x00f" + repr(value).encode("ascii"))
    elif isinstance(value, str):
        update(b"\x00s" + value.encode("utf-8"))
    else:
        # dates and anything exotic: type name + repr is stable for the
        # value types the substrate stores
        update(
            b"\x00o"
            + type(value).__name__.encode("ascii")
            + b":"
            + repr(value).encode("utf-8")
        )


def catalog_fingerprint(catalog: "Catalog") -> str:
    """SHA-256 over the catalogue's full schema and data (cached per object)."""
    cached = _FINGERPRINT_CACHE.get(catalog)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    update = digest.update
    for table in sorted(catalog.tables(), key=lambda t: t.name.lower()):
        update(b"\x01table:" + table.name.encode("utf-8"))
        for column in table.columns:
            update(
                b"\x02col:"
                + column.name.encode("utf-8")
                + b"|"
                + column.dtype.name.encode("ascii")
                + b"|"
                + (b"pk" if column.primary_key else b"-")
            )
        update(b"\x03rows:" + str(table.row_count()).encode("ascii"))
        for index in range(len(table.columns)):
            update(b"\x04data:" + str(index).encode("ascii"))
            for value in table.column_data(index):
                _hash_value(value, update)
    fingerprint = digest.hexdigest()
    _FINGERPRINT_CACHE[catalog] = fingerprint
    return fingerprint


def workload_fingerprint(asts: Sequence["Node"]) -> str:
    """SHA-256 over the parsed queries' structural fingerprints, in order."""
    digest = hashlib.sha256()
    for ast in asts:
        digest.update(b"\x01q:" + ast.fingerprint().encode("utf-8"))
    return digest.hexdigest()


def _config_items(prefix: str, obj: object, out: list[str]) -> None:
    """Flatten a (possibly nested) config dataclass into sorted key=repr items."""
    if is_dataclass(obj) and not isinstance(obj, type):
        for f in sorted(fields(obj), key=lambda f: f.name):
            _config_items(f"{prefix}{f.name}.", getattr(obj, f.name), out)
    else:
        out.append(f"{prefix[:-1]}={obj!r}")


def config_fingerprint(config: "PipelineConfig") -> str:
    """SHA-256 over the reward-relevant pipeline configuration.

    Covers the seed, the reward mapping count K, and every mapper / cost
    knob — the parameters of the pure reward function.  Adding a field to
    ``MapperConfig`` or ``CostModelConfig`` automatically extends the
    fingerprint (fields are enumerated reflectively), so forgetting to
    invalidate on a new knob is not possible.
    """
    items: list[str] = [
        f"seed={config.seed!r}",
        f"search.reward_mappings={config.search.reward_mappings!r}",
        f"search.seed={config.search.seed!r}",
    ]
    _config_items("mapper.", config.mapper, items)
    _config_items("cost.", config.cost, items)
    digest = hashlib.sha256()
    for item in sorted(items):
        digest.update(item.encode("utf-8") + b"\x00")
    return digest.hexdigest()
