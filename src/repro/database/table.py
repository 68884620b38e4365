"""Table and result-set containers for the in-memory database substrate.

Storage is **column-major**: both :class:`Table` and :class:`ResultTable`
keep one homogeneous Python list per column, which is what the vectorized
executor (:mod:`repro.database.columnar`) iterates in tight loops.  Row
tuples are materialised lazily — the first access to ``.rows`` zips the
column lists and caches the result — so row-oriented consumers (the Difftree
schema layer, the mapping layer, the interface runtime, and the AST
interpreter) keep working unchanged while column-oriented consumers never
pay for tuple construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .types import Column, DataType, infer_value_type, unify_all


def _rows_from_columns(cols: Sequence[list], nrows: int) -> list[tuple]:
    """Materialise row tuples from per-column value lists."""
    if not cols:
        return [()] * nrows
    return list(zip(*cols))


class Table:
    """An in-memory base table with a declared schema.

    Data is stored column-major: one value list per column, aligned by row
    position.  Tables are append-only: PI2 never mutates data, it only reads
    it to infer schemas, statistics and to execute the queries behind each
    visualization.  ``.rows`` materialises row tuples lazily and caches them
    until the next insert.
    """

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        self.name = name
        self.columns = list(columns)
        self._cols: list[list] = [[] for _ in self.columns]
        self._rows_cache: Optional[list[tuple]] = None
        self._index = {c.name: i for i, c in enumerate(self.columns)}
        if len(self._index) != len(self.columns):
            raise ValueError(f"duplicate column names in table {name!r}")

    # -- construction -------------------------------------------------------

    def insert(self, row: Sequence[object]) -> None:
        """Append a single row (must match the column count)."""
        if len(row) != len(self.columns):
            raise ValueError(
                f"row width {len(row)} does not match table {self.name!r} "
                f"width {len(self.columns)}"
            )
        for col, value in zip(self._cols, row):
            col.append(value)
        self._rows_cache = None

    def insert_many(self, rows: Iterable[Sequence[object]]) -> None:
        for row in rows:
            self.insert(row)

    @classmethod
    def from_rows(
        cls,
        name: str,
        columns: Sequence[Column],
        rows: Iterable[Sequence[object]],
    ) -> "Table":
        table = cls(name, columns)
        table.insert_many(rows)
        return table

    @classmethod
    def from_columns(
        cls,
        name: str,
        columns: Sequence[Column],
        col_data: Sequence[list],
    ) -> "Table":
        """Build a table directly from per-column value lists.

        The lists are adopted, not copied — this is the shared-memory
        catalogue attach path (:mod:`repro.service.shm`), which decodes each
        column once from its segment and must not pay a second copy.
        """
        table = cls(name, columns)
        if len(col_data) != len(table.columns):
            raise ValueError(
                f"column data width {len(col_data)} does not match table "
                f"{name!r} width {len(table.columns)}"
            )
        lengths = {len(col) for col in col_data}
        if len(lengths) > 1:
            raise ValueError(f"ragged column data for table {name!r}: {lengths}")
        table._cols = [list(col) if not isinstance(col, list) else col for col in col_data]
        return table

    @classmethod
    def from_dicts(cls, name: str, records: Sequence[dict]) -> "Table":
        """Build a table from a list of dictionaries, inferring column types."""
        if not records:
            raise ValueError("cannot infer schema from an empty record list")
        names = list(records[0].keys())
        columns = []
        for col in names:
            dtype = unify_all(infer_value_type(rec[col]) for rec in records)
            columns.append(Column(col, dtype))
        rows = [tuple(rec[col] for col in names) for rec in records]
        return cls.from_rows(name, columns, rows)

    # -- access ---------------------------------------------------------------

    @property
    def rows(self) -> list[tuple]:
        """Row tuples in insertion order (lazily materialised, then cached).

        The returned list is cached and shared — treat it as read-only.
        """
        if self._rows_cache is None:
            self._rows_cache = _rows_from_columns(self._cols, self.row_count())
        return self._rows_cache

    def row_count(self) -> int:
        return len(self._cols[0]) if self._cols else 0

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        if name not in self._index:
            raise KeyError(f"no column {name!r} in table {self.name!r}")
        return self._index[name]

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return name in self._index

    def values(self, name: str) -> list[object]:
        """All values of a column, in row order (a fresh list)."""
        return list(self._cols[self.column_index(name)])

    def column_data(self, index: int) -> list:
        """The raw value list backing column ``index`` — do not mutate."""
        return self._cols[index]

    def __len__(self) -> int:
        return self.row_count()

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, {len(self.columns)} cols, {self.row_count()} rows)"


class RelColumn:
    """A column of an intermediate relation produced by a FROM clause.

    Shared by the planner (which builds relation schemas at plan time) and
    the executor (which materialises relations at run time).
    """

    __slots__ = ("name", "qualifier", "dtype", "source", "is_aggregate")

    def __init__(
        self,
        name: str,
        qualifier: Optional[str],
        dtype: DataType,
        source: Optional[str] = None,
        is_aggregate: bool = False,
    ) -> None:
        self.name = name                  # bare column name
        self.qualifier = qualifier        # table alias or table name
        self.dtype = dtype
        self.source = source              # fully qualified base attribute
        self.is_aggregate = is_aggregate

    @property
    def qualified(self) -> Optional[str]:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelColumn):
            return NotImplemented
        return (
            self.name == other.name
            and self.qualifier == other.qualifier
            and self.dtype == other.dtype
            and self.source == other.source
            and self.is_aggregate == other.is_aggregate
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelColumn({self.qualified!r}, {self.dtype})"


class Relation:
    """An intermediate relation: typed columns plus rows of tuples.

    This is the row-major relation used by the interpreter (and by the
    scopes of correlated subqueries); the vectorized engine uses
    :class:`repro.database.columnar.ColumnarRelation` instead.
    """

    __slots__ = ("columns", "rows")

    def __init__(
        self,
        columns: Optional[list[RelColumn]] = None,
        rows: Optional[list[tuple]] = None,
    ) -> None:
        self.columns = columns if columns is not None else []
        self.rows = rows if rows is not None else []

    def find(self, name: str, qualifier: Optional[str] = None) -> Optional[int]:
        """Index of the column matching ``name`` (and ``qualifier`` if given)."""
        for i, col in enumerate(self.columns):
            if col.name != name:
                continue
            if qualifier is None or (
                col.qualifier is not None
                and col.qualifier.lower() == qualifier.lower()
            ):
                return i
        return None


class ResultColumn:
    """A column of a query result.

    Attributes:
        name: output column name (alias, bare column name, or rendered
            expression text).
        dtype: inferred data type.
        source: fully qualified source attribute (``table.column``) when the
            output column is a direct projection of a base attribute, else
            ``None``.  PI2 uses this to connect result columns back to
            database attribute domains (attribute types, Section 3.2.1).
        is_aggregate: True when the column is produced by an aggregate call.
    """

    __slots__ = ("name", "dtype", "source", "is_aggregate")

    def __init__(
        self,
        name: str,
        dtype: DataType,
        source: Optional[str] = None,
        is_aggregate: bool = False,
    ) -> None:
        self.name = name
        self.dtype = dtype
        self.source = source
        self.is_aggregate = is_aggregate

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultColumn):
            return NotImplemented
        return (
            self.name == other.name
            and self.dtype == other.dtype
            and self.source == other.source
            and self.is_aggregate == other.is_aggregate
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultColumn({self.name!r}, {self.dtype})"


class ResultTable:
    """A query result: a list of :class:`ResultColumn` plus the result data.

    The data lives column-major (one value list per column); ``.rows``
    materialises row tuples lazily on first access and caches them.  The
    columnar executor builds results directly from column vectors via
    :meth:`from_columns`, and column-oriented consumers (``values``,
    ``distinct_count``) read the vectors without ever building tuples.
    Name lookup is O(1): a name→index dict is built once per table and
    invalidated only by ``copy()``.
    """

    __slots__ = ("columns", "_cols", "_rows_cache", "_index")

    def __init__(
        self,
        columns: Optional[list[ResultColumn]] = None,
        rows: Optional[list[tuple]] = None,
    ) -> None:
        self.columns = columns if columns is not None else []
        self._rows_cache: Optional[list[tuple]] = rows if rows is not None else []
        self._cols: Optional[list[list]] = None
        self._index: Optional[dict[str, int]] = None

    @classmethod
    def from_columns(
        cls,
        columns: list[ResultColumn],
        col_data: list[list],
        nrows: Optional[int] = None,
    ) -> "ResultTable":
        """Build a result directly from per-column value vectors."""
        table = cls(columns)
        table._rows_cache = None
        table._cols = col_data
        if nrows is not None and not col_data:
            table._rows_cache = [()] * nrows
            table._cols = None
        return table

    # -- access ---------------------------------------------------------------

    @property
    def rows(self) -> list[tuple]:
        """Row tuples (lazily materialised from the column vectors)."""
        if self._rows_cache is None:
            assert self._cols is not None
            nrows = len(self._cols[0]) if self._cols else 0
            self._rows_cache = _rows_from_columns(self._cols, nrows)
        return self._rows_cache

    @rows.setter
    def rows(self, rows: list[tuple]) -> None:
        self._rows_cache = rows
        self._cols = None

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        if self._index is None:
            index: dict[str, int] = {}
            for i, c in enumerate(self.columns):
                if c.name not in index:
                    index[c.name] = i
            self._index = index
        idx = self._index.get(name)
        if idx is None:
            raise KeyError(f"no result column {name!r}")
        return idx

    def values(self, name: str) -> list[object]:
        idx = self.column_index(name)
        if self._cols is not None:
            return list(self._cols[idx])
        return [row[idx] for row in self.rows]

    def column_data(self, index: int) -> list:
        """The value vector of column ``index`` (fresh when row-backed)."""
        if self._cols is not None:
            return self._cols[index]
        return [row[index] for row in self.rows]

    def distinct_count(self, name: str) -> int:
        return len(set(self.values(name)))

    def __len__(self) -> int:
        if self._cols is not None and self._rows_cache is None:
            return len(self._cols[0]) if self._cols else 0
        return len(self.rows)

    def to_dicts(self) -> list[dict]:
        names = self.column_names()
        return [dict(zip(names, row)) for row in self.rows]

    def head(self, n: int = 5) -> "ResultTable":
        return ResultTable(self.columns, self.rows[:n])

    def copy(self) -> "ResultTable":
        """A defensive shallow copy: fresh column objects and rows list.

        Row tuples are shared (they are immutable); the columns and rows
        containers are new so a caller mutating the copy cannot poison a
        cached original.
        """
        columns = [
            ResultColumn(c.name, c.dtype, c.source, c.is_aggregate)
            for c in self.columns
        ]
        return ResultTable(columns, list(self.rows))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return self.columns == other.columns and self.rows == other.rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultTable({self.column_names()}, {len(self)} rows)"
