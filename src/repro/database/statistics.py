"""Lightweight per-column statistics over base tables.

PI2 consults the "database catalogue" for three things (Sections 3.2 and 4.1
of the paper):

* attribute domains — used to initialise sliders / range sliders and to
  generalise ``ANY`` nodes over numeric literals to ``VAL`` nodes;
* distinct cardinalities — an attribute with cardinality below 20 may be
  mapped to a categorical visual variable;
* uniqueness — used to validate functional-dependency constraints of charts.

The :class:`ColumnStatistics` object caches all three per column.  The query
planner reads none of them: it joins in FROM order and keeps no row
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .table import Table
from .types import DataType

#: Cardinality threshold below which a column may be treated as categorical
#: (Section 4.1: "str and num attributes whose cardinality is below 20 are
#: compatible with categorical visual attributes").
CATEGORICAL_CARDINALITY_THRESHOLD = 20


@dataclass
class ColumnStatistics:
    """Summary statistics of one column of one base table."""

    table: str
    column: str
    dtype: DataType
    row_count: int
    distinct_count: int
    null_count: int
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    distinct_values: Optional[tuple] = None  # kept only for small domains

    @property
    def qualified_name(self) -> str:
        return f"{self.table}.{self.column}"

    @property
    def is_unique(self) -> bool:
        """True when the column uniquely identifies rows (no nulls, all distinct)."""
        return self.null_count == 0 and self.distinct_count == self.row_count

    @property
    def is_categorical_candidate(self) -> bool:
        """True when the column could be rendered on a categorical visual axis."""
        return self.distinct_count < CATEGORICAL_CARDINALITY_THRESHOLD

    def domain(self) -> tuple[Optional[object], Optional[object]]:
        """The (min, max) value range of the column."""
        return (self.min_value, self.max_value)


def compute_column_statistics(
    table: Table, column_name: str, max_distinct_kept: int = 64
) -> ColumnStatistics:
    """Scan one column of a base table and summarise it."""
    col = table.column(column_name)
    values = table.values(column_name)
    non_null = [v for v in values if v is not None]
    distinct = set(non_null)
    kept = tuple(sorted(distinct, key=_sort_key)) if len(distinct) <= max_distinct_kept else None
    return ColumnStatistics(
        table=table.name,
        column=column_name,
        dtype=col.dtype,
        row_count=len(values),
        distinct_count=len(distinct),
        null_count=len(values) - len(non_null),
        min_value=min(non_null, key=_sort_key) if non_null else None,
        max_value=max(non_null, key=_sort_key) if non_null else None,
        distinct_values=kept,
    )


def _sort_key(value: object):
    """Sort key that keeps heterogeneous columns (e.g. int/float mixes) stable."""
    if isinstance(value, bool):
        return (0, int(value))
    if isinstance(value, (int, float)):
        return (0, value)
    return (1, str(value))
