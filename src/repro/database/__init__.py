"""In-memory relational database substrate.

Provides the two external dependencies PI2 assumes: a database catalogue
(schemas, domains, statistics) and a query execution engine, plus synthetic
datasets matching the paper's evaluation workloads.
"""

from .catalog import Catalog, CatalogError
from .datasets import (
    make_cars_table,
    make_covid_table,
    make_flights_table,
    make_sales_table,
    make_sdss_tables,
    make_sp500_table,
    make_t_table,
    small_catalog,
    standard_catalog,
)
from .columnar import ColumnarRelation
from .executor import ExecutionError, Executor
from .functions import TODAY, function_return_type, is_aggregate
from .plancache import SHARED_PLAN_CACHE, CatalogCache
from .planner import Plan, Planner, PlanningError, PlanStats
from .statistics import (
    CATEGORICAL_CARDINALITY_THRESHOLD,
    ColumnStatistics,
    compute_column_statistics,
)
from .table import Column, RelColumn, Relation, ResultColumn, ResultTable, Table
from .types import DataType, infer_value_type, looks_like_date, unify_all, unify_types

__all__ = [
    "CATEGORICAL_CARDINALITY_THRESHOLD",
    "Catalog",
    "CatalogCache",
    "CatalogError",
    "Column",
    "ColumnStatistics",
    "ColumnarRelation",
    "DataType",
    "ExecutionError",
    "Executor",
    "Plan",
    "PlanStats",
    "Planner",
    "PlanningError",
    "SHARED_PLAN_CACHE",
    "RelColumn",
    "Relation",
    "ResultColumn",
    "ResultTable",
    "TODAY",
    "Table",
    "compute_column_statistics",
    "function_return_type",
    "infer_value_type",
    "is_aggregate",
    "looks_like_date",
    "make_cars_table",
    "make_covid_table",
    "make_flights_table",
    "make_sales_table",
    "make_sdss_tables",
    "make_sp500_table",
    "make_t_table",
    "small_catalog",
    "standard_catalog",
    "unify_all",
    "unify_types",
]
