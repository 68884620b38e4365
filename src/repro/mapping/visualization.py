"""Visualization model and visualization mapping (paper Section 4.1, Table 1).

A visualization type is modelled as a *visualization schema*: a set of visual
variables (x, y, color, …), each accepting quantitative (Q) or categorical (C)
data, plus optional functional-dependency constraints (a bar chart assumes
``(x, color) → y``).  A Difftree can be rendered by a visualization when
there is a valid mapping from its result schema to the visualization schema:

1. every data attribute is mapped to a visual variable,
2. each visual variable is mapped to at most once,
3. every non-optional visual variable is mapped to,
4. the data attribute's type is compatible with the visual variable's type
   (numeric ⇒ Q; numeric or string with cardinality below 20 ⇒ C), and
5. the FD constraints hold (validated from the query structure — grouping
   attributes determine aggregates — or attribute uniqueness).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..database.catalog import Catalog
from ..database.statistics import CATEGORICAL_CARDINALITY_THRESHOLD
from ..database.types import DataType
from ..difftree.schema import ResultAttribute, ResultSchema

#: Visual-variable data kinds.
QUANTITATIVE = "Q"
CATEGORICAL = "C"


@dataclass(frozen=True)
class VisualVariable:
    """One visual variable of a visualization schema (e.g. ``x`` or ``color``)."""

    name: str
    kinds: tuple[str, ...]          # accepted kinds, e.g. ("Q", "C")
    optional: bool = False


@dataclass(frozen=True)
class VisualizationType:
    """A chart type: schema, FD constraints and supported interactions."""

    name: str
    variables: tuple[VisualVariable, ...]
    #: functional dependencies as (determinant variable names, dependent name)
    fds: tuple[tuple[tuple[str, ...], str], ...] = ()
    interactions: tuple[str, ...] = ()
    #: estimated rendering size in pixels (used by the layout / Fitts model)
    width: int = 320
    height: int = 240
    #: tables render anything; charts need a defined result schema
    accepts_any_schema: bool = False

    def required_variables(self) -> list[VisualVariable]:
        return [v for v in self.variables if not v.optional]

    def variable(self, name: str) -> VisualVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)


#: The prototype's visualization library (paper Table 1).
TABLE_VIS = VisualizationType(
    name="table",
    variables=(),
    interactions=("click",),
    width=420,
    height=260,
    accepts_any_schema=True,
)

POINT_VIS = VisualizationType(
    name="point",
    variables=(
        VisualVariable("x", (QUANTITATIVE, CATEGORICAL)),
        VisualVariable("y", (QUANTITATIVE,)),
        VisualVariable("shape", (CATEGORICAL,), optional=True),
        VisualVariable("size", (CATEGORICAL,), optional=True),
        VisualVariable("color", (CATEGORICAL,), optional=True),
    ),
    interactions=("click", "multi-click", "brush-x", "brush-y", "brush-xy", "pan", "zoom"),
    width=360,
    height=280,
)

BAR_VIS = VisualizationType(
    name="bar",
    variables=(
        VisualVariable("x", (CATEGORICAL,)),
        VisualVariable("y", (QUANTITATIVE,)),
        VisualVariable("color", (CATEGORICAL,), optional=True),
    ),
    fds=((("x", "color"), "y"),),
    interactions=("click", "multi-click", "brush-x"),
    width=360,
    height=260,
)

LINE_VIS = VisualizationType(
    name="line",
    variables=(
        VisualVariable("x", (QUANTITATIVE, CATEGORICAL)),
        VisualVariable("y", (QUANTITATIVE,)),
        VisualVariable("shape", (CATEGORICAL,), optional=True),
        VisualVariable("size", (CATEGORICAL,), optional=True),
        VisualVariable("color", (CATEGORICAL,), optional=True),
    ),
    fds=((("x", "shape", "size", "color"), "y"),),
    interactions=("click", "pan", "zoom"),
    width=400,
    height=260,
)

#: Registry of available visualization types (extensible).
VIS_TYPES: list[VisualizationType] = [TABLE_VIS, POINT_VIS, BAR_VIS, LINE_VIS]


def register_visualization(vis_type: VisualizationType) -> None:
    """Add a new visualization type to the library (extensibility hook).

    Call at import/setup time, before any search runs: worker processes
    see only the types registered before they start.
    """
    VIS_TYPES.append(vis_type)


# ---------------------------------------------------------------------------
# visualization mapping
# ---------------------------------------------------------------------------


@dataclass
class VisMapping:
    """A valid mapping from a Difftree's result schema to a visualization.

    Attributes:
        vis_type: the chart type.
        assignment: result-attribute index → visual variable name.
        result_schema: the result schema being rendered.
        score: heuristic preference used to rank candidates (charts over
            tables, temporal x on line charts, …).
    """

    vis_type: VisualizationType
    assignment: dict[int, str] = field(default_factory=dict)
    result_schema: Optional[ResultSchema] = None
    score: float = 0.0

    def variable_for(self, attr_index: int) -> Optional[str]:
        return self.assignment.get(attr_index)

    def attribute_for(self, variable: str) -> Optional[int]:
        for idx, var in self.assignment.items():
            if var == variable:
                return idx
        return None

    def describe(self) -> str:
        if self.vis_type.accepts_any_schema or self.result_schema is None:
            return f"{self.vis_type.name}"
        parts = []
        for idx, var in sorted(self.assignment.items(), key=lambda kv: kv[1]):
            parts.append(f"{self.result_schema.attribute(idx).display_name}→{var}")
        return f"{self.vis_type.name}({', '.join(parts)})"


def attribute_kinds(attr: ResultAttribute) -> set[str]:
    """The visual kinds (Q / C) an output attribute is compatible with."""
    kinds: set[str] = set()
    if attr.dtype.is_numeric:
        kinds.add(QUANTITATIVE)
    if attr.distinct_count and attr.distinct_count < CATEGORICAL_CARDINALITY_THRESHOLD:
        kinds.add(CATEGORICAL)
    if attr.dtype in (DataType.STR, DataType.DATE):
        # strings above the cardinality threshold can still only go to C axes,
        # but such mappings are filtered by the threshold check above; dates
        # behave like quantitative positions on line charts
        if attr.dtype is DataType.DATE:
            kinds.add(QUANTITATIVE)
    return kinds


def _fd_satisfied(
    vis: VisualizationType,
    assignment: dict[int, str],
    schema: ResultSchema,
    catalog: Optional[Catalog],
) -> bool:
    """Check the visualization's FD constraints against the result schema."""
    for determinants, dependent in vis.fds:
        dep_idx = _attr_for_variable(assignment, dependent)
        if dep_idx is None:
            continue
        det_indices = [
            _attr_for_variable(assignment, d) for d in determinants
        ]
        det_indices = [i for i in det_indices if i is not None]
        if not det_indices:
            return False
        det_attrs = [schema.attribute(i) for i in det_indices]
        dep_attr = schema.attribute(dep_idx)
        # (a) grouping attributes determine aggregates
        if dep_attr.is_aggregate and all(a.grouped for a in det_attrs):
            continue
        # (b) a unique (primary-key-like) determinant determines everything
        if catalog is not None and any(
            src and catalog.is_unique(src)
            for a in det_attrs
            for src in a.sources
        ):
            continue
        # (c) the determinant's cardinality equals the row count (observed FD)
        if any(
            a.distinct_count and a.distinct_count >= schema.row_count > 0
            for a in det_attrs
        ):
            continue
        return False
    return True


def _attr_for_variable(assignment: dict[int, str], variable: str) -> Optional[int]:
    for idx, var in assignment.items():
        if var == variable:
            return idx
    return None


def candidate_visualizations(
    schema: Optional[ResultSchema],
    catalog: Optional[Catalog] = None,
    max_candidates: int = 24,
) -> list[VisMapping]:
    """All valid visualization mappings for a result schema, ranked.

    The table visualization is always valid (it accepts any schema), so the
    returned list is never empty.  Chart mappings are generated by iterating
    over visualization types and permutations of the result schema (the
    paper's candidate-generation procedure), validating the mapping rules and
    FD constraints.
    """
    candidates: list[VisMapping] = []

    table = VisMapping(TABLE_VIS, {}, schema, score=_score_table(schema))
    candidates.append(table)

    if schema is None or schema.arity() == 0:
        return candidates

    attrs = list(schema.attributes)
    kinds = [attribute_kinds(a) for a in attrs]
    renderable = [i for i in range(len(attrs)) if not _is_hidden_key(attrs[i], catalog)]

    for vis in VIS_TYPES:
        if vis.accepts_any_schema:
            continue
        required = [v.name for v in vis.required_variables()]
        optional = [v.name for v in vis.variables if v.optional]
        if len(renderable) < len(required) or len(renderable) > len(vis.variables):
            continue
        # choose which optional variables to use so every attribute is mapped
        n_optional = len(renderable) - len(required)
        for opt_combo in itertools.combinations(optional, n_optional):
            variables = required + list(opt_combo)
            for perm in itertools.permutations(renderable):
                assignment = dict(zip(perm, variables))
                if not _types_compatible(vis, assignment, kinds):
                    continue
                if not _fd_satisfied(vis, assignment, schema, catalog):
                    continue
                mapping = VisMapping(
                    vis, assignment, schema, score=_score(vis, assignment, attrs)
                )
                if not _duplicate(mapping, candidates):
                    candidates.append(mapping)
                if len(candidates) >= max_candidates:
                    break
            if len(candidates) >= max_candidates:
                break
        if len(candidates) >= max_candidates:
            break

    candidates.sort(key=lambda m: -m.score)
    return candidates


def _is_hidden_key(attr: ResultAttribute, catalog: Optional[Catalog]) -> bool:
    """Primary-key columns are not rendered by default (paper: Connect example)."""
    if catalog is None or not attr.sources:
        return False
    return (
        all(catalog.is_unique(src) for src in attr.sources)
        and not attr.is_aggregate
        and attr.dtype.is_numeric
        and any(src.lower().endswith(("id", ".id", "objid")) for src in attr.sources)
    )


def _types_compatible(
    vis: VisualizationType, assignment: dict[int, str], kinds: list[set[str]]
) -> bool:
    for attr_idx, var_name in assignment.items():
        variable = vis.variable(var_name)
        if not (kinds[attr_idx] & set(variable.kinds)):
            return False
    return True


def _score(
    vis: VisualizationType, assignment: dict[int, str], attrs: list[ResultAttribute]
) -> float:
    """Heuristic preference for ranking candidate charts."""
    score = 1.0
    x_idx = _attr_for_variable(assignment, "x")
    y_idx = _attr_for_variable(assignment, "y")
    if x_idx is not None:
        x_attr = attrs[x_idx]
        if vis.name == "line" and x_attr.dtype is DataType.DATE:
            score += 2.0
        if vis.name == "bar" and x_attr.grouped:
            score += 1.5
        if vis.name == "point" and x_attr.dtype.is_numeric and not x_attr.grouped:
            score += 1.2
        if vis.name == "line" and x_attr.dtype.is_numeric and not x_attr.grouped:
            score += 0.3
    if y_idx is not None and attrs[y_idx].is_aggregate and vis.name == "bar":
        score += 1.0
    # prefer charts whose x axis is not an aggregate
    if x_idx is not None and attrs[x_idx].is_aggregate:
        score -= 0.5
    return score


def _score_table(schema: Optional[ResultSchema]) -> float:
    """Tables win only for wide results (the SDSS case: nine attributes)."""
    if schema is None:
        return 1.0
    return 1.5 if schema.arity() > 5 else 0.1


def _duplicate(mapping: VisMapping, existing: Sequence[VisMapping]) -> bool:
    for other in existing:
        if (
            other.vis_type.name == mapping.vis_type.name
            and other.assignment == mapping.assignment
        ):
            return True
    return False
