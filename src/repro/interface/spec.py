"""The generated interface: views, interaction mappings, layout and cost.

An interface ``I = (V, M, L)`` (paper Section 2) maps every Difftree's result
to a visualization (``V``), every choice node to a widget or visualization
interaction (``M``) and arranges everything in a layout tree (``L``).  The
:class:`Interface` object is the pipeline's final output: it can describe
itself, report which widget/interaction controls which choice node, and is
executed by :mod:`repro.interface.runtime`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from ..difftree.tree import Difftree

if TYPE_CHECKING:  # type-only imports; avoids a circular import with repro.mapping
    from ..mapping.interactions import InteractionCandidate
    from ..mapping.layout import LayoutTree
    from ..mapping.visualization import VisMapping
    from ..mapping.widgets import WidgetCandidate


@dataclass
class View:
    """One visualization in the interface: a Difftree and its chart mapping."""

    tree: Difftree
    vis: VisMapping

    def describe(self) -> str:
        return f"{self.vis.describe()} over {len(self.tree.queries)} queries"


@dataclass
class AppliedWidget:
    """A widget included in the interface, bound to choice nodes of one view."""

    candidate: WidgetCandidate
    view_index: int

    @property
    def cover(self) -> frozenset[int]:
        return self.candidate.cover

    def describe(self) -> str:
        return f"{self.candidate.describe()} (view {self.view_index})"


@dataclass
class AppliedInteraction:
    """A visualization interaction included in the interface."""

    candidate: InteractionCandidate

    @property
    def cover(self) -> frozenset[int]:
        return self.candidate.cover

    @property
    def source_view_index(self) -> int:
        return self.candidate.source_tree_index

    def describe(self) -> str:
        return self.candidate.describe()


Mapping = Union[AppliedWidget, AppliedInteraction]


@dataclass
class CostBreakdown:
    """The cost-model terms of an interface (paper Section 5)."""

    manipulation: float = 0.0
    navigation: float = 0.0
    layout_penalty: float = 0.0

    @property
    def total(self) -> float:
        return self.manipulation + self.navigation + self.layout_penalty


@dataclass
class Interface:
    """A fully mapped interactive visualization interface."""

    views: list[View] = field(default_factory=list)
    widgets: list[AppliedWidget] = field(default_factory=list)
    interactions: list[AppliedInteraction] = field(default_factory=list)
    layout: Optional[LayoutTree] = None
    cost: Optional[CostBreakdown] = None

    # -- structure -----------------------------------------------------------

    def all_mappings(self) -> list[Mapping]:
        return [*self.widgets, *self.interactions]

    def choice_node_ids(self) -> frozenset[int]:
        return frozenset().union(*(view.tree.choice_node_ids() for view in self.views))

    def covered_choice_node_ids(self) -> frozenset[int]:
        covered: set[int] = set()
        for mapping in self.all_mappings():
            covered.update(mapping.cover)
        return frozenset(covered)

    def is_complete(self) -> bool:
        """Every choice node must be covered by exactly one mapping."""
        seen: set[int] = set()
        for mapping in self.all_mappings():
            if not seen.isdisjoint(mapping.cover):
                return False  # a choice node bound twice
            seen.update(mapping.cover)
        return self.choice_node_ids() <= seen

    def mapping_for(self, node_id: int) -> Optional[Mapping]:
        for mapping in self.all_mappings():
            if node_id in mapping.cover:
                return mapping
        return None

    def num_views(self) -> int:
        return len(self.views)

    def size(self) -> tuple[float, float]:
        if self.layout is None:
            return (0.0, 0.0)
        return self.layout.size()

    # -- reporting --------------------------------------------------------------

    def interaction_kinds(self) -> set[str]:
        """The set of visualization-interaction names used by the interface."""
        return {ai.candidate.interaction for ai in self.interactions}

    def widget_kinds(self) -> set[str]:
        return {aw.candidate.widget.name for aw in self.widgets}

    def describe(self) -> str:
        """A multi-line human readable summary of the interface."""
        lines = [f"Interface with {len(self.views)} view(s)"]
        for i, view in enumerate(self.views):
            lines.append(f"  view {i}: {view.vis.describe()}")
            for widget in self.widgets:
                if widget.view_index == i:
                    lines.append(f"    widget: {widget.describe()}")
            for interaction in self.interactions:
                if interaction.source_view_index == i:
                    lines.append(f"    interaction: {interaction.describe()}")
        if self.cost is not None:
            lines.append(
                f"  cost: manipulation={self.cost.manipulation:.1f} "
                f"navigation={self.cost.navigation:.1f} "
                f"layout={self.cost.layout_penalty:.1f} "
                f"total={self.cost.total:.1f}"
            )
        if self.layout is not None:
            width, height = self.layout.size()
            lines.append(f"  size: {width:.0f} x {height:.0f} px")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-friendly summary (used by the exporter and tests)."""
        return {
            "views": [
                {
                    "vis": view.vis.describe(),
                    "queries": len(view.tree.queries),
                    "choice_nodes": len(view.tree.choice_nodes()),
                }
                for view in self.views
            ],
            "widgets": [w.describe() for w in self.widgets],
            "interactions": [i.describe() for i in self.interactions],
            "cost": None
            if self.cost is None
            else {
                "manipulation": self.cost.manipulation,
                "navigation": self.cost.navigation,
                "layout_penalty": self.cost.layout_penalty,
                "total": self.cost.total,
            },
            "size": list(self.size()),
        }
