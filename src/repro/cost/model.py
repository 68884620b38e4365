"""Interface cost model ``C(I, Q) = CU(I, Q) + CL(I)`` (paper Section 5).

Usability cost ``CU`` follows SUPPLE: the time to manipulate each widget or
visualization interaction needed to express the input query sequence
(``Cm``), plus the Fitts'-law navigation time between those elements
(``Cnav``).  The layout term ``CL`` penalises interfaces that exceed an
optional maximum width/height.

Manipulation cost of a widget is the second-order polynomial
``a0 + a1 |w.d| + a2 |w.d|^2`` over the widget's option-domain size;
visualization interactions use low constants so the search prefers them
(paper: "sets visualization interaction costs to low constants").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..difftree.tree import Difftree
from ..interface.spec import (
    AppliedInteraction,
    AppliedWidget,
    CostBreakdown,
    Interface,
    Mapping,
    View,
)
from ..sqlparser.ast_nodes import Node
from .fitts import centroid_distance, fitts_time

#: Widget manipulation-cost polynomial coefficients, fit to the widget
#: interaction traces used by the paper's prototype (second-order form).
WIDGET_A0 = 1.0
WIDGET_A1 = 0.12
WIDGET_A2 = 0.008

#: Default layout penalty coefficient (the paper's α).
LAYOUT_ALPHA = 0.5


@dataclass
class CostModelConfig:
    """Tunable constants of the cost model."""

    a0: float = WIDGET_A0
    a1: float = WIDGET_A1
    a2: float = WIDGET_A2
    alpha: float = LAYOUT_ALPHA
    max_width: Optional[float] = None
    max_height: Optional[float] = None


class CostModel:
    """Estimates interface cost for a given input query sequence.

    Which choice nodes each input query changes, and which view expresses
    it, depend only on the views' Difftrees, never on the widgets and
    interactions mapped onto them.  The model derives these facts once per
    tree and once per view set, keyed by :meth:`Difftree.mapping_key` (tree
    structure, choice-node ids and queries), and keeps them for its own
    lifetime: one pipeline run, or one context in a pool worker.
    """

    def __init__(
        self,
        queries: Sequence[Node],
        config: Optional[CostModelConfig] = None,
    ) -> None:
        self.queries = list(queries)
        self.config = config or CostModelConfig()
        self._query_fps = [q.fingerprint() for q in self.queries]
        #: tree mapping key → {query fingerprint: per-node binding params, or
        #: None when the tree cannot express the query}; shared by the copies
        #: of a tree that successive search states carry
        self._binding_plans: dict[tuple, dict[str, Optional[dict[int, tuple]]]] = {}
        #: the views' mapping keys → per input query, the index of the view
        #: expressing it (None: no view can) and the choice-node ids it
        #: changes, in depth-first order
        self._skeletons: dict[tuple, list[tuple[Optional[int], tuple[int, ...]]]] = {}

    def _binding_plan(self, tree: Difftree) -> dict[str, Optional[dict[int, tuple]]]:
        """Query fingerprint → per-node binding params (None: not expressible)."""
        key = tree.mapping_key()
        plan = self._binding_plans.get(key)
        if plan is not None:
            return plan
        plan = {}
        for q, derivation in zip(tree.queries, tree.derivations()):
            fp = q.fingerprint()
            if derivation is None:
                plan.setdefault(fp, None)
                continue
            params: dict[int, tuple] = {}
            for binding in derivation:
                params[binding.node_id] = params.get(binding.node_id, tuple()) + (
                    binding.param,
                )
            plan[fp] = params
        self._binding_plans[key] = plan
        return plan

    def _skeleton(
        self, views: Sequence[View]
    ) -> list[tuple[Optional[int], tuple[int, ...]]]:
        """Per input query: the view expressing it and the choice nodes the
        user changes, tracking binding state across the sequence."""
        key = tuple(view.tree.mapping_key() for view in views)
        skeleton = self._skeletons.get(key)
        if skeleton is not None:
            return skeleton
        plans = [
            (self._binding_plan(view.tree), view.tree.choice_nodes())
            for view in views
        ]
        # current parameter per choice node (None = untouched default)
        current: dict[int, tuple] = {}
        skeleton = []
        for query_fp in self._query_fps:
            entry: tuple[Optional[int], tuple[int, ...]] = (None, ())
            for view_index, (plan, nodes) in enumerate(plans):
                params = plan.get(query_fp)
                if params is None:
                    continue
                changed = {
                    node_id
                    for node_id, value in params.items()
                    if current.get(node_id) != value
                }
                current.update(params)
                entry = (
                    view_index,
                    tuple(n.node_id for n in nodes if n.node_id in changed),
                )
                break
            skeleton.append(entry)
        self._skeletons[key] = skeleton
        return skeleton

    # -- per-element costs -------------------------------------------------------

    def widget_manipulation_cost(self, widget: AppliedWidget) -> float:
        d = widget.candidate.domain_size
        cfg = self.config
        # each widget type carries a base cost (typing in a textbox is slower
        # than clicking a radio button); the polynomial adds the option-domain
        # dependent term from SUPPLE
        base = getattr(widget.candidate.widget, "base_cost", cfg.a0)
        return base + cfg.a1 * d + cfg.a2 * d * d

    def interaction_manipulation_cost(self, interaction: AppliedInteraction) -> float:
        return interaction.candidate.cost

    def mapping_cost(self, mapping: Mapping) -> float:
        if isinstance(mapping, AppliedWidget):
            return self.widget_manipulation_cost(mapping)
        return self.interaction_manipulation_cost(mapping)

    # -- manipulation sequences ------------------------------------------------------

    def query_plan(
        self, interface: Interface
    ) -> list[tuple[Optional[int], list[Mapping]]]:
        """Per input query: the view that expresses it and the mappings the
        user must manipulate (in Difftree depth-first order), tracking binding
        state across the sequence.

        The view index is included because *expressing* a query with a static
        chart still requires the user to navigate to that chart — this is what
        makes a wall of static charts costlier than one interactive view.
        """
        mappings, plan = self._manipulated(interface)
        return [
            (view_index, [mappings[index] for index in picked])
            for view_index, picked in plan
        ]

    def _manipulated(
        self, interface: Interface
    ) -> tuple[list[Mapping], list[tuple[Optional[int], list[int]]]]:
        """:meth:`query_plan` with each mapping given by its index into the
        returned ``interface.all_mappings()``."""
        mappings = interface.all_mappings()
        # node id → index of the first mapping covering it
        owner: dict[int, int] = {}
        for index, mapping in enumerate(mappings):
            for node_id in mapping.cover:
                owner.setdefault(node_id, index)
        plan: list[tuple[Optional[int], list[int]]] = []
        for view_index, changed in self._skeleton(interface.views):
            picked: list[int] = []
            for node_id in changed:  # depth-first traversal order
                index = owner.get(node_id)
                if index is not None and index not in picked:
                    picked.append(index)
            plan.append((view_index, picked))
        return mappings, plan

    def manipulation_sequence(self, interface: Interface) -> list[list[Mapping]]:
        """Per input query, the mappings the user must manipulate."""
        return [manipulated for _, manipulated in self.query_plan(interface)]

    # -- cost terms -------------------------------------------------------------------

    def manipulation_cost(
        self, interface: Interface, penalize_uncovered: bool = True
    ) -> float:
        """``Cm``: total manipulation time to express the query sequence.

        ``penalize_uncovered=False`` is used by Algorithm 1's pruning bound,
        where the uncovered choice nodes are accounted for separately through
        the ``G(N)`` completion estimate.
        """
        total = 0.0
        uncovered_penalty = 0.0
        if penalize_uncovered:
            uncovered = interface.choice_node_ids() - interface.covered_choice_node_ids()
            # an incomplete interface cannot express the queries: penalise hard
            uncovered_penalty += 50.0 * len(uncovered)

        mappings, plan = self._manipulated(interface)
        costs = [self.mapping_cost(mapping) for mapping in mappings]
        for view_index, picked in plan:
            if view_index is None:
                # an input query no view can express: the interface fails its
                # core guarantee, so the penalty dominates any layout savings
                uncovered_penalty += 50.0
            for index in picked:
                total += costs[index]
        # when there are no interactions at all (static interface), reading
        # several charts still carries a small cost per extra view
        total += 0.2 * max(0, interface.num_views() - 1)
        return total + uncovered_penalty

    def navigation_cost(self, interface: Interface) -> float:
        """``Cnav``: Fitts'-law time to move between the elements visited while
        expressing the query sequence.

        For each query the user first navigates to the view that renders it
        (reading a static chart is not free when it sits far down the page)
        and then to every widget / interaction they must manipulate, in
        Difftree depth-first order.
        """
        if interface.layout is None:
            return 0.0
        total = 0.0
        previous_leaf = None
        for view_index, manipulated in self.query_plan(interface):
            stops = []
            if view_index is not None:
                view_leaf = interface.layout.leaf_for(
                    interface.views[view_index].vis
                )
                if view_leaf is not None:
                    stops.append(view_leaf)
            for mapping in manipulated:
                leaf = self._leaf_for_mapping(interface, mapping)
                if leaf is not None:
                    stops.append(leaf)
            for leaf in stops:
                if previous_leaf is not None and previous_leaf is not leaf:
                    distance = centroid_distance(
                        previous_leaf.centroid, leaf.centroid
                    )
                    total += fitts_time(distance, leaf.min_extent())
                previous_leaf = leaf
        return total

    def _leaf_for_mapping(self, interface: Interface, mapping: Mapping):
        if interface.layout is None:
            return None
        if isinstance(mapping, AppliedWidget):
            return interface.layout.leaf_for(mapping.candidate)
        # a visualization interaction is performed on its source chart
        source_view = interface.views[mapping.source_view_index]
        return interface.layout.leaf_for(source_view.vis)

    def layout_penalty(self, interface: Interface) -> float:
        """``CL``: penalty when the interface exceeds the desired size."""
        cfg = self.config
        if interface.layout is None:
            return 0.0
        if cfg.max_width is None and cfg.max_height is None:
            return 0.0
        width, height = interface.layout.size()
        excess = 0.0
        if cfg.max_width is not None:
            excess += max(0.0, width - cfg.max_width)
        if cfg.max_height is not None:
            excess += max(0.0, height - cfg.max_height)
        return cfg.alpha * excess

    # -- totals ------------------------------------------------------------------------

    def cost(self, interface: Interface) -> CostBreakdown:
        """Full cost breakdown; also stored on the interface."""
        breakdown = CostBreakdown(
            manipulation=self.manipulation_cost(interface),
            navigation=self.navigation_cost(interface),
            layout_penalty=self.layout_penalty(interface),
        )
        interface.cost = breakdown
        return breakdown

    def total_cost(self, interface: Interface) -> float:
        return self.cost(interface).total


def interface_quality(cost: float, best_cost: float) -> float:
    """The paper's quality metric ``c* / c`` (1.0 = optimal, → 0 worse)."""
    if cost <= 0:
        return 1.0
    return max(0.0, min(1.0, best_cost / cost))
