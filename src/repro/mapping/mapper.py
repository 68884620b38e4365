"""Interface mapping generation — Algorithm 1 of the paper (Section 6.2.2).

Given the Difftrees returned by MCTS, the mapper performs a more exhaustive
search for the lowest-cost interface mapping in three phases:

1. **searchV** — enumerate joint visualization mappings (one per Difftree);
2. **searchM** — for each V, enumerate compatible visualization-interaction
   mappings for the ordered choice-node list, completing each prefix with the
   optimal *widget exact cover* of the remaining choice nodes via dynamic
   programming (functions ``F`` (top-k covers) and ``G`` (cheapest cover)),
   with branch-and-bound pruning against the current k-th best cost;
3. **layout** — for the top-k (V, M) mappings by manipulation cost, assign
   horizontal/vertical layout directions (SUPPLE-style branch and bound) and
   return the overall lowest-cost interface.

The mapper also provides the cheap *random mapping* sampler MCTS uses to
estimate state rewards (K random interface mappings per state).
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from typing import TYPE_CHECKING

from ..database.catalog import Catalog
from ..database.executor import Executor
from ..database.plancache import CatalogCache
from ..obs import span
from ..difftree.tree import Difftree
from ..interface.spec import (
    AppliedInteraction,
    AppliedWidget,
    Interface,
    View,
)
from .interactions import (
    InteractionCandidate,
    assemble_interaction_candidates,
    conflicting,
    interaction_targets,
    pair_interaction_fragments,
)
from .layout import LayoutLeaf, LayoutTree, build_layout_tree, optimize_layout
from .memo import SHARED_MAPPING_MEMO
from .visualization import VIS_TYPES, VisMapping, candidate_visualizations
from .widgets import WIDGET_TYPES, WidgetCandidate, candidate_widgets

if TYPE_CHECKING:  # imported lazily to avoid a circular import with repro.cost
    from ..cost.model import CostModel


@dataclass
class MapperConfig:
    """Knobs controlling the exhaustiveness of the mapping search."""

    top_k: int = 10
    max_vis_per_tree: int = 4
    max_joint_vis: int = 24
    max_interaction_candidates_per_node: int = 4
    #: hard cap on searchM recursion nodes per visualization combination —
    #: beyond it the remaining choice nodes are completed with widgets only
    max_searchm_calls: int = 4000
    check_safety: bool = True
    optimize_layout: bool = True
    #: reuse per-tree mapping fragments (schemas, candidate sets) across
    #: calls through the process-wide :data:`~repro.mapping.memo.SHARED_MAPPING_MEMO`
    #: — the MCTS reward loop's states differ by one tree, so fragments of
    #: unchanged trees hit.  Disable to force full re-derivation (the
    #: equivalence tests and the reward-memo benchmark baseline do).
    memoize: bool = True


@dataclass
class MapperStats:
    """Diagnostics for the benchmarks (pruning effectiveness, timings)."""

    vis_combinations: int = 0
    searchm_calls: int = 0
    pruned: int = 0
    widget_cover_states: int = 0
    interfaces_evaluated: int = 0
    # fragment derivations actually performed (memo misses + memo-disabled
    # runs); the reward-memo benchmark compares these across modes
    schema_derivations: int = 0
    vis_derivations: int = 0
    widget_derivations: int = 0
    target_derivations: int = 0
    interaction_derivations: int = 0
    memo_hits: int = 0
    memo_misses: int = 0

    @property
    def candidate_derivations(self) -> int:
        """Total mapping-fragment derivations performed by this mapper."""
        return (
            self.schema_derivations
            + self.vis_derivations
            + self.widget_derivations
            + self.target_derivations
            + self.interaction_derivations
        )


class InterfaceMapper:
    """Implements Algorithm 1: the V, M, L mapping search."""

    def __init__(
        self,
        catalog: Optional[Catalog],
        executor: Optional[Executor],
        cost_model: CostModel,
        config: Optional[MapperConfig] = None,
        memo: Optional[CatalogCache] = None,
    ) -> None:
        self.catalog = catalog
        self.executor = executor
        self.cost_model = cost_model
        self.config = config or MapperConfig()
        self.stats = MapperStats()
        # the memo is partitioned by catalogue object, so a mapper without a
        # catalogue has nothing to key fragments under and runs unmemoized
        if memo is None and self.config.memoize:
            memo = SHARED_MAPPING_MEMO
        self.memo = memo if (self.config.memoize and catalog is not None) else None

    # ------------------------------------------------------------------ memo

    def _memo_lookup(self, key: tuple) -> tuple[bool, object]:
        if self.memo is None:
            return False, None
        hit, value = self.memo.lookup(self.catalog, key)
        if hit:
            self.stats.memo_hits += 1
        else:
            self.stats.memo_misses += 1
        return hit, value

    def _memo_store(self, key: tuple, value: object) -> None:
        if self.memo is not None:
            self.memo.put(self.catalog, key, value)

    # ------------------------------------------------------------------ public

    def generate(self, trees: Sequence[Difftree]) -> list[Interface]:
        """Full Algorithm-1 search; returns interfaces sorted by total cost."""
        with span("mapping.generate", trees=len(trees)):
            return self._generate(trees)

    def _generate(self, trees: Sequence[Difftree]) -> list[Interface]:
        trees = list(trees)
        vis_options = self._vis_options(trees)
        wcand_by_node, universe, clist = self._widget_candidates(trees)

        # dynamic programming tables shared across V combinations
        dp = _WidgetCoverDP(
            wcand_by_node, clist, self.cost_model, self.config.top_k, self.stats
        )

        heap: list[tuple[float, int, Interface]] = []  # max-heap via negated cost
        counter = itertools.count()

        for vis_combo in self._joint_vis(vis_options):
            self.stats.vis_combinations += 1
            views = [View(tree, vis) for tree, vis in zip(trees, vis_combo)]
            icand = self._interaction_candidates(trees, vis_combo)
            self._search_m(
                trees, views, clist, icand, universe, dp, heap, counter
            )

        candidates = [item[2] for item in heap]
        if not candidates:
            candidates = [self._fallback_interface(trees, vis_options)]

        # phase 3: layout optimisation over the top-k manipulation-cost mappings
        finished: list[Interface] = []
        for interface in candidates:
            self._apply_layout(interface)
            self.cost_model.cost(interface)
            finished.append(interface)
        finished.sort(key=lambda i: i.cost.total if i.cost else float("inf"))
        return finished

    def best_interface(self, trees: Sequence[Difftree]) -> Interface:
        """The lowest-cost interface for the given Difftrees."""
        return self.generate(trees)[0]

    def random_interfaces(
        self, trees: Sequence[Difftree], count: int, rng: random.Random
    ) -> list[Interface]:
        """K cheap interface mappings used as the MCTS reward estimator.

        Follows the paper (K random mappings, reward = −min cost), with one
        practical optimisation: the first sample uses the top-ranked
        visualization per tree and greedily prefers the cheapest candidate per
        choice node, which reduces the variance of the reward estimate for
        states that admit good interaction mappings.
        """
        trees = list(trees)
        vis_options = self._vis_options(trees)
        wcand_by_node, universe, clist = self._widget_candidates(trees)
        _ = universe
        interfaces = []
        for sample in range(count):
            greedy = sample == 0
            if greedy:
                vis_combo = [options[0] for options in vis_options]
            else:
                vis_combo = [rng.choice(options) for options in vis_options]
            views = [View(tree, vis) for tree, vis in zip(trees, vis_combo)]
            icand = self._interaction_candidates(trees, vis_combo)
            interface = self._random_mapping(
                trees, views, clist, icand, wcand_by_node, rng, greedy=greedy
            )
            self._apply_layout(interface, optimize=False)
            self.cost_model.cost(interface)
            interfaces.append(interface)
            self.stats.interfaces_evaluated += 1
        return interfaces

    # ------------------------------------------------------------- candidates
    #
    # All per-tree derivations run through the fragment memo when enabled: the
    # MCTS reward loop evaluates states that differ from their predecessor by
    # exactly one tree, so every unchanged tree's schema / candidate fragments
    # hit.  The memo-disabled path runs the identical code with every lookup
    # missing, so both modes derive candidates in the same order and produce
    # byte-identical interfaces.

    def _tree_schema(self, tree: Difftree):
        if self.executor is None:
            return None
        key = ("schema", tree.mapping_key())
        hit, value = self._memo_lookup(key)
        if hit:
            # plant into the instance so direct result_schema() calls reuse it
            tree.seed_result_schema(value)
            return value
        if not tree.schema_cached:
            self.stats.schema_derivations += 1
        value = tree.result_schema(self.executor)
        self._memo_store(key, value)
        return value

    def _tree_vis_options(self, tree: Difftree) -> list[VisMapping]:
        # the library length acts as an epoch: register_visualization()
        # invalidates fragments derived against the smaller library
        key = ("vis", tree.mapping_key(), self.config.max_vis_per_tree, len(VIS_TYPES))
        hit, value = self._memo_lookup(key)
        if hit:
            return value
        schema = self._tree_schema(tree)
        candidates = candidate_visualizations(schema, self.catalog)
        value = candidates[: self.config.max_vis_per_tree]
        self.stats.vis_derivations += 1
        self._memo_store(key, value)
        return value

    def _vis_options(self, trees: Sequence[Difftree]) -> list[list[VisMapping]]:
        return [self._tree_vis_options(tree) for tree in trees]

    def _tree_widget_candidates(
        self, tree: Difftree
    ) -> tuple[list[int], list[WidgetCandidate]]:
        """One tree's choice-node ids and widget candidates (memoized)."""
        key = ("widgets", tree.mapping_key(), len(WIDGET_TYPES))
        hit, value = self._memo_lookup(key)
        if hit:
            return value
        bindings = tree.query_bindings()
        candidates: list[WidgetCandidate] = []
        for node in tree.dynamic_nodes():
            candidates.extend(candidate_widgets(tree, node, self.catalog, bindings))
        value = ([n.node_id for n in tree.choice_nodes()], candidates)
        self.stats.widget_derivations += 1
        self._memo_store(key, value)
        return value

    def _tree_targets(self, tree: Difftree):
        key = ("targets", tree.mapping_key())
        hit, value = self._memo_lookup(key)
        if hit:
            return value
        value = interaction_targets(tree, self.catalog)
        self.stats.target_derivations += 1
        self._memo_store(key, value)
        return value

    def _pair_fragments(
        self,
        source_tree: Difftree,
        vis: VisMapping,
        target_tree: Difftree,
        targets,
        check_safety: bool,
    ):
        key = (
            "ipair",
            source_tree.mapping_key(),
            _vis_key(vis),
            target_tree.mapping_key(),
            check_safety,
        )
        hit, value = self._memo_lookup(key)
        if hit:
            return value
        value = pair_interaction_fragments(
            source_tree, vis, target_tree, targets, self.executor, check_safety
        )
        self.stats.interaction_derivations += 1
        self._memo_store(key, value)
        return value

    def _joint_vis(
        self, vis_options: list[list[VisMapping]]
    ) -> list[tuple[VisMapping, ...]]:
        combos = list(itertools.product(*vis_options))
        # rank joint combinations by the sum of per-vis heuristic scores
        combos.sort(key=lambda combo: -sum(v.score for v in combo))
        return combos[: self.config.max_joint_vis]

    def _widget_candidates(
        self, trees: Sequence[Difftree]
    ) -> tuple[dict[int, list[tuple[int, WidgetCandidate]]], frozenset[int], list[int]]:
        """Widget candidates per choice node id, the universe, and clist."""
        wcand: dict[int, list[tuple[int, WidgetCandidate]]] = {}
        clist: list[int] = []
        for t_idx, tree in enumerate(trees):
            choice_ids, candidates = self._tree_widget_candidates(tree)
            clist.extend(choice_ids)
            for cand in candidates:
                for cid in cand.cover:
                    wcand.setdefault(cid, []).append((t_idx, cand))
        universe = frozenset(clist)
        return wcand, universe, clist

    def _interaction_candidates(
        self, trees: Sequence[Difftree], vis_combo: Sequence[VisMapping]
    ) -> dict[int, list[InteractionCandidate]]:
        check_safety = self.config.check_safety and self.executor is not None
        targets = [self._tree_targets(tree) for tree in trees]
        fragments = [
            [
                self._pair_fragments(tree, vis, trees[t], targets[t], check_safety)
                if vis.result_schema is not None
                else {}
                for t in range(len(trees))
            ]
            for tree, vis in zip(trees, vis_combo)
        ]
        icand = assemble_interaction_candidates(trees, list(vis_combo), fragments)
        limit = self.config.max_interaction_candidates_per_node
        pruned: dict[int, list[InteractionCandidate]] = {}
        for cid, cands in icand.items():
            # keep at most one candidate per (source view, cover): click /
            # multi-click / brush variants covering the same nodes explode the
            # searchM branching without changing the reachable covers
            seen: set[tuple] = set()
            kept: list[InteractionCandidate] = []
            for cand in sorted(cands, key=lambda c: c.cost):
                key = (cand.source_tree_index, cand.cover)
                if key in seen:
                    continue
                seen.add(key)
                kept.append(cand)
                if len(kept) >= limit:
                    break
            pruned[cid] = kept
        return pruned

    # ---------------------------------------------------------------- searchM

    def _search_m(
        self,
        trees: Sequence[Difftree],
        views: list[View],
        clist: list[int],
        icand: dict[int, list[InteractionCandidate]],
        universe: frozenset[int],
        dp: "_WidgetCoverDP",
        heap: list,
        counter,
    ) -> None:
        """Algorithm 1's recursive interaction-mapping enumeration."""
        config = self.config
        cost_model = self.cost_model
        kth_cost = lambda: (-heap[0][0]) if len(heap) >= config.top_k else float("inf")
        call_budget = [config.max_searchm_calls]
        cm_cache: dict[frozenset, float] = {}

        def current_cm(interactions: list[InteractionCandidate]) -> float:
            # the cost model sees an interaction only through its cost and its
            # cover, and covers along a path are disjoint, so these pairs
            # price the prefix whichever path reached it
            key = frozenset((c.cost, c.cover) for c in interactions)
            if key in cm_cache:
                return cm_cache[key]
            interface = Interface(
                views=list(views),
                widgets=[],
                interactions=[AppliedInteraction(c) for c in interactions],
            )
            value = cost_model.manipulation_cost(interface, penalize_uncovered=False)
            cm_cache[key] = value
            return value

        def push(interface: Interface, cm: float) -> None:
            entry = (-cm, next(counter), interface)
            if len(heap) < config.top_k:
                heapq.heappush(heap, entry)
            elif cm < -heap[0][0]:
                heapq.heapreplace(heap, entry)
            self.stats.interfaces_evaluated += 1

        def recurse(
            i: int,
            interactions: list[InteractionCandidate],
            covered: frozenset[int],
        ) -> None:
            self.stats.searchm_calls += 1
            uncovered_prefix = frozenset(
                cid for cid in clist[:i] if cid not in covered
            )
            # pruning: current interaction cost + cheapest widget completion
            bound = current_cm(interactions) + dp.G(uncovered_prefix)
            if bound >= kth_cost():
                self.stats.pruned += 1
                return

            if i == len(clist):
                # complete by construction: F returns exact covers of the
                # nodes the pairwise-disjoint interactions left uncovered
                uncovered = frozenset(cid for cid in clist if cid not in covered)
                for cover_cost, cover in dp.F(uncovered):
                    widgets = [
                        AppliedWidget(cand, t_idx) for t_idx, cand in cover
                    ]
                    interface = Interface(
                        views=list(views),
                        widgets=widgets,
                        interactions=[AppliedInteraction(c) for c in interactions],
                    )
                    cm = cost_model.manipulation_cost(interface)
                    if cm < kth_cost():
                        push(interface, cm)
                return

            node_id = clist[i]
            call_budget[0] -= 1
            if call_budget[0] > 0:
                for candidate in icand.get(node_id, []):
                    if not candidate.cover.isdisjoint(covered):
                        continue
                    if any(conflicting(candidate, other) for other in interactions):
                        continue
                    interactions.append(candidate)
                    recurse(i + 1, interactions, covered | candidate.cover)
                    interactions.pop()
            recurse(i + 1, interactions, covered)

        recurse(0, [], frozenset())

    # ---------------------------------------------------------------- helpers

    def _random_mapping(
        self,
        trees: Sequence[Difftree],
        views: list[View],
        clist: list[int],
        icand: dict[int, list[InteractionCandidate]],
        wcand: dict[int, list[tuple[int, WidgetCandidate]]],
        rng: random.Random,
        greedy: bool = False,
    ) -> Interface:
        """Randomised (or greedy) assignment used by the MCTS reward estimator."""
        covered: set[int] = set()
        interactions: list[InteractionCandidate] = []
        widgets: list[AppliedWidget] = []
        order = list(clist)
        if not greedy:
            rng.shuffle(order)
        for node_id in order:
            if node_id in covered:
                continue
            choices: list[tuple[float, str, object]] = []
            for cand in icand.get(node_id, []):
                if cand.cover.isdisjoint(covered) and not any(
                    conflicting(cand, other) for other in interactions
                ):
                    choices.append((cand.cost, "interaction", cand))
            for t_idx, cand in wcand.get(node_id, []):
                if cand.cover.isdisjoint(covered):
                    cost = self.cost_model.widget_manipulation_cost(
                        AppliedWidget(cand, t_idx)
                    )
                    choices.append((cost, "widget", (t_idx, cand)))
            if not choices:
                continue
            if greedy:
                cost, kind, chosen = min(choices, key=lambda c: c[0])
            else:
                # prefer interaction mappings, as the cost model does
                weights = [3.0 if kind == "interaction" else 1.0 for _, kind, _ in choices]
                cost, kind, chosen = rng.choices(choices, weights=weights, k=1)[0]
            if kind == "interaction":
                interactions.append(chosen)  # type: ignore[arg-type]
                covered.update(chosen.cover)  # type: ignore[union-attr]
            else:
                t_idx, cand = chosen  # type: ignore[misc]
                widgets.append(AppliedWidget(cand, t_idx))
                covered.update(cand.cover)
        return Interface(
            views=list(views),
            widgets=widgets,
            interactions=[AppliedInteraction(c) for c in interactions],
        )

    def _fallback_interface(
        self, trees: Sequence[Difftree], vis_options: list[list[VisMapping]]
    ) -> Interface:
        """A safe default: best chart per tree, one widget per choice node."""
        views = [View(tree, options[0]) for tree, options in zip(trees, vis_options)]
        widgets: list[AppliedWidget] = []
        covered: set[int] = set()
        for t_idx, tree in enumerate(trees):
            bindings = tree.query_bindings()
            for node in tree.choice_nodes():
                if node.node_id in covered:
                    continue
                cands = candidate_widgets(tree, node, self.catalog, bindings)
                if cands:
                    widgets.append(AppliedWidget(cands[0], t_idx))
                    covered.update(cands[0].cover)
        return Interface(views=views, widgets=widgets, interactions=[])

    def _apply_layout(self, interface: Interface, optimize: Optional[bool] = None) -> None:
        """Phase 3: build the layout tree and choose H/V directions."""
        optimize = self.config.optimize_layout if optimize is None else optimize
        view_elements = []
        for v_idx, view in enumerate(interface.views):
            vis_leaf = LayoutLeaf(
                kind="vis",
                ref=view.vis,
                width=view.vis.vis_type.width,
                height=view.vis.vis_type.height,
                label=view.vis.describe(),
            )
            widget_leaves = []
            for widget in interface.widgets:
                if widget.view_index != v_idx:
                    continue
                w, h = widget.candidate.estimated_size()
                widget_leaves.append(
                    LayoutLeaf(
                        kind="widget",
                        ref=widget.candidate,
                        width=w,
                        height=h,
                        label=widget.candidate.describe(),
                    )
                )
            view_elements.append((vis_leaf, widget_leaves))
        layout = build_layout_tree(view_elements)
        interface.layout = layout
        if optimize:
            def layout_cost(tree: LayoutTree) -> float:
                interface.layout = tree
                return self.cost_model.navigation_cost(
                    interface
                ) + self.cost_model.layout_penalty(interface)

            optimized, _ = optimize_layout(layout, layout_cost)
            interface.layout = optimized


def _vis_key(vis: VisMapping) -> tuple:
    """Memo identity of a visualization mapping: chart type + assignment.

    Self-contained (no object identity) so fragments derived for the same
    logical mapping hit across `VisMapping` instances.
    """
    return (vis.vis_type.name, tuple(sorted(vis.assignment.items())))


# ---------------------------------------------------------------------------
# widget exact-cover dynamic programming (functions F and G of Algorithm 1)
# ---------------------------------------------------------------------------


class _WidgetCoverDP:
    """Memoised exact-cover search over widget candidates.

    ``G(N)`` is the cheapest manipulation cost of covering the choice-node set
    ``N`` exactly with widgets; ``F(N)`` returns the top-k exact covers.  Both
    recurse on "the first uncovered node in clist order", as in Algorithm 1.
    """

    def __init__(
        self,
        wcand: dict[int, list[tuple[int, WidgetCandidate]]],
        clist: list[int],
        cost_model: CostModel,
        k: int,
        stats: MapperStats,
    ) -> None:
        self.wcand = wcand
        self.order = {cid: i for i, cid in enumerate(clist)}
        self.cost_model = cost_model
        self.k = k
        self.stats = stats
        self._g: dict[frozenset[int], float] = {}
        self._f: dict[frozenset[int], list[tuple[float, list[tuple[int, WidgetCandidate]]]]] = {}

    def _first(self, nodes: frozenset[int]) -> int:
        return min(nodes, key=lambda cid: self.order.get(cid, 1 << 30))

    def _widget_cost(self, t_idx: int, cand: WidgetCandidate) -> float:
        return self.cost_model.widget_manipulation_cost(AppliedWidget(cand, t_idx))

    def G(self, nodes: frozenset[int]) -> float:
        if not nodes:
            return 0.0
        if nodes in self._g:
            return self._g[nodes]
        self.stats.widget_cover_states += 1
        first = self._first(nodes)
        best = float("inf")
        for t_idx, cand in self.wcand.get(first, []):
            # G is a lower bound used for pruning: unlike F it does not insist
            # on an exact cover, so a widget whose cover extends beyond N is
            # still allowed (Algorithm 1, function G)
            rest = self.G(nodes - cand.cover)
            best = min(best, self._widget_cost(t_idx, cand) + rest)
        self._g[nodes] = best
        return best

    def F(
        self, nodes: frozenset[int]
    ) -> list[tuple[float, list[tuple[int, WidgetCandidate]]]]:
        if not nodes:
            return [(0.0, [])]
        if nodes in self._f:
            return self._f[nodes]
        first = self._first(nodes)
        results: list[tuple[float, list[tuple[int, WidgetCandidate]]]] = []
        for t_idx, cand in self.wcand.get(first, []):
            if not cand.cover <= nodes:
                continue
            cost = self._widget_cost(t_idx, cand)
            for sub_cost, sub_cover in self.F(nodes - cand.cover):
                results.append((cost + sub_cost, [(t_idx, cand), *sub_cover]))
        results.sort(key=lambda item: item[0])
        self._f[nodes] = results[: self.k]
        return self._f[nodes]
