"""Headless interactive runtime for generated interfaces.

The paper's prototype renders interfaces in a browser; this reproduction
replaces that layer with a deterministic, headless runtime (see DESIGN.md,
substitutions).  The runtime keeps the *current parameter* of every choice
node, accepts widget manipulations and visualization-interaction events,
re-resolves each Difftree to SQL, executes it against the database substrate
and exposes the refreshed results — i.e. exactly what the browser front end
would do, minus the pixels.

It also provides :meth:`InterfaceRuntime.replay_query`, which drives the
interface with the manipulations needed to express one input query and checks
that the produced SQL matches — the end-to-end expressiveness guarantee the
paper cares about.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..database.executor import Executor
from ..database.table import ResultTable
from ..difftree.nodes import ChoiceNode
from ..difftree.resolve import FlatBindingSource, resolve
from ..sqlparser.ast_nodes import Node
from ..sqlparser.render import to_sql
from .spec import AppliedInteraction, AppliedWidget, Interface


class RuntimeError_(Exception):
    """Raised when an event cannot be applied to the interface."""


@dataclass
class ViewState:
    """Current state of one view: resolved SQL and its latest result."""

    sql: str = ""
    result: Optional[ResultTable] = None
    error: Optional[str] = None


@dataclass
class EventRecord:
    """A log entry of one user manipulation processed by the runtime."""

    kind: str                 # "widget" or "interaction"
    target: str               # widget / interaction description
    payload: object
    affected_views: list[int] = field(default_factory=list)


class InterfaceRuntime:
    """Executes a generated :class:`Interface` against the database."""

    def __init__(self, interface: Interface, executor: Executor) -> None:
        self.interface = interface
        self.executor = executor
        #: current parameter per choice node id (None = default)
        self.params: dict[int, object] = {}
        self.view_states: list[ViewState] = [ViewState() for _ in interface.views]
        self.event_log: list[EventRecord] = []
        self.refresh_all()

    # -- resolution / execution -------------------------------------------------

    def current_query(self, view_index: int) -> Node:
        """The AST the view currently displays, under the current parameters."""
        view = self.interface.views[view_index]
        source = FlatBindingSource(self.params)
        return resolve(view.tree.root, source)

    def refresh(self, view_index: int) -> ViewState:
        """Re-resolve and re-execute one view."""
        state = self.view_states[view_index]
        try:
            ast = self.current_query(view_index)
            state.sql = to_sql(ast)
            state.result = self.executor.execute(ast)
            state.error = None
        except Exception as exc:  # surfaced to the caller, never crashes the UI
            state.error = str(exc)
            state.result = None
        return state

    def refresh_all(self) -> list[ViewState]:
        return [self.refresh(i) for i in range(len(self.view_states))]

    # -- event handling -------------------------------------------------------------

    def set_widget(self, widget: AppliedWidget, value: object) -> list[int]:
        """Simulate the user manipulating a widget.

        ``value`` semantics follow the widget type: the option index (or the
        option value) for enumerating widgets, the numeric value for sliders,
        a (lo, hi) pair for range sliders, a bool for toggles, a list for
        checkboxes.
        """
        affected = self._bind_node_values(widget.candidate.node, value)
        self.event_log.append(
            EventRecord("widget", widget.describe(), value, affected)
        )
        for view_index in affected:
            self.refresh(view_index)
        return affected

    def trigger_interaction(
        self, interaction: AppliedInteraction, value: object
    ) -> list[int]:
        """Simulate a visualization interaction event (click / brush / pan…).

        ``value`` is the event payload: a single value for click streams, a
        (lo, hi) pair for a single range stream, or a tuple of pairs when the
        interaction emits several range streams (pan / zoom / brush-xy).
        """
        affected: list[int] = []
        bindings = interaction.candidate.stream_bindings
        if len(bindings) == 1:
            affected.extend(self._bind_node_values(bindings[0][1], value))
        else:
            payloads = value if isinstance(value, (list, tuple)) else [value]
            targets = self._distinct_targets(bindings)
            for target, payload in zip(targets, payloads):
                affected.extend(self._bind_node_values(target, payload))
        affected = sorted(set(affected))
        self.event_log.append(
            EventRecord(
                "interaction", interaction.describe(), value, affected
            )
        )
        for view_index in affected:
            self.refresh(view_index)
        return affected

    @staticmethod
    def _distinct_targets(bindings) -> list[Node]:
        """Targets of a multi-stream interaction.

        When every stream is bound to the same ancestor node (e.g. pan bound
        to a conjunction of two BETWEEN predicates), the payloads are routed
        to that node's dynamic children in order.
        """
        nodes = [node for _, node, _ in bindings]
        if len({id(n) for n in nodes}) > 1:
            return nodes
        parent = nodes[0]
        dynamic_children = [c for c in parent.children if c.contains_choice()]
        return dynamic_children if len(dynamic_children) >= 2 else nodes

    # -- binding helpers ----------------------------------------------------------------

    def _bind_node_values(self, node: Node, value: object) -> list[int]:
        """Bind an event payload to the choice nodes under ``node``.

        Returns the indices of the views whose Difftree contains those nodes.
        """
        from ..mapping.widgets import top_choice_nodes

        choice_nodes = top_choice_nodes(node)
        if not choice_nodes:
            return []
        if len(choice_nodes) == 1:
            self.params[choice_nodes[0].node_id] = self._coerce_param(
                choice_nodes[0], value
            )
        else:
            values = (
                list(value)
                if isinstance(value, (list, tuple))
                else [value] * len(choice_nodes)
            )
            for choice, v in zip(choice_nodes, values):
                self.params[choice.node_id] = self._coerce_param(choice, v)
        ids = {n.node_id for n in choice_nodes}
        affected = []
        for i, view in enumerate(self.interface.views):
            if not view.tree.choice_node_ids().isdisjoint(ids):
                affected.append(i)
        return affected

    @staticmethod
    def _coerce_param(node: ChoiceNode, value: object) -> object:
        """Translate a UI payload into the choice node's parameter space."""
        from ..difftree.nodes import AnyNode, OptNode, ValNode

        if isinstance(node, ValNode):
            observed = node.observed_values()
            if (
                isinstance(value, int)
                and not isinstance(value, bool)
                and observed
                and not all(isinstance(v, int) for v in observed)
                and 0 <= value < len(observed)
            ):
                # enumerating widgets (radio / dropdown) send option *indices*;
                # translate them into the VAL's observed literal values
                return observed[value]
            return value
        if isinstance(node, OptNode):
            return bool(value)
        if isinstance(node, AnyNode):
            if isinstance(value, bool) and node.is_opt:
                # toggles: True = first non-empty child, False = the empty child
                if value:
                    return next(
                        i for i, c in enumerate(node.children) if c.label != "EMPTY"
                    )
                return next(
                    i for i, c in enumerate(node.children) if c.label == "EMPTY"
                )
            if isinstance(value, int) and not isinstance(value, bool):
                return value
            # match by literal value or rendered label
            for i, child in enumerate(node.children):
                if child.value == value:
                    return i
            return 0
        return value

    # -- expressiveness replay ---------------------------------------------------------------

    def replay_query(self, query_index: int) -> bool:
        """Drive the interface so that some view displays input query ``query_index``.

        Uses the Difftree derivation of the query to set every choice-node
        parameter, refreshes the affected view and checks the resolved SQL
        matches the original query exactly.
        """
        # find the view that expresses this query
        target_query = None
        for view_index, view in enumerate(self.interface.views):
            for q_idx, (q, derivation) in enumerate(
                zip(view.tree.queries, view.tree.derivations())
            ):
                _ = q_idx
                if derivation is None:
                    continue
                if target_query is None and self._global_index(q) == query_index:
                    target_query = q
                    # apply every binding of the derivation as the current
                    # params; nodes bound several times (under a MULTI) get a
                    # list consumed sequentially by the FlatBindingSource
                    per_node: dict[int, list[object]] = {}
                    for binding in derivation:
                        per_node.setdefault(binding.node_id, []).append(binding.param)
                    for node_id, values in per_node.items():
                        self.params[node_id] = (
                            values[0] if len(values) == 1 else list(values)
                        )
                    state = self.refresh(view_index)
                    expected = to_sql(q)
                    return state.sql == expected and state.error is None
        return False

    def _global_index(self, query: Node) -> int:
        """Position of a query in the interface's global query sequence."""
        seen: list[str] = []
        for view in self.interface.views:
            for q in view.tree.queries:
                fp = q.fingerprint()
                if fp not in seen:
                    seen.append(fp)
        try:
            return seen.index(query.fingerprint())
        except ValueError:
            return -1

    # -- reporting ----------------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-friendly snapshot of the runtime state (used by the exporter)."""
        return {
            "params": dict(self.params),
            "views": [
                {
                    "sql": state.sql,
                    "rows": len(state.result.rows) if state.result else 0,
                    "columns": state.result.column_names() if state.result else [],
                    "error": state.error,
                }
                for state in self.view_states
            ],
            "events": [
                {"kind": e.kind, "target": e.target, "payload": str(e.payload)}
                for e in self.event_log
            ],
        }
