"""Single-player Monte Carlo Tree Search over Difftree states (Section 6.2).

The search balances exploration of new Difftree structures with exploitation
of good ones using the SP-MCTS variant of UCT (Equation 1 in the paper): the
usual average-reward and exploration terms plus a variance term that prefers
nodes with high reward spread.  A special ``TERMINATE`` transition is
available from every state; choosing it produces a terminal state with no
outgoing transitions.

Following Cadiaplayer, the search returns the highest-reward state
*encountered anywhere* (selection, expansion or rollout), not the state with
the best average reward.
"""

from __future__ import annotations

import math
import random
import time
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from ..difftree.nodes import node_id_space
from ..difftree.tree import Difftree
from ..obs import span
from ..transform.engine import TransformEngine
from .config import SearchConfig, SearchStats
from .state import SearchState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backends.base import RewardTable

#: Signature of the reward estimator: higher is better (the pipeline supplies
#: the negative of the minimum interface cost over K random mappings).
RewardFn = Callable[[SearchState], float]


class MCTSNode:
    """One node of the MCTS search tree."""

    __slots__ = (
        "state",
        "parent",
        "children",
        "untried",
        "visits",
        "total_reward",
        "total_squared",
        "expanded",
    )

    def __init__(self, state: SearchState, parent: Optional["MCTSNode"] = None) -> None:
        self.state = state
        self.parent = parent
        self.children: list[MCTSNode] = []
        self.untried: Optional[list] = None  # lazily enumerated applications
        self.visits = 0
        self.total_reward = 0.0
        self.total_squared = 0.0
        self.expanded = False

    @property
    def mean_reward(self) -> float:
        return self.total_reward / self.visits if self.visits else 0.0

    def uct_score(self, c: float, d: float, lo: float = 0.0, hi: float = 1.0) -> float:
        """The modified UCT score of Equation 1 (SP-MCTS).

        Rewards are normalised to [0, 1] using the best / worst rewards the
        worker has observed (``lo`` / ``hi``) so that the exploration constant
        ``c`` is meaningful regardless of the interface-cost scale — without
        this, a single mediocre-but-better-than-average child absorbs every
        visit and the search never explores deeper structures.
        """
        if self.visits == 0:
            return float("inf")
        assert self.parent is not None
        span = (hi - lo) or 1.0
        mean = (self.mean_reward - lo) / span
        exploration = c * math.sqrt(math.log(max(1, self.parent.visits)) / self.visits)
        # variance of the normalised rewards from the raw aggregates
        raw_mean = self.mean_reward
        raw_var = max(0.0, self.total_squared / self.visits - raw_mean * raw_mean)
        variance = raw_var / (span * span)
        return mean + exploration + math.sqrt((variance + d) / self.visits)

    def is_terminal(self) -> bool:
        return self.state.terminal


class MCTSWorker:
    """One MCTS search instance (the paper runs several of these in parallel)."""

    def __init__(
        self,
        initial: SearchState,
        engine: TransformEngine,
        reward_fn: RewardFn,
        config: SearchConfig,
        rng: Optional[random.Random] = None,
        reward_table: Optional["RewardTable"] = None,
        id_space: Optional[Iterator[int]] = None,
    ) -> None:
        self.engine = engine
        self.reward_fn = reward_fn
        self.config = config
        self.rng = rng or config.rng()
        #: cross-worker shared reward table (fingerprint → reward), consulted
        #: before any reward evaluation; ``None`` disables sharing.  The
        #: table only changes at synchronization barriers, so reads during a
        #: round are deterministic on every backend.
        self.reward_table = reward_table
        #: rewards this worker evaluated since the last synchronization —
        #: the coordinator drains these into the shared table at each sync
        self._pending_rewards: dict[str, float] = {}
        #: private id counter for choice nodes minted by rule applications,
        #: so a worker allocates identical ids whether it runs round-robin
        #: or in its own process (``None`` = ambient allocator)
        self._id_space = id_space
        self.root = MCTSNode(initial)
        self.stats = SearchStats()
        #: reward per *trees* fingerprint: a terminal state and its
        #: non-terminal twin hold the same trees, so they share one entry,
        #: and states broadcast by other workers are seeded here by adopt()
        self._reward_cache: dict[str, float] = {}
        # running min/max over finite cached rewards, maintained by _evaluate
        # so _select does not rescan the whole cache every iteration
        self._reward_lo: Optional[float] = None
        self._reward_hi: Optional[float] = None
        self.iterations_since_improvement = 0
        self.best_state = initial
        with node_id_space(self._id_space):
            self.best_reward = self._evaluate(initial)
        self.stats.best_reward = self.best_reward

    # -- public API --------------------------------------------------------

    def run_iteration(self) -> None:
        """Execute one select → expand → simulate → backpropagate cycle."""
        start = time.perf_counter()
        best_before = self.best_reward
        with node_id_space(self._id_space):
            leaf = self._select(self.root)
            child = self._expand(leaf)
            reward = self._simulate(child)
        self._backpropagate(child, reward)
        self.stats.iterations += 1
        # early-stop bookkeeping is per *iteration*, not per evaluated state
        if self.best_reward > best_before:
            self.iterations_since_improvement = 0
        else:
            self.iterations_since_improvement += 1
        self.stats.search_seconds += time.perf_counter() - start

    def take_pending_rewards(self) -> dict[str, float]:
        """Drain the rewards evaluated since the last synchronization."""
        pending = self._pending_rewards
        self._pending_rewards = {}
        return pending

    def run(self, iterations: Optional[int] = None) -> SearchState:
        """Run until the iteration budget or early stop is reached."""
        budget = iterations if iterations is not None else self.config.max_iterations
        for _ in range(budget):
            self.run_iteration()
            if self.iterations_since_improvement >= self.config.early_stop:
                self.stats.early_stopped = True
                break
        return self.best_state

    def adopt(self, state: SearchState, reward: float) -> None:
        """Adopt a better state discovered by another worker (synchronization).

        The broadcast reward is seeded into this worker's reward cache:
        without the seed, expanding or rolling through the adopted state's
        fingerprint later re-runs ``reward_fn`` even though the state already
        carries its reward (the double-evaluation bug).
        """
        key = state.trees_fingerprint()
        if key not in self._reward_cache:
            self._reward_cache[key] = reward
            self.stats.rewards_seeded += 1
            self._note_reward_bounds(reward)
        if reward > self.best_reward:
            self.best_state = state
            self.best_reward = reward
            self.iterations_since_improvement = 0

    # -- the four MCTS phases --------------------------------------------------

    def _select(self, node: MCTSNode) -> MCTSNode:
        lo, hi = self._reward_bounds()
        while node.expanded and node.children and not node.is_terminal():
            node = max(
                node.children,
                key=lambda child: child.uct_score(
                    self.config.exploration_c, self.config.variance_d, lo, hi
                ),
            )
        return node

    def _reward_bounds(self) -> tuple[float, float]:
        """The worst / best rewards observed so far (for UCT normalisation).

        O(1): the bounds are maintained incrementally by :meth:`_evaluate`
        instead of rebuilding a list over the entire reward cache on every
        selection step (which made each iteration O(states evaluated)).
        """
        if self._reward_lo is None or self._reward_hi is None:
            return (0.0, 1.0)
        if self._reward_lo == self._reward_hi:
            return (self._reward_lo, self._reward_lo + 1.0)
        return (self._reward_lo, self._reward_hi)

    def _expand(self, node: MCTSNode) -> MCTSNode:
        if node.is_terminal():
            return node
        if not node.expanded:
            applications = self.engine.applications(node.state.trees, self.rng)
            self.stats.rule_applications += len(applications)
            children: list[MCTSNode] = [MCTSNode(node.state.as_terminal(), node)]
            seen = {node.state.fingerprint()}
            for app in applications:
                new_trees = self.engine.apply(app)
                if new_trees is None:
                    continue
                child_state = SearchState(new_trees)
                if child_state.fingerprint() in seen:
                    continue
                seen.add(child_state.fingerprint())
                children.append(MCTSNode(child_state, node))
            node.children = children
            node.expanded = True
        unvisited = [c for c in node.children if c.visits == 0]
        pool = unvisited if unvisited else node.children
        return self.rng.choice(pool) if pool else node

    def _simulate(self, node: MCTSNode) -> float:
        """Random playout from the node's state; returns the best reward seen."""
        current = node.state
        best = self._evaluate(current)
        self._track_best(current, best)
        if current.terminal:
            return best
        for _ in range(self.config.rollout_depth):
            if self.rng.random() < self.config.terminate_probability:
                break
            applications = self.engine.applications(current.trees, self.rng)
            if not applications:
                break
            app = self._weighted_choice(applications)
            new_trees = self.engine.apply(app)
            if new_trees is None:
                continue
            current = SearchState(new_trees)
            reward = self._evaluate(current)
            self._track_best(current, reward)
            best = max(best, reward)
        return best

    #: rollout bias: refactoring / mutation rules make progress towards
    #: interactive interfaces, cross-tree rules mostly shuffle structure
    _CATEGORY_WEIGHTS = {
        "refactoring": 4.0,
        "mutation": 3.0,
        "simplification": 2.0,
        "cross-tree": 1.0,
    }

    def _weighted_choice(self, applications):
        weights = [
            self._CATEGORY_WEIGHTS.get(app.category, 1.0) for app in applications
        ]
        return self.rng.choices(applications, weights=weights, k=1)[0]

    def _backpropagate(self, node: Optional[MCTSNode], reward: float) -> None:
        while node is not None:
            node.visits += 1
            node.total_reward += reward
            node.total_squared += reward * reward
            node = node.parent

    # -- reward bookkeeping ----------------------------------------------------------

    def _evaluate(self, state: SearchState) -> float:
        key = state.trees_fingerprint()
        if key in self._reward_cache:
            self.stats.reward_cache_hits += 1
            return self._reward_cache[key]
        if self.reward_table is not None:
            hit, shared = self.reward_table.get(key)
            if hit:
                # another worker already paid for this state: reuse its
                # reward and leave this worker's reward-RNG stream untouched
                self.stats.reward_table_hits += 1
                self._reward_cache[key] = shared
                self._note_reward_bounds(shared)
                return shared
        with span("search.reward"):
            reward = self.reward_fn(state)
        self._reward_cache[key] = reward
        if self.reward_table is not None:
            self._pending_rewards[key] = reward
        self.stats.states_evaluated += 1
        self._note_reward_bounds(reward)
        return reward

    def _note_reward_bounds(self, reward: float) -> None:
        if reward != float("-inf"):
            if self._reward_lo is None or reward < self._reward_lo:
                self._reward_lo = reward
            if self._reward_hi is None or reward > self._reward_hi:
                self._reward_hi = reward

    def _track_best(self, state: SearchState, reward: float) -> None:
        if reward > self.best_reward:
            self.best_reward = reward
            self.best_state = state
            self.best_iteration = self.stats.iterations
            self.stats.best_reward = reward
            self.stats.best_iteration = self.stats.iterations

    best_iteration = 0


def search_difftrees(
    initial_trees: Sequence[Difftree],
    engine: TransformEngine,
    reward_fn: RewardFn,
    config: Optional[SearchConfig] = None,
) -> tuple[SearchState, SearchStats]:
    """Single-worker convenience entry point (used by tests and ablations)."""
    config = config or SearchConfig()
    worker = MCTSWorker(SearchState(initial_trees), engine, reward_fn, config)
    best = worker.run()
    return best, worker.stats
