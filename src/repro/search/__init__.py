"""Monte Carlo Tree Search over Difftree states (paper Section 6.2)."""

from .backends import ProcessBackend, RewardTable, SearchBackend, SerialBackend
from .config import SearchConfig, SearchStats
from .mcts import MCTSNode, MCTSWorker, RewardFn, search_difftrees
from .parallel import ParallelSearchResult, parallel_search
from .state import SearchState

__all__ = [
    "MCTSNode",
    "MCTSWorker",
    "ParallelSearchResult",
    "ProcessBackend",
    "RewardFn",
    "RewardTable",
    "SearchBackend",
    "SearchConfig",
    "SearchState",
    "SearchStats",
    "SerialBackend",
    "parallel_search",
    "search_difftrees",
]
