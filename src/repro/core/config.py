"""End-to-end pipeline configuration.

Bundles the search, mapping and cost-model knobs into a single object that
the public API (:func:`repro.core.pipeline.generate_interface`) accepts; the
defaults match the paper's defaults (es=30, p=3, s=10, K=5, k=10).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cost.model import CostModelConfig
from ..mapping.mapper import MapperConfig
from ..search.config import SearchConfig


@dataclass
class PipelineConfig:
    """All tunables of the PI2 pipeline in one place."""

    search: SearchConfig = field(default_factory=SearchConfig)
    mapper: MapperConfig = field(default_factory=MapperConfig)
    cost: CostModelConfig = field(default_factory=CostModelConfig)
    #: data scale factor for the synthetic catalogue (1.0 = paper-like sizes)
    catalog_scale: float = 1.0
    #: random seed shared by catalogue generation and the search
    seed: int = 42
    #: cluster the initial per-query Difftrees by result schema before the
    #: search starts (the paper's initial Partition optimisation)
    initial_partition: bool = True
    #: deterministically refactor the clustered Difftrees to a fixpoint
    #: (Figure 12's canonical Merge → PushANY → ANY→VAL sequence) before MCTS
    initial_refactor: bool = True
    #: directory for cross-run cache persistence: when set, the reward
    #: table, plan cache and mapping memo are loaded before the search and
    #: saved after it, keyed by (catalogue fingerprint, workload fingerprint,
    #: reward-relevant config fingerprint) — see :mod:`repro.service.persist`.
    #: Rewards are pure functions of (seed, state), so reloads change cost,
    #: never results
    cache_dir: Optional[str] = None

    def replace(self, **kwargs) -> "PipelineConfig":
        data = {**self.__dict__}
        data.update(kwargs)
        return PipelineConfig(**data)

    @staticmethod
    def fast(seed: int = 42) -> "PipelineConfig":
        """A configuration tuned for unit tests: small search budgets."""
        return PipelineConfig(
            search=SearchConfig(
                max_iterations=64,
                early_stop=24,
                workers=2,
                sync_interval=8,
                rollout_depth=12,
                reward_mappings=2,
                seed=seed,
            ),
            mapper=MapperConfig(top_k=5, max_vis_per_tree=3, max_joint_vis=8),
            catalog_scale=0.15,
            seed=seed,
        )

    @staticmethod
    def paper_defaults(seed: int = 42) -> "PipelineConfig":
        """The paper's default parameters (es=30, p=3, s=10)."""
        return PipelineConfig(
            search=SearchConfig(
                max_iterations=120,
                early_stop=30,
                workers=3,
                sync_interval=10,
                reward_mappings=5,
                seed=seed,
            ),
            seed=seed,
        )


@dataclass
class PipelineResult:
    """The pipeline's output: the interface plus timing / search diagnostics."""

    interface: object
    state: object
    search_seconds: float
    mapping_seconds: float
    total_seconds: float
    search_stats: object
    mapper_stats: object
    best_reward: float
    candidates: list = field(default_factory=list)
    #: query-plan / executor counters (:class:`repro.database.planner.PlanStats`)
    #: for the run — joins executed, pushdowns, cache hit rates
    executor_stats: object = None
    #: the run's metrics as one flat ``{name: number}`` dict, sorted by
    #: name: every stats dataclass above published through
    #: :mod:`repro.obs.views` (counters as ints, gauges as floats), plus the
    #: process workers' counts added up under ``workers.*`` and ``pool.*``
    metrics: Optional[dict] = None

    @property
    def cost(self) -> Optional[float]:
        if self.interface is None or self.interface.cost is None:
            return None
        return self.interface.cost.total
