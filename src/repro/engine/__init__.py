"""Staged estimator-evaluation engine (full/partial fulfillment plans)."""

from repro.engine.nodes import (
    StagedIntersect,
    StagedJoin,
    StagedNode,
    StagedProject,
    StagedScan,
    StagedSelect,
)
from repro.engine.plan import (
    DEFAULT_INITIAL_SELECTIVITY,
    StagedPlan,
    StagedTerm,
    StageStats,
)
from repro.engine.qcost import CompiledQCost, compile_qcost
from repro.estimation.selectivity import SelProvider

__all__ = [
    "CompiledQCost",
    "DEFAULT_INITIAL_SELECTIVITY",
    "SelProvider",
    "StageStats",
    "StagedIntersect",
    "StagedJoin",
    "StagedNode",
    "StagedPlan",
    "StagedProject",
    "StagedScan",
    "StagedSelect",
    "StagedTerm",
    "compile_qcost",
]
