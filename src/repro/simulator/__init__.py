"""Execution simulator: the reproduction's stand-in for running on GPUs."""

from ..cluster.spec import DEFAULT_COMM_OVERLAP_EFFICIENCY
from .engine import (
    ExecutionSimulator,
    HierarchicalSimulationResult,
    OverheadModel,
    SimulationResult,
    simulate_hierarchical,
    simulate_plan,
)
from .schedule import (
    SCHEDULE_NAMES,
    ScheduleResult,
    StageTimes,
    profile_stages,
    simulate_pipeline,
    task_orders,
)

__all__ = [
    "DEFAULT_COMM_OVERLAP_EFFICIENCY",
    "ExecutionSimulator",
    "OverheadModel",
    "SimulationResult",
    "simulate_plan",
    "HierarchicalSimulationResult",
    "simulate_hierarchical",
    "SCHEDULE_NAMES",
    "task_orders",
    "ScheduleResult",
    "StageTimes",
    "simulate_pipeline",
    "profile_stages",
]
