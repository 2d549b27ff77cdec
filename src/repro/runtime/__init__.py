"""Numpy execution runtimes: single-device reference and SPMD emulation."""

from .single import SingleDeviceExecutor, init_parameters
from .spmd import (
    HierarchicalExecutor,
    HierarchicalResult,
    SPMDExecutor,
    SPMDResult,
    run_hierarchical_plan,
    run_plan,
)

__all__ = [
    "SingleDeviceExecutor",
    "init_parameters",
    "SPMDExecutor",
    "SPMDResult",
    "run_plan",
    "HierarchicalExecutor",
    "HierarchicalResult",
    "run_hierarchical_plan",
]
