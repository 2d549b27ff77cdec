"""Cluster substrate: device catalogue, cluster specs and simulated profiling."""

from .device import DEVICE_CATALOG, GB, DeviceType, Machine, VirtualDevice, device_type
from .profiler import ClusterProfile, LinearCommModel, SimulatedProfiler
from .spec import (
    DEFAULT_COMM_OVERLAP_EFFICIENCY,
    ClusterPartition,
    ClusterSpec,
    CommOverlapModel,
    NetworkSpec,
    Subcluster,
    a100_p100_pair,
    a100_pair,
    heterogeneous_testbed,
    homogeneous_testbed,
    p100_a100_mixed,
)

__all__ = [
    "DEVICE_CATALOG",
    "GB",
    "DeviceType",
    "Machine",
    "VirtualDevice",
    "device_type",
    "ClusterPartition",
    "ClusterSpec",
    "CommOverlapModel",
    "DEFAULT_COMM_OVERLAP_EFFICIENCY",
    "NetworkSpec",
    "Subcluster",
    "heterogeneous_testbed",
    "homogeneous_testbed",
    "a100_p100_pair",
    "a100_pair",
    "p100_a100_mixed",
    "ClusterProfile",
    "LinearCommModel",
    "SimulatedProfiler",
]
