"""Cluster substrate: device catalogue and cluster specs."""

from .device import DEVICE_CATALOG, GB, DeviceType, Machine, VirtualDevice, device_type
from .spec import (
    DEFAULT_COMM_OVERLAP_EFFICIENCY,
    ClusterSpec,
    NetworkSpec,
    a100_p100_pair,
    a100_pair,
    heterogeneous_testbed,
    homogeneous_testbed,
    memory_constrained_testbed,
    p100_a100_mixed,
)

__all__ = [
    "DEVICE_CATALOG",
    "GB",
    "DeviceType",
    "Machine",
    "VirtualDevice",
    "device_type",
    "ClusterSpec",
    "DEFAULT_COMM_OVERLAP_EFFICIENCY",
    "NetworkSpec",
    "heterogeneous_testbed",
    "homogeneous_testbed",
    "memory_constrained_testbed",
    "a100_p100_pair",
    "a100_pair",
    "p100_a100_mixed",
]
