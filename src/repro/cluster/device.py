"""Device and machine models for heterogeneous clusters.

The paper's testbed mixes NVIDIA V100 and P100 machines (plus A100/P100 pairs
in the case studies).  No GPUs are available to this reproduction, so devices
are modelled analytically: each :class:`DeviceType` carries the published peak
throughput and memory of the corresponding GPU, and :attr:`DeviceType.flops`
derates it to a sustained figure.  The cost model only ever consumes
flops-per-second, memory bytes and link bandwidth, so
these datasheet-derived numbers preserve the heterogeneity ratios that drive
HAP's decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


GB = 1024 ** 3


@dataclass(frozen=True)
class DeviceType:
    """A GPU model.

    Attributes:
        name: marketing name, e.g. ``"V100"``.
        peak_tflops: peak dense float32 (tensor-core-less) throughput in TFLOPS.
        memory_bytes: HBM capacity in bytes.
        sustained_fraction: fraction of peak reachable on DNN kernels;
            :attr:`flops` multiplies peak by this to obtain the
            flops-per-second figure used by the cost model.
    """

    name: str
    peak_tflops: float
    memory_bytes: int
    sustained_fraction: float = 0.55

    @property
    def flops(self) -> float:
        """Sustained flops-per-second used for cost modelling."""
        return self.peak_tflops * 1e12 * self.sustained_fraction


#: Catalogue of the GPU models that appear in the paper's experiments.
DEVICE_CATALOG: Dict[str, DeviceType] = {
    "V100": DeviceType("V100", peak_tflops=15.7, memory_bytes=32 * GB),
    "P100": DeviceType("P100", peak_tflops=9.3, memory_bytes=16 * GB),
    "A100": DeviceType("A100", peak_tflops=19.5, memory_bytes=40 * GB),
    "T4": DeviceType("T4", peak_tflops=8.1, memory_bytes=16 * GB),
    "A10": DeviceType("A10", peak_tflops=31.2, memory_bytes=24 * GB, sustained_fraction=0.45),
}


def device_type(name: str) -> DeviceType:
    """Look up a device type by name (case-insensitive)."""
    key = name.upper()
    if key not in DEVICE_CATALOG:
        raise KeyError(f"unknown device type {name!r}; known: {sorted(DEVICE_CATALOG)}")
    return DEVICE_CATALOG[key]


@dataclass(frozen=True)
class Machine:
    """A physical machine hosting one or more identical GPUs.

    Attributes:
        name: host name (``v1`` ... in the paper's scripts).
        gpu: the GPU model installed.
        num_gpus: number of GPUs on this machine.
        intra_bandwidth: intra-machine GPU-to-GPU bandwidth in bytes/s
            (NVLink for V100/A100 machines, PCIe otherwise).
    """

    name: str
    gpu: DeviceType
    num_gpus: int = 1
    intra_bandwidth: float = 130e9

    @property
    def total_flops(self) -> float:
        """Aggregate sustained flops of all GPUs in the machine."""
        return self.gpu.flops * self.num_gpus

    @property
    def total_memory(self) -> int:
        """Aggregate GPU memory of the machine in bytes."""
        return self.gpu.memory_bytes * self.num_gpus


@dataclass(frozen=True)
class VirtualDevice:
    """HAP's unit of planning (Sec. 3): a GPU or a homogeneous GPU group.

    When a virtual device wraps a whole machine, data parallelism is assumed
    inside it and the cost model adds the internal gradient-synchronisation
    time to the per-stage computation time (Sec. 3.2).

    Attributes:
        index: position of this virtual device in the cluster.
        machine: the hosting machine.
        num_gpus: number of GPUs aggregated into this virtual device.
    """

    index: int
    machine: Machine
    num_gpus: int = 1

    @property
    def gpu(self) -> DeviceType:
        return self.machine.gpu

    @property
    def flops(self) -> float:
        """Sustained flops available to this virtual device."""
        return self.gpu.flops * self.num_gpus

    @property
    def memory_bytes(self) -> int:
        return self.gpu.memory_bytes * self.num_gpus

    @property
    def intra_bandwidth(self) -> float:
        return self.machine.intra_bandwidth

    @property
    def name(self) -> str:
        suffix = f"x{self.num_gpus}" if self.num_gpus > 1 else ""
        return f"{self.machine.name}:{self.gpu.name}{suffix}"
