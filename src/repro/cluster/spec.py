"""Cluster specifications and the paper's testbed configurations.

A :class:`ClusterSpec` gathers machines, the inter-machine network, and the
mapping to HAP virtual devices (one virtual device per GPU, or one per machine
when ``group_by_machine`` is requested — the configuration used for the paper's
64-GPU runs).  It is the one input every pricer reads, including the
communication-overlap efficiency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .device import DeviceType, Machine, VirtualDevice, device_type


#: Default fraction of a collective/transfer that hides behind independent
#: compute when both streams have work.  Real stacks (NCCL on a dedicated
#: stream, Megatron's overlapped pipeline sends) hide most but not all of a
#: transfer — launch gaps, stream synchronisation and PCIe contention expose
#: the rest.  Set a cluster's ``comm_overlap_efficiency`` to 0 to recover the
#: fully serialized (pre-overlap) cost model everywhere.
DEFAULT_COMM_OVERLAP_EFFICIENCY = 0.6


@dataclass(frozen=True)
class NetworkSpec:
    """Flat inter-machine network model.

    Attributes:
        bandwidth: point-to-point bandwidth in bytes/s (the paper measures
            about 10.4 Gbps with iperf3 between cloud machines).
        latency: per-collective-step latency in seconds.
        kernel_launch_overhead: additional host-side launch overhead per
            collective call, relevant for the grouped-Broadcast implementation
            which issues one call per shard.
    """

    bandwidth: float = 10.4e9 / 8.0
    latency: float = 50e-6
    kernel_launch_overhead: float = 25e-6


class ClusterSpec:
    """A heterogeneous (or homogeneous) GPU cluster.

    Attributes:
        machines: participating machines.
        network: inter-machine network model.
        group_by_machine: if True, each machine is one HAP virtual device
            (data parallelism inside); otherwise every GPU is a virtual device.
        memory_reserve_fraction: fraction of every device's HBM withheld from
            the capacity queries (framework workspace, fragmentation, CUDA
            context).  The hierarchical planner's schedule-aware memory
            checks use :meth:`device_memory`, so reserving headroom here
            tightens every out-of-memory decision consistently.
        comm_overlap_efficiency: fraction of communication the cluster's
            software stack hides behind independent compute, in ``[0, 1]``.
            Every device has a compute stream and a communication stream; a
            transfer of ``C`` seconds independent of ``I`` seconds of
            concurrent compute exposes ``C - e * min(C, I)`` seconds on the
            critical path.  0 serializes collectives and compute fully, 1 is
            a perfect dual-stream timeline.  This is the one place the
            efficiency is set: the cost model, the simulator and the
            hierarchical planner all read it from the cluster they price.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        network: Optional[NetworkSpec] = None,
        group_by_machine: bool = True,
        name: str = "cluster",
        memory_reserve_fraction: float = 0.0,
        comm_overlap_efficiency: float = DEFAULT_COMM_OVERLAP_EFFICIENCY,
    ) -> None:
        if not machines:
            raise ValueError("a cluster needs at least one machine")
        if not 0.0 <= memory_reserve_fraction < 1.0:
            raise ValueError(
                f"memory_reserve_fraction must be in [0, 1), got {memory_reserve_fraction!r}"
            )
        if not 0.0 <= comm_overlap_efficiency <= 1.0:
            raise ValueError(
                f"comm_overlap_efficiency must be in [0, 1], got {comm_overlap_efficiency!r}"
            )
        self.machines: List[Machine] = list(machines)
        self.network = network or NetworkSpec()
        self.group_by_machine = group_by_machine
        self.name = name
        self.memory_reserve_fraction = memory_reserve_fraction
        self.comm_overlap_efficiency = comm_overlap_efficiency
        self._virtual_devices = self._build_virtual_devices()

    def _build_virtual_devices(self) -> List[VirtualDevice]:
        devices: List[VirtualDevice] = []
        idx = 0
        for machine in self.machines:
            if self.group_by_machine:
                devices.append(VirtualDevice(index=idx, machine=machine, num_gpus=machine.num_gpus))
                idx += 1
            else:
                for _ in range(machine.num_gpus):
                    devices.append(VirtualDevice(index=idx, machine=machine, num_gpus=1))
                    idx += 1
        return devices

    # -- basic queries ---------------------------------------------------------
    @property
    def virtual_devices(self) -> List[VirtualDevice]:
        """HAP's planning units, in index order."""
        return list(self._virtual_devices)

    @property
    def num_devices(self) -> int:
        """Number of virtual devices."""
        return len(self._virtual_devices)

    @property
    def num_gpus(self) -> int:
        """Total number of physical GPUs."""
        return sum(m.num_gpus for m in self.machines)

    def device_flops(self) -> List[float]:
        """Sustained flops of every virtual device (paper: ``device_flops``)."""
        return [d.flops for d in self._virtual_devices]

    def device_memory(self) -> List[int]:
        """Usable memory capacity in bytes of every virtual device.

        The datasheet capacity minus the cluster's reserved headroom
        (:attr:`memory_reserve_fraction`).
        """
        usable = 1.0 - self.memory_reserve_fraction
        return [int(d.memory_bytes * usable) for d in self._virtual_devices]

    def total_flops(self) -> float:
        """Aggregate sustained flops of the cluster."""
        return sum(self.device_flops())

    def total_memory(self) -> int:
        """Aggregate memory of the cluster in bytes."""
        return sum(self.device_memory())

    def proportional_ratios(self) -> List[float]:
        """Sharding ratios proportional to compute power (the paper's B^(0))."""
        flops = self.device_flops()
        total = sum(flops)
        return [f / total for f in flops]

    def even_ratios(self) -> List[float]:
        """Even sharding ratios (the DP-EV baseline)."""
        n = self.num_devices
        return [1.0 / n] * n

    # -- hierarchical partitioning ---------------------------------------------
    def split(
        self,
        boundaries: Sequence[int],
        intra_group_network: Optional[NetworkSpec] = None,
    ) -> List[ClusterSpec]:
        """Split the machines into contiguous groups ending at ``boundaries``.

        Group ``i`` holds ``machines[boundaries[i - 1]:boundaries[i]]``
        (group 0 starts at machine 0), so ``boundaries`` must increase
        strictly, start above 0 and end at ``len(machines)``: every machine
        lands in exactly one non-empty group.  This cluster's own network
        stays the *inter-group* link — the link pipeline-parallel
        activations and gradients travel over, which a pipeline plan reads
        from its whole cluster — while each group may use a faster
        ``intra_group_network`` (the common physical situation: fast links
        inside a rack, a slow shared link between racks, which is exactly
        when pipelining over SPMD pays).

        Every group is a plain :class:`ClusterSpec` over its machines: it
        keeps this cluster's ``group_by_machine``,
        ``memory_reserve_fraction`` and ``comm_overlap_efficiency``, so the
        flat planner, cost model, simulator and SPMD runtime accept it
        unchanged and price it at the same overlap.

        Returns:
            One :class:`ClusterSpec` per group, in machine order.

        Raises:
            ValueError: when ``boundaries`` is empty, does not increase
                strictly, leaves a group empty or does not end at the last
                machine.
        """
        n = len(self.machines)
        boundaries = list(boundaries)
        if not boundaries:
            raise ValueError("boundaries must name at least one group")
        if any(b <= a for a, b in zip([0] + boundaries, boundaries)):
            raise ValueError(
                f"boundaries must increase strictly from above 0 (no empty group), "
                f"got {boundaries}"
            )
        if boundaries[-1] != n:
            raise ValueError(
                f"boundaries must end at the machine count {n}, got {boundaries}"
            )
        groups: List[ClusterSpec] = []
        start = 0
        for idx, end in enumerate(boundaries):
            groups.append(
                ClusterSpec(
                    self.machines[start:end],
                    network=intra_group_network or self.network,
                    group_by_machine=self.group_by_machine,
                    name=f"{self.name}/stage{idx}",
                    memory_reserve_fraction=self.memory_reserve_fraction,
                    comm_overlap_efficiency=self.comm_overlap_efficiency,
                )
            )
            start = end
        return groups

    def describe(self) -> str:
        """Human-readable cluster summary."""
        lines = [f"ClusterSpec {self.name!r}: {self.num_gpus} GPUs on {len(self.machines)} machines"]
        for machine in self.machines:
            lines.append(
                f"  {machine.name}: {machine.num_gpus}x {machine.gpu.name} "
                f"({machine.gpu.flops / 1e12:.1f} sustained TFLOPS each)"
            )
        lines.append(
            f"  inter-machine bandwidth {self.network.bandwidth * 8 / 1e9:.1f} Gbps, "
            f"virtual devices: {self.num_devices}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClusterSpec(name={self.name!r}, gpus={self.num_gpus}, devices={self.num_devices})"


# ---------------------------------------------------------------------------
# Testbed factories matching the paper's experimental setup (Sec. 7.1)
# ---------------------------------------------------------------------------

def _machines(prefix: str, count: int, gpu: str, gpus_per_machine: int, nvlink: bool) -> List[Machine]:
    bw = 130e9 if nvlink else 28e9
    return [
        Machine(
            name=f"{prefix}{i + 1}",
            gpu=device_type(gpu),
            num_gpus=gpus_per_machine,
            intra_bandwidth=bw,
        )
        for i in range(count)
    ]


def heterogeneous_testbed(
    num_gpus: int = 64, gpus_per_machine: int = 8, group_by_machine: bool = True
) -> ClusterSpec:
    """The paper's heterogeneous testbed: 2 V100 machines + 6 P100 machines.

    At 64 GPUs this is exactly the paper's cluster (2 machines with 8 V100s
    and NVLink, 6 machines with 8 P100s, ~10.4 Gbps inter-machine).  Smaller
    GPU counts (the x-axis of Fig. 13) keep roughly the same 1:3 V100:P100
    machine ratio with at least one machine of each kind, matching the paper's
    practice of using a heterogeneous prefix of the cluster.
    """
    if num_gpus % gpus_per_machine:
        raise ValueError("num_gpus must be a multiple of gpus_per_machine")
    num_machines = num_gpus // gpus_per_machine
    num_v100 = max(1, round(num_machines * 2 / 8)) if num_machines > 1 else 1
    num_p100 = num_machines - num_v100
    machines = _machines("v", num_v100, "V100", gpus_per_machine, nvlink=True)
    machines += _machines("p", num_p100, "P100", gpus_per_machine, nvlink=False)
    return ClusterSpec(
        machines, group_by_machine=group_by_machine, name=f"hetero-{num_gpus}gpu"
    )


def homogeneous_testbed(
    num_gpus: int = 32, gpus_per_machine: int = 8, gpu: str = "P100", group_by_machine: bool = True
) -> ClusterSpec:
    """The paper's homogeneous testbed: 4 machines with 8 P100 GPUs each."""
    if num_gpus % gpus_per_machine:
        raise ValueError("num_gpus must be a multiple of gpus_per_machine")
    num_machines = num_gpus // gpus_per_machine
    machines = _machines("h", num_machines, gpu, gpus_per_machine, nvlink=(gpu != "P100"))
    return ClusterSpec(
        machines, group_by_machine=group_by_machine, name=f"homog-{gpu.lower()}-{num_gpus}gpu"
    )


def memory_constrained_testbed(num_machines: int = 4) -> ClusterSpec:
    """Single-GPU machines with 1 GiB devices and a 12.5 GB/s network.

    GPipe's linear activation stash overflows these devices at batch sizes
    where a 1F1B-family schedule still fits, so pipeline planning here has to
    weigh the schedule's memory footprint, not only its speed.
    """
    small = DeviceType("SmallGPU", peak_tflops=15.0, memory_bytes=1 * 1024 ** 3)
    machines = [
        Machine(f"m{i}", small, num_gpus=1, intra_bandwidth=100e9)
        for i in range(num_machines)
    ]
    return ClusterSpec(
        machines,
        network=NetworkSpec(bandwidth=100e9 / 8, latency=5e-6),
        group_by_machine=True,
        name="mem-constrained",
    )


def a100_p100_pair(gpus_per_machine: int = 2, group_by_machine: bool = False) -> ClusterSpec:
    """Two machines, one with A100s and one with P100s (Sec. 2.4 / Sec. 7.6)."""
    machines = _machines("a", 1, "A100", gpus_per_machine, nvlink=True)
    machines += _machines("p", 1, "P100", gpus_per_machine, nvlink=False)
    return ClusterSpec(machines, group_by_machine=group_by_machine, name="a100-p100-pair")


def a100_pair(gpus_per_machine: int = 2, group_by_machine: bool = False) -> ClusterSpec:
    """Two machines with two A100 GPUs each (the Fig. 4 micro-benchmark)."""
    machines = _machines("a", 2, "A100", gpus_per_machine, nvlink=True)
    return ClusterSpec(machines, group_by_machine=group_by_machine, name="a100-2x2")


def p100_a100_mixed(gpus_per_machine: int = 2, group_by_machine: bool = False) -> ClusterSpec:
    """One machine with two P100s and one with two A100s (Fig. 2 motivation)."""
    machines = _machines("p", 1, "P100", gpus_per_machine, nvlink=False)
    machines += _machines("a", 1, "A100", gpus_per_machine, nvlink=True)
    return ClusterSpec(machines, group_by_machine=group_by_machine, name="p100-a100-2x2")
