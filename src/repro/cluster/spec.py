"""Cluster specifications and the paper's testbed configurations.

A :class:`ClusterSpec` gathers machines, the inter-machine network, and the
mapping to HAP virtual devices (one virtual device per GPU, or one per machine
when ``group_by_machine`` is requested — the configuration used for the paper's
64-GPU runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .device import Machine, VirtualDevice, device_type


#: Default fraction of a collective/transfer that hides behind independent
#: compute when both streams have work.  Real stacks (NCCL on a dedicated
#: stream, Megatron's overlapped pipeline sends) hide most but not all of a
#: transfer — launch gaps, stream synchronisation and PCIe contention expose
#: the rest.  Set a cluster's ``comm_overlap_efficiency`` to 0 to recover the
#: fully serialized (pre-overlap) cost model everywhere.
DEFAULT_COMM_OVERLAP_EFFICIENCY = 0.6


@dataclass(frozen=True)
class CommOverlapModel:
    """How much communication hides behind independent compute (dual-stream).

    Every device is modelled with a *compute stream* and a *communication
    stream*.  A transfer of duration ``C`` that is independent of ``I``
    seconds of concurrently available compute exposes only
    ``C - efficiency * min(C, I)`` seconds on the critical path; the rest is
    hidden behind the compute stream.  ``efficiency = 0`` reproduces the
    fully blocking (additive) model bit-for-bit, ``efficiency = 1`` is a
    perfect dual-stream timeline.

    Attributes:
        efficiency: fraction of the overlappable window actually hidden,
            in ``[0, 1]``.
    """

    efficiency: float = DEFAULT_COMM_OVERLAP_EFFICIENCY

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError(
                f"overlap efficiency must be in [0, 1], got {self.efficiency!r}"
            )

    @classmethod
    def from_cluster(cls, cluster) -> CommOverlapModel:
        """The overlap model a cluster's software stack achieves."""
        return cls(efficiency=getattr(
            cluster, "comm_overlap_efficiency", DEFAULT_COMM_OVERLAP_EFFICIENCY
        ))

    @classmethod
    def disabled(cls) -> CommOverlapModel:
        """Fully serialized streams (the pre-overlap blocking model)."""
        return cls(efficiency=0.0)

    def hidden(self, comm_time: float, independent_compute: float) -> float:
        """Seconds of ``comm_time`` hidden behind ``independent_compute``."""
        return self.efficiency * min(comm_time, max(independent_compute, 0.0))

    def exposed(self, comm_time: float, independent_compute: float) -> float:
        """Seconds of ``comm_time`` left on the critical path."""
        return comm_time - self.hidden(comm_time, independent_compute)


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
            software stack hides behind independent compute (dedicated
            communication streams); see :class:`CommOverlapModel`.  0 means
            collectives and compute serialize fully.
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
        # CommOverlapModel owns the [0, 1] validation of overlap efficiencies.
        CommOverlapModel(efficiency=comm_overlap_efficiency)
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

    def is_heterogeneous(self) -> bool:
        """True if the cluster mixes more than one GPU model."""
        return len({m.gpu.name for m in self.machines}) > 1

    def subset(self, num_machines: int, name: Optional[str] = None) -> ClusterSpec:
        """A cluster consisting of the first ``num_machines`` machines."""
        if not 1 <= num_machines <= len(self.machines):
            raise ValueError(f"num_machines must be in [1, {len(self.machines)}]")
        return ClusterSpec(
            self.machines[:num_machines],
            network=self.network,
            group_by_machine=self.group_by_machine,
            name=name or f"{self.name}[:{num_machines}]",
            memory_reserve_fraction=self.memory_reserve_fraction,
            comm_overlap_efficiency=self.comm_overlap_efficiency,
        )

    # -- hierarchical partitioning ---------------------------------------------
    def partition(
        self,
        num_groups: int,
        intra_group_network: Optional[NetworkSpec] = None,
    ) -> ClusterPartition:
        """Split the machines into ``num_groups`` contiguous stage groups.

        The groups are contiguous slices of the machine list, balanced by
        aggregate sustained flops (each group gets at least one machine).  The
        cluster's own network is preserved as the *inter-group* link — the
        link pipeline-parallel activations and gradients travel over — while
        each group may optionally use a faster ``intra_group_network`` (the
        common physical situation: fast links inside a rack, a slow shared
        link between racks, which is exactly when pipelining over SPMD pays).

        Args:
            num_groups: number of contiguous machine groups.
            intra_group_network: network model used *inside* every group;
                defaults to the cluster's own (flat) network.

        Returns:
            A :class:`ClusterPartition` with one :class:`Subcluster` per group.
        """
        if not 1 <= num_groups <= len(self.machines):
            raise ValueError(
                f"num_groups must be in [1, {len(self.machines)}], got {num_groups}"
            )
        weights = [m.total_flops for m in self.machines]
        boundaries = _balanced_boundaries(weights, num_groups)
        groups: List[Subcluster] = []
        start = 0
        for idx, end in enumerate(boundaries):
            groups.append(
                Subcluster(
                    self.machines[start:end],
                    network=intra_group_network or self.network,
                    group_by_machine=self.group_by_machine,
                    name=f"{self.name}/stage{idx}",
                    parent=self,
                    group_index=idx,
                    machine_offset=start,
                    memory_reserve_fraction=self.memory_reserve_fraction,
                    comm_overlap_efficiency=self.comm_overlap_efficiency,
                )
            )
            start = end
        return ClusterPartition(
            cluster=self, groups=groups, inter_group_network=self.network
        )

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


def _balanced_boundaries(weights: Sequence[float], num_groups: int) -> List[int]:
    """End indices of a contiguous split of ``weights`` into balanced groups.

    Greedy cumulative split against equal-weight targets, constrained so every
    group keeps at least one element and no elements are left over.  Exact for
    the small machine counts clusters have.
    """
    n = len(weights)
    total = sum(weights) or float(n)
    boundaries: List[int] = []
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w if total > 0 else 1.0
        remaining_groups = num_groups - len(boundaries)
        remaining_items = n - (i + 1)
        if len(boundaries) < num_groups - 1 and (
            acc >= total * (len(boundaries) + 1) / num_groups
            or remaining_items <= remaining_groups - 1
        ):
            boundaries.append(i + 1)
    boundaries.append(n)
    return boundaries


class Subcluster(ClusterSpec):
    """A contiguous machine group of a parent cluster (one pipeline stage).

    Behaves exactly like a :class:`ClusterSpec` over its own machines — the
    flat HAP planner, cost model, simulator and SPMD runtime all accept it
    unchanged — while remembering where it sits inside the parent cluster.

    Attributes:
        parent: the cluster this group was partitioned from.
        group_index: position of this group in the partition.
        machine_offset: index of the group's first machine in the parent.
    """

    def __init__(
        self,
        machines: Sequence[Machine],
        network: Optional[NetworkSpec] = None,
        group_by_machine: bool = True,
        name: str = "subcluster",
        parent: Optional[ClusterSpec] = None,
        group_index: int = 0,
        machine_offset: int = 0,
        memory_reserve_fraction: float = 0.0,
        comm_overlap_efficiency: float = DEFAULT_COMM_OVERLAP_EFFICIENCY,
    ) -> None:
        super().__init__(
            machines,
            network=network,
            group_by_machine=group_by_machine,
            name=name,
            memory_reserve_fraction=memory_reserve_fraction,
            comm_overlap_efficiency=comm_overlap_efficiency,
        )
        self.parent = parent
        self.group_index = group_index
        self.machine_offset = machine_offset


@dataclass
class ClusterPartition:
    """A contiguous split of a cluster into pipeline-stage machine groups.

    Attributes:
        cluster: the partitioned cluster.
        groups: one :class:`Subcluster` per stage, in machine order.
        inter_group_network: the network activations/gradients cross between
            adjacent groups (the parent cluster's network, preserved).
    """

    cluster: ClusterSpec
    groups: List[Subcluster]
    inter_group_network: NetworkSpec

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    def group_flops(self) -> List[float]:
        """Aggregate sustained flops of every group."""
        return [g.total_flops() for g in self.groups]

    def compute_ratios(self) -> List[float]:
        """Fraction of the cluster's compute held by each group."""
        flops = self.group_flops()
        total = sum(flops)
        return [f / total for f in flops]

    def describe(self) -> str:
        """Human-readable partition summary."""
        lines = [
            f"ClusterPartition of {self.cluster.name!r} into {self.num_groups} groups "
            f"(inter-group {self.inter_group_network.bandwidth * 8 / 1e9:.1f} Gbps)"
        ]
        for group, share in zip(self.groups, self.compute_ratios()):
            gpus = ", ".join(f"{m.num_gpus}x{m.gpu.name}" for m in group.machines)
            lines.append(
                f"  {group.name}: {len(group.machines)} machines ({gpus}), "
                f"{share * 100:.0f}% of cluster compute"
            )
        return "\n".join(lines)


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
