"""Analytic cost models of collective communication on heterogeneous clusters.

These play the role NCCL profiling plays in the paper: given the cluster's
network parameters they predict the time of each collective for a given total
payload and sharding ratios.  The models are standard alpha-beta (latency +
bandwidth) formulas for ring algorithms, extended with the two All-Gather
implementations the paper studies for unevenly sharded tensors (Sec. 2.5.1):

* **padded All-Gather** — shards are padded to the largest shard, a regular
  NCCL ring All-Gather runs over the padded buffers, then the result is
  trimmed.  Time scales with the *largest* shard.
* **grouped Broadcast** — each shard is broadcast separately inside one group
  call.  Time scales with the *total* size but pays a per-shard launch
  overhead.

With nearly even shards the padded variant wins; with heavy skew the grouped
variant wins, reproducing the crossover in Fig. 4.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..cluster.spec import ClusterSpec


#: Device-memory copy bandwidth used to account for pad/trim passes (bytes/s).
MEMCPY_BANDWIDTH = 300e9


class CollectiveKind(Enum):
    """Collective communication primitives used by distributed programs."""

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"                # padded NCCL implementation
    ALL_GATHER_GROUPED = "all_gather_grouped"  # grouped Broadcast implementation
    REDUCE_SCATTER = "reduce_scatter"
    ALL_TO_ALL = "all_to_all"
    BROADCAST = "broadcast"
    SLICE = "slice"  # local slice of a replicated tensor; involves no network traffic


def max_ratio(ratios: Sequence[float]) -> float:
    """Largest sharding ratio, clipped to [1/n, 1]."""
    if not ratios:
        raise ValueError("ratios must be non-empty")
    return min(max(max(ratios), 1.0 / len(ratios)), 1.0)


class CollectiveCostModel:
    """Predicts collective execution times on a given cluster.

    The model assumes the flat inter-machine network of the paper's testbed
    (uniform point-to-point bandwidth, measured with iperf3) and ring-style
    algorithms.  Intra-machine aggregation of grouped GPUs is handled
    separately by the computation-side cost model (Sec. 3.2), matching the
    paper's treatment of machine-level virtual devices.
    """

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster
        self.num_devices = cluster.num_devices
        self.bandwidth = cluster.network.bandwidth
        self.latency = cluster.network.latency
        self.kernel_overhead = cluster.network.kernel_launch_overhead

    # -- individual collectives -------------------------------------------------
    def all_reduce(self, total_bytes: float) -> float:
        """Ring All-Reduce of a replicated tensor of ``total_bytes``."""
        n = self.num_devices
        if n <= 1:
            return 0.0
        return 2.0 * (n - 1) / n * total_bytes / self.bandwidth + 2.0 * (n - 1) * self.latency

    def broadcast(self, shard_bytes: float) -> float:
        """Pipelined broadcast of one shard from its owner to all devices."""
        if self.num_devices <= 1:
            return 0.0
        return shard_bytes / self.bandwidth + self.latency

    def all_gather_padded(self, total_bytes: float, ratios: Sequence[float]) -> float:
        """Padded NCCL All-Gather (Sec. 2.5.1, left of Fig. 3)."""
        n = self.num_devices
        if n <= 1:
            return 0.0
        largest = total_bytes * max_ratio(ratios)
        padded_total = n * largest
        ring = (n - 1) * largest / self.bandwidth + (n - 1) * self.latency
        pad_trim = max(padded_total - total_bytes, 0.0) / MEMCPY_BANDWIDTH
        return ring + pad_trim + self.kernel_overhead

    def all_gather_grouped(self, total_bytes: float, ratios: Sequence[float]) -> float:
        """Grouped-Broadcast All-Gather (Sec. 2.5.1, right of Fig. 3)."""
        n = self.num_devices
        if n <= 1:
            return 0.0
        transfer = total_bytes / self.bandwidth
        per_call = n * (self.latency + self.kernel_overhead)
        return transfer + per_call

    def reduce_scatter(self, total_bytes: float, ratios: Sequence[float]) -> float:
        """Padded ring Reduce-Scatter; time follows the largest output shard."""
        n = self.num_devices
        if n <= 1:
            return 0.0
        largest = total_bytes * max_ratio(ratios)
        ring = (n - 1) * largest / self.bandwidth + (n - 1) * self.latency
        pad_trim = max(n * largest - total_bytes, 0.0) / MEMCPY_BANDWIDTH
        return ring + pad_trim + self.kernel_overhead

    def all_to_all(self, total_bytes: float, ratios: Sequence[float]) -> float:
        """All-To-All resharding between two sharding dimensions."""
        n = self.num_devices
        if n <= 1:
            return 0.0
        largest = total_bytes * max_ratio(ratios)
        return (n - 1) * largest / self.bandwidth + (n - 1) * self.latency + self.kernel_overhead

    # -- dispatch ----------------------------------------------------------------
    def collective_time(
        self, kind: CollectiveKind, total_bytes: float, ratios: Sequence[float]
    ) -> float:
        """Time of an arbitrary collective request."""
        if kind is CollectiveKind.ALL_REDUCE:
            return self.all_reduce(total_bytes)
        if kind is CollectiveKind.ALL_GATHER:
            return self.all_gather_padded(total_bytes, ratios)
        if kind is CollectiveKind.ALL_GATHER_GROUPED:
            return self.all_gather_grouped(total_bytes, ratios)
        if kind is CollectiveKind.REDUCE_SCATTER:
            return self.reduce_scatter(total_bytes, ratios)
        if kind is CollectiveKind.ALL_TO_ALL:
            return self.all_to_all(total_bytes, ratios)
        if kind is CollectiveKind.BROADCAST:
            return self.broadcast(total_bytes * max_ratio(ratios))
        if kind is CollectiveKind.SLICE:
            # Purely local: a strided copy of the device's own slice.
            return total_bytes * max_ratio(ratios) / MEMCPY_BANDWIDTH
        raise ValueError(f"unknown collective kind {kind!r}")

    def best_all_gather(
        self, total_bytes: float, ratios: Sequence[float]
    ) -> Tuple[CollectiveKind, float]:
        """Choose the faster All-Gather implementation for these ratios.

        Returns the winning kind and its predicted time, the padded kind on
        a tie.  Program synthesis makes the same decision by price: of the
        two All-Gather rules of a conversion, it enables a missing
        precondition with the one whose cost is strictly lower for the
        ratios it synthesizes at, the padded one on a tie.
        """
        padded = self.all_gather_padded(total_bytes, ratios)
        grouped = self.all_gather_grouped(total_bytes, ratios)
        if padded <= grouped:
            return CollectiveKind.ALL_GATHER, padded
        return CollectiveKind.ALL_GATHER_GROUPED, grouped

    def effective_bandwidth(
        self, kind: CollectiveKind, total_bytes: float, ratios: Sequence[float]
    ) -> float:
        """Apparent bandwidth (full tensor size / time), the Fig. 4 metric."""
        t = self.collective_time(kind, total_bytes, ratios)
        return total_bytes / t if t > 0 else float("inf")
