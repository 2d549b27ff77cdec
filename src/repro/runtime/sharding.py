"""Sharding utilities shared by the SPMD runtime and the baselines.

Converts between global tensors and per-device shards according to sharding
ratios, using the integer rounding of HAP Sec. 5.1 (largest shards first, so
sizes differ by at most one at even ratios and follow the ratios otherwise).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..graph.tensor import shard_sizes


def split_along(value: np.ndarray, dim: int, ratios: Sequence[float]) -> List[np.ndarray]:
    """Split a global tensor into per-device shards along ``dim``.

    Shard sizes follow ``ratios`` via :func:`repro.graph.tensor.shard_sizes`;
    devices whose ratio rounds to zero receive an empty shard.
    """
    sizes = shard_sizes(value.shape[dim], ratios)
    shards: List[np.ndarray] = []
    offset = 0
    for size in sizes:
        index = [slice(None)] * value.ndim
        index[dim] = slice(offset, offset + size)
        shards.append(np.ascontiguousarray(value[tuple(index)]))
        offset += size
    return shards


def local_sizes(total: int, ratios: Sequence[float]) -> List[int]:
    """Integer shard sizes of a dimension of length ``total``."""
    return list(shard_sizes(total, ratios))
