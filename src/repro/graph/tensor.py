"""Tensor metadata used throughout the IR.

The reproduction does not carry real GPU tensors around; instead every node in
the computation graph produces a :class:`TensorSpec` describing the shape and
dtype of its output.  All cost modelling, sharding-rule generation and the LP
load balancer operate on these specs, while the numpy runtime materialises
concrete arrays that must match them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Tuple


class DType(Enum):
    """Element types supported by the IR.

    Only the byte width matters for communication/memory modelling, and only
    float32/int64 are materialised by the numpy runtime.
    """

    FLOAT32 = "float32"
    FLOAT16 = "float16"
    INT64 = "int64"
    INT32 = "int32"
    BOOL = "bool"

    @property
    def itemsize(self) -> int:
        """Size of one element in bytes."""
        return {
            DType.FLOAT32: 4,
            DType.FLOAT16: 2,
            DType.INT64: 8,
            DType.INT32: 4,
            DType.BOOL: 1,
        }[self]

    @property
    def numpy_name(self) -> str:
        """The numpy dtype string used by the runtime."""
        return self.value


Shape = Tuple[int, ...]


def normalize_shape(shape: Iterable[int]) -> Shape:
    """Validate and canonicalise a shape into a tuple of positive ints.

    Raises:
        ValueError: if any dimension is not a positive integer.
    """
    out = []
    for dim in shape:
        if not isinstance(dim, (int,)) or isinstance(dim, bool):
            raise ValueError(f"shape dimensions must be ints, got {dim!r}")
        if dim <= 0:
            raise ValueError(f"shape dimensions must be positive, got {dim}")
        out.append(int(dim))
    return tuple(out)


@dataclass(frozen=True)
class TensorSpec:
    """Static description of a tensor: shape and dtype.

    Attributes:
        shape: tuple of positive dimension sizes; ``()`` denotes a scalar.
        dtype: element type.
    """

    shape: Shape
    dtype: DType = DType.FLOAT32

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", normalize_shape(self.shape))

    # -- derived quantities ------------------------------------------------
    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def numel(self) -> int:
        """Total number of elements."""
        return int(math.prod(self.shape)) if self.shape else 1

    @property
    def size_bytes(self) -> int:
        """Total size in bytes."""
        return self.numel * self.dtype.itemsize

    # -- helpers -----------------------------------------------------------
    def dim(self, axis: int) -> int:
        """Size of dimension ``axis`` (supports negative indexing)."""
        return self.shape[axis]

    def with_dim(self, axis: int, new_size: int) -> TensorSpec:
        """Return a copy with dimension ``axis`` replaced by ``new_size``."""
        if new_size <= 0:
            raise ValueError(f"dimension size must be positive, got {new_size}")
        axis = axis % len(self.shape)
        shape = list(self.shape)
        shape[axis] = new_size
        return TensorSpec(tuple(shape), self.dtype)

    def shardable_dims(self) -> Tuple[int, ...]:
        """Dimensions along which this tensor may be sharded.

        A dimension of size 1 cannot be meaningfully sharded.
        """
        return tuple(i for i, d in enumerate(self.shape) if d > 1)

    def shard(self, axis: int, num_shards: int, index: int) -> TensorSpec:
        """Spec of the ``index``-th of ``num_shards`` even shards along ``axis``.

        Uses the standard "larger shards first" remainder distribution so that
        shard sizes differ by at most one.
        """
        size = self.shape[axis]
        base, rem = divmod(size, num_shards)
        local = base + (1 if index < rem else 0)
        if local == 0:
            raise ValueError(
                f"cannot split dimension of size {size} into {num_shards} non-empty shards"
            )
        return self.with_dim(axis, local)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(d) for d in self.shape) if self.shape else "scalar"
        return f"{self.dtype.value}[{dims}]"


def scalar(dtype: DType = DType.FLOAT32) -> TensorSpec:
    """Spec of a rank-0 scalar tensor."""
    return TensorSpec((), dtype)


def shard_sizes(total: int, ratios: Sequence[float]) -> Tuple[int, ...]:
    """Split an integer dimension ``total`` into integer shard sizes ~ ``ratios``.

    Implements the rounding procedure of HAP Sec. 5.1: start from the nearest
    integers and repeatedly adjust the shard whose adjustment introduces the
    smallest rounding error until the sizes sum to ``total``.  Shard sizes may
    be zero (a device may receive no work for a segment).

    Args:
        total: the dimension size being sharded.
        ratios: non-negative sharding ratios; they are normalised internally.

    Returns:
        A tuple of non-negative integers summing to ``total``.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    ratios = list(ratios)
    if not ratios:
        raise ValueError("ratios must be non-empty")
    if any(r < 0 for r in ratios):
        raise ValueError("ratios must be non-negative")
    ssum = sum(ratios)
    if ssum <= 0:
        # Degenerate: fall back to an even split.
        ratios = [1.0] * len(ratios)
        ssum = float(len(ratios))
    targets = [total * r / ssum for r in ratios]
    sizes = [int(round(t)) for t in targets]
    diff = total - sum(sizes)
    # Adjust one element at a time, choosing the shard with the smallest
    # resulting rounding error.
    while diff != 0:
        step = 1 if diff > 0 else -1
        best_idx, best_err = None, None
        for i, (s, t) in enumerate(zip(sizes, targets)):
            if step < 0 and s <= 0:
                continue
            err = abs((s + step) - t)
            if best_err is None or err < best_err:
                best_idx, best_err = i, err
        if best_idx is None:  # pragma: no cover - defensive
            raise RuntimeError("unable to round shard sizes")
        sizes[best_idx] += step
        diff -= step
    return tuple(sizes)


def shard_offsets(sizes: Sequence[int]) -> Tuple[int, ...]:
    """Prefix offsets of consecutive shard sizes (starting at 0)."""
    offsets = [0]
    for s in sizes[:-1]:
        offsets.append(offsets[-1] + s)
    return tuple(offsets)
