"""Sharding variants of each operator kind (the rule tables of Fig. 9).

:func:`node_variants` lists, for one computation node, the combinations of
input distribution states under which running its operator locally yields an
output in a known distribution state; :func:`source_variants` lists the
states a placeholder, parameter or constant can be created in.  The
background theory (:mod:`repro.core.rules`) turns each variant into a
computation rule.

Mixture-of-Experts capacity tensors carry device-local routing; gathering them
back to a "replicated" tensor would not reproduce the reference value, so such
tensors are restricted to All-To-All communication (expert parallelism), which
is exactly how GShard-style systems treat them (:func:`moe_restricted_refs`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..graph.graph import ComputationGraph, Node
from ..graph.ops import OpKind
from .config import SynthesisConfig
from .properties import DistState


@dataclass(frozen=True)
class Variant:
    """One sharding variant of a computation node: input states -> output state."""

    input_states: Tuple[DistState, ...]
    output_state: DistState
    flops_sharded: bool


# ---------------------------------------------------------------------------
# sharding-variant generation per operator kind
# ---------------------------------------------------------------------------

R = DistState.replicated()
P = DistState.partial()

#: Tensor dimensions smaller than this (or than the device count) are never
#: considered as sharding dimensions.
MIN_SHARD_DIM_SIZE = 2


def S(dim: int) -> DistState:
    return DistState.sharded(dim)


def _input_shardable(spec_shape: Tuple[int, ...], dim: int, num_devices: int) -> bool:
    if dim >= len(spec_shape):
        return False
    return spec_shape[dim] >= max(MIN_SHARD_DIM_SIZE, num_devices)


def node_variants(
    node: Node, graph: ComputationGraph, cfg: SynthesisConfig, num_devices: int
) -> List[Variant]:
    """All sharding variants of one computation node.

    This is the reproduction of the rule tables sketched in Fig. 9: for each
    operator kind we enumerate the combinations of input distribution states
    under which running the operator locally yields an output in a known
    distribution state.
    """
    kind = node.kind
    in_specs = graph.input_specs(node)
    out_spec = node.spec
    variants: List[Variant] = []

    def add(in_states: Sequence[DistState], out_state: DistState, sharded: bool) -> None:
        variants.append(Variant(tuple(in_states), out_state, sharded))

    def out_dims() -> List[int]:
        return [
            d
            for d, size in enumerate(out_spec.shape)
            if size >= max(MIN_SHARD_DIM_SIZE, num_devices)
        ]

    arity = len(node.inputs)

    if kind is OpKind.SOURCE:
        raise ValueError("source nodes are handled by source_variants()")

    # -- shape-preserving elementwise maps -----------------------------------
    if kind is OpKind.ELEMENTWISE:
        add([R] * arity, R, sharded=False)
        for d in out_dims():
            add([S(d)] * arity, S(d), sharded=True)
        # Linear ops propagate partial values (needed on gradient paths).
        if node.op in ("identity", "dropout", "neg", "scale"):
            add([P], P, sharded=False)
        if node.op == "add":
            add([P, P], P, sharded=False)
        return variants

    if kind is OpKind.BROADCAST_BIAS:
        add([R, R], R, sharded=False)
        for d in out_dims():
            if d == out_spec.rank - 1:
                add([S(d), S(0)], S(d), sharded=True)
            else:
                add([S(d), R], S(d), sharded=True)
        return variants

    if kind is OpKind.MATMUL:
        a, b = in_specs
        if cfg.enable_sfb:
            add([R, R], R, sharded=False)  # duplicated compute (enables SFB)
        if a.rank == 2 and b.rank == 2:
            if _input_shardable(a.shape, 0, num_devices):
                add([S(0), R], S(0), sharded=True)
            if _input_shardable(b.shape, 1, num_devices):
                add([R, S(1)], S(1), sharded=True)
            if _input_shardable(a.shape, 1, num_devices):
                add([S(1), S(0)], P, sharded=True)
        elif a.rank == 3 and b.rank == 3:
            if _input_shardable(a.shape, 0, num_devices):
                add([S(0), S(0)], S(0), sharded=True)
            if _input_shardable(a.shape, 1, num_devices):
                add([S(1), R], S(1), sharded=True)
            if _input_shardable(b.shape, 2, num_devices):
                add([R, S(2)], S(2), sharded=True)
            if _input_shardable(a.shape, 2, num_devices):
                add([S(2), S(1)], P, sharded=True)
        elif a.rank == 3 and b.rank == 2:
            if _input_shardable(a.shape, 0, num_devices):
                add([S(0), R], S(0), sharded=True)
            if _input_shardable(a.shape, 1, num_devices):
                add([S(1), R], S(1), sharded=True)
            if _input_shardable(b.shape, 1, num_devices):
                add([R, S(1)], S(2), sharded=True)
            if _input_shardable(a.shape, 2, num_devices):
                add([S(2), S(0)], P, sharded=True)
        return variants

    if kind is OpKind.REDUCTION:
        add([R], R, sharded=False)
        if node.op == "reduce_sum":
            for d, size in enumerate(in_specs[0].shape):
                if size >= max(MIN_SHARD_DIM_SIZE, num_devices):
                    add([S(d)], P, sharded=True)
        return variants

    if kind is OpKind.NORMALIZATION:
        axis = int(node.attrs.get("axis", -1)) % out_spec.rank
        add([R] * arity, R, sharded=False)
        for d in out_dims():
            if d != axis:
                add([S(d)] * arity, S(d), sharded=True)
        return variants

    if kind in (OpKind.RESHAPE, OpKind.FLATTEN):
        add([R], R, sharded=False)
        add([P], P, sharded=False)
        for din, dout in _reshape_dim_map(in_specs[0].shape, out_spec.shape):
            if _input_shardable(in_specs[0].shape, din, num_devices):
                add([S(din)], S(dout), sharded=True)
        return variants

    if kind is OpKind.TRANSPOSE:
        perm = tuple(int(p) for p in node.attrs["perm"])
        add([R], R, sharded=False)
        add([P], P, sharded=False)
        for dout, din in enumerate(perm):
            if _input_shardable(in_specs[0].shape, din, num_devices):
                add([S(din)], S(dout), sharded=True)
        return variants

    if kind is OpKind.EMBEDDING:
        ids, table = in_specs
        add([R, R], R, sharded=False)
        for d in range(ids.rank):
            if _input_shardable(ids.shape, d, num_devices):
                add([S(d), R], S(d), sharded=True)
        if _input_shardable(table.shape, 1, num_devices):
            add([R, S(1)], S(out_spec.rank - 1), sharded=True)
        return variants

    if kind in (OpKind.CONV, OpKind.POOL, OpKind.CONV_GRAD_INPUT):
        add([R] * arity, R, sharded=False)
        if _input_shardable(out_spec.shape, 0, num_devices):
            states = [S(0)] + [R] * (arity - 1)
            if kind is OpKind.POOL and arity == 2:  # pool grads take (dy, x)
                states = [S(0), S(0)]
            add(states, S(0), sharded=True)
        return variants

    if kind is OpKind.CONV_GRAD_WEIGHT:
        add([R, R], R, sharded=False)
        if _input_shardable(in_specs[0].shape, 0, num_devices):
            add([S(0), S(0)], P, sharded=True)
        return variants

    if kind is OpKind.CROSS_ENTROPY:
        if node.op == "cross_entropy":
            add([R, R], R, sharded=False)
            if _input_shardable(in_specs[0].shape, 0, num_devices):
                add([S(0), S(0)], P, sharded=True)
        else:  # cross_entropy_grad(dy, logits, labels)
            add([R, R, R], R, sharded=False)
            if _input_shardable(in_specs[1].shape, 0, num_devices):
                add([R, S(0), S(0)], S(0), sharded=True)
        return variants

    if kind is OpKind.BROADCAST:
        add([R], R, sharded=False)
        return variants

    if kind is OpKind.SUM_LEADING:
        src = in_specs[0]
        add([R], R, sharded=False)
        for d in range(src.rank - 1):
            if _input_shardable(src.shape, d, num_devices):
                add([S(d)], P, sharded=True)
        if _input_shardable(src.shape, src.rank - 1, num_devices):
            add([S(src.rank - 1)], S(0), sharded=True)
        return variants

    if kind is OpKind.EMBEDDING_GRAD:
        dy, ids = in_specs
        add([R, R], R, sharded=False)
        for d in range(ids.rank):
            if _input_shardable(ids.shape, d, num_devices):
                add([S(d), S(d)], P, sharded=True)
        if _input_shardable(dy.shape, dy.rank - 1, num_devices):
            add([S(dy.rank - 1), R], S(1), sharded=True)
        return variants

    if kind is OpKind.MOE_DISPATCH:
        # moe_dispatch(tokens [N,H], gates [N,E]) -> [E, C, H]
        # moe_combine_grad(dy [N,H], gates [N,E]) -> [E, C, H]
        add([R, R], R, sharded=False)
        if _input_shardable(in_specs[0].shape, 0, num_devices):
            add([S(0), S(0)], S(1), sharded=True)
        return variants

    if kind is OpKind.MOE_COMBINE:
        # moe_combine(expert_out [E,C,H], gates [N,E]) -> [N,H]
        # moe_dispatch_grad(dy [E,C,H], gates [N,E]) -> [N,H]
        add([R, R], R, sharded=False)
        if _input_shardable(in_specs[1].shape, 0, num_devices):
            add([S(1), S(0)], S(0), sharded=True)
        return variants

    if kind is OpKind.OPTIMIZER:
        add([R, R], R, sharded=False)
        for d in out_dims():
            add([S(d), S(d)], S(d), sharded=True)
        return variants

    raise ValueError(f"no sharding rules defined for operator kind {kind!r} (node {node.name!r})")


def _reshape_dim_map(
    in_shape: Tuple[int, ...], out_shape: Tuple[int, ...]
) -> List[Tuple[int, int]]:
    """Pairs (input dim, output dim) along which a sharded reshape stays local.

    A shard along an input dimension survives a local reshape when either the
    dimension lies in the longest common prefix/suffix of the two shapes, or
    it is the outermost dimension and the reshape only merges/splits leading
    dimensions (e.g. ``[B, S, H] -> [B*S, H]`` or ``[B*h, S, d] ->
    [B, h, S, d]``): the locally reshaped shards concatenate to the reshaped
    reference tensor because the trailing "row" layout is unchanged.
    """
    pairs: List[Tuple[int, int]] = []
    rin, rout = len(in_shape), len(out_shape)
    # common prefix
    prefix = 0
    while prefix < min(rin, rout) and in_shape[prefix] == out_shape[prefix]:
        prefix += 1
    for d in range(prefix):
        pairs.append((d, d))
    # common suffix
    suffix = 0
    while (
        suffix < min(rin, rout) - prefix
        and in_shape[rin - 1 - suffix] == out_shape[rout - 1 - suffix]
    ):
        suffix += 1
    for k in range(suffix):
        pairs.append((rin - 1 - k, rout - 1 - k))
    # merging all leading input dims into output dim 0, or splitting input
    # dim 0 into several leading output dims
    if rout < rin and suffix >= rout - 1:
        pairs.append((0, 0))
    if rout > rin and suffix >= rin - 1:
        pairs.append((0, 0))
    return sorted(set(pairs))


def source_variants(
    node: Node, cfg: SynthesisConfig, num_devices: int
) -> List[DistState]:
    """Distribution states a source node can be created in."""
    states: List[DistState] = []
    if node.op == "constant":
        return [R]
    if cfg.force_data_parallel:
        # Baseline emulation: placeholders are always sharded along the batch
        # dimension, parameters are replicated (except expert parameters when
        # expert parallelism is requested, as in DeepSpeed-MoE).
        if node.op == "placeholder":
            if node.spec.rank and node.spec.shape[0] >= max(MIN_SHARD_DIM_SIZE, num_devices):
                return [S(0)]
            return [R]
        if cfg.expert_parallel_parameters and node.spec.rank == 3:
            return [S(0)]
        return [R]
    for d, size in enumerate(node.spec.shape):
        if size >= max(MIN_SHARD_DIM_SIZE, num_devices):
            states.append(S(d))
    if cfg.enable_replicated_sources or not states:
        states.append(R)
    return states


# ---------------------------------------------------------------------------
# MoE capacity-tensor taint
# ---------------------------------------------------------------------------

def moe_restricted_refs(graph: ComputationGraph) -> FrozenSet[str]:
    """Reference tensors that live in the MoE expert-capacity layout.

    The outputs of ``moe_dispatch``/``moe_combine_grad`` hold one row per
    *capacity slot*, and slots are assigned by device-local routing when the
    tokens are sharded.  Any tensor that still carries that capacity dimension
    (tracked positionally through transposes, element-wise ops and batched
    matmuls) may only be re-distributed with All-To-All — gathering it to a
    "replicated" tensor would not reproduce the reference value.  Tensors that
    contract the capacity dimension away (e.g. expert weight gradients) leave
    the restricted set and can be all-reduced normally.
    """
    capacity_dim: Dict[str, int] = {}
    for node in graph:
        if node.op in ("moe_dispatch", "moe_combine_grad"):
            capacity_dim[node.name] = 1
            continue
        if node.op in ("moe_combine", "moe_dispatch_grad"):
            continue
        tainted_inputs = [(inp, capacity_dim[inp]) for inp in node.inputs if inp in capacity_dim]
        if not tainted_inputs:
            continue
        dim = _propagate_capacity_dim(node, graph, dict(tainted_inputs))
        if dim is not None:
            capacity_dim[node.name] = dim
    return frozenset(capacity_dim)


def _propagate_capacity_dim(
    node: Node, graph: ComputationGraph, tainted: Dict[str, int]
) -> Optional[int]:
    """Position of the capacity dimension in a node's output, if it survives."""
    kind = node.kind
    first_ref, first_dim = next(iter(tainted.items()))
    if kind is OpKind.TRANSPOSE:
        perm = tuple(int(p) for p in node.attrs["perm"])
        return perm.index(first_dim) if first_dim in perm else None
    if kind in (OpKind.ELEMENTWISE, OpKind.BROADCAST_BIAS, OpKind.NORMALIZATION):
        return first_dim
    if kind is OpKind.MATMUL:
        a_name, b_name = node.inputs
        a, b = graph.input_specs(node)
        if a.rank == 3 and b.rank == 3:
            if a_name in tainted:
                dim = tainted[a_name]
                if dim == 1:
                    return 1  # rows survive as output dim 1
                return None  # capacity was the contracted dimension
            if b_name in tainted:
                dim = tainted[b_name]
                if dim == 2:
                    return 2
                return None
        return None
    if kind in (OpKind.RESHAPE, OpKind.FLATTEN):
        for din, dout in _reshape_dim_map(graph.input_specs(node)[0].shape, node.spec.shape):
            if din == first_dim:
                return dout
        return None
    # Reductions and other contractions drop the capacity layout.
    return None
