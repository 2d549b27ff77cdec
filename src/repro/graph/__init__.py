"""Single-device tensor-program IR: specs, operators, graphs and analyses."""

from .analysis import (
    GraphStats,
    PipelineCut,
    compute_nodes,
    consumers_map,
    cut_transfer_bytes,
    interleaved_pipeline_cut,
    last_use,
    node_flops_map,
    pipeline_cut,
)
from .builder import GraphBuilder
from .canonical import (
    BlockRun,
    canonical_order,
    canonical_rename_map,
    find_repeated_blocks,
    fingerprint_with_order,
    graph_fingerprint,
    structural_hashes,
)
from .graph import ComputationGraph, GraphError, Node
from .ops import OpDef, OpKind, get_op, register_op, registered_ops
from .tensor import DType, TensorSpec, scalar, shard_offsets, shard_sizes

__all__ = [
    "DType",
    "TensorSpec",
    "scalar",
    "shard_sizes",
    "shard_offsets",
    "OpDef",
    "OpKind",
    "get_op",
    "register_op",
    "registered_ops",
    "ComputationGraph",
    "GraphError",
    "Node",
    "GraphBuilder",
    "GraphStats",
    "PipelineCut",
    "compute_nodes",
    "consumers_map",
    "cut_transfer_bytes",
    "interleaved_pipeline_cut",
    "last_use",
    "node_flops_map",
    "pipeline_cut",
    "BlockRun",
    "canonical_order",
    "canonical_rename_map",
    "find_repeated_blocks",
    "fingerprint_with_order",
    "graph_fingerprint",
    "structural_hashes",
]
