"""Single-device tensor-program IR: specs, operators, graphs and analyses."""

from .analysis import (
    PipelineCut,
    cut_transfer_bytes,
    pipeline_cut,
)
from .builder import GraphBuilder
from .canonical import (
    canonical_order,
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
    "PipelineCut",
    "cut_transfer_bytes",
    "pipeline_cut",
    "canonical_order",
    "fingerprint_with_order",
    "graph_fingerprint",
    "structural_hashes",
]
