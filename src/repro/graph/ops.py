"""Operator registry of the single-device tensor IR.

Every operator used by the model zoo is described by an :class:`OpDef` that
bundles:

* shape inference (``infer``),
* a floating-point-operation estimate (``flops``) used by the cost model, and
* an :class:`OpKind` category consumed by the HAP sharding-variant tables
  (:mod:`repro.core.variants`) to derive sharding semantics.

The numpy kernels that execute the operators belong to the runtime
(:mod:`repro.runtime.kernels`), so the IR and everything that plans over it
import no numpy.

The operator set intentionally mirrors the subset of PyTorch ops exercised by
the paper's four benchmark models (VGG19, ViT, BERT-Base, BERT-MoE): dense and
batched matmuls, elementwise math, softmax/layer-norm, embeddings, 2-D
convolutions and pooling, cross-entropy, and the Mixture-of-Experts dispatch
and combine primitives, plus an ``sgd_update`` terminal that represents the
optimizer step applied to each parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from .tensor import DType, TensorSpec


class OpKind(Enum):
    """Semantic category of an operator, used for sharding-rule generation."""

    SOURCE = "source"            # placeholder / parameter / constant
    ELEMENTWISE = "elementwise"  # shape-preserving map (unary or binary)
    BROADCAST_BIAS = "bias"      # add a vector along the last dimension
    MATMUL = "matmul"            # dense or batched matrix multiplication
    REDUCTION = "reduction"      # full reduction to a scalar
    NORMALIZATION = "norm"       # softmax / layernorm along one axis
    RESHAPE = "reshape"          # metadata-only shape change
    TRANSPOSE = "transpose"      # permutation of dimensions
    EMBEDDING = "embedding"      # table lookup
    CONV = "conv"                # 2-D convolution
    POOL = "pool"                # 2-D pooling
    FLATTEN = "flatten"          # collapse all but the batch dimension
    CROSS_ENTROPY = "xent"       # classification loss
    MOE_DISPATCH = "moe_dispatch"
    MOE_COMBINE = "moe_combine"
    OPTIMIZER = "optimizer"      # sgd_update terminal
    # Backward-pass specific kinds (see repro.graph.grad_ops).
    BROADCAST = "broadcast"          # scalar -> full tensor (grad of reduce_sum)
    SUM_LEADING = "sum_leading"      # reduce all leading dims (grad of bias_add)
    EMBEDDING_GRAD = "embedding_grad"
    CONV_GRAD_INPUT = "conv_grad_input"
    CONV_GRAD_WEIGHT = "conv_grad_weight"


Attrs = Mapping[str, object]


@dataclass
class OpDef:
    """Definition of one operator type.

    Attributes:
        name: unique operator name.
        kind: semantic category.
        infer: ``(input_specs, attrs) -> TensorSpec`` shape inference.
        flops: ``(input_specs, output_spec, attrs) -> float`` flop estimate.
        num_inputs: expected arity (``None`` for variadic).
    """

    name: str
    kind: OpKind
    infer: Callable[[Sequence[TensorSpec], Attrs], TensorSpec]
    flops: Callable[[Sequence[TensorSpec], TensorSpec, Attrs], float]
    num_inputs: Optional[int] = None


_REGISTRY: Dict[str, OpDef] = {}


def register_op(op: OpDef) -> OpDef:
    """Add an operator to the global registry (name must be unique)."""
    if op.name in _REGISTRY:
        raise ValueError(f"operator {op.name!r} is already registered")
    _REGISTRY[op.name] = op
    return op


def get_op(name: str) -> OpDef:
    """Look up an operator definition by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown operator {name!r}") from None


def registered_ops() -> List[str]:
    """Names of all registered operators (sorted)."""
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _same_dtype(specs: Sequence[TensorSpec]) -> DType:
    return specs[0].dtype if specs else DType.FLOAT32


def _check_arity(name: str, specs: Sequence[TensorSpec], expected: int) -> None:
    if len(specs) != expected:
        raise ValueError(f"{name} expects {expected} inputs, got {len(specs)}")


def _zero_flops(_specs, _out, _attrs) -> float:
    return 0.0


def _elementwise_flops(factor: float) -> Callable:
    def fn(_specs, out: TensorSpec, _attrs) -> float:
        return factor * out.numel

    return fn


# ---------------------------------------------------------------------------
# source ops
# ---------------------------------------------------------------------------

def _source_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    if specs:
        raise ValueError("source operators take no inputs")
    shape = attrs["shape"]
    dtype = attrs.get("dtype", DType.FLOAT32)
    if isinstance(dtype, str):
        dtype = DType(dtype)
    return TensorSpec(tuple(shape), dtype)


register_op(OpDef("placeholder", OpKind.SOURCE, _source_infer, _zero_flops, 0))
register_op(OpDef("parameter", OpKind.SOURCE, _source_infer, _zero_flops, 0))
register_op(OpDef("constant", OpKind.SOURCE, _source_infer, _zero_flops, 0))


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def _unary_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("unary op", specs, 1)
    return specs[0]


def _binary_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("binary op", specs, 2)
    if specs[0].shape != specs[1].shape:
        raise ValueError(
            f"elementwise binary op requires equal shapes, got {specs[0].shape} vs {specs[1].shape}"
        )
    return TensorSpec(specs[0].shape, _same_dtype(specs))


for _name, _cost in (
    ("identity", 0.0),
    ("relu", 1.0),
    ("gelu", 8.0),
    ("sigmoid", 4.0),
    ("tanh", 4.0),
    ("neg", 1.0),
    ("square", 1.0),
    ("dropout", 1.0),  # modelled as identity (inference-mode cost)
    ("scale", 1.0),
):
    register_op(OpDef(_name, OpKind.ELEMENTWISE, _unary_infer, _elementwise_flops(_cost), 1))
for _name in ("add", "sub", "mul", "div", "maximum"):
    register_op(OpDef(_name, OpKind.ELEMENTWISE, _binary_infer, _elementwise_flops(1.0), 2))


# ---------------------------------------------------------------------------
# bias add (broadcast along the last dimension)
# ---------------------------------------------------------------------------

def _bias_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("bias_add", specs, 2)
    data, bias = specs
    if bias.rank != 1 or bias.shape[0] != data.shape[-1]:
        raise ValueError(
            f"bias_add expects bias of shape ({data.shape[-1]},), got {bias.shape}"
        )
    return data


register_op(OpDef("bias_add", OpKind.BROADCAST_BIAS, _bias_infer, _elementwise_flops(1.0), 2))


# ---------------------------------------------------------------------------
# matmul (2-D and batched 3-D)
# ---------------------------------------------------------------------------

def _matmul_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("matmul", specs, 2)
    a, b = specs
    if a.rank < 2 or b.rank < 2:
        raise ValueError("matmul requires rank >= 2 inputs")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"matmul contraction mismatch: {a.shape} x {b.shape}"
        )
    if a.rank == 2 and b.rank == 2:
        out_shape = (a.shape[0], b.shape[1])
    elif a.rank == 3 and b.rank == 3:
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"batched matmul batch mismatch: {a.shape} x {b.shape}")
        out_shape = (a.shape[0], a.shape[1], b.shape[2])
    elif a.rank == 3 and b.rank == 2:
        out_shape = (a.shape[0], a.shape[1], b.shape[1])
    else:
        raise ValueError(f"unsupported matmul ranks: {a.rank} and {b.rank}")
    return TensorSpec(out_shape, _same_dtype(specs))


def _matmul_flops(specs: Sequence[TensorSpec], out: TensorSpec, _attrs: Attrs) -> float:
    a, b = specs
    k = a.shape[-1]
    return 2.0 * out.numel * k


register_op(OpDef("matmul", OpKind.MATMUL, _matmul_infer, _matmul_flops, 2))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _reduce_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("reduction", specs, 1)
    return TensorSpec((), specs[0].dtype)


def _reduce_flops(specs: Sequence[TensorSpec], _out: TensorSpec, _attrs: Attrs) -> float:
    return float(specs[0].numel)


register_op(OpDef("reduce_sum", OpKind.REDUCTION, _reduce_infer, _reduce_flops, 1))
register_op(OpDef("reduce_mean", OpKind.REDUCTION, _reduce_infer, _reduce_flops, 1))


# ---------------------------------------------------------------------------
# normalisation ops (softmax / layer-norm over one axis)
# ---------------------------------------------------------------------------

def _norm_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("normalisation", specs, 1)
    return specs[0]


register_op(OpDef("softmax", OpKind.NORMALIZATION, _norm_infer, _elementwise_flops(5.0), 1))
register_op(OpDef("layernorm", OpKind.NORMALIZATION, _norm_infer, _elementwise_flops(8.0), 1))


# ---------------------------------------------------------------------------
# reshape / transpose / flatten
# ---------------------------------------------------------------------------

def _reshape_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("reshape", specs, 1)
    new_shape = tuple(int(d) for d in attrs["shape"])
    if math.prod(new_shape) != specs[0].numel:
        raise ValueError(
            f"reshape element count mismatch: {specs[0].shape} -> {new_shape}"
        )
    return TensorSpec(new_shape, specs[0].dtype)


register_op(OpDef("reshape", OpKind.RESHAPE, _reshape_infer, _zero_flops, 1))


def _transpose_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("transpose", specs, 1)
    perm = tuple(int(p) for p in attrs["perm"])
    if sorted(perm) != list(range(specs[0].rank)):
        raise ValueError(f"invalid permutation {perm} for rank {specs[0].rank}")
    return TensorSpec(tuple(specs[0].shape[p] for p in perm), specs[0].dtype)


register_op(OpDef("transpose", OpKind.TRANSPOSE, _transpose_infer, _zero_flops, 1))


def _flatten_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("flatten", specs, 1)
    spec = specs[0]
    if spec.rank < 2:
        raise ValueError("flatten requires rank >= 2")
    rest = math.prod(spec.shape[1:])
    return TensorSpec((spec.shape[0], rest), spec.dtype)


register_op(OpDef("flatten", OpKind.FLATTEN, _flatten_infer, _zero_flops, 1))


# ---------------------------------------------------------------------------
# embedding lookup
# ---------------------------------------------------------------------------

def _embedding_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("embedding", specs, 2)
    ids, table = specs
    if table.rank != 2:
        raise ValueError("embedding table must be rank 2")
    return TensorSpec(ids.shape + (table.shape[1],), table.dtype)


def _embedding_flops(specs: Sequence[TensorSpec], out: TensorSpec, _attrs: Attrs) -> float:
    return float(out.numel)


register_op(OpDef("embedding", OpKind.EMBEDDING, _embedding_infer, _embedding_flops, 2))


# ---------------------------------------------------------------------------
# conv2d / pooling
# ---------------------------------------------------------------------------

def conv_out_hw(h: int, w: int, kernel: int, stride: int, padding: int) -> tuple:
    """Output height and width of a convolution or pooling window."""
    oh = (h + 2 * padding - kernel) // stride + 1
    ow = (w + 2 * padding - kernel) // stride + 1
    return oh, ow


def _conv2d_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("conv2d", specs, 2)
    x, w = specs
    if x.rank != 4 or w.rank != 4:
        raise ValueError("conv2d expects NCHW input and OIKK weight")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"conv2d channel mismatch: {x.shape} x {w.shape}")
    stride = int(attrs.get("stride", 1))
    padding = int(attrs.get("padding", 0))
    kernel = w.shape[2]
    oh, ow = conv_out_hw(x.shape[2], x.shape[3], kernel, stride, padding)
    if oh <= 0 or ow <= 0:
        raise ValueError("conv2d output spatial size is non-positive")
    return TensorSpec((x.shape[0], w.shape[0], oh, ow), x.dtype)


def _conv2d_flops(specs: Sequence[TensorSpec], out: TensorSpec, _attrs: Attrs) -> float:
    x, w = specs
    k = w.shape[1] * w.shape[2] * w.shape[3]
    return 2.0 * out.numel * k


register_op(OpDef("conv2d", OpKind.CONV, _conv2d_infer, _conv2d_flops, 2))


def _pool_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("pool", specs, 1)
    x = specs[0]
    if x.rank != 4:
        raise ValueError("pooling expects NCHW input")
    kernel = int(attrs.get("kernel", 2))
    stride = int(attrs.get("stride", kernel))
    oh, ow = conv_out_hw(x.shape[2], x.shape[3], kernel, stride, 0)
    return TensorSpec((x.shape[0], x.shape[1], oh, ow), x.dtype)


def _pool_flops(specs: Sequence[TensorSpec], out: TensorSpec, attrs: Attrs) -> float:
    kernel = int(attrs.get("kernel", 2))
    return float(out.numel * kernel * kernel)


register_op(OpDef("maxpool2d", OpKind.POOL, _pool_infer, _pool_flops, 1))
register_op(OpDef("avgpool2d", OpKind.POOL, _pool_infer, _pool_flops, 1))


# ---------------------------------------------------------------------------
# cross-entropy loss
# ---------------------------------------------------------------------------

def _xent_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("cross_entropy", specs, 2)
    logits, labels = specs
    if logits.rank != 2 or labels.rank != 1 or logits.shape[0] != labels.shape[0]:
        raise ValueError(
            f"cross_entropy expects logits [N, C] and labels [N], got {logits.shape}, {labels.shape}"
        )
    return TensorSpec((), logits.dtype)


def _xent_flops(specs: Sequence[TensorSpec], _out: TensorSpec, _attrs: Attrs) -> float:
    return 6.0 * specs[0].numel


register_op(OpDef("cross_entropy", OpKind.CROSS_ENTROPY, _xent_infer, _xent_flops, 2))


# ---------------------------------------------------------------------------
# Mixture-of-Experts primitives (GShard-style top-1 routing)
# ---------------------------------------------------------------------------

def moe_capacity(num_tokens: int, num_experts: int, capacity_factor: float) -> int:
    """Token slots per expert in a ``moe_dispatch`` buffer."""
    return max(1, int(math.ceil(num_tokens / num_experts * capacity_factor)))


def _moe_dispatch_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("moe_dispatch", specs, 2)
    tokens, gates = specs
    if tokens.rank != 2 or gates.rank != 2 or tokens.shape[0] != gates.shape[0]:
        raise ValueError(
            f"moe_dispatch expects tokens [N, H] and gates [N, E], got {tokens.shape}, {gates.shape}"
        )
    num_experts = gates.shape[1]
    capacity = moe_capacity(tokens.shape[0], num_experts, float(attrs.get("capacity_factor", 1.25)))
    return TensorSpec((num_experts, capacity, tokens.shape[1]), tokens.dtype)


def _moe_dispatch_flops(specs: Sequence[TensorSpec], out: TensorSpec, _attrs: Attrs) -> float:
    return float(specs[0].numel + out.numel)


register_op(OpDef("moe_dispatch", OpKind.MOE_DISPATCH, _moe_dispatch_infer, _moe_dispatch_flops, 2))


def _moe_combine_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("moe_combine", specs, 2)
    expert_out, gates = specs
    if expert_out.rank != 3 or gates.rank != 2:
        raise ValueError(
            f"moe_combine expects expert output [E, C, H] and gates [N, E], got {expert_out.shape}, {gates.shape}"
        )
    return TensorSpec((gates.shape[0], expert_out.shape[2]), expert_out.dtype)


def _moe_combine_flops(specs: Sequence[TensorSpec], out: TensorSpec, _attrs: Attrs) -> float:
    return float(2 * out.numel)


register_op(OpDef("moe_combine", OpKind.MOE_COMBINE, _moe_combine_infer, _moe_combine_flops, 2))


# ---------------------------------------------------------------------------
# optimizer terminal
# ---------------------------------------------------------------------------

def _sgd_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("sgd_update", specs, 2)
    param, grad = specs
    if param.shape != grad.shape:
        raise ValueError(
            f"sgd_update expects matching param/grad shapes, got {param.shape} vs {grad.shape}"
        )
    return param


register_op(OpDef("sgd_update", OpKind.OPTIMIZER, _sgd_infer, _elementwise_flops(2.0), 2))
