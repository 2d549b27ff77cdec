"""Backward (gradient) operators.

Reverse-mode autodiff (:mod:`repro.autodiff`) expands a forward graph into a
training graph; the backward pass needs a handful of additional primitive
operators (vector-Jacobian products).  They are registered here, in the same
registry as the forward ops, so the synthesizer, cost model and runtime treat
them uniformly; their numpy kernels live with the forward ones in
:mod:`repro.runtime.kernels`.

Importing this module has the side effect of registering the operators; it is
imported by :mod:`repro.graph` consumers via :mod:`repro.autodiff`.
"""

from __future__ import annotations

from typing import Sequence

from .ops import Attrs, OpDef, OpKind, _check_arity, _elementwise_flops, register_op, registered_ops
from .tensor import TensorSpec


def _register_once(op: OpDef) -> None:
    """Register an op, tolerating repeated imports of this module."""
    if op.name not in registered_ops():
        register_op(op)


# ---------------------------------------------------------------------------
# broadcast / leading-dim reduction (grad of reduce_sum and bias_add)
# ---------------------------------------------------------------------------

def _broadcast_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("broadcast_to", specs, 1)
    if specs[0].rank != 0:
        raise ValueError("broadcast_to expects a scalar input")
    return TensorSpec(tuple(int(d) for d in attrs["shape"]), specs[0].dtype)


_register_once(
    OpDef("broadcast_to", OpKind.BROADCAST, _broadcast_infer, _elementwise_flops(1.0), 1)
)


def _sum_leading_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("sum_leading", specs, 1)
    if specs[0].rank < 1:
        raise ValueError("sum_leading expects rank >= 1 input")
    return TensorSpec((specs[0].shape[-1],), specs[0].dtype)


_register_once(
    OpDef(
        "sum_leading",
        OpKind.SUM_LEADING,
        _sum_leading_infer,
        lambda specs, out, attrs: float(specs[0].numel),
        1,
    )
)


# ---------------------------------------------------------------------------
# elementwise activation gradients: grad(dy, x) -> dx  (same shape)
# ---------------------------------------------------------------------------

def _binary_same_shape_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("binary grad op", specs, 2)
    if specs[0].shape != specs[1].shape:
        raise ValueError(
            f"grad op requires equal shapes, got {specs[0].shape} vs {specs[1].shape}"
        )
    return specs[0]


for _name, _cost in (
    ("relu_grad", 2.0),
    ("gelu_grad", 10.0),
    ("sigmoid_grad", 6.0),
    ("tanh_grad", 6.0),
    ("square_grad", 2.0),
):
    _register_once(
        OpDef(_name, OpKind.ELEMENTWISE, _binary_same_shape_infer, _elementwise_flops(_cost), 2)
    )


# ---------------------------------------------------------------------------
# softmax / layernorm gradients (normalised axis in attrs)
# ---------------------------------------------------------------------------

for _name, _cost in (("softmax_grad", 6.0), ("layernorm_grad", 12.0)):
    _register_once(
        OpDef(_name, OpKind.NORMALIZATION, _binary_same_shape_infer, _elementwise_flops(_cost), 2)
    )


# ---------------------------------------------------------------------------
# cross-entropy gradient: (dy_scalar, logits, labels) -> dlogits
# ---------------------------------------------------------------------------

def _xent_grad_infer(specs: Sequence[TensorSpec], _attrs: Attrs) -> TensorSpec:
    _check_arity("cross_entropy_grad", specs, 3)
    dy, logits, labels = specs
    if dy.rank != 0:
        raise ValueError("cross_entropy_grad expects a scalar upstream gradient")
    if logits.rank != 2 or labels.rank != 1 or logits.shape[0] != labels.shape[0]:
        raise ValueError("cross_entropy_grad expects logits [N, C] and labels [N]")
    return logits


_register_once(
    OpDef(
        "cross_entropy_grad",
        OpKind.CROSS_ENTROPY,
        _xent_grad_infer,
        lambda specs, out, attrs: 6.0 * out.numel,
        3,
    )
)


# ---------------------------------------------------------------------------
# embedding gradient: (dy, ids) -> dtable  [V, H]
# ---------------------------------------------------------------------------

def _embedding_grad_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("embedding_grad", specs, 2)
    dy, ids = specs
    vocab = int(attrs["vocab_size"])
    if dy.rank != ids.rank + 1:
        raise ValueError("embedding_grad expects dy of rank rank(ids)+1")
    return TensorSpec((vocab, dy.shape[-1]), dy.dtype)


_register_once(
    OpDef(
        "embedding_grad",
        OpKind.EMBEDDING_GRAD,
        _embedding_grad_infer,
        lambda specs, out, attrs: float(specs[0].numel),
        2,
    )
)


# ---------------------------------------------------------------------------
# conv2d gradients
# ---------------------------------------------------------------------------

def _conv2d_grad_input_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("conv2d_grad_input", specs, 2)
    dy, _w = specs
    return TensorSpec(tuple(int(d) for d in attrs["input_shape"]), dy.dtype)


def _conv2d_grad_weight_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("conv2d_grad_weight", specs, 2)
    dy, _x = specs
    return TensorSpec(tuple(int(d) for d in attrs["weight_shape"]), dy.dtype)


def _conv_grad_flops(specs: Sequence[TensorSpec], out: TensorSpec, attrs: Attrs) -> float:
    # Same order of magnitude as the forward convolution.
    dy = specs[0]
    if "weight_shape" in attrs:
        w_shape = tuple(int(d) for d in attrs["weight_shape"])
    else:
        w_shape = specs[1].shape
    k = w_shape[1] * w_shape[2] * w_shape[3]
    return 2.0 * dy.numel * k


_register_once(
    OpDef("conv2d_grad_input", OpKind.CONV_GRAD_INPUT, _conv2d_grad_input_infer, _conv_grad_flops, 2)
)
_register_once(
    OpDef("conv2d_grad_weight", OpKind.CONV_GRAD_WEIGHT, _conv2d_grad_weight_infer, _conv_grad_flops, 2)
)


# ---------------------------------------------------------------------------
# pooling gradients
# ---------------------------------------------------------------------------

def _pool_grad_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("pool grad", specs, 2)
    _dy, x = specs
    return x


_register_once(OpDef("maxpool2d_grad", OpKind.POOL, _pool_grad_infer, _elementwise_flops(4.0), 2))
_register_once(OpDef("avgpool2d_grad", OpKind.POOL, _pool_grad_infer, _elementwise_flops(2.0), 2))


# ---------------------------------------------------------------------------
# MoE gradients (straight-through routing: gates treated as constants)
# ---------------------------------------------------------------------------

def _moe_dispatch_grad_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("moe_dispatch_grad", specs, 2)
    dy, gates = specs
    if dy.rank != 3 or gates.rank != 2:
        raise ValueError("moe_dispatch_grad expects dy [E, C, H] and gates [N, E]")
    return TensorSpec((gates.shape[0], dy.shape[2]), dy.dtype)


_register_once(
    OpDef(
        "moe_dispatch_grad",
        OpKind.MOE_COMBINE,  # same data movement pattern as combine
        _moe_dispatch_grad_infer,
        lambda specs, out, attrs: float(out.numel),
        2,
    )
)


def _moe_combine_grad_infer(specs: Sequence[TensorSpec], attrs: Attrs) -> TensorSpec:
    _check_arity("moe_combine_grad", specs, 2)
    dy, gates = specs
    if dy.rank != 2 or gates.rank != 2 or dy.shape[0] != gates.shape[0]:
        raise ValueError("moe_combine_grad expects dy [N, H] and gates [N, E]")
    capacity = int(attrs["capacity"])
    return TensorSpec((gates.shape[1], capacity, dy.shape[1]), dy.dtype)


_register_once(
    OpDef(
        "moe_combine_grad",
        OpKind.MOE_DISPATCH,  # same data movement pattern as dispatch
        _moe_combine_grad_infer,
        lambda specs, out, attrs: float(out.numel),
        2,
    )
)
