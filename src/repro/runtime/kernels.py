"""Numpy reference kernels of the tensor IR's operators.

:data:`KERNELS` maps every operator name the IR registers
(:func:`repro.graph.ops.registered_ops`, forward and backward) to its kernel
``(inputs, attrs) -> np.ndarray``.  The single-device executor
(:mod:`repro.runtime.single`) and the SPMD runtime (:mod:`repro.runtime.spmd`)
run every computation through this table.  The IR itself carries only shape
inference, flop estimates and sharding kinds, so planning imports no numpy.

Backward kernels treat MoE routing as straight-through: the gates are
constants of the dispatch and combine gradients.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, NoReturn, Sequence

import numpy as np

from ..graph.ops import Attrs, conv_out_hw, moe_capacity

Kernel = Callable[[Sequence[np.ndarray], Attrs], np.ndarray]


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

def _source(_inputs: Sequence[np.ndarray], _attrs: Attrs) -> NoReturn:
    raise RuntimeError(
        "source operators are bound to external data by the runtime; "
        "they cannot be executed directly"
    )


# ---------------------------------------------------------------------------
# elementwise ops and their gradients
# ---------------------------------------------------------------------------

def _unary(fn: Callable[[np.ndarray], np.ndarray]) -> Kernel:
    return lambda inputs, attrs: fn(inputs[0])


def _binary(fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Kernel:
    return lambda inputs, attrs: fn(inputs[0], inputs[1])


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))


def _gelu_grad(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x ** 3))
    dt = (1.0 - t ** 2) * c * (1.0 + 3 * 0.044715 * x ** 2)
    return dy * (0.5 * (1.0 + t) + 0.5 * x * dt)


def _scale(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    return inputs[0] * float(attrs.get("factor", 1.0))


def _broadcast_to(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    shape = tuple(int(d) for d in attrs["shape"])
    return np.broadcast_to(inputs[0], shape).astype(inputs[0].dtype, copy=True)


def _sum_leading(inputs: Sequence[np.ndarray], _attrs: Attrs) -> np.ndarray:
    return np.sum(inputs[0].reshape(-1, inputs[0].shape[-1]), axis=0)


# ---------------------------------------------------------------------------
# softmax / layer-norm over one axis, and their gradients
# ---------------------------------------------------------------------------

def _softmax(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    axis = int(attrs.get("axis", -1))
    x = inputs[0]
    x = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(x)
    return e / np.sum(e, axis=axis, keepdims=True)


def _layernorm(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    axis = int(attrs.get("axis", -1))
    eps = float(attrs.get("eps", 1e-5))
    x = inputs[0]
    mean = np.mean(x, axis=axis, keepdims=True)
    var = np.var(x, axis=axis, keepdims=True)
    return (x - mean) / np.sqrt(var + eps)


def _softmax_grad(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    dy, y = inputs
    axis = int(attrs.get("axis", -1))
    dot = np.sum(dy * y, axis=axis, keepdims=True)
    return (dy - dot) * y


def _layernorm_grad(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    dy, x = inputs
    axis = int(attrs.get("axis", -1))
    eps = float(attrs.get("eps", 1e-5))
    mean = np.mean(x, axis=axis, keepdims=True)
    var = np.var(x, axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    dxhat = dy
    return inv * (
        dxhat
        - np.mean(dxhat, axis=axis, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=axis, keepdims=True)
    )


# ---------------------------------------------------------------------------
# embedding and cross-entropy, and their gradients
# ---------------------------------------------------------------------------

def _embedding(inputs: Sequence[np.ndarray], _attrs: Attrs) -> np.ndarray:
    return inputs[1][inputs[0].astype(np.int64)]


def _embedding_grad(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    dy, ids = inputs
    vocab = int(attrs["vocab_size"])
    hidden = dy.shape[-1]
    out = np.zeros((vocab, hidden), dtype=dy.dtype)
    np.add.at(out, ids.astype(np.int64).reshape(-1), dy.reshape(-1, hidden))
    return out


def _cross_entropy(inputs: Sequence[np.ndarray], _attrs: Attrs) -> np.ndarray:
    logits, labels = inputs
    labels = labels.astype(np.int64)
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=1))
    picked = shifted[np.arange(logits.shape[0]), labels]
    # Sum (not mean): keeps the loss additive across batch shards so that the
    # partial losses computed under data parallelism All-Reduce to the
    # single-device value exactly.
    return np.asarray(np.sum(logsumexp - picked))


def _cross_entropy_grad(inputs: Sequence[np.ndarray], _attrs: Attrs) -> np.ndarray:
    dy, logits, labels = inputs
    labels = labels.astype(np.int64)
    shifted = logits - np.max(logits, axis=1, keepdims=True)
    probs = np.exp(shifted) / np.sum(np.exp(shifted), axis=1, keepdims=True)
    probs[np.arange(logits.shape[0]), labels] -= 1.0
    return probs * dy


# ---------------------------------------------------------------------------
# conv2d / pooling, and their gradients
# ---------------------------------------------------------------------------

def im2col(x: np.ndarray, kernel: int, stride: int, padding: int) -> np.ndarray:
    """Unfold NCHW input into (N, OH*OW, C*K*K) patches."""
    n, c, h, w = x.shape
    oh, ow = conv_out_hw(h, w, kernel, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, oh * ow, c * kernel * kernel), dtype=x.dtype)
    idx = 0
    for i in range(oh):
        for j in range(ow):
            patch = xp[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            cols[:, idx, :] = patch.reshape(n, -1)
            idx += 1
    return cols


def col2im(
    cols: np.ndarray, x_shape: tuple, kernel: int, stride: int, padding: int
) -> np.ndarray:
    """Fold (N, OH*OW, C*K*K) patches back, accumulating overlaps (adjoint of im2col)."""
    n, c, h, w = x_shape
    oh, ow = conv_out_hw(h, w, kernel, stride, padding)
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    idx = 0
    for i in range(oh):
        for j in range(ow):
            patch = cols[:, idx, :].reshape(n, c, kernel, kernel)
            xp[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel] += patch
            idx += 1
    if padding:
        return xp[:, :, padding:-padding, padding:-padding]
    return xp


def _conv2d(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    x, w = inputs
    stride = int(attrs.get("stride", 1))
    padding = int(attrs.get("padding", 0))
    kernel = w.shape[2]
    n = x.shape[0]
    oh, ow = conv_out_hw(x.shape[2], x.shape[3], kernel, stride, padding)
    cols = im2col(x, kernel, stride, padding)  # (N, OH*OW, C*K*K)
    wmat = w.reshape(w.shape[0], -1)  # (O, C*K*K)
    out = np.matmul(cols, wmat.T)  # (N, OH*OW, O)
    return np.transpose(out, (0, 2, 1)).reshape(n, w.shape[0], oh, ow)


def _conv2d_grad_input(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    dy, w = inputs
    stride = int(attrs.get("stride", 1))
    padding = int(attrs.get("padding", 0))
    x_shape = tuple(int(d) for d in attrs["input_shape"])
    kernel = w.shape[2]
    n = dy.shape[0]
    # dcols = dy (N, O, OH, OW) -> (N, OH*OW, O) @ wmat (O, C*K*K)
    dy2 = np.transpose(dy, (0, 2, 3, 1)).reshape(n, -1, w.shape[0])
    wmat = w.reshape(w.shape[0], -1)
    dcols = np.matmul(dy2, wmat)
    return col2im(dcols, x_shape, kernel, stride, padding)


def _conv2d_grad_weight(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    dy, x = inputs
    stride = int(attrs.get("stride", 1))
    padding = int(attrs.get("padding", 0))
    w_shape = tuple(int(d) for d in attrs["weight_shape"])
    kernel = w_shape[2]
    n = dy.shape[0]
    cols = im2col(x, kernel, stride, padding)  # (N, OH*OW, C*K*K)
    dy2 = np.transpose(dy, (0, 2, 3, 1)).reshape(n, -1, w_shape[0])  # (N, OH*OW, O)
    # dW = sum_n dy2^T @ cols  -> (O, C*K*K)
    dw = np.einsum("npo,npk->ok", dy2, cols)
    return dw.reshape(w_shape)


def _pool(reducer: Callable[..., np.ndarray]) -> Kernel:
    def kernel_fn(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
        x = inputs[0]
        kernel = int(attrs.get("kernel", 2))
        stride = int(attrs.get("stride", kernel))
        n, c, h, w = x.shape
        oh, ow = conv_out_hw(h, w, kernel, stride, 0)
        out = np.empty((n, c, oh, ow), dtype=x.dtype)
        for i in range(oh):
            for j in range(ow):
                window = x[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
                out[:, :, i, j] = reducer(window, axis=(2, 3))
        return out

    return kernel_fn


def _maxpool_grad(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    dy, x = inputs
    kernel = int(attrs.get("kernel", 2))
    stride = int(attrs.get("stride", kernel))
    n, c, h, w = x.shape
    oh, ow = conv_out_hw(h, w, kernel, stride, 0)
    dx = np.zeros_like(x)
    for i in range(oh):
        for j in range(ow):
            window = x[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            flat = window.reshape(n, c, -1)
            arg = np.argmax(flat, axis=2)
            grad = np.zeros_like(flat)
            np.put_along_axis(grad, arg[:, :, None], dy[:, :, i, j][:, :, None], axis=2)
            dx[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel] += grad.reshape(window.shape)
    return dx


def _avgpool_grad(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    dy, x = inputs
    kernel = int(attrs.get("kernel", 2))
    stride = int(attrs.get("stride", kernel))
    n, c, h, w = x.shape
    oh, ow = conv_out_hw(h, w, kernel, stride, 0)
    dx = np.zeros_like(x)
    scale = 1.0 / (kernel * kernel)
    for i in range(oh):
        for j in range(ow):
            dx[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel] += (
                dy[:, :, i, j][:, :, None, None] * scale
            )
    return dx


# ---------------------------------------------------------------------------
# Mixture-of-Experts (GShard-style top-1 routing), and the gradients
# ---------------------------------------------------------------------------

def moe_routing(gates: np.ndarray, capacity: int) -> np.ndarray:
    """Top-1 routing table.

    Returns an int array ``route`` of shape (N, 2): the expert index and the
    slot within the expert's capacity buffer, both ``-1`` for a dropped
    token.  Routing is deterministic given the gate values.
    """
    num_tokens, _num_experts = gates.shape
    choice = np.argmax(gates, axis=1)
    route = np.full((num_tokens, 2), -1, dtype=np.int64)
    counts: Dict[int, int] = {}
    for t in range(num_tokens):
        e = int(choice[t])
        slot = counts.get(e, 0)
        if slot < capacity:
            route[t, 0] = e
            route[t, 1] = slot
            counts[e] = slot + 1
    return route


def _gate_probs(gates: np.ndarray) -> np.ndarray:
    """Softmax of the gates over the experts."""
    shifted = gates - np.max(gates, axis=1, keepdims=True)
    return np.exp(shifted) / np.sum(np.exp(shifted), axis=1, keepdims=True)


def _moe_dispatch(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    tokens, gates = inputs
    num_experts = gates.shape[1]
    capacity = moe_capacity(tokens.shape[0], num_experts, float(attrs.get("capacity_factor", 1.25)))
    route = moe_routing(gates, capacity)
    out = np.zeros((num_experts, capacity, tokens.shape[1]), dtype=tokens.dtype)
    for t in range(tokens.shape[0]):
        e, slot = route[t]
        if e >= 0:
            out[e, slot] = tokens[t]
    return out


def _moe_combine(inputs: Sequence[np.ndarray], _attrs: Attrs) -> np.ndarray:
    expert_out, gates = inputs
    capacity = expert_out.shape[1]
    route = moe_routing(gates, capacity)
    num_tokens = gates.shape[0]
    out = np.zeros((num_tokens, expert_out.shape[2]), dtype=expert_out.dtype)
    # Softmax-normalised gate weight of the selected expert.
    probs = _gate_probs(gates)
    for t in range(num_tokens):
        e, slot = route[t]
        if e >= 0:
            out[t] = expert_out[e, slot] * probs[t, e]
    return out


def _moe_dispatch_grad(inputs: Sequence[np.ndarray], _attrs: Attrs) -> np.ndarray:
    dy, gates = inputs
    capacity = dy.shape[1]
    route = moe_routing(gates, capacity)
    out = np.zeros((gates.shape[0], dy.shape[2]), dtype=dy.dtype)
    for t in range(gates.shape[0]):
        e, slot = route[t]
        if e >= 0:
            out[t] = dy[e, slot]
    return out


def _moe_combine_grad(inputs: Sequence[np.ndarray], attrs: Attrs) -> np.ndarray:
    dy, gates = inputs
    capacity = int(attrs["capacity"])
    route = moe_routing(gates, capacity)
    probs = _gate_probs(gates)
    out = np.zeros((gates.shape[1], capacity, dy.shape[1]), dtype=dy.dtype)
    for t in range(gates.shape[0]):
        e, slot = route[t]
        if e >= 0:
            out[e, slot] = dy[t] * probs[t, e]
    return out


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

KERNELS: Dict[str, Kernel] = {
    # sources
    "placeholder": _source,
    "parameter": _source,
    "constant": _source,
    # elementwise
    "identity": _unary(lambda x: x),
    "relu": _unary(lambda x: np.maximum(x, 0.0)),
    "gelu": _unary(_gelu),
    "sigmoid": _unary(lambda x: 1.0 / (1.0 + np.exp(-x))),
    "tanh": _unary(np.tanh),
    "neg": _unary(lambda x: -x),
    "square": _unary(lambda x: x * x),
    "dropout": _unary(lambda x: x),  # modelled as identity
    "add": _binary(lambda a, b: a + b),
    "sub": _binary(lambda a, b: a - b),
    "mul": _binary(lambda a, b: a * b),
    "div": _binary(lambda a, b: a / b),
    "maximum": _binary(np.maximum),
    "scale": _scale,
    "bias_add": _binary(lambda a, b: a + b),
    "relu_grad": _binary(lambda dy, x: dy * (x > 0.0).astype(dy.dtype)),
    "gelu_grad": _binary(_gelu_grad),
    "sigmoid_grad": _binary(
        lambda dy, x: dy * (1.0 / (1.0 + np.exp(-x))) * (1.0 - 1.0 / (1.0 + np.exp(-x)))
    ),
    "tanh_grad": _binary(lambda dy, x: dy * (1.0 - np.tanh(x) ** 2)),
    "square_grad": _binary(lambda dy, x: 2.0 * dy * x),
    "broadcast_to": _broadcast_to,
    "sum_leading": _sum_leading,
    # matmul, reductions, normalisation
    "matmul": _binary(np.matmul),
    "reduce_sum": _unary(lambda x: np.asarray(np.sum(x))),
    "reduce_mean": _unary(lambda x: np.asarray(np.mean(x))),
    "softmax": _softmax,
    "layernorm": _layernorm,
    "softmax_grad": _softmax_grad,
    "layernorm_grad": _layernorm_grad,
    # layout
    "reshape": lambda inputs, attrs: np.reshape(
        inputs[0], tuple(int(d) for d in attrs["shape"])
    ),
    "transpose": lambda inputs, attrs: np.transpose(
        inputs[0], tuple(int(p) for p in attrs["perm"])
    ),
    "flatten": lambda inputs, attrs: np.reshape(inputs[0], (inputs[0].shape[0], -1)),
    # embedding, loss
    "embedding": _embedding,
    "embedding_grad": _embedding_grad,
    "cross_entropy": _cross_entropy,
    "cross_entropy_grad": _cross_entropy_grad,
    # convolution, pooling
    "conv2d": _conv2d,
    "conv2d_grad_input": _conv2d_grad_input,
    "conv2d_grad_weight": _conv2d_grad_weight,
    "maxpool2d": _pool(np.max),
    "avgpool2d": _pool(np.mean),
    "maxpool2d_grad": _maxpool_grad,
    "avgpool2d_grad": _avgpool_grad,
    # Mixture-of-Experts
    "moe_dispatch": _moe_dispatch,
    "moe_combine": _moe_combine,
    "moe_dispatch_grad": _moe_dispatch_grad,
    "moe_combine_grad": _moe_combine_grad,
    # optimizer
    "sgd_update": lambda inputs, attrs: inputs[0] - float(attrs.get("lr", 0.01)) * inputs[1],
}
