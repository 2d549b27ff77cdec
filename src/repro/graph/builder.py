"""Convenience builder for single-device computation graphs.

The :class:`GraphBuilder` offers a small, PyTorch-module-like surface for the
model zoo: ``linear``, ``layernorm``, ``attention`` blocks and so on are
expanded into primitive registry operators with automatically generated node
names.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from .graph import ComputationGraph
from .tensor import DType, TensorSpec


class GraphBuilder:
    """Incrementally constructs a :class:`ComputationGraph`.

    All helper methods return the *name* of the node they create, so results
    can be threaded directly into further calls.
    """

    def __init__(self, name: str = "model") -> None:
        self.graph = ComputationGraph(name)
        self._counters: Dict[str, int] = {}

    # -- naming ---------------------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        idx = self._counters.get(prefix, 0)
        self._counters[prefix] = idx + 1
        return f"{prefix}_{idx}"

    def _add(self, prefix: str, op: str, inputs: Sequence[str] = (), **attrs) -> str:
        name = self._fresh(prefix)
        self.graph.add_node(name, op, inputs, attrs)
        return name

    # -- sources ---------------------------------------------------------------
    def placeholder(self, shape: Sequence[int], dtype: DType = DType.FLOAT32, name: Optional[str] = None) -> str:
        """Model input (data) tensor."""
        node_name = name or self._fresh("input")
        self.graph.add_node(node_name, "placeholder", (), {"shape": tuple(shape), "dtype": dtype})
        return node_name

    def parameter(self, shape: Sequence[int], name: Optional[str] = None) -> str:
        """Trainable parameter tensor."""
        node_name = name or self._fresh("param")
        self.graph.add_node(node_name, "parameter", (), {"shape": tuple(shape)})
        return node_name

    # -- primitive wrappers -----------------------------------------------------
    def matmul(self, a: str, b: str) -> str:
        return self._add("matmul", "matmul", (a, b))

    def add(self, a: str, b: str) -> str:
        return self._add("add", "add", (a, b))

    def mul(self, a: str, b: str) -> str:
        return self._add("mul", "mul", (a, b))

    def bias_add(self, x: str, bias: str) -> str:
        return self._add("bias", "bias_add", (x, bias))

    def relu(self, x: str) -> str:
        return self._add("relu", "relu", (x,))

    def gelu(self, x: str) -> str:
        return self._add("gelu", "gelu", (x,))

    def dropout(self, x: str) -> str:
        return self._add("dropout", "dropout", (x,))

    def scale(self, x: str, factor: float) -> str:
        return self._add("scale", "scale", (x,), factor=factor)

    def softmax(self, x: str, axis: int = -1) -> str:
        return self._add("softmax", "softmax", (x,), axis=axis)

    def layernorm(self, x: str, axis: int = -1) -> str:
        return self._add("layernorm", "layernorm", (x,), axis=axis)

    def reshape(self, x: str, shape: Sequence[int]) -> str:
        return self._add("reshape", "reshape", (x,), shape=tuple(shape))

    def transpose(self, x: str, perm: Sequence[int]) -> str:
        return self._add("transpose", "transpose", (x,), perm=tuple(perm))

    def flatten(self, x: str) -> str:
        return self._add("flatten", "flatten", (x,))

    def reduce_sum(self, x: str) -> str:
        return self._add("sum", "reduce_sum", (x,))

    def reduce_mean(self, x: str) -> str:
        return self._add("mean", "reduce_mean", (x,))

    def embedding(self, ids: str, table: str) -> str:
        return self._add("embed", "embedding", (ids, table))

    def conv2d(self, x: str, weight: str, stride: int = 1, padding: int = 0) -> str:
        return self._add("conv", "conv2d", (x, weight), stride=stride, padding=padding)

    def maxpool2d(self, x: str, kernel: int = 2, stride: Optional[int] = None) -> str:
        return self._add("maxpool", "maxpool2d", (x,), kernel=kernel, stride=stride or kernel)

    def avgpool2d(self, x: str, kernel: int = 2, stride: Optional[int] = None) -> str:
        return self._add("avgpool", "avgpool2d", (x,), kernel=kernel, stride=stride or kernel)

    def cross_entropy(self, logits: str, labels: str) -> str:
        return self._add("xent", "cross_entropy", (logits, labels))

    def moe_dispatch(self, tokens: str, gates: str, capacity_factor: float = 1.25) -> str:
        return self._add("dispatch", "moe_dispatch", (tokens, gates), capacity_factor=capacity_factor)

    def moe_combine(self, expert_out: str, gates: str, capacity_factor: float = 1.25) -> str:
        return self._add(
            "combine", "moe_combine", (expert_out, gates), capacity_factor=capacity_factor
        )

    # -- composite layers --------------------------------------------------------
    def spec(self, name: str) -> TensorSpec:
        """Output spec of an existing node."""
        return self.graph[name].spec

    def linear(self, x: str, out_features: int, bias: bool = True, prefix: str = "linear") -> str:
        """Fully-connected layer ``y = x @ W (+ b)`` along the last dimension.

        Inputs of rank 3 ``[B, S, H]`` are multiplied by a ``[H, F]`` weight.
        """
        in_features = self.spec(x).shape[-1]
        weight = self.parameter((in_features, out_features), name=self._fresh(f"{prefix}_w"))
        out = self.matmul(x, weight)
        if bias:
            b = self.parameter((out_features,), name=self._fresh(f"{prefix}_b"))
            out = self.bias_add(out, b)
        return out

    def mlp(self, x: str, hidden: int, out_features: Optional[int] = None, activation: str = "gelu") -> str:
        """Two-layer feed-forward block used by Transformer models."""
        out_features = out_features or self.spec(x).shape[-1]
        h = self.linear(x, hidden, prefix="ffn_in")
        h = self._add(activation, activation, (h,))
        return self.linear(h, out_features, prefix="ffn_out")

    def self_attention(self, x: str, num_heads: int, prefix: str = "attn") -> str:
        """Multi-head self-attention over a ``[B, S, H]`` input.

        Heads are folded into the batch dimension via reshape/transpose so the
        core computation is expressed with plain batched matmuls — the same
        decomposition Megatron-style SPMD sharding operates on.
        """
        b, s, h = self.spec(x).shape
        if h % num_heads:
            raise ValueError(f"hidden size {h} not divisible by {num_heads} heads")
        head_dim = h // num_heads

        q = self.linear(x, h, prefix=f"{prefix}_q")
        k = self.linear(x, h, prefix=f"{prefix}_k")
        v = self.linear(x, h, prefix=f"{prefix}_v")

        def split_heads(t: str) -> str:
            t = self.reshape(t, (b, s, num_heads, head_dim))
            t = self.transpose(t, (0, 2, 1, 3))
            return self.reshape(t, (b * num_heads, s, head_dim))

        qh, kh, vh = split_heads(q), split_heads(k), split_heads(v)
        kt = self.transpose(kh, (0, 2, 1))
        scores = self.matmul(qh, kt)
        scores = self.scale(scores, 1.0 / math.sqrt(head_dim))
        probs = self.softmax(scores, axis=-1)
        ctx = self.matmul(probs, vh)
        ctx = self.reshape(ctx, (b, num_heads, s, head_dim))
        ctx = self.transpose(ctx, (0, 2, 1, 3))
        ctx = self.reshape(ctx, (b, s, h))
        return self.linear(ctx, h, prefix=f"{prefix}_proj")

    def transformer_layer(self, x: str, num_heads: int, ffn_hidden: int, prefix: str = "layer") -> str:
        """Pre-norm Transformer encoder layer (attention + MLP, residuals)."""
        normed = self.layernorm(x)
        attn = self.self_attention(normed, num_heads, prefix=f"{prefix}_attn")
        x = self.add(x, attn)
        normed = self.layernorm(x)
        ffn = self.mlp(normed, ffn_hidden)
        return self.add(x, ffn)

    def moe_layer(
        self,
        x: str,
        num_experts: int,
        ffn_hidden: int,
        capacity_factor: float = 1.25,
        prefix: str = "moe",
    ) -> str:
        """GShard-style MoE feed-forward layer over a ``[B, S, H]`` input.

        Tokens are flattened to ``[B*S, H]``, routed top-1 to experts whose
        weights are stored as ``[E, H, F]`` / ``[E, F, H]`` grouped matrices,
        and combined back.
        """
        b, s, h = self.spec(x).shape
        tokens = self.reshape(x, (b * s, h))
        gate_w = self.parameter((h, num_experts), name=self._fresh(f"{prefix}_gate_w"))
        gates = self.matmul(tokens, gate_w)
        dispatched = self.moe_dispatch(tokens, gates, capacity_factor=capacity_factor)
        w_in = self.parameter((num_experts, h, ffn_hidden), name=self._fresh(f"{prefix}_w_in"))
        w_out = self.parameter((num_experts, ffn_hidden, h), name=self._fresh(f"{prefix}_w_out"))
        hidden = self.matmul(dispatched, w_in)
        hidden = self._add("gelu", "gelu", (hidden,))
        expert_out = self.matmul(hidden, w_out)
        combined = self.moe_combine(expert_out, gates, capacity_factor=capacity_factor)
        out = self.reshape(combined, (b, s, h))
        return self.add(x, out)

    # -- outputs ---------------------------------------------------------------
    def output(self, name: str) -> None:
        """Mark a node as a graph output."""
        self.graph.mark_output(name)

    def loss(self, name: str) -> None:
        """Mark the scalar loss node."""
        self.graph.mark_loss(name)

    def build(self) -> ComputationGraph:
        """Validate and return the constructed graph."""
        self.graph.validate()
        return self.graph
