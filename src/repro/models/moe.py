"""BERT-MoE: BERT with Mixture-of-Experts feed-forward layers.

Following the paper (Sec. 7.1), every second Transformer layer's feed-forward
block is replaced by a GShard-style MoE layer.  The number of experts scales
with the number of devices (weak scaling of the model), so Table 1 reports the
parameter count as ``84 + 36m`` million for ``m`` devices.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.builder import GraphBuilder
from ..graph.graph import ComputationGraph
from ..graph.tensor import DType
from .common import finalize, language_model_head


@dataclass(frozen=True)
class BERTMoEConfig:
    """Configuration of the BERT-MoE benchmark model.

    Attributes:
        batch_size: global batch size (the paper uses 32 per GPU for MoE).
        seq_len: sequence length.
        hidden_size: transformer width.
        num_layers: encoder layers; every second one uses an MoE FFN.
        num_heads: attention heads.
        mlp_ratio: FFN width multiplier (dense layers and each expert).
        vocab_size: vocabulary size.
        num_experts: total number of experts in each MoE layer (the paper
            scales this with the number of devices).
        capacity_factor: GShard capacity factor for top-1 routing.
    """

    batch_size: int = 32
    seq_len: int = 128
    hidden_size: int = 768
    num_layers: int = 12
    num_heads: int = 12
    mlp_ratio: int = 4
    vocab_size: int = 30522
    num_experts: int = 16
    capacity_factor: float = 1.25

def build_bert_moe(config: BERTMoEConfig = BERTMoEConfig(), name: str = "bert_moe") -> ComputationGraph:
    """Build the BERT-MoE forward graph with a summed token cross-entropy loss."""
    b = GraphBuilder(name)
    ids = b.placeholder((config.batch_size, config.seq_len), dtype=DType.INT64, name="input_ids")
    table = b.parameter((config.vocab_size, config.hidden_size), name="token_embeddings")
    x = b.embedding(ids, table)
    for i in range(config.num_layers):
        if i % 2 == 1:
            # MoE layer: attention block followed by an MoE feed-forward.
            normed = b.layernorm(x)
            attn = b.self_attention(normed, config.num_heads, prefix=f"layer{i}_attn")
            x = b.add(x, attn)
            x = b.moe_layer(
                x,
                num_experts=config.num_experts,
                ffn_hidden=config.hidden_size * config.mlp_ratio,
                capacity_factor=config.capacity_factor,
                prefix=f"layer{i}_moe",
            )
        else:
            x = b.transformer_layer(
                x,
                num_heads=config.num_heads,
                ffn_hidden=config.hidden_size * config.mlp_ratio,
                prefix=f"layer{i}",
            )
    x = b.layernorm(x)
    loss = language_model_head(b, x, config.vocab_size, config.batch_size, config.seq_len)
    return finalize(b, loss)


def tiny_bert_moe(
    batch_size: int = 8,
    seq_len: int = 8,
    hidden_size: int = 32,
    num_layers: int = 2,
    num_experts: int = 4,
    vocab_size: int = 64,
) -> ComputationGraph:
    """Scaled-down BERT-MoE used by unit tests."""
    config = BERTMoEConfig(
        batch_size=batch_size,
        seq_len=seq_len,
        hidden_size=hidden_size,
        num_layers=num_layers,
        num_heads=4,
        mlp_ratio=2,
        vocab_size=vocab_size,
        num_experts=num_experts,
        capacity_factor=2.0,
    )
    return build_bert_moe(config, name="bert_moe_tiny")
