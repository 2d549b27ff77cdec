"""BERT-Base style language model.

Token embeddings, a stack of Transformer encoder layers, and a vocabulary
prediction head with a summed token-level cross-entropy loss (masked-LM
training shape).  Table 1 lists 102 M parameters for BERT-Base; the exact
count depends on the vocabulary and whether the LM head is tied.  Ours is
untied, and ``repro.experiments.table1_models`` reports the count next to
the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.builder import GraphBuilder
from ..graph.graph import ComputationGraph
from ..graph.tensor import DType
from .common import finalize, language_model_head


@dataclass(frozen=True)
class BERTConfig:
    """Configuration of the BERT-Base benchmark model.

    Attributes:
        batch_size: global batch size.
        seq_len: sequence length (the paper uses WikiText-2 with 128 tokens).
        hidden_size: transformer width (768 for BERT-Base).
        num_layers: encoder layers (12 for BERT-Base).
        num_heads: attention heads (12 for BERT-Base).
        mlp_ratio: FFN width multiplier (4 for BERT-Base).
        vocab_size: vocabulary size.
    """

    batch_size: int = 64
    seq_len: int = 128
    hidden_size: int = 768
    num_layers: int = 12
    num_heads: int = 12
    mlp_ratio: int = 4
    vocab_size: int = 30522


def build_bert(config: BERTConfig = BERTConfig(), name: str = "bert_base") -> ComputationGraph:
    """Build the BERT forward graph with a summed token cross-entropy loss."""
    b = GraphBuilder(name)
    ids = b.placeholder((config.batch_size, config.seq_len), dtype=DType.INT64, name="input_ids")
    table = b.parameter((config.vocab_size, config.hidden_size), name="token_embeddings")
    x = b.embedding(ids, table)
    # The learned positional term is folded into the first layer norm's
    # affine parameters, so no position-embedding compute (or parameter)
    # appears in the IR.
    flat = b.reshape(x, (config.batch_size * config.seq_len, config.hidden_size))
    x = b.reshape(flat, (config.batch_size, config.seq_len, config.hidden_size))
    for i in range(config.num_layers):
        x = b.transformer_layer(
            x,
            num_heads=config.num_heads,
            ffn_hidden=config.hidden_size * config.mlp_ratio,
            prefix=f"layer{i}",
        )
    x = b.layernorm(x)
    loss = language_model_head(b, x, config.vocab_size, config.batch_size, config.seq_len)
    return finalize(b, loss)


def tiny_bert(
    batch_size: int = 8,
    seq_len: int = 8,
    hidden_size: int = 32,
    num_layers: int = 1,
    vocab_size: int = 64,
) -> ComputationGraph:
    """Scaled-down BERT used by unit tests."""
    config = BERTConfig(
        batch_size=batch_size,
        seq_len=seq_len,
        hidden_size=hidden_size,
        num_layers=num_layers,
        num_heads=4,
        mlp_ratio=2,
        vocab_size=vocab_size,
    )
    return build_bert(config, name="bert_tiny")
