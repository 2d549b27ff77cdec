"""Shared helpers for the benchmark model zoo.

All models follow two conventions required by the SPMD runtime:

* every data placeholder carries the *batch* dimension as dimension 0 with the
  same size, so that sharding the batch produces consistent local shapes
  across placeholders (inputs and labels);
* the training loss is the *sum* of per-sample cross-entropy terms, so that
  partial losses computed under data parallelism All-Reduce to the
  single-device value exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.builder import GraphBuilder
from ..graph.graph import ComputationGraph
from ..graph.tensor import DType


def classification_head(
    b: GraphBuilder, features: str, num_classes: int, batch: int, label_name: str = "labels"
) -> str:
    """Linear classifier + summed cross-entropy loss over ``[batch, F]`` features."""
    logits = b.linear(features, num_classes, prefix="classifier")
    labels = b.placeholder((batch,), dtype=DType.INT64, name=label_name)
    return b.cross_entropy(logits, labels)


def language_model_head(
    b: GraphBuilder,
    hidden_states: str,
    vocab_size: int,
    batch: int,
    seq_len: int,
    label_name: str = "labels",
) -> str:
    """Token-level LM head: project to the vocabulary and sum token losses.

    Labels are provided as a ``[batch, seq]`` placeholder (batch dimension
    first) and flattened inside the graph, keeping every placeholder sharded
    consistently along the batch dimension.
    """
    hidden = b.spec(hidden_states).shape[-1]
    flat = b.reshape(hidden_states, (batch * seq_len, hidden))
    logits = b.linear(flat, vocab_size, prefix="lm_head")
    labels2d = b.placeholder((batch, seq_len), dtype=DType.INT64, name=label_name)
    labels = b.reshape(labels2d, (batch * seq_len,))
    return b.cross_entropy(logits, labels)


def finalize(b: GraphBuilder, loss: str) -> ComputationGraph:
    """Mark the loss and validate the forward graph."""
    b.loss(loss)
    return b.build()


@dataclass(frozen=True)
class ModelInfo:
    """Summary of a built model, used by the Table 1 benchmark."""

    name: str
    task: str
    parameters: int
    nodes: int
    flops_per_iteration: float

    @property
    def parameters_millions(self) -> float:
        return self.parameters / 1e6


def model_info(graph: ComputationGraph, task: str) -> ModelInfo:
    """Collect the Table 1 statistics of a forward graph."""
    return ModelInfo(
        name=graph.name,
        task=task,
        parameters=graph.parameter_count(),
        nodes=len(graph),
        flops_per_iteration=graph.total_flops(),
    )
