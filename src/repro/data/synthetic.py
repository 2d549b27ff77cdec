"""Synthetic input batches.

The paper trains on CIFAR-10 (image classification) and WikiText-2 (language
modelling).  Training *time* experiments only depend on tensor shapes, not on
the pixel or token values, so this reproduction generates random batches
shaped like a graph's placeholders, with labels and token ids bounded by the
graph's classifier and vocabulary widths.  Batches are deterministic given
their seed, which keeps the SPMD-equivalence tests and the examples
reproducible.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graph.graph import ComputationGraph
from ..graph.tensor import DType


def batches_for_graph(
    graph: ComputationGraph, seed: int = 0, num_classes: Optional[int] = None
) -> Dict[str, np.ndarray]:
    """Generate one batch whose shapes match a graph's placeholders.

    Works for both image-style and token-style models by inspecting the
    placeholder dtypes; integer placeholders named like labels receive values
    bounded by ``num_classes`` (or by the classifier width when it can be
    inferred from the graph).
    """
    rng = np.random.default_rng(seed)
    batch: Dict[str, np.ndarray] = {}
    inferred_classes = num_classes or _infer_num_classes(graph)
    for node in graph.placeholders():
        spec = node.spec
        if spec.dtype in (DType.INT64, DType.INT32):
            if "label" in node.name:
                high = inferred_classes
            else:
                high = _infer_vocab(graph) or inferred_classes
            batch[node.name] = rng.integers(0, max(high, 2), size=spec.shape).astype(
                spec.dtype.numpy_name
            )
        else:
            batch[node.name] = rng.normal(0.0, 1.0, size=spec.shape).astype(np.float32)
    return batch


def _infer_num_classes(graph: ComputationGraph) -> int:
    """Number of classes implied by the cross-entropy logits, if any."""
    for node in graph:
        if node.op == "cross_entropy":
            logits = graph[node.inputs[0]]
            return logits.spec.shape[-1]
    return 10


def _infer_vocab(graph: ComputationGraph) -> Optional[int]:
    """Vocabulary size implied by an embedding table, if any."""
    for node in graph:
        if node.op == "embedding":
            table = graph[node.inputs[1]]
            return table.spec.shape[0]
    return None
