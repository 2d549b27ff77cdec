"""Synthetic input batches standing in for CIFAR-10 and WikiText-2."""

from .synthetic import batches_for_graph

__all__ = ["batches_for_graph"]
