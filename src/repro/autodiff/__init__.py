"""Reverse-mode autodiff over the single-device IR."""

from .backward import (
    GRAD_SEED_SUFFIX,
    TrainingGraphInfo,
    build_stage_training_graph,
    build_training_graph,
)

__all__ = [
    "build_training_graph",
    "build_stage_training_graph",
    "TrainingGraphInfo",
    "GRAD_SEED_SUFFIX",
]
