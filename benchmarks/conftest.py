"""Shared configuration of the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  By default the
sweeps are CI-sized (fewer layers, fewer GPU counts) so the whole suite runs
in minutes; set ``REPRO_BENCH_FULL=1`` to run the paper-scale sweeps, and
``REPRO_BENCH_OUTPUT_DIR`` to change where the regenerated tables are written.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.core import SynthesisConfig
from repro.experiments import format_rows
from repro.models import BenchmarkScale

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
OUTPUT_DIR = Path(os.environ.get("REPRO_BENCH_OUTPUT_DIR", Path(__file__).parent / "results"))


def bench_scale() -> BenchmarkScale:
    """Model scale used by the benchmarks (paper scale when FULL)."""
    if FULL:
        return BenchmarkScale.paper()
    # batch_per_device=None keeps every model's paper per-GPU batch (now that
    # build_model honours the scale's batch, an explicit 64 would double
    # BERT-MoE's batch relative to the paper).
    return BenchmarkScale("bench", layer_fraction=0.17)


def bench_planner(beam: int = 8) -> SynthesisConfig:
    """HAP planner configuration used by the benchmarks."""
    return SynthesisConfig(beam_width=32 if FULL else beam)


def gpu_counts_hetero() -> tuple:
    return (8, 16, 32, 64) if FULL else (8, 32)


def gpu_counts_homog() -> tuple:
    return (8, 16, 24, 32) if FULL else (8, 24)


def bench_models() -> tuple:
    return ("vgg19", "vit", "bert_base", "bert_moe")


def emit(request, rows, title: str) -> None:
    """Print a regenerated table and persist it under benchmarks/results/."""
    text = format_rows(rows, title=title)
    print("\n" + text)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    name = request.node.name.replace("/", "_").replace("[", "_").replace("]", "")
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture
def record_rows(request):
    """Fixture returning a callable that records regenerated rows."""

    def _record(rows, title):
        emit(request, rows, title)
        return rows

    return _record
