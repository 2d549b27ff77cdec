"""One per-device memory model judges every plan.

:func:`repro.core.hierarchical.device_peak_memory` is the only memory
formula: pipeline stages, the planner's schedule search, a plan's derived
``fits_memory`` verdict and the experiment harness's flat out-of-memory flag
all read it.  A flat plan is the one-stage pipeline, so its verdict is the
one-stage candidate's.
"""

import ast
from pathlib import Path

import pytest

from repro.cluster import ClusterSpec
from repro.core import HierarchicalConfig, HierarchicalPlanner, SynthesisConfig
from repro.core.hierarchical import memory_verdict
from repro.experiments.harness import flat_peak_memory, out_of_memory
from repro.hap import hap

from .conftest import build_tiny_transformer, make_cluster

REPO_ROOT = Path(__file__).resolve().parents[1]


def reserved(cluster, fraction):
    """``cluster`` with ``fraction`` of every device's memory withheld."""
    return ClusterSpec(
        cluster.machines,
        network=cluster.network,
        group_by_machine=cluster.group_by_machine,
        name=cluster.name,
        memory_reserve_fraction=fraction,
        comm_overlap_efficiency=cluster.comm_overlap_efficiency,
    )


def small_config():
    return SynthesisConfig(beam_width=8)


def flat_and_one_stage(forward, cluster):
    config = small_config()
    flat = hap(forward, cluster, config)
    one = HierarchicalPlanner(forward, cluster, HierarchicalConfig(synthesis=config))
    return flat, one.build_candidate(1)


def test_flat_plan_verdict_is_the_one_stage_verdict():
    forward = build_tiny_transformer()
    base = make_cluster(("A100", "P100", "A100", "P100"))
    flat, one = flat_and_one_stage(forward, base)
    stage = one.stages[0]
    peaks = flat_peak_memory(flat, forward)
    assert peaks == stage.peak_device_memory(one.schedule.peak_stash[0])
    # Reserve memory so the worst device's capacity sits just above its
    # peak, then just below it: both verdicts flip together.
    headroom = max(peak / cap for peak, cap in zip(peaks, base.device_memory()))
    for scale, fits in ((1.001, True), (0.999, False)):
        cluster = reserved(base, 1.0 - headroom * scale)
        flat, one = flat_and_one_stage(forward, cluster)
        stage = one.stages[0]
        assert flat_peak_memory(flat, forward) == peaks
        assert stage.peak_device_memory(one.schedule.peak_stash[0]) == peaks
        assert one.fits_memory is fits
        assert out_of_memory(flat, forward, cluster) is not fits


@pytest.mark.parametrize("reserve,fits", [(0.0, True), (0.999999, False)])
def test_fits_memory_is_the_memory_verdict_of_every_candidate(reserve, fits):
    # A plan stores no verdict: on a fitting cluster and on a memory-starved
    # one alike, every candidate's ``fits_memory`` is its stages judged
    # under its own schedule's stash peaks.
    cluster = reserved(make_cluster(), reserve)
    config = HierarchicalConfig(synthesis=small_config())
    planner = HierarchicalPlanner(build_tiny_transformer(), cluster, config)
    candidates = [planner.build_candidate(s) for s in planner._candidates()]
    candidates = [c for c in candidates if c is not None]
    assert {c.num_stages for c in candidates} >= {1, 2}
    for candidate in candidates:
        verdict = memory_verdict(candidate.stages, candidate.schedule.peak_stash)[0]
        assert candidate.fits_memory is verdict is fits


def test_memory_verdict_rejects_a_stash_list_of_another_length():
    # One stash peak per stage: a short list would leave the last stage
    # unjudged, and a long one belongs to some other plan.
    config = HierarchicalConfig(synthesis=small_config())
    two = HierarchicalPlanner(build_tiny_transformer(), make_cluster(), config).build_candidate(2)
    stash = two.schedule.peak_stash
    assert len(stash) == 2
    for peaks in (stash[:1], stash + stash[:1], []):
        with pytest.raises(ValueError, match=f"^{len(peaks)} stash peaks for 2 stages$"):
            memory_verdict(two.stages, peaks)


class _FactorReads(ast.NodeVisitor):
    """Every read of ``OPTIMIZER_STATE_FACTOR``, with its enclosing function."""

    NAME = "OPTIMIZER_STATE_FACTOR"

    def __init__(self, module):
        self.module = module
        self.functions = []
        self.reads = set()  # (module, enclosing function or None)

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def _read(self):
        self.reads.add((self.module, self.functions[-1] if self.functions else None))

    def visit_Name(self, node):
        if node.id == self.NAME and isinstance(node.ctx, ast.Load):
            self._read()

    def visit_Attribute(self, node):
        if node.attr == self.NAME:
            self._read()
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if any(alias.name == self.NAME for alias in node.names):
            self._read()


def test_optimizer_state_factor_is_read_only_by_the_memory_model():
    reads = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            visitor = _FactorReads(path.relative_to(REPO_ROOT).as_posix())
            visitor.visit(ast.parse(path.read_text(), filename=str(path)))
            reads |= visitor.reads
    assert reads == {("src/repro/core/hierarchical.py", "device_peak_memory")}
