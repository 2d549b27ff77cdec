"""The stage-split rule of the hierarchical planner against exhaustive search.

``HierarchicalPlanner._candidate_partition`` sizes each stage count's
contiguous machine groups to the cut's stage flops without synthesizing
anything.  On the end-to-end benchmark's two pipeline problems
(``benchmarks/e2e``) its split must be the one exhaustive search picks: plan
every contiguous split whose cut the planner can build (no piece short of
blocks or flops), rank memory-feasible candidates first, then by estimated
iteration time.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from typing import Tuple

import pytest

from benchmarks.e2e import workloads
from repro.core import HierarchicalConfig, HierarchicalPlanner, hierarchical
from repro.core.hierarchical import _compute_ratios
from repro.graph import pipeline_cut

WORKLOADS = ("hetero-pipeline", "moe-memory")


def _planner(workload: str) -> HierarchicalPlanner:
    """A planner configured the way the benchmark plans ``workload``."""
    cluster = workloads.build_cluster(workload)
    forward = workloads.build_forward(workload, cluster.num_gpus, prefix="")
    intra = workloads.HETERO_INTRA_GROUP if workload in workloads.HETERO else None
    return HierarchicalPlanner(forward, cluster, HierarchicalConfig(intra_group_network=intra))


def _boundaries(groups) -> Tuple[int, ...]:
    return tuple(accumulate(len(group.machines) for group in groups))


def _exhaustive_best(
    planner: HierarchicalPlanner, num_stages: int, monkeypatch
) -> Tuple[Tuple[int, ...], ...]:
    """Boundaries of the best buildable split of ``num_stages`` (empty when none)."""
    cluster = planner.cluster
    n = len(cluster.machines)
    ranked = []
    for ends in combinations(range(1, n), num_stages - 1):
        boundaries = (*ends, n)
        groups = cluster.split(boundaries, planner.config.intra_group_network)
        cut = pipeline_cut(planner.forward, _compute_ratios(groups))
        if cut.num_stages < num_stages or min(cut.stage_flops) == 0:
            continue  # the planner cannot build this split
        monkeypatch.setattr(planner, "_candidate_partition", lambda s, p=(groups, cut): p)
        candidate = planner.build_candidate(num_stages)
        monkeypatch.undo()
        assert candidate is not None
        ranked.append(((not candidate.fits_memory, candidate.estimated_time), boundaries))
    ranked.sort()
    return tuple(b for key, b in ranked if key == ranked[0][0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_split_rule_matches_exhaustive_search(workload, monkeypatch):
    planner = _planner(workload)
    for num_stages in range(2, 5):
        best = _exhaustive_best(planner, num_stages, monkeypatch)
        rule = planner._candidate_partition(num_stages)
        if not best:
            assert rule is None
            assert planner.build_candidate(num_stages) is None
            continue
        groups, _ = rule
        assert _boundaries(groups) == best[0], (num_stages, best)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_candidate_has_a_zero_flop_stage(workload, monkeypatch):
    planner = _planner(workload)
    built = []
    build_stages = planner._build_stages

    def recording(groups, cut):
        built.append(cut)
        return build_stages(groups, cut)

    monkeypatch.setattr(planner, "_build_stages", recording)
    plan = planner.plan()
    assert built
    for cut in built:
        assert min(cut.stage_flops) > 0, cut.stage_flops
    # Four stages on four machines leave one machine a stage with no flops.
    assert 4 not in plan.candidate_times


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_split_is_cut_once(workload, monkeypatch):
    """One ``plan()`` call cuts each (stage count, compute ratios) pair at
    most once: the chosen split's cut is the one the split search made."""
    planner = _planner(workload)
    cuts = []

    def recording(graph, stage_weights):
        cuts.append((len(stage_weights), tuple(stage_weights)))
        return pipeline_cut(graph, stage_weights)

    monkeypatch.setattr(hierarchical, "interleaved_pipeline_cut", recording)
    planner.plan()
    assert cuts
    assert len(cuts) == len(set(cuts)), cuts
