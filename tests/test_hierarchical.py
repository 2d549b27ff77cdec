"""Tests of the hierarchical (pipeline-over-SPMD) planning stack.

Covers every new layer: cluster splitting invariants, the pipeline layer
cut on the registry models, the GPipe schedule simulator against a
hand-computed example, the hierarchical planner (flat HAP as the 1-stage
special case, degeneration on a homogeneous testbed, pipelining wins on a
bandwidth-constrained heterogeneous testbed), and end-to-end runtime parity
of hierarchical execution against single-device training.
"""

import dataclasses
from itertools import combinations

import numpy as np
import pytest

from repro.autodiff import GRAD_SEED_SUFFIX, build_stage_training_graph, build_training_graph
from repro.cluster import (
    ClusterSpec,
    NetworkSpec,
    heterogeneous_testbed,
    homogeneous_testbed,
)
from repro.core import (
    HierarchicalConfig,
    HierarchicalPlan,
    HierarchicalPlanner,
    SynthesisConfig,
    stage_forward_graph,
)
from repro.core.hierarchical import (
    MICROBATCH_CANDIDATES,
    _balanced_boundaries,
    _compute_ratios,
    device_peak_memory,
    memory_verdict,
)
from repro.graph import cut_transfer_bytes, pipeline_cut
from repro.graph.ops import OpKind
from repro.hap import hap, hap_pipeline
from repro.models import build_tiny_model
from repro.models.bert import BERTConfig, build_bert
from repro.models.vit import ViTConfig, build_vit
from repro.runtime import SingleDeviceExecutor, run_hierarchical_plan
from repro.simulator import (
    SCHEDULE_NAMES,
    StageTimes,
    profile_stages,
    simulate_hierarchical,
    simulate_pipeline,
    simulate_plan,
    task_orders,
)

from .conftest import bindings_for, build_mlp, build_tiny_moe, build_tiny_transformer, make_cluster

REGISTRY = ["bert_base", "vit", "bert_moe", "vgg19"]


def small_planner(beam_width=8):
    return SynthesisConfig(beam_width=beam_width)


def hier_config(**kwargs):
    kwargs.setdefault("synthesis", small_planner())
    return HierarchicalConfig(**kwargs)


def scheduled_candidate(forward, num_stages, schedule, num_microbatches=None):
    """The ``num_stages`` candidate on :func:`make_cluster`, re-run under one
    pipeline schedule at ``num_microbatches`` (default: the candidate's own
    count) and the candidate's recomputation choice.  The planner searches
    every schedule, so this is how a test pins one; the runtime runs the
    plan's own schedule, so it is also how a test picks the microbatch count
    the runtime executes."""
    planner = HierarchicalPlanner(forward, make_cluster(), hier_config())
    plan = planner.build_candidate(num_stages)
    assert plan is not None and plan.num_stages == num_stages
    m = plan.num_microbatches if num_microbatches is None else num_microbatches
    result = rescheduled(planner, plan, schedule, m, plan.recompute)
    return dataclasses.replace(plan, schedule=result)


def rescheduled(planner, plan, schedule, num_microbatches, recompute):
    """``plan``'s stage profiles re-run under one (schedule, microbatch
    count, recomputation) combination, priced the way the planner prices
    it."""
    times = profile_stages(plan.stages, planner._profile_chunk)
    network = plan.cluster.network
    return simulate_pipeline(
        times,
        num_microbatches=num_microbatches,
        inter_group_bandwidth=network.bandwidth,
        inter_group_latency=network.latency,
        microbatch_overhead=plan.microbatch_overhead,
        schedule=schedule,
        recompute=recompute,
        overlap=plan.overlap,
    )


# ---------------------------------------------------------------------------
# cluster splitting
# ---------------------------------------------------------------------------

class TestClusterSplit:
    def test_groups_are_contiguous_and_cover_all_machines(self):
        cluster = heterogeneous_testbed(num_gpus=48)  # 6 machines
        n = len(cluster.machines)
        for s in range(1, n + 1):
            for ends in combinations(range(1, n), s - 1):
                boundaries = (*ends, n)
                groups = cluster.split(boundaries)
                assert len(groups) == s
                start = 0
                for group, end in zip(groups, boundaries):
                    assert group.machines == cluster.machines[start:end]
                    start = end

    def test_balance_tracks_compute(self):
        cluster = homogeneous_testbed()  # 4 identical machines
        weights = [m.total_flops for m in cluster.machines]
        ratios = _compute_ratios(cluster.split(_balanced_boundaries(weights, 2)))
        assert ratios == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("intra", [None, NetworkSpec(bandwidth=100e9)])
    def test_groups_are_cluster_specs(self, intra):
        base = heterogeneous_testbed(num_gpus=32)
        cluster = ClusterSpec(
            base.machines,
            network=base.network,
            group_by_machine=True,
            memory_reserve_fraction=0.1,
            comm_overlap_efficiency=0.3,
        )
        for group in cluster.split([1, len(cluster.machines)], intra_group_network=intra):
            assert type(group) is ClusterSpec
            assert group.network is (intra or cluster.network)
            assert group.group_by_machine == cluster.group_by_machine
            assert group.memory_reserve_fraction == cluster.memory_reserve_fraction
            assert group.comm_overlap_efficiency == cluster.comm_overlap_efficiency
            assert group.num_devices == len(group.machines)  # group_by_machine
            assert sum(group.proportional_ratios()) == pytest.approx(1.0)

    @pytest.mark.parametrize("num_groups", [1, 2, 3, 4, 8])
    def test_balanced_boundaries_are_a_valid_split(self, num_groups):
        # The planner's start split: num_groups non-empty contiguous groups
        # over all 8 machines, each cumulative boundary at or past its
        # equal-flops target unless the remaining groups need the machines.
        cluster = heterogeneous_testbed(num_gpus=64)
        weights = [m.total_flops for m in cluster.machines]
        boundaries = _balanced_boundaries(weights, num_groups)
        groups = cluster.split(boundaries)
        assert len(groups) == num_groups
        assert [m for g in groups for m in g.machines] == cluster.machines
        total = sum(weights)
        for i, end in enumerate(boundaries[:-1]):
            reserved = len(cluster.machines) - end == num_groups - 1 - i
            assert reserved or sum(weights[:end]) >= total * (i + 1) / num_groups

    def test_balanced_boundaries_on_equal_weights(self):
        assert _balanced_boundaries([1.0] * 8, 4) == [2, 4, 6, 8]
        assert _balanced_boundaries([1.0] * 8, 8) == list(range(1, 9))
        assert _balanced_boundaries([0.0] * 3, 3) == [1, 2, 3]

    def test_split_groups_end_at_the_boundaries(self):
        cluster = heterogeneous_testbed(num_gpus=32)  # v1 | p1 p2 p3
        groups = cluster.split([1, 4])
        assert [[m.name for m in g.machines] for g in groups] == [
            ["v1"], ["p1", "p2", "p3"]
        ]
        assert cluster.split((4,))[0].machines == cluster.machines

    @pytest.mark.parametrize(
        "boundaries",
        [
            [],  # no group at all
            [2, 2, 4],  # does not increase: empty middle group
            [3, 2, 4],  # decreases
            [0, 4],  # empty first group
            [-1, 4],  # out of range below
            [2, 5],  # out of range above
            [1, 3],  # leaves the last machine in no group
        ],
    )
    def test_split_rejects_bad_boundaries(self, boundaries):
        cluster = homogeneous_testbed()  # 4 machines
        with pytest.raises(ValueError):
            cluster.split(boundaries)


# ---------------------------------------------------------------------------
# pipeline layer cut
# ---------------------------------------------------------------------------

class TestPipelineCut:
    @pytest.mark.parametrize("model", REGISTRY)
    def test_invariants_on_registry_models(self, model):
        graph = build_tiny_model(model)
        cut = pipeline_cut(graph, [1.0, 1.0])
        assert cut.num_stages == 2
        # Every node lands in at least one stage; compute nodes in exactly one.
        seen = [name for stage in cut.stages for name in stage]
        assert set(seen) == set(graph.node_names)
        compute = [n.name for n in graph if n.kind is not OpKind.SOURCE]
        assert sorted(n for n in seen if n in set(compute)) == sorted(compute)
        # Contiguity: stage index is non-decreasing along the compute order.
        stages_in_order = [cut.stage_of[n] for n in compute]
        assert stages_in_order == sorted(stages_in_order)
        # Parameters: forward consumer, gradient and update stay together.
        consumers = graph.consumers()
        for param in graph.parameters():
            stages = {cut.stage_of[c] for c in consumers[param.name]}
            assert len(stages) == 1, f"parameter {param.name} split across {stages}"

    @pytest.mark.parametrize("model", ["bert_base", "vit", "bert_moe"])
    def test_balance_on_registry_models(self, model):
        graph = build_tiny_model(model)
        cut = pipeline_cut(graph, [1.0, 1.0])
        shares = [f / sum(cut.stage_flops) for f in cut.stage_flops]
        assert all(0.25 <= s <= 0.75 for s in shares), shares

    def test_weighted_cut_follows_group_compute(self):
        graph = build_tiny_model("vit")
        heavy_first = pipeline_cut(graph, [3.0, 1.0])
        shares = [f / sum(heavy_first.stage_flops) for f in heavy_first.stage_flops]
        assert shares[0] > 0.55

    def test_cut_refs_cross_boundary_only_forward(self):
        graph = build_tiny_model("bert_base")
        cut = pipeline_cut(graph, [1.0, 1.0])
        for stage, refs in enumerate(cut.cut_refs):
            for ref in refs:
                assert cut.stage_of[ref] == stage
                consumer_stages = {
                    cut.stage_of[c] for c in cut.consumers[ref] if c in cut.stage_of
                }
                assert max(consumer_stages) > stage
        # Stage 1 receives exactly the tensors stage 0 exports to it.
        assert set(cut.incoming_refs(1)) == set(cut.cut_refs[0])
        assert cut_transfer_bytes(graph, cut)[0] > 0

    def test_prefers_thin_boundaries(self):
        # The transformer cut should cross the residual stream, not the fat
        # per-head attention intermediates.
        graph = build_tiny_model("bert_base")
        cut = pipeline_cut(graph, [1.0, 1.0])
        crossing = cut_transfer_bytes(graph, cut)[0]
        biggest_activation = max(
            n.spec.size_bytes for n in graph if n.kind is not OpKind.SOURCE
        )
        assert crossing < biggest_activation


# ---------------------------------------------------------------------------
# stage training graphs
# ---------------------------------------------------------------------------

class TestStageTrainingGraphs:
    def test_boundary_seeds_and_outputs(self):
        forward = build_mlp()
        cut = pipeline_cut(forward, [1.0, 1.0])
        fwd0 = stage_forward_graph(forward, cut, 0)
        info0 = build_stage_training_graph(
            fwd0, boundary_inputs=(), boundary_outputs=cut.cut_refs[0]
        )
        assert info0.loss is None
        for ref in cut.cut_refs[0]:
            seed = info0.grad_input_of[ref]
            assert seed.endswith(GRAD_SEED_SUFFIX)
            assert info0.graph[seed].spec.shape == forward[ref].spec.shape
            assert ref in info0.graph.outputs
        fwd1 = stage_forward_graph(forward, cut, 1)
        info1 = build_stage_training_graph(
            fwd1, boundary_inputs=tuple(cut.incoming_refs(1)), boundary_outputs=()
        )
        assert info1.loss == forward.loss
        for ref in cut.incoming_refs(1):
            assert info1.grad_output_of[ref] in info1.graph.outputs

    def test_stage_parameters_cover_model_once(self):
        forward = build_tiny_transformer()
        cut = pipeline_cut(forward, [1.0, 1.0])
        updated = []
        for idx in range(cut.num_stages):
            info = build_stage_training_graph(
                stage_forward_graph(forward, cut, idx),
                boundary_inputs=tuple(cut.incoming_refs(idx)),
                boundary_outputs=cut.cut_refs[idx],
            )
            updated.extend(info.updates.keys())
        full = build_training_graph(forward)
        assert sorted(updated) == sorted(full.updates.keys())

    def test_needs_loss_or_boundary(self):
        from repro.graph.graph import GraphError

        forward = build_mlp()
        cut = pipeline_cut(forward, [1.0, 1.0])
        fwd0 = stage_forward_graph(forward, cut, 0)
        with pytest.raises(GraphError):
            build_stage_training_graph(fwd0, boundary_inputs=(), boundary_outputs=())

    def test_stage_attrs_are_deep_copied(self):
        # Regression: stage_forward_graph used to shallow-copy node attrs, so
        # a mutable attr value (shape list, nested dict) was shared between
        # the forward graph and every stage graph — mutating one stage's
        # attrs corrupted all the others.
        forward = build_tiny_transformer()
        reshape = next(n for n in forward if n.op == "reshape")
        # Make the attr value mutable, as traced graphs may carry.
        reshape.attrs["shape"] = list(reshape.attrs["shape"])
        original = list(reshape.attrs["shape"])
        cut = pipeline_cut(forward, [1.0, 1.0])
        stage_idx = cut.stage_of[reshape.name]
        mutated_stage = stage_forward_graph(forward, cut, stage_idx)
        other_stage = stage_forward_graph(forward, cut, stage_idx)
        mutated_stage[reshape.name].attrs["shape"][0] = -12345
        assert forward[reshape.name].attrs["shape"] == original
        assert other_stage[reshape.name].attrs["shape"] == original


# ---------------------------------------------------------------------------
# GPipe schedule simulator
# ---------------------------------------------------------------------------

class TestScheduleSimulator:
    def test_hand_computed_two_stage_example(self):
        # Two stages, two microbatches; per-microbatch forward 1s, backward
        # 2s on both stages, 0.5s transfer per hop, syncs of 3s and 1s.
        #
        # Fill:  F[0][0]=1, F[1][0]=2.5, F[0][1]=2, F[1][1]=3.5
        # Drain: B[1][1]=5.5, B[0][1]=8, B[1][0]=7.5, B[0][0]=10
        # Finish: stage0 10+3=13, stage1 7.5+1=8.5 -> total 13.
        stages = [
            StageTimes(forward=2.0, backward=4.0, sync=3.0, send_bytes=1.0),
            StageTimes(forward=2.0, backward=4.0, sync=1.0),
        ]
        result = simulate_pipeline(
            stages, num_microbatches=2, inter_group_bandwidth=1.0
        )
        assert result.total == pytest.approx(13.0)
        assert result.stage_finish == pytest.approx([13.0, 8.5])
        assert result.stage_busy == pytest.approx([9.0, 7.0])
        assert result.bubble == pytest.approx(((13 - 9) + (13 - 7)) / 2)
        assert result.transfer == pytest.approx(2.0)  # 2 dirs x 2 microbatches x 0.5

    def test_single_stage_degenerates_to_flat_time(self):
        result = simulate_pipeline(
            [StageTimes(forward=3.0, backward=4.0, sync=2.0)],
            num_microbatches=1,
            inter_group_bandwidth=1.0,
        )
        assert result.total == pytest.approx(9.0)
        assert result.bubble == pytest.approx(0.0)
        assert result.transfer == 0.0

    def test_more_microbatches_shrink_bubble(self):
        stages = [
            StageTimes(forward=2.0, backward=4.0),
            StageTimes(forward=2.0, backward=4.0),
        ]
        few = simulate_pipeline(stages, 2, inter_group_bandwidth=1.0)
        many = simulate_pipeline(stages, 16, inter_group_bandwidth=1.0)
        assert many.total < few.total
        assert many.bubble_fraction < few.bubble_fraction

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate_pipeline([], 4, inter_group_bandwidth=1.0)
        with pytest.raises(ValueError):
            simulate_pipeline([StageTimes(1.0, 1.0)], 0, inter_group_bandwidth=1.0)

    def test_zero_bandwidth_rejected_for_multi_stage(self):
        stages = [StageTimes(1.0, 2.0, send_bytes=1.0), StageTimes(1.0, 2.0)]
        with pytest.raises(ValueError, match="inter_group_bandwidth"):
            simulate_pipeline(stages, 4, inter_group_bandwidth=0.0)
        with pytest.raises(ValueError, match="inter_group_bandwidth"):
            simulate_pipeline(stages, 4, inter_group_bandwidth=-1.0)
        # A single stage has no transfers, so any bandwidth value is fine.
        result = simulate_pipeline([StageTimes(1.0, 2.0)], 1, inter_group_bandwidth=0.0)
        assert result.total == pytest.approx(3.0)

    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_boundary_hop_carries_its_stage_bytes(self, schedule):
        # Each hop is priced from its own stage's send bytes: fattening
        # the one boundary slows the iteration and raises the transfer
        # load by exactly the added bytes.
        def stages(send_bytes):
            return [
                StageTimes(forward=2.0, backward=6.0, sync=1.0, send_bytes=send_bytes),
                StageTimes(forward=4.0, backward=2.0, sync=0.5),
            ]

        thin = simulate_pipeline(stages(2.0), 2, inter_group_bandwidth=1.0, schedule=schedule)
        fat = simulate_pipeline(stages(6.0), 2, inter_group_bandwidth=1.0, schedule=schedule)
        assert thin.transfer == pytest.approx(4.0)  # 2 dirs x 2 mb x 1s
        assert fat.transfer == pytest.approx(12.0)  # 2 dirs x 2 mb x 3s
        assert fat.total > thin.total


# ---------------------------------------------------------------------------
# 1F1B schedule and memory accounting
# ---------------------------------------------------------------------------

class TestOneFOneB:
    def two_stage_inputs(self):
        # Per-microbatch (m=4): forward 1s, backward 2s on both stages, 0.5s
        # transfer per hop; syncs of 3s and 1s; activations of 8/4 bytes
        # full-batch (2/1 bytes per in-flight microbatch).
        return [
            StageTimes(
                forward=4.0, backward=8.0, sync=3.0, send_bytes=2.0, activation_bytes=8.0
            ),
            StageTimes(forward=4.0, backward=8.0, sync=1.0, activation_bytes=4.0),
        ]

    def test_hand_computed_two_stage_four_microbatch_example(self):
        # Stage 0 order: F0 F1 B0 F2 B1 F3 B2 B3; stage 1: F0 B0 F1 B1 ...
        # F0s0 0-1, F0s1 1.5-2.5, B0s1 2.5-4.5, F1s1 4.5-5.5, B0s0 5-7,
        # B1s1 5.5-7.5, F2s0 7-8, B1s0 8-10, F2s1 8.5-9.5, B2s1 9.5-11.5,
        # F3s0 10-11, B2s0 12-14, F3s1 11.5-12.5, B3s1 12.5-14.5,
        # B3s0 15-17.  Finish: stage0 17+3=20, stage1 14.5+1=15.5.
        result = simulate_pipeline(
            self.two_stage_inputs(), 4, inter_group_bandwidth=1.0, schedule="1f1b"
        )
        assert result.total == pytest.approx(20.0)
        assert result.stage_finish == pytest.approx([20.0, 15.5])
        assert result.stage_busy == pytest.approx([15.0, 13.0])
        assert result.bubble == pytest.approx(((20 - 15) + (20 - 13)) / 2)
        assert result.transfer == pytest.approx(4.0)  # 2 dirs x 4 mb x 0.5
        # Peak in-flight: min(s - i, m) -> [2, 1]; the stash peak is
        # inflight x per-microbatch activations.
        assert result.peak_inflight == [2, 1]
        assert result.peak_stash == pytest.approx([2 * 2.0, 1 * 1.0])

    def test_hand_computed_unbalanced_example(self):
        # Two unbalanced stages, m=2, 1s per hop.  Per-microbatch forward
        # 1s / 2s, backward 3s / 1s.  Stage 0 runs F0 F1 B0 B1, stage 1
        # F0 B0 F1 B1:
        # F0s0 0-1, F1s0 1-2, F0s1 2-4, B0s1 4-5, F1s1 5-7, B0s0 6-9,
        # B1s1 7-8, B1s0 9-12.  Finish: stage0 12+1=13, stage1 8+0.5=8.5.
        # GPipe (F0 F1 B1 B0 on both) runs F0s1 2-4, F1s1 4-6, B1s1 6-7,
        # B0s1 7-8, B1s0 8-11, B0s0 11-14 and finishes at 15: the
        # alternation starts stage 0's backwards a microbatch earlier.
        stages = [
            StageTimes(
                forward=2.0, backward=6.0, sync=1.0, send_bytes=2.0, activation_bytes=8.0
            ),
            StageTimes(forward=4.0, backward=2.0, sync=0.5, activation_bytes=4.0),
        ]
        result = simulate_pipeline(stages, 2, inter_group_bandwidth=1.0, schedule="1f1b")
        assert result.total == pytest.approx(13.0)
        assert result.stage_finish == pytest.approx([13.0, 8.5])
        assert result.stage_busy == pytest.approx([9.0, 6.5])
        assert result.bubble == pytest.approx(((13 - 9) + (13 - 6.5)) / 2)
        assert result.transfer == pytest.approx(4.0)
        assert result.peak_inflight == [2, 1]
        assert result.peak_stash == pytest.approx([2 * 4.0, 1 * 2.0])
        gpipe = simulate_pipeline(stages, 2, inter_group_bandwidth=1.0)
        assert gpipe.total == pytest.approx(15.0)
        assert gpipe.stage_finish == pytest.approx([15.0, 8.5])
        assert gpipe.peak_inflight == [2, 2]

    def test_gpipe_peak_memory_grows_with_microbatches(self):
        result = simulate_pipeline(self.two_stage_inputs(), 4, inter_group_bandwidth=1.0)
        assert result.peak_inflight == [4, 4]
        assert result.peak_stash == pytest.approx([8.0, 4.0])

    def test_1f1b_matches_gpipe_time_on_balanced_stages(self):
        # With balanced stages and negligible transfers GPipe and 1F1B have
        # the same fill/drain critical path; 1F1B's win is memory.  (With
        # transfers or unbalanced stages the strict alternation can serialise
        # differently, so the time property is asserted where it is exact.)
        import random

        rng = random.Random(0)
        for _ in range(50):
            s = rng.randint(2, 5)
            m = rng.randint(s + 1, 24)
            f, b, sync = rng.uniform(0.3, 4), rng.uniform(0.3, 6), rng.uniform(0, 2)
            stages = [
                StageTimes(forward=f, backward=b, sync=sync, activation_bytes=10.0)
                for _ in range(s)
            ]
            gpipe = simulate_pipeline(stages, m, inter_group_bandwidth=1.0)
            ofob = simulate_pipeline(stages, m, inter_group_bandwidth=1.0, schedule="1f1b")
            assert ofob.total <= gpipe.total * (1 + 1e-9)

    def test_1f1b_peak_memory_below_gpipe_for_many_microbatches(self):
        import random

        rng = random.Random(1)
        for _ in range(50):
            s = rng.randint(2, 5)
            m = rng.randint(s + 1, 32)
            stages = [
                StageTimes(
                    forward=rng.uniform(0.3, 4),
                    backward=rng.uniform(0.3, 6),
                    sync=rng.uniform(0, 2),
                    send_bytes=rng.uniform(0, 5),
                    activation_bytes=rng.uniform(1, 100),
                )
                for _ in range(s)
            ]
            gpipe = simulate_pipeline(stages, m, inter_group_bandwidth=1.0)
            ofob = simulate_pipeline(stages, m, inter_group_bandwidth=1.0, schedule="1f1b")
            assert all(o < g for o, g in zip(ofob.peak_stash, gpipe.peak_stash))
            assert all(i <= min(s - idx, m) for idx, i in enumerate(ofob.peak_inflight))

    def test_recomputation_trades_time_for_memory(self):
        stages = [
            StageTimes(forward=2.0, backward=4.0, send_bytes=0.5, activation_bytes=64.0),
            StageTimes(forward=2.0, backward=4.0, activation_bytes=64.0),
        ]
        plain = simulate_pipeline(stages, 8, inter_group_bandwidth=1e9, schedule="1f1b")
        rc = simulate_pipeline(
            stages, 8, inter_group_bandwidth=1e9, schedule="1f1b", recompute=True
        )
        assert rc.total > plain.total  # one extra forward per microbatch
        # The first stage holds min(s, m) = 2 in-flight microbatches: the
        # O(1) boundary stash beats stashing full activations.  The last
        # stage holds a single microbatch either way, so recomputation only
        # adds the rematerialised activations there.
        assert rc.peak_stash[0] < plain.peak_stash[0]
        assert rc.recompute and not plain.recompute

    def test_single_stage_peak_memory_is_weights_plus_activations(self):
        result = simulate_pipeline(
            [StageTimes(forward=3.0, backward=4.0, activation_bytes=16.0)],
            1,
            inter_group_bandwidth=1.0,
        )
        assert result.peak_stash == [16.0]
        # One device, one replicated parameter byte: 3 bytes of resident
        # state under the one memory model, plus the whole stash.
        assert device_peak_memory(0, 1, result.peak_stash[0], [1.0]) == [3.0 + 16.0]


class TestTaskOrders:
    """Structural invariants of every schedule's per-stage task orders,
    which the simulator times and the runtime executes."""

    # Up to the default ``max_stages`` (4) and the largest microbatch count
    # the planner tries (32): the e2e hetero plan runs gpipe at m = 32.
    SHAPES = [(1, 1), (2, 1), (2, 4), (3, 2), (4, 8), (2, 32), (3, 16), (4, 3), (4, 32)]

    @pytest.mark.parametrize("s,m", SHAPES)
    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_every_task_once_with_forward_before_backward(self, schedule, s, m):
        orders = task_orders(schedule, s, m)
        assert len(orders) == s
        expected = sorted([("F", j) for j in range(m)] + [("B", j) for j in range(m)])
        for order in orders:
            assert sorted(order) == expected
            for j in range(m):
                assert order.index(("F", j)) < order.index(("B", j))
        # The shared dependency engine runs the orders to completion, and
        # the in-flight peak is the schedule's: m for GPipe, the remaining
        # depth min(s - i, m) for 1F1B.
        stages = [StageTimes(forward=1.0, backward=2.0, send_bytes=1.0) for _ in range(s)]
        result = simulate_pipeline(stages, m, inter_group_bandwidth=1.0, schedule=schedule)
        if schedule == "gpipe":
            assert result.peak_inflight == [m] * s
        else:
            assert result.peak_inflight == [min(s - i, m) for i in range(s)]

    def test_unknown_schedule_name_is_a_key_error(self):
        # The name is the schedule: an unknown one fails in both the order
        # lookup and the engine, naming the known schedules.
        with pytest.raises(KeyError, match="interleaved.*gpipe.*1f1b"):
            task_orders("interleaved", 2, 4)
        stages = [StageTimes(forward=1.0, backward=2.0, send_bytes=1.0) for _ in range(2)]
        with pytest.raises(KeyError, match="interleaved.*gpipe.*1f1b"):
            simulate_pipeline(stages, 4, inter_group_bandwidth=1.0, schedule="interleaved")


# ---------------------------------------------------------------------------
# hierarchical planner
# ---------------------------------------------------------------------------

class TestHierarchicalPlanner:
    def test_flat_is_the_one_stage_special_case(self):
        forward = build_tiny_transformer()
        cluster = make_cluster()
        candidate = HierarchicalPlanner(forward, cluster, hier_config()).build_candidate(1)
        flat = hap(forward, cluster, small_planner())
        assert candidate.num_stages == 1
        assert candidate.is_flat
        # Same graph, same planner: the 1-stage estimate tracks flat HAP.
        assert candidate.estimated_time == pytest.approx(
            flat.estimated_time.total, rel=0.05
        )

    def test_rejects_training_graphs(self):
        from repro.graph.graph import GraphError

        training = build_training_graph(build_mlp()).graph
        with pytest.raises(GraphError):
            HierarchicalPlanner(training, make_cluster(), hier_config())
        with pytest.raises(ValueError):
            hap_pipeline(training, make_cluster())

    def test_candidate_times_recorded(self):
        plan = HierarchicalPlanner(
            build_tiny_transformer(), make_cluster(), hier_config(max_stages=2)
        ).plan()
        assert set(plan.candidate_times) == {1, 2}
        assert plan.estimated_time == min(plan.candidate_times.values())

    def test_degenerates_on_compute_bound_homogeneous_testbed(self):
        # Compute-bound homogeneous cluster with a fast flat network: gradient
        # synchronisation is cheap everywhere, so pipelining only adds bubble,
        # transfer and launch overhead and the planner must fall back to flat
        # SPMD.  (On the paper's slow 10.4 Gbps flat network the schedule
        # search legitimately prefers a 2-stage 1F1B pipeline — per-stage sync
        # ships half the gradient bytes — so that case is no longer a
        # degeneration test.)
        forward = build_vit(ViTConfig(batch_size=2048, num_layers=2))
        cluster = homogeneous_testbed()
        fast = ClusterSpec(
            cluster.machines,
            network=NetworkSpec(bandwidth=200e9, latency=1e-6),
            group_by_machine=cluster.group_by_machine,
            name="homog-fast",
        )
        plan = hap_pipeline(forward, fast, HierarchicalConfig(synthesis=small_planner()))
        assert plan.num_stages == 1
        assert plan.is_flat

    def test_microbatch_count_snapped_to_batch_divisor(self):
        # The candidate 32 exceeds the batch of 16; the planner must snap it
        # to a divisor instead of producing ragged/empty microbatches
        # (regression for the silent acceptance of m > batch).
        forward = build_tiny_transformer()  # batch 16
        planner = HierarchicalPlanner(forward, make_cluster(), hier_config(max_stages=2))
        assert max(MICROBATCH_CANDIDATES) > 16
        assert planner._microbatch_candidates() == [2, 4, 8, 16]
        plan = planner.plan()
        assert plan.batch_size == 16
        assert plan.num_microbatches <= 16
        assert 16 % plan.num_microbatches == 0

    def test_nearest_divisor_helper(self):
        from repro.core.hierarchical import _nearest_divisor

        assert _nearest_divisor(16, 24) == 16
        assert _nearest_divisor(16, 5) == 4
        assert _nearest_divisor(16, 6) == 8  # tie prefers more microbatches
        assert _nearest_divisor(7, 3) == 1
        assert _nearest_divisor(12, 100) == 12

    def test_schedule_search_is_recorded(self):
        plan = HierarchicalPlanner(
            build_tiny_transformer(), make_cluster(), hier_config(max_stages=2)
        ).plan()
        combos = plan.schedule_candidate_times
        assert combos, "joint search must record its candidates"
        schedules = {key[1] for key in combos if key[0] == 2}
        assert {"gpipe", "1f1b"} <= schedules
        microbatches = {key[2] for key in combos if key[0] == 2 and key[1] == "1f1b"}
        assert len(microbatches) > 1  # genuine microbatch-count search
        # The flat candidate stays a whole-batch run.
        assert (1, "gpipe", 1, False) in combos

    def test_memory_constrained_testbed_selects_1f1b(self):
        # Acceptance scenario: devices with 1 GB of memory.  GPipe stashes
        # all m in-flight microbatch activations and exceeds capacity at the
        # microbatch count the bubble wants; 1F1B bounds the stash by the
        # pipeline depth and fits, so the planner must choose it with more
        # microbatches than stages.
        from repro.cluster import memory_constrained_testbed

        cluster = memory_constrained_testbed()
        forward = build_bert(BERTConfig(batch_size=64, num_layers=2))
        config = hier_config(max_stages=2)
        planner = HierarchicalPlanner(forward, cluster, config)
        plan = planner.plan()
        assert plan.num_stages == 2
        assert plan.schedule_name == "1f1b"
        assert plan.fits_memory
        assert not plan.recompute
        assert plan.num_microbatches > config.max_stages
        # GPipe at the very same microbatch count exceeds device memory.
        times = profile_stages(plan.stages, planner._profile_chunk)
        network = plan.cluster.network
        gpipe = simulate_pipeline(
            times, plan.num_microbatches, network.bandwidth, network.latency, schedule="gpipe"
        )
        assert not memory_verdict(plan.stages, gpipe.peak_stash)[0]
        ofob = simulate_pipeline(
            times, plan.num_microbatches, network.bandwidth, network.latency, schedule="1f1b"
        )
        assert memory_verdict(plan.stages, ofob.peak_stash)[0]

    def test_recompute_auto_only_wins_under_memory_pressure(self):
        # With abundant memory the planner must not pick recomputation (it
        # costs an extra forward per microbatch).
        plan = HierarchicalPlanner(
            build_tiny_transformer(), make_cluster(), hier_config(max_stages=2)
        ).plan()
        assert plan.recompute is False

    def test_recompute_wins_when_nothing_else_fits(self):
        # On 1 GB devices the plain 2-stage 1F1B run of this batch-256 BERT
        # does not fit, so the planner retries it with recomputation, and the
        # retry wins the whole search.
        from repro.cluster import memory_constrained_testbed

        forward = build_bert(BERTConfig(batch_size=256, num_layers=4))
        plan = HierarchicalPlanner(
            forward, memory_constrained_testbed(), hier_config(max_stages=2)
        ).plan()
        assert (plan.num_stages, plan.schedule_name, plan.num_microbatches) == (2, "1f1b", 32)
        assert plan.recompute is True
        assert plan.fits_memory
        # The plain run of the winning combination was priced first.
        assert (2, "1f1b", 32, False) in plan.schedule_candidate_times

    def test_recompute_retried_only_when_the_plain_run_does_not_fit(self):
        # Recomputation is priced for a multi-stage combination exactly when
        # its plain run exceeds device memory, and never on its own.
        from repro.cluster import memory_constrained_testbed

        forward = build_bert(BERTConfig(batch_size=64, num_layers=2))
        config = hier_config(max_stages=2)
        planner = HierarchicalPlanner(forward, memory_constrained_testbed(), config)
        plan = planner.plan()
        assert plan.num_stages == 2
        combos = plan.schedule_candidate_times
        times = profile_stages(plan.stages, planner._profile_chunk)
        network = plan.cluster.network
        retried = set()
        for stages, name, m, rc in combos:
            assert (stages, name, m, False) in combos
            if stages != 2 or rc:
                continue
            plain = simulate_pipeline(
                times, m, network.bandwidth, network.latency, schedule=name
            )
            if not memory_verdict(plan.stages, plain.peak_stash)[0]:
                assert (stages, name, m, True) in combos
                retried.add(name)
            else:
                assert (stages, name, m, True) not in combos
        # GPipe never fits here, so every GPipe count was retried.
        assert "gpipe" in retried

    def test_single_stage_never_recomputes(self):
        # A flat plan runs the whole batch at once: even when it does not fit,
        # it is not retried with recomputation.
        from repro.cluster import memory_constrained_testbed

        forward = build_bert(BERTConfig(batch_size=256, num_layers=4))
        plan = HierarchicalPlanner(
            forward, memory_constrained_testbed(), hier_config(max_stages=1)
        ).plan()
        assert not plan.fits_memory
        assert plan.recompute is False
        assert set(plan.schedule_candidate_times) == {(1, "gpipe", 1, False)}

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_stages", 0),
        ],
    )
    def test_out_of_range_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HierarchicalConfig(**{field: value})

    def test_smallest_valid_config_accepted(self):
        assert HierarchicalConfig(max_stages=1).max_stages == 1

    def test_pipelines_on_bandwidth_constrained_heterogeneous_testbed(self):
        # The whimpy-cluster scenario: machine groups with fast internal
        # links joined by the testbed's slow 10.4 Gbps network.  Flat SPMD
        # pays full gradient synchronisation over the slow link every
        # iteration; pipelining syncs inside the groups and ships only small
        # activations across, so a >=2-stage plan must win — both in the
        # planner's estimate and on the execution simulator.
        cluster = heterogeneous_testbed(num_gpus=32, gpus_per_machine=8)
        forward = build_bert(BERTConfig(batch_size=64, num_layers=4))
        config = HierarchicalConfig(
            synthesis=small_planner(),
            intra_group_network=NetworkSpec(bandwidth=100e9 / 8),
        )
        plan = hap_pipeline(forward, cluster, config)
        assert plan.num_stages >= 2
        flat = hap(forward, cluster, small_planner())
        pipe_sim = simulate_hierarchical(plan, iterations=3, seed=0).total
        flat_sim = simulate_plan(flat, cluster, iterations=3, seed=0).total
        assert pipe_sim < flat_sim


# ---------------------------------------------------------------------------
# per-stage chunk planning
# ---------------------------------------------------------------------------

class TestChunkPlanner:
    def two_stage_candidate(self, forward, cluster=None):
        planner = HierarchicalPlanner(forward, cluster or make_cluster(), hier_config())
        return planner.build_candidate(2)

    def test_chunk_parameters_cover_model_exactly_once(self):
        forward = build_tiny_transformer()
        plan = self.two_stage_candidate(forward)
        updated = [p for stage in plan.stages for p in stage.info.updates]
        full = build_training_graph(forward)
        assert sorted(updated) == sorted(full.updates.keys())

    def test_each_stage_hosts_one_chunk(self):
        plan = self.two_stage_candidate(build_tiny_transformer())
        assert plan.num_model_chunks == 1
        for stage in plan.stages:
            assert stage.stage_index == stage.virtual_index == stage.index
        assert plan.chunk_sequence() == plan.stages
        assert len({id(stage.program) for stage in plan.stages}) == 2
        # The final stage ends at the loss: nothing sent.
        assert plan.stages[-1].send_bytes == 0

    @pytest.mark.parametrize("num_stages", [2, 3])
    def test_interior_stages_send_their_cut_bytes(self, num_stages):
        # Every interior boundary carries the real bytes of the refs its
        # cut crosses; the schedule prices each hop from them.
        forward = build_tiny_transformer()
        plan = HierarchicalPlanner(
            forward, make_cluster(), hier_config()
        ).build_candidate(num_stages)
        assert plan is not None and plan.num_stages == num_stages
        for stage in plan.stages[:-1]:
            hop = sum(
                forward[ref].spec.size_bytes
                for ref in plan.cut.crossing_refs(stage.index)
            )
            assert hop > 0
            assert stage.send_bytes == hop
        assert plan.stages[-1].send_bytes == 0

    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_estimate_matches_simulator_schedule_shape(self, schedule):
        # The planner estimate and the measured simulation run the same
        # schedule: same name, microbatch count, recomputation choice and
        # one profile per stage, so the same in-flight peaks.
        plan = scheduled_candidate(build_tiny_transformer(), 2, schedule)
        sim = simulate_hierarchical(plan, iterations=1, seed=0)
        assert sim.schedule.schedule == schedule
        assert sim.schedule.num_microbatches == plan.num_microbatches
        assert sim.schedule.recompute == plan.recompute
        assert len(sim.stage_times) == plan.num_stages
        assert sim.schedule.peak_inflight == plan.schedule.peak_inflight

    def test_replacing_the_schedule_alone_reschedules_the_plan(self, monkeypatch):
        # ``schedule`` is the plan's one record of its schedule choice: swap
        # in another schedule, microbatch count and recomputation choice,
        # and every reader follows it.
        from repro.runtime.spmd import HierarchicalExecutor
        from repro.verify import verify_plan

        forward = build_tiny_transformer()
        planner = HierarchicalPlanner(forward, make_cluster(), hier_config())
        plan = planner.build_candidate(2)
        # The planner prices over the cluster's own network.
        assert plan.schedule == rescheduled(
            planner, plan, plan.schedule_name, plan.num_microbatches, plan.recompute
        )
        (name,) = [n for n in SCHEDULE_NAMES if n != plan.schedule_name]
        m = max(c for c in planner._microbatch_candidates() if c != plan.num_microbatches)
        result = rescheduled(planner, plan, name, m, not plan.recompute)
        swapped = dataclasses.replace(plan, schedule=result)
        assert (
            swapped.schedule_name,
            swapped.num_microbatches,
            swapped.recompute,
            swapped.estimated_time,
            swapped.fits_memory,
        ) == (
            name,
            m,
            not plan.recompute,
            result.total,
            memory_verdict(plan.stages, result.peak_stash)[0],
        )
        report = verify_plan(swapped, forward)
        assert report.ok, report.describe()
        sim = simulate_hierarchical(swapped, iterations=1, seed=0).schedule
        assert (sim.schedule, sim.num_microbatches, sim.recompute) == (
            name, m, not plan.recompute
        )
        executor = HierarchicalExecutor(swapped)
        assert executor.num_microbatches == m
        executed = [[] for _ in range(executor.num_stages)]
        run_forward, run_backward = executor._forward_task, executor._backward_task

        def forward_task(k, j, *args):
            executed[k].append(("F", j))
            return run_forward(k, j, *args)

        def backward_task(k, j, *args):
            executed[k].append(("B", j))
            return run_backward(k, j, *args)

        monkeypatch.setattr(executor, "_forward_task", forward_task)
        monkeypatch.setattr(executor, "_backward_task", backward_task)
        executor.run(bindings_for(build_training_graph(forward).graph, seed=5))
        assert executed == task_orders(name, executor.num_stages, m)

    def test_plan_fields_state_each_decision_once(self):
        assert [f.name for f in dataclasses.fields(HierarchicalPlan)] == [
            "cluster",
            "stages",
            "cut",
            "schedule",
            "candidate_times",
            "schedule_candidate_times",
            "batch_size",
            "reuse_stats",
        ]
        # The memory verdict is derived from the stages and the schedule,
        # so it cannot be stored out of step with them.
        verdict = HierarchicalPlan.fits_memory
        assert isinstance(verdict, property) and verdict.fset is None

    def test_resident_state_splits_by_sharding_ratio(self):
        # With no stash, the per-device peaks of a stage add up to one
        # replicated copy per device plus one sharded copy, times the
        # optimizer-state factor: the chunk's ratios sum to one.
        cluster = make_cluster(("A100", "P100", "A100", "P100"))
        plan = self.two_stage_candidate(build_tiny_transformer(), cluster=cluster)
        for stage in plan.stages:
            n = stage.subcluster.num_devices
            resident = 3.0 * (stage.replicated_param_bytes * n + stage.sharded_param_bytes)
            assert sum(stage.peak_device_memory(0.0)) == pytest.approx(resident, rel=1e-12)

    def test_stash_share_is_the_chunk_ratio(self):
        # Each device holds its sharding-ratio share of the stage's stash.
        cluster = make_cluster(("A100", "P100", "A100", "P100"))
        plan = self.two_stage_candidate(build_tiny_transformer(), cluster=cluster)
        stash = 1e6
        for stage in plan.stages:
            base = stage.peak_device_memory(0.0)
            loaded = stage.peak_device_memory(stash)
            for j, (bare, full) in enumerate(zip(base, loaded)):
                assert full - bare == pytest.approx(stash * stage.ratios[j], rel=1e-9)
        # On this mixed-GPU group the A100 takes the larger share.
        first = plan.stages[0].peak_device_memory(stash)
        assert first[0] > first[1]

    def test_microbatch_candidates_bounded_for_large_batches(self):
        # The candidate list stays bounded by MICROBATCH_CANDIDATES at any
        # batch size and holds only batch divisors.
        forward = build_mlp(batch=4096)
        planner = HierarchicalPlanner(forward, make_cluster(), hier_config())
        cands = planner._microbatch_candidates()
        assert len(cands) <= len(MICROBATCH_CANDIDATES)
        assert all(4096 % m == 0 for m in cands)

    def test_divisor_helpers(self):
        from repro.core.hierarchical import _divisors, _nearest_divisor

        assert _divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
        assert _divisors(1) == [1]
        assert _divisors(7) == [1, 7]
        # O(sqrt(n)) enumeration handles large n instantly.
        assert _nearest_divisor(2 ** 20 * 3, 1000) == 1024
        assert _nearest_divisor(10 ** 8, 10 ** 8 + 5) == 10 ** 8


# ---------------------------------------------------------------------------
# hierarchical runtime parity
# ---------------------------------------------------------------------------

class TestProfileOnce:
    """Planner and simulator assemble stage profiles through one function,
    :func:`repro.simulator.schedule.profile_stages`, which runs the
    profiler once per stage."""

    @pytest.fixture(scope="class")
    def two_machines(self):
        """Two heterogeneous machines: stage counts 1 and 2."""
        return make_cluster(("A100", "P100"), group=True)

    def test_profile_stages_profiles_each_stage_once(self):
        from types import SimpleNamespace

        stages = [
            SimpleNamespace(fwd=fwd, send_bytes=send, activation_bytes=2 * send)
            for fwd, send in ((1.0, 10), (2.0, 20), (1.0, 30))
        ]
        calls = []

        def profile(c):
            calls.append(c)
            return {"forward": c.fwd, "backward": 2 * c.fwd, "sync": 0.5}

        times = profile_stages(stages, profile)
        assert calls == stages
        assert times[2] == StageTimes(
            forward=1.0,
            backward=2.0,
            sync=0.5,
            send_bytes=30.0,
            activation_bytes=60.0,
        )
        assert times[1].forward == 2.0 and times[1].sync == 0.5

    def test_planner_profiles_each_planned_chunk_once(self, two_machines, monkeypatch):
        from repro.core import CostModel

        calls = []
        orig = CostModel.phase_profile

        def counting(self, *args, **kwargs):
            calls.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(CostModel, "phase_profile", counting)
        planner = HierarchicalPlanner(build_mlp(), two_machines, hier_config())
        plan = planner.plan()
        assert len(calls) == plan.reuse_stats["subplans_planned"] == 3

    def test_simulator_profiles_each_stage_once_and_identically(self, two_machines, monkeypatch):
        plan = HierarchicalPlanner(build_mlp(), two_machines, hier_config()).plan()
        baseline = simulate_hierarchical(plan, iterations=2)

        import repro.simulator.engine as engine

        calls = []
        orig = engine._SimulatedCostModel.phase_profile

        def counting(self, *args, **kwargs):
            calls.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(engine._SimulatedCostModel, "phase_profile", counting)
        again = simulate_hierarchical(plan, iterations=2)
        assert len(calls) == len(plan.stages)
        assert again.total == baseline.total
        assert again.schedule.total == baseline.schedule.total


class TestHierarchicalRuntimeParity:
    @pytest.mark.parametrize(
        "builder,num_stages,rtol",
        [
            (build_mlp, 2, 2e-4),
            (build_tiny_transformer, 2, 2e-4),
            (build_tiny_transformer, 3, 2e-4),
            (build_tiny_moe, 2, 1e-3),
        ],
    )
    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_matches_single_device_training(self, schedule, builder, num_stages, rtol):
        forward = builder()
        plan = scheduled_candidate(forward, num_stages, schedule)
        training = build_training_graph(forward)
        bindings = bindings_for(training.graph, seed=0)
        reference = SingleDeviceExecutor(training.graph).run(bindings)
        result = run_hierarchical_plan(plan, bindings)
        assert result.loss == pytest.approx(
            float(reference[training.loss]), rel=rtol, abs=1e-4
        )
        assert set(training.updates) <= set(result.updated_parameters)
        for param, update_node in training.updates.items():
            np.testing.assert_allclose(
                result.updated_parameters[param],
                reference[update_node],
                rtol=rtol,
                atol=1e-4,
                err_msg=f"parameter {param} diverged ({schedule})",
            )
        # Parameters the flat autodiff prunes structurally (no gradient path,
        # e.g. MoE gate weights) may surface in a stage graph when the cut
        # crosses their activation; the downstream stage contributes a zero
        # gradient, so their "update" must be a no-op.
        for param in set(result.updated_parameters) - set(training.updates):
            np.testing.assert_allclose(
                result.updated_parameters[param],
                bindings[param],
                rtol=rtol,
                atol=1e-4,
                err_msg=f"pruned parameter {param} must stay unchanged",
            )

    @pytest.mark.parametrize(
        "builder,num_microbatches,rtol",
        [
            (build_mlp, 2, 2e-4),
            (build_mlp, 4, 2e-4),
            (build_tiny_transformer, 2, 2e-4),
            (build_tiny_transformer, 4, 2e-4),
            (build_tiny_moe, 2, 1e-3),
            (build_tiny_moe, 4, 1e-3),
        ],
    )
    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_microbatched_execution_matches_full_batch(
        self, schedule, builder, num_microbatches, rtol
    ):
        # Gradient accumulation over equal microbatches with sum-reduced
        # losses is mathematically identical to the full-batch iteration, so
        # the microbatched runtime must reproduce single-device training
        # under either schedule (the task order only affects timing, not
        # numerics).
        forward = builder()
        plan = scheduled_candidate(forward, 2, schedule, num_microbatches)
        training = build_training_graph(forward)
        bindings = bindings_for(training.graph, seed=3)
        reference = SingleDeviceExecutor(training.graph).run(bindings)
        result = run_hierarchical_plan(plan, bindings)
        assert result.loss == pytest.approx(
            float(reference[training.loss]), rel=rtol, abs=1e-4
        )
        for param, update_node in training.updates.items():
            np.testing.assert_allclose(
                result.updated_parameters[param],
                reference[update_node],
                rtol=rtol,
                atol=1e-4,
                err_msg=f"parameter {param} diverged ({schedule}, m={num_microbatches})",
            )

    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_executor_follows_schedule_task_order(self, schedule, monkeypatch):
        from repro.runtime.spmd import HierarchicalExecutor

        forward = build_tiny_transformer()
        plan = scheduled_candidate(forward, 2, schedule, 4)
        executor = HierarchicalExecutor(plan)
        assert executor.num_microbatches == 4
        executed = [[] for _ in range(executor.num_stages)]
        run_forward, run_backward = executor._forward_task, executor._backward_task

        def forward_task(k, j, *args):
            executed[k].append(("F", j))
            return run_forward(k, j, *args)

        def backward_task(k, j, *args):
            executed[k].append(("B", j))
            return run_backward(k, j, *args)

        monkeypatch.setattr(executor, "_forward_task", forward_task)
        monkeypatch.setattr(executor, "_backward_task", backward_task)
        training = build_training_graph(forward)
        executor.run(bindings_for(training.graph, seed=5))
        assert executed == task_orders(schedule, executor.num_stages, 4)

    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_microbatched_matches_full_batch_hierarchical_run(self, schedule):
        forward = build_tiny_transformer()
        training = build_training_graph(forward)
        bindings = bindings_for(training.graph, seed=4)
        whole = scheduled_candidate(forward, 2, schedule, 1)
        full = run_hierarchical_plan(whole, bindings)
        micro = run_hierarchical_plan(scheduled_candidate(forward, 2, schedule, 4), bindings)
        # One microbatch is the one-microbatch case of the scheduled loop:
        # the outputs are the updated parameters plus the loss, with no
        # boundary tensors.
        expected = {training.loss}
        for chunk in whole.stages:
            expected.update(chunk.info.updates.values())
        assert set(full.outputs) == expected
        assert micro.loss == pytest.approx(full.loss, rel=2e-4, abs=1e-5)
        for param, value in full.updated_parameters.items():
            np.testing.assert_allclose(
                micro.updated_parameters[param], value, rtol=2e-4, atol=1e-5
            )

    def test_indivisible_microbatch_count_falls_back_to_full_batch(self):
        from repro.runtime.spmd import HierarchicalExecutor

        plan = scheduled_candidate(build_mlp(), 2, "gpipe", 5)  # 5 does not divide 16
        assert plan.num_microbatches == 5
        executor = HierarchicalExecutor(plan)
        assert executor.num_microbatches == 1

    def test_plan_without_batch_size_runs_as_one_microbatch(self):
        forward = build_tiny_transformer()
        plan = HierarchicalPlanner(forward, make_cluster(), hier_config()).build_candidate(2)
        plan = dataclasses.replace(plan, batch_size=None)
        from repro.runtime.spmd import HierarchicalExecutor

        training = build_training_graph(forward)
        bindings = bindings_for(training.graph, seed=6)
        executor = HierarchicalExecutor(plan)
        assert executor.num_microbatches == 1
        result = executor.run(bindings)
        reference = SingleDeviceExecutor(training.graph).run(bindings)
        assert result.loss == pytest.approx(float(reference[training.loss]), rel=2e-4, abs=1e-4)

    def test_flat_plan_executes_through_hierarchical_runtime(self):
        forward = build_mlp()
        plan = HierarchicalPlanner(forward, make_cluster(), hier_config()).build_candidate(1)
        training = build_training_graph(forward)
        bindings = bindings_for(training.graph, seed=1)
        result = run_hierarchical_plan(plan, bindings)
        reference = SingleDeviceExecutor(training.graph).run(bindings)
        assert result.loss == pytest.approx(float(reference[training.loss]), rel=2e-4, abs=1e-4)


# ---------------------------------------------------------------------------
# harness integration
# ---------------------------------------------------------------------------

class TestHarnessIntegration:
    def test_compare_systems_reads_hap_and_baseline_plans(self):
        from repro.baselines import plan_baseline
        from repro.experiments.harness import compare_systems, out_of_memory

        cluster = make_cluster()
        forward = build_tiny_transformer()
        training = build_training_graph(forward).graph
        comparison = compare_systems(
            "tiny",
            cluster,
            systems=["HAP", "DP-EV"],
            planner_config=small_planner(),
            forward=forward,
        )
        plans = {
            "HAP": hap(training, cluster, small_planner()),
            "DP-EV": plan_baseline("DP-EV", training, cluster, small_planner()),
        }
        for system, plan in plans.items():
            result = comparison.results[system]
            assert result.estimated_time == plan.estimated_time.total
            assert result.out_of_memory == out_of_memory(plan, forward, cluster)
            assert result.comm_kinds == plan.program.communication_kinds()
            assert result.simulated_time is not None and result.simulated_time > 0
