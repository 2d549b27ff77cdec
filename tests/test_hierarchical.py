"""Tests of the hierarchical (pipeline-over-SPMD) planning stack.

Covers every new layer: cluster partitioning invariants, the pipeline layer
cut on the registry models, the GPipe schedule simulator against a
hand-computed example, the hierarchical planner (flat HAP as the 1-stage
special case, degeneration on a homogeneous testbed, pipelining wins on a
bandwidth-constrained heterogeneous testbed), and end-to-end runtime parity
of hierarchical execution against single-device training.
"""

import dataclasses

import numpy as np
import pytest

from repro.autodiff import GRAD_SEED_SUFFIX, build_stage_training_graph, build_training_graph
from repro.cluster import (
    ClusterSpec,
    NetworkSpec,
    Subcluster,
    heterogeneous_testbed,
    homogeneous_testbed,
)
from repro.core import (
    HierarchicalConfig,
    HierarchicalPlanner,
    PlannerConfig,
    SynthesisConfig,
    stage_forward_graph,
)
from repro.core.hierarchical import MICROBATCH_CANDIDATES
from repro.graph import cut_transfer_bytes, pipeline_cut
from repro.graph.ops import OpKind
from repro.hap import hap, hap_pipeline
from repro.models import build_tiny_model
from repro.models.bert import BERTConfig, build_bert
from repro.models.vit import ViTConfig, build_vit
from repro.runtime import SingleDeviceExecutor, run_hierarchical_plan
from repro.simulator import (
    ChunkTimes,
    StageTimes,
    profile_stages,
    simulate_hierarchical,
    simulate_pipeline,
    simulate_plan,
)

from .conftest import bindings_for, build_mlp, build_tiny_moe, build_tiny_transformer, make_cluster

REGISTRY = ["bert_base", "vit", "bert_moe", "vgg19"]


def small_planner(beam_width=8, max_rounds=1):
    config = PlannerConfig(max_rounds=max_rounds)
    config.synthesis = SynthesisConfig(beam_width=beam_width)
    return config


def hier_config(**kwargs):
    kwargs.setdefault("planner", small_planner())
    return HierarchicalConfig(**kwargs)


# ---------------------------------------------------------------------------
# cluster partitioning
# ---------------------------------------------------------------------------

class TestClusterPartition:
    def test_groups_are_contiguous_and_cover_all_machines(self):
        cluster = heterogeneous_testbed(num_gpus=64)
        for s in range(1, len(cluster.machines) + 1):
            partition = cluster.partition(s)
            assert partition.num_groups == s
            flattened = [m for g in partition.groups for m in g.machines]
            assert flattened == cluster.machines
            assert all(len(g.machines) >= 1 for g in partition.groups)

    def test_inter_group_network_preserved(self):
        cluster = heterogeneous_testbed(num_gpus=32)
        fast = NetworkSpec(bandwidth=100e9)
        partition = cluster.partition(2, intra_group_network=fast)
        assert partition.inter_group_network is cluster.network
        assert all(g.network is fast for g in partition.groups)

    def test_balance_tracks_compute(self):
        cluster = homogeneous_testbed()  # 4 identical machines
        ratios = cluster.partition(2).compute_ratios()
        assert ratios == pytest.approx([0.5, 0.5])

    def test_subclusters_are_cluster_specs(self):
        cluster = heterogeneous_testbed(num_gpus=32)
        group = cluster.partition(2).groups[0]
        assert isinstance(group, Subcluster)
        assert group.parent is cluster
        assert group.num_devices == len(group.machines)  # group_by_machine
        assert sum(group.proportional_ratios()) == pytest.approx(1.0)

    def test_invalid_group_counts_rejected(self):
        cluster = homogeneous_testbed()
        with pytest.raises(ValueError):
            cluster.partition(0)
        with pytest.raises(ValueError):
            cluster.partition(len(cluster.machines) + 1)


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


# ---------------------------------------------------------------------------
# 1F1B / interleaved schedules and memory accounting
# ---------------------------------------------------------------------------

class TestOneFOneBSchedule:
    def two_stage_inputs(self):
        # Per-microbatch (m=4): forward 1s, backward 2s on both stages, 0.5s
        # transfer per hop; syncs of 3s and 1s; activations of 8/4 bytes
        # full-batch (2/1 bytes per in-flight microbatch), 1 byte of weights.
        return [
            StageTimes(
                forward=4.0, backward=8.0, sync=3.0, send_bytes=2.0,
                activation_bytes=8.0, weight_bytes=1.0,
            ),
            StageTimes(
                forward=4.0, backward=8.0, sync=1.0,
                activation_bytes=4.0, weight_bytes=1.0,
            ),
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
        # Peak in-flight: min(s - i, m) -> [2, 1]; peak memory adds the
        # stage's weight bytes to inflight x per-microbatch activations.
        assert result.peak_inflight == [2, 1]
        assert result.peak_memory == pytest.approx([1.0 + 2 * 2.0, 1.0 + 1 * 1.0])

    def test_gpipe_peak_memory_grows_with_microbatches(self):
        result = simulate_pipeline(self.two_stage_inputs(), 4, inter_group_bandwidth=1.0)
        assert result.peak_inflight == [4, 4]
        assert result.peak_memory == pytest.approx([1.0 + 8.0, 1.0 + 4.0])

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
                    weight_bytes=rng.uniform(0, 10),
                )
                for _ in range(s)
            ]
            gpipe = simulate_pipeline(stages, m, inter_group_bandwidth=1.0)
            ofob = simulate_pipeline(stages, m, inter_group_bandwidth=1.0, schedule="1f1b")
            assert all(o < g for o, g in zip(ofob.peak_memory, gpipe.peak_memory))
            assert all(i <= min(s - idx, m) for idx, i in enumerate(ofob.peak_inflight))

    def test_interleaved_shrinks_bubble(self):
        stages = [
            StageTimes(forward=2.0, backward=4.0, activation_bytes=10.0),
            StageTimes(forward=2.0, backward=4.0, activation_bytes=10.0),
        ]
        ofob = simulate_pipeline(stages, 8, inter_group_bandwidth=1e9, schedule="1f1b")
        inter = simulate_pipeline(
            stages, 8, inter_group_bandwidth=1e9,
            schedule="interleaved-1f1b", num_model_chunks=2,
        )
        assert inter.total < ofob.total
        assert inter.bubble_fraction < ofob.bubble_fraction
        assert inter.num_model_chunks == 2

    def test_interleaved_requires_multiple_of_stage_count(self):
        stages = [StageTimes(1.0, 2.0, send_bytes=1.0), StageTimes(1.0, 2.0)]
        with pytest.raises(ValueError, match="divisible"):
            simulate_pipeline(
                stages, 3, inter_group_bandwidth=1.0,
                schedule="interleaved-1f1b", num_model_chunks=2,
            )
        # With a single chunk the schedule is plain 1F1B and runs any m.
        result = simulate_pipeline(
            stages, 3, inter_group_bandwidth=1.0,
            schedule="interleaved-1f1b", num_model_chunks=1,
        )
        assert result.total > 0

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
        assert rc.peak_memory[0] < plain.peak_memory[0]
        assert rc.recompute and not plain.recompute

    def test_single_stage_peak_memory_is_weights_plus_activations(self):
        result = simulate_pipeline(
            [StageTimes(forward=3.0, backward=4.0, activation_bytes=16.0, weight_bytes=2.0)],
            1,
            inter_group_bandwidth=1.0,
        )
        assert result.peak_memory == pytest.approx([2.0 + 16.0])


# ---------------------------------------------------------------------------
# per-chunk interleaved schedules (exact chunk profiles, real wrap hops)
# ---------------------------------------------------------------------------

class TestPerChunkSchedule:
    def unbalanced_chunked_stages(self, wrap_bytes=4.0):
        # 2 stages x 2 chunks, m=2.  Full-batch chunk profiles (per-mb is /2):
        # k0=(s0,c0): f2 b4 sends 2;  k1=(s1,c0): f4 b8 sends 4 (the WRAP hop);
        # k2=(s0,c1): f6 b8 sends 6;  k3=(s1,c1): f2 b2 sends 0.
        return [
            StageTimes(
                forward=8.0, backward=12.0, sync=1.0, send_bytes=8.0,
                activation_bytes=20.0, weight_bytes=3.0,
                chunks=(
                    ChunkTimes(forward=2.0, backward=4.0, send_bytes=2.0, activation_bytes=8.0),
                    ChunkTimes(forward=6.0, backward=8.0, send_bytes=6.0, activation_bytes=12.0),
                ),
            ),
            StageTimes(
                forward=6.0, backward=10.0, sync=0.5, send_bytes=4.0,
                activation_bytes=6.0, weight_bytes=1.5,
                chunks=(
                    ChunkTimes(
                        forward=4.0, backward=8.0,
                        send_bytes=wrap_bytes, activation_bytes=4.0,
                    ),
                    ChunkTimes(forward=2.0, backward=2.0, send_bytes=0.0, activation_bytes=2.0),
                ),
            ),
        ]

    def test_hand_computed_unbalanced_interleaved_example(self):
        # Hand-traced dependency engine (bandwidth 1, m=2): per-mb times
        # fwd=[1,2,3,1], bwd=[2,4,4,1] over virtual stages k=c*2+i, hops of
        # 1s/2s/3s after k=0/1/2 (the 2s hop is the wrap: physical 1 -> 0).
        # Stage 0 runs F(k0,0..1) @0-2, F(k2,0) @6-9, F(k2,1) @9-12,
        # B(k2,0) @17-21, B(k2,1) @21-25, B(k0,0) @28-30, B(k0,1) @32-34;
        # stage 1 finishes its last backward at 31.  Totals: 34+1 / 31+0.5.
        result = simulate_pipeline(
            self.unbalanced_chunked_stages(), 2, inter_group_bandwidth=1.0,
            schedule="interleaved-1f1b", num_model_chunks=2,
        )
        assert result.total == pytest.approx(35.0)
        assert result.stage_finish == pytest.approx([35.0, 31.5])
        assert result.stage_busy == pytest.approx([21.0, 16.5])
        assert result.bubble == pytest.approx(((35 - 21) + (35 - 16.5)) / 2)
        assert result.transfer == pytest.approx(24.0)  # 2 dirs x 2 mb x (1+2+3)
        # Unequal per-chunk stashes: stage 0 holds both microbatches of both
        # chunks at its peak (8+8+12+12)/2; stage 1 peaks at 2 c0-tasks + 1
        # c1-task (4+4+2)/2.
        assert result.peak_inflight == [4, 3]
        assert result.peak_stash == pytest.approx([20.0, 5.0])
        assert result.peak_memory == pytest.approx([23.0, 6.5])

    def test_wrap_hop_bytes_are_real_not_mean_interior(self):
        # The wrap hop (physical s-1 -> 0 between chunks) carries its chunk's
        # true boundary bytes: fattening only that hop must slow the
        # schedule.  (The old model faked it with the mean interior boundary,
        # which would ignore this entirely.)
        thin = simulate_pipeline(
            self.unbalanced_chunked_stages(wrap_bytes=4.0), 2,
            inter_group_bandwidth=1.0, schedule="interleaved-1f1b", num_model_chunks=2,
        )
        fat = simulate_pipeline(
            self.unbalanced_chunked_stages(wrap_bytes=8.0), 2,
            inter_group_bandwidth=1.0, schedule="interleaved-1f1b", num_model_chunks=2,
        )
        assert fat.total > thin.total
        assert fat.total == pytest.approx(39.0)

    def test_v1_interleaved_equals_plain_1f1b(self):
        # Property: with a single model chunk the interleaved schedule IS
        # plain 1F1B — identical totals, per-stage finishes and memory for
        # any (s, m), including m not divisible by s.
        import random

        rng = random.Random(7)
        for _ in range(50):
            s = rng.randint(2, 5)
            m = rng.randint(2, 20)
            stages = [
                StageTimes(
                    forward=rng.uniform(0.3, 4),
                    backward=rng.uniform(0.3, 6),
                    sync=rng.uniform(0, 2),
                    send_bytes=rng.uniform(0, 5),
                    activation_bytes=rng.uniform(1, 100),
                    weight_bytes=rng.uniform(0, 10),
                )
                for _ in range(s)
            ]
            plain = simulate_pipeline(stages, m, inter_group_bandwidth=1.0, schedule="1f1b")
            inter = simulate_pipeline(
                stages, m, inter_group_bandwidth=1.0,
                schedule="interleaved-1f1b", num_model_chunks=1,
            )
            assert inter.total == pytest.approx(plain.total)
            assert inter.stage_finish == pytest.approx(plain.stage_finish)
            assert inter.peak_inflight == plain.peak_inflight
            assert inter.peak_memory == pytest.approx(plain.peak_memory)

    def test_equal_chunks_reproduce_equal_slice_estimate(self):
        # When the real chunks happen to be equal slices of each stage (and
        # the wrap chunk's boundary equals the last stage's send_bytes), the
        # per-chunk simulation must reproduce the equal-chunk fallback — the
        # exact path strictly generalises the old model.
        import random

        rng = random.Random(11)
        for _ in range(20):
            s = rng.randint(2, 4)
            m = s * rng.randint(1, 4)
            aggregates = [
                dict(
                    forward=rng.uniform(0.5, 4),
                    backward=rng.uniform(0.5, 6),
                    sync=rng.uniform(0, 1),
                    send_bytes=rng.uniform(0.1, 5),
                    activation_bytes=rng.uniform(1, 50),
                    weight_bytes=rng.uniform(0, 10),
                )
                for _ in range(s)
            ]
            plain = [StageTimes(**agg) for agg in aggregates]
            chunked = [
                StageTimes(
                    **agg,
                    chunks=tuple(
                        ChunkTimes(
                            forward=agg["forward"] / 2,
                            backward=agg["backward"] / 2,
                            send_bytes=agg["send_bytes"],
                            activation_bytes=agg["activation_bytes"] / 2,
                        )
                        for _ in range(2)
                    ),
                )
                for agg in aggregates
            ]
            a = simulate_pipeline(
                plain, m, inter_group_bandwidth=1.0,
                schedule="interleaved-1f1b", num_model_chunks=2,
            )
            b = simulate_pipeline(
                chunked, m, inter_group_bandwidth=1.0,
                schedule="interleaved-1f1b", num_model_chunks=2,
            )
            assert b.total == pytest.approx(a.total)
            assert b.peak_memory == pytest.approx(a.peak_memory)

    def test_chunk_count_mismatch_rejected(self):
        stages = [
            StageTimes(
                forward=1.0, backward=2.0,
                chunks=(ChunkTimes(0.5, 1.0), ChunkTimes(0.5, 1.0), ChunkTimes(0.5, 1.0)),
            ),
            StageTimes(forward=1.0, backward=2.0),
        ]
        with pytest.raises(ValueError, match="chunk profiles"):
            simulate_pipeline(
                stages, 2, inter_group_bandwidth=1.0,
                schedule="interleaved-1f1b", num_model_chunks=2,
            )


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
        plan = hap_pipeline(forward, fast, HierarchicalConfig(planner=small_planner()))
        assert plan.num_stages == 1
        assert plan.is_flat

    def test_microbatch_count_snapped_to_batch_divisor(self):
        # The candidate 32 exceeds the batch of 16; the planner must snap it
        # to a divisor instead of producing ragged/empty microbatches
        # (regression for the silent acceptance of m > batch).
        forward = build_tiny_transformer()  # batch 16
        planner = HierarchicalPlanner(forward, make_cluster(), hier_config(max_stages=2))
        assert max(MICROBATCH_CANDIDATES) > 16
        assert planner._microbatch_candidates(2, "gpipe") == [2, 4, 8, 16]
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
        from repro.cluster.device import DeviceType
        from repro.cluster import ClusterSpec, Machine
        from repro.simulator import get_schedule

        small = DeviceType("SmallGPU", peak_tflops=15.0, memory_bytes=1 * 1024 ** 3)
        machines = [
            Machine(f"a{i}", small, num_gpus=1, intra_bandwidth=100e9) for i in range(4)
        ]
        cluster = ClusterSpec(
            machines,
            network=NetworkSpec(bandwidth=100e9 / 8, latency=5e-6),
            group_by_machine=True,
            name="mem-constrained",
        )
        forward = build_bert(BERTConfig(batch_size=64, num_layers=2))
        config = hier_config(
            schedules=["gpipe", "1f1b"], recompute="never", max_stages=2
        )
        planner = HierarchicalPlanner(forward, cluster, config)
        plan = planner.plan()
        assert plan.num_stages == 2
        assert plan.schedule_name == "1f1b"
        assert plan.fits_memory
        assert plan.num_microbatches > config.max_stages
        # GPipe at the very same microbatch count exceeds device memory.
        times = profile_stages(plan.stages, planner._profile_chunk, planner._profile_memo)
        network = plan.partition.inter_group_network
        gpipe = get_schedule("gpipe").simulate(
            times, plan.num_microbatches, network.bandwidth, network.latency
        )
        assert not planner._fits_memory(plan.stages, gpipe)
        ofob = get_schedule("1f1b").simulate(
            times, plan.num_microbatches, network.bandwidth, network.latency
        )
        assert planner._fits_memory(plan.stages, ofob)

    def test_recompute_auto_only_wins_under_memory_pressure(self):
        # With abundant memory the "auto" policy must not pick recomputation
        # (it costs an extra forward per microbatch).
        plan = HierarchicalPlanner(
            build_tiny_transformer(), make_cluster(), hier_config(max_stages=2)
        ).plan()
        assert plan.recompute is False

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            hier_config(recompute="sometimes")
        with pytest.raises(KeyError):
            hier_config(schedules=["gpipe", "zig-zag"])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_stages", 0),
            ("num_model_chunks", 0),
            # An empty sequence must not fall through to every schedule.
            ("schedules", []),
            ("schedules", ()),
        ],
    )
    def test_out_of_range_config_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            HierarchicalConfig(**{field: value})

    def test_smallest_valid_config_accepted(self):
        config = HierarchicalConfig(max_stages=1, num_model_chunks=1)
        assert (config.max_stages, config.num_model_chunks) == (1, 1)

    def test_interleaved_only_with_incompatible_batch_falls_back_to_flat(self):
        # Batch 16 has no divisor that is a multiple of 3, so an
        # interleaved-only search has no valid microbatch count at 3 stages;
        # the planner must skip that candidate (not crash) and keep the
        # always-valid flat plan.
        forward = build_tiny_transformer()  # batch 16
        cluster = make_cluster(("A100", "A100", "P100"))
        planner = HierarchicalPlanner(
            forward, cluster, hier_config(schedules=["interleaved-1f1b"], max_stages=3)
        )
        assert planner.build_candidate(3) is None
        plan = planner.plan()
        assert 3 not in plan.candidate_times
        assert 1 in plan.candidate_times
        # With a compatible stage count the interleaved-only search works and
        # discovers batch divisors that are multiples of the stage count.
        plan2 = HierarchicalPlanner(
            forward,
            cluster,
            hier_config(schedules=["interleaved-1f1b"], max_stages=2),
        ).plan()
        combos = {k for k in plan2.schedule_candidate_times if k[0] == 2}
        assert combos and all(k[2] % 2 == 0 for k in combos)

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
            planner=small_planner(),
            intra_group_network=NetworkSpec(bandwidth=100e9 / 8),
        )
        plan = hap_pipeline(forward, cluster, config)
        assert plan.num_stages >= 2
        flat = hap(forward, cluster, small_planner())
        pipe_sim = simulate_hierarchical(plan, iterations=3, seed=0).total
        flat_sim = simulate_plan(flat, cluster, iterations=3, seed=0).total
        assert pipe_sim < flat_sim


# ---------------------------------------------------------------------------
# per-chunk interleaved planning
# ---------------------------------------------------------------------------

class TestPerChunkPlanner:
    def interleaved_candidate(self, forward, num_chunks=2, cluster=None):
        config = hier_config(schedules=["interleaved-1f1b"], num_model_chunks=num_chunks)
        planner = HierarchicalPlanner(forward, cluster or make_cluster(), config)
        return planner.build_candidate(2)

    def test_interleaved_plan_builds_real_chunk_programs(self):
        forward = build_tiny_transformer()
        plan = self.interleaved_candidate(forward)
        assert plan is not None
        assert plan.schedule_name == "interleaved-1f1b"
        assert plan.num_model_chunks == 2
        assert [stage.num_chunks for stage in plan.stages] == [2, 2]
        seq = plan.chunk_sequence()
        # Virtual order is chunk-major round-robin: (c0,s0),(c0,s1),(c1,s0),(c1,s1).
        assert [(c.chunk, c.stage_index) for c in seq] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [c.virtual_index for c in seq] == [0, 1, 2, 3]
        # Every chunk carries its own flat-HAP program and training info.
        assert len({id(c.program) for c in seq}) == 4
        # The schedule consumed real per-chunk profiles, not equal slices.
        planner = HierarchicalPlanner(forward, make_cluster(), hier_config())
        chunk_fwd = [
            [ct.forward for ct in times.chunks]
            for times in profile_stages(plan.stages, planner._profile_chunk, {})
        ]
        assert all(len(f) == 2 for f in chunk_fwd)

    def test_chunk_parameters_cover_model_exactly_once(self):
        forward = build_tiny_transformer()
        plan = self.interleaved_candidate(forward)
        updated = [p for c in plan.chunk_sequence() for p in c.info.updates]
        full = build_training_graph(forward)
        assert sorted(updated) == sorted(full.updates.keys())

    def test_wrap_hop_bytes_recorded_on_last_stage_chunks(self):
        forward = build_tiny_transformer()
        plan = self.interleaved_candidate(forward)
        # Chunk (c=0, stage=s-1) sends the wrap hop to (c=1, stage=0): its
        # cut is interior to the model, so it must carry real bytes.
        wrap_chunk = plan.stages[-1].chunks[0]
        assert wrap_chunk.send_bytes > 0
        # The final chunk of the final stage ends at the loss: nothing sent.
        assert plan.stages[-1].chunks[-1].send_bytes == 0

    def test_v1_reduces_to_single_chunk_stages(self):
        forward = build_tiny_transformer()
        plan = HierarchicalPlanner(
            forward, make_cluster(), hier_config(max_stages=2, num_model_chunks=1)
        ).plan()
        assert all(stage.num_chunks == 1 for stage in plan.stages)
        # With one chunk per stage, virtual stage k is physical stage k.
        for stage in plan.stages:
            (chunk,) = stage.chunks
            assert chunk.chunk == 0
            assert chunk.stage_index == chunk.virtual_index == stage.index
            assert chunk.subcluster is stage.subcluster
        assert plan.chunk_sequence() == [stage.chunks[0] for stage in plan.stages]

    def test_interleaved_stages_report_chunk_aggregates(self):
        plan = self.interleaved_candidate(build_tiny_transformer())
        stage = plan.stages[0]
        assert stage.num_chunks > 1
        # Aggregates stay available for reporting.
        assert stage.send_bytes > 0
        assert stage.weight_bytes_total() > 0
        assert stage.send_bytes == sum(c.send_bytes for c in stage.chunks)

    def test_round_robin_cut_balances_group_compute(self):
        from repro.graph import interleaved_pipeline_cut

        graph = build_tiny_model("bert_base")
        cut = interleaved_pipeline_cut(graph, [3.0, 1.0], 2)
        assert cut.num_stages == 4
        total = sum(cut.stage_flops)
        # Chunks k=0,2 run on the 3x group, k=1,3 on the 1x group: each
        # group's total share tracks its weight.
        heavy = (cut.stage_flops[0] + cut.stage_flops[2]) / total
        assert heavy > 0.55

    def test_infeasible_chunk_cut_skips_interleaved(self):
        # An MLP has too few splittable blocks for 2 stages x 8 chunks; the
        # interleaved-only search must skip the schedule (never model fake
        # equal chunks) and fall back to the flat plan.
        forward = build_mlp()
        plan = HierarchicalPlanner(
            forward,
            make_cluster(),
            hier_config(
                schedules=["interleaved-1f1b"], max_stages=2, num_model_chunks=8
            ),
        ).plan()
        assert plan.num_stages == 1
        assert not any(
            key[0] == 2 and key[1] == "interleaved-1f1b"
            for key in plan.schedule_candidate_times
        )

    def test_estimate_matches_simulator_schedule_shape(self):
        # The planner estimate and the measured simulation run the same
        # per-chunk schedule: same chunk count, same microbatch count, and a
        # schedule whose per-stage profiles carry per-chunk data.
        plan = self.interleaved_candidate(build_tiny_transformer())
        sim = simulate_hierarchical(plan, iterations=1, seed=0)
        assert sim.schedule.num_model_chunks == 2
        assert sim.schedule.num_microbatches == plan.num_microbatches
        assert all(len(t.chunks) == 2 for t in sim.stage_times)

    def test_microbatch_candidates_bounded_for_large_batches(self):
        # Regression: the interleaved candidate list used to append every
        # multiple of the stage count up to the batch size — O(batch) work
        # and an unbounded combo grid.  It must stay bounded by
        # MICROBATCH_CANDIDATES (plus s and 2s) and contain only valid divisors.
        forward = build_mlp(batch=4096)
        planner = HierarchicalPlanner(forward, make_cluster(), hier_config())
        for s in (2, 3, 4):
            cands = planner._microbatch_candidates(s, "interleaved-1f1b")
            assert len(cands) <= len(MICROBATCH_CANDIDATES) + 2
            assert all(4096 % m == 0 and m % s == 0 for m in cands)
        # Incompatible batch: no divisor is a multiple of 3 for batch 16.
        small = HierarchicalPlanner(build_mlp(batch=16), make_cluster(), hier_config())
        assert small._microbatch_candidates(3, "interleaved-1f1b") == []

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
    :func:`repro.simulator.schedule.profile_stages`, which runs each
    distinct chunk content key's profiler once."""

    @pytest.fixture(scope="class")
    def two_machines(self):
        """Two heterogeneous machines: a 3-cell (stage, chunk-variant) grid."""
        return make_cluster(("A100", "P100"), group=True)

    def test_profile_stages_profiles_each_key_once(self):
        from types import SimpleNamespace

        def chunk(key, fwd, send):
            return SimpleNamespace(
                content_key=key, fwd=fwd, send_bytes=send, activation_bytes=2 * send
            )

        def stage(*chunks):
            return SimpleNamespace(
                chunks=list(chunks),
                send_bytes=sum(c.send_bytes for c in chunks),
                activation_bytes=sum(c.activation_bytes for c in chunks),
                weight_bytes_total=lambda: 7.0,
            )

        stages = [stage(chunk("a", 1.0, 10), chunk("b", 2.0, 20)), stage(chunk("a", 9.0, 30))]
        calls = []

        def profile(c):
            calls.append(c.content_key)
            return {"forward": c.fwd, "backward": 2 * c.fwd, "sync": 0.5}

        memo = {}
        times = profile_stages(stages, profile, memo)
        assert calls == ["a", "b"]  # the second "a" chunk reuses the first's buckets
        assert sorted(memo) == ["a", "b"]
        assert times[1] == StageTimes(
            forward=1.0,
            backward=2.0,
            sync=0.5,
            send_bytes=30.0,
            activation_bytes=60.0,
            weight_bytes=7.0,
            chunks=(ChunkTimes(1.0, 2.0, send_bytes=30.0, activation_bytes=60.0),),
        )
        assert times[0].forward == 3.0 and times[0].sync == 1.0
        # Keyless chunks are profiled every time.
        for st in stages:
            for c in st.chunks:
                c.content_key = None
        calls.clear()
        profile_stages(stages, profile, {})
        assert calls == [None, None, None]

    def test_planner_profiles_once_per_content_key(self, two_machines, monkeypatch):
        from repro.core import CostModel

        calls = []
        orig = CostModel.phase_profile

        def counting(self, *args, **kwargs):
            calls.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(CostModel, "phase_profile", counting)
        planner = HierarchicalPlanner(build_mlp(), two_machines, hier_config())
        plan = planner.plan()
        assert len(calls) == len(planner._profile_memo)
        before = len(calls)
        # Re-deriving stage times for already-profiled chunks is free.
        profile_stages(plan.stages, planner._profile_chunk, planner._profile_memo)
        assert len(calls) == before

    def test_planner_profile_memo_result_identical(self, two_machines):
        planner = HierarchicalPlanner(build_mlp(), two_machines, hier_config())
        plan = planner.plan()
        keyed = profile_stages(plan.stages, planner._profile_chunk, planner._profile_memo)
        # Without content keys every chunk is profiled afresh.
        for chunk in plan.chunk_sequence():
            chunk.content_key = None
        assert profile_stages(plan.stages, planner._profile_chunk, {}) == keyed

    def test_simulator_profiles_once_per_key_and_identically(self, two_machines, monkeypatch):
        plan = HierarchicalPlanner(build_mlp(), two_machines, hier_config()).plan()
        baseline = simulate_hierarchical(plan, iterations=2)

        import repro.simulator.engine as engine

        calls = []
        orig = engine.ExecutionSimulator.profile_program

        def counting(self, *args, **kwargs):
            calls.append(1)
            return orig(self, *args, **kwargs)

        monkeypatch.setattr(engine.ExecutionSimulator, "profile_program", counting)
        keyed = simulate_hierarchical(plan, iterations=2)
        distinct = {c.content_key for c in plan.chunk_sequence() if c.content_key}
        assert len(calls) == len(distinct)
        assert keyed.total == baseline.total
        assert keyed.schedule.total == baseline.schedule.total

        # Stripping the keys disables the memo but not the numbers.
        for chunk in plan.chunk_sequence():
            chunk.content_key = None
        calls.clear()
        plain = simulate_hierarchical(plan, iterations=2)
        assert len(calls) == len(plan.chunk_sequence())
        assert plain.total == baseline.total


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
    def test_matches_single_device_training(self, builder, num_stages, rtol):
        forward = builder()
        planner = HierarchicalPlanner(forward, make_cluster(), hier_config())
        plan = planner.build_candidate(num_stages)
        assert plan is not None and plan.num_stages == num_stages
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
                err_msg=f"parameter {param} diverged",
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
        ],
    )
    def test_microbatched_execution_matches_full_batch(self, builder, num_microbatches, rtol):
        # Gradient accumulation over equal microbatches with sum-reduced
        # losses is mathematically identical to the full-batch iteration, so
        # the microbatched 1F1B runtime must reproduce single-device training
        # (the schedule's interleaving only affects timing, not numerics).
        forward = builder()
        planner = HierarchicalPlanner(forward, make_cluster(), hier_config())
        plan = planner.build_candidate(2)
        assert plan is not None
        training = build_training_graph(forward)
        bindings = bindings_for(training.graph, seed=3)
        reference = SingleDeviceExecutor(training.graph).run(bindings)
        result = run_hierarchical_plan(plan, bindings, num_microbatches=num_microbatches)
        assert result.loss == pytest.approx(
            float(reference[training.loss]), rel=rtol, abs=1e-4
        )
        for param, update_node in training.updates.items():
            np.testing.assert_allclose(
                result.updated_parameters[param],
                reference[update_node],
                rtol=rtol,
                atol=1e-4,
                err_msg=f"parameter {param} diverged at m={num_microbatches}",
            )

    def test_microbatched_matches_full_batch_hierarchical_run(self):
        forward = build_tiny_transformer()
        plan = HierarchicalPlanner(forward, make_cluster(), hier_config()).build_candidate(2)
        training = build_training_graph(forward)
        bindings = bindings_for(training.graph, seed=4)
        full = run_hierarchical_plan(plan, bindings, num_microbatches=1)
        micro = run_hierarchical_plan(plan, bindings, num_microbatches=4)
        assert micro.loss == pytest.approx(full.loss, rel=2e-4, abs=1e-5)
        for param, value in full.updated_parameters.items():
            np.testing.assert_allclose(
                micro.updated_parameters[param], value, rtol=2e-4, atol=1e-5
            )

    def test_indivisible_microbatch_count_falls_back_to_full_batch(self):
        forward = build_mlp()  # batch 16
        plan = HierarchicalPlanner(forward, make_cluster(), hier_config()).build_candidate(2)
        from repro.runtime.spmd import HierarchicalExecutor

        executor = HierarchicalExecutor(plan, num_microbatches=5)  # 5 does not divide 16
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
# interleaved runtime execution
# ---------------------------------------------------------------------------

class TestInterleavedRuntimeParity:
    def interleaved_plan(self, forward):
        config = hier_config(schedules=["interleaved-1f1b"], num_model_chunks=2)
        plan = HierarchicalPlanner(forward, make_cluster(), config).build_candidate(2)
        assert plan is not None and plan.num_model_chunks == 2
        return plan

    @pytest.mark.parametrize(
        "builder,num_microbatches,rtol",
        [
            (build_tiny_transformer, None, 2e-4),  # the plan's own schedule
            (build_tiny_transformer, 1, 2e-4),
            (build_tiny_transformer, 4, 2e-4),
            (build_tiny_moe, None, 1e-3),
            (build_tiny_moe, 4, 1e-3),
        ],
    )
    def test_matches_single_device_training(self, builder, num_microbatches, rtol):
        # Four resident chunk programs (2 stages x 2 chunks) executed in the
        # interleaved task order, with activation/gradient handoff on every
        # virtual boundary including the wrap hops, must reproduce
        # single-device full-batch training.
        forward = builder()
        plan = self.interleaved_plan(forward)
        training = build_training_graph(forward)
        bindings = bindings_for(training.graph, seed=2)
        reference = SingleDeviceExecutor(training.graph).run(bindings)
        result = run_hierarchical_plan(plan, bindings, num_microbatches=num_microbatches)
        assert result.loss == pytest.approx(
            float(reference[training.loss]), rel=rtol, abs=1e-4
        )
        for param, update_node in training.updates.items():
            np.testing.assert_allclose(
                result.updated_parameters[param],
                reference[update_node],
                rtol=rtol,
                atol=1e-4,
                err_msg=f"parameter {param} diverged (m={num_microbatches})",
            )
        for param in set(result.updated_parameters) - set(training.updates):
            np.testing.assert_allclose(
                result.updated_parameters[param],
                bindings[param],
                rtol=rtol,
                atol=1e-4,
                err_msg=f"pruned parameter {param} must stay unchanged",
            )

    def test_executor_follows_megatron_task_order(self):
        from repro.runtime.spmd import HierarchicalExecutor
        from repro.simulator import get_schedule

        plan = self.interleaved_plan(build_tiny_transformer())
        executor = HierarchicalExecutor(plan, num_microbatches=4)
        assert executor.chunks_per_stage == 2
        assert len(executor.executors) == 4  # one resident program per chunk
        orders = executor._task_orders(4)
        expected = get_schedule("interleaved-1f1b", num_model_chunks=2).task_orders(2, 4, 2)
        assert orders == expected

    def test_executor_falls_back_to_sweep_on_incompatible_microbatches(self):
        from repro.runtime.spmd import HierarchicalExecutor

        plan = self.interleaved_plan(build_tiny_transformer())  # batch 16, s=2
        # m=8 divides the batch; the interleaved order applies.  A
        # hypothetical odd m that divides the batch does not exist for 16,
        # so exercise the fallback through the order helper directly.
        executor = HierarchicalExecutor(plan, num_microbatches=8)
        sweep = executor._task_orders(3)  # 3 % s != 0 -> sequential sweep
        assert all(len(order) == 3 * 2 * 2 for order in sweep)
        for order in sweep:
            # Per microbatch: forwards chunk 0 then 1, backwards reversed.
            assert order[:4] == [("F", 0, 0), ("F", 1, 0), ("B", 1, 0), ("B", 0, 0)]


# ---------------------------------------------------------------------------
# harness integration
# ---------------------------------------------------------------------------

class TestHarnessIntegration:
    def test_hap_pipeline_is_a_first_class_system(self):
        from repro.baselines import BASELINE_NAMES, plan_baseline
        from repro.experiments.harness import compare_systems

        assert "HAP-Pipeline" in BASELINE_NAMES
        forward = build_tiny_transformer()
        cluster = make_cluster()
        plan = plan_baseline("HAP-Pipeline", forward, cluster, hier_config(max_stages=2))
        assert plan.num_stages >= 1
        comparison = compare_systems(
            "tiny",
            cluster,
            systems=["HAP", "HAP-Pipeline"],
            planner_config=small_planner(),
            training_graph=build_training_graph(forward).graph,
            forward_graph=forward,
            hierarchical_config=hier_config(max_stages=2),
        )
        result = comparison.results["HAP-Pipeline"]
        assert result.simulated_time is not None and result.simulated_time > 0
        assert result.estimated_time > 0

    def test_hap_pipeline_requires_forward_graph(self):
        from repro.experiments.harness import compare_systems

        training = build_training_graph(build_mlp()).graph
        with pytest.raises(ValueError):
            compare_systems(
                "tiny",
                make_cluster(),
                systems=["HAP-Pipeline"],
                planner_config=small_planner(),
                training_graph=training,
            )
