"""Tests of the event-driven dual-stream overlap model.

Covers every layer that reads a cluster's ``comm_overlap_efficiency``: the
cluster spec's validation and propagation, the cost model's overlap-aware
evaluation, the execution simulator's dual-stream replay, the
pipeline-schedule engine's asynchronous boundary transfers (hand-computed
partial-overlap case, ``overlap=0`` blocking-equivalence and monotonicity
properties for all three schedules), the hierarchical planner's
exposed-communication ranking (a slow-network testbed where the default
overlap selects a different plan) and per-hop skip-connection byte
charging.
"""

import random

import pytest

from repro.autodiff import build_training_graph
from repro.cluster import (
    DEFAULT_COMM_OVERLAP_EFFICIENCY,
    ClusterSpec,
    Machine,
    NetworkSpec,
    device_type,
    heterogeneous_testbed,
)
from repro.core import (
    CostModel,
    HierarchicalConfig,
    HierarchicalPlanner,
    ProgramSynthesizer,
    SynthesisConfig,
)
from repro.graph import DType, GraphBuilder, cut_transfer_bytes, pipeline_cut
from repro.models.bert import BERTConfig, build_bert
from repro.simulator import (
    SCHEDULE_NAMES,
    ExecutionSimulator,
    StageTimes,
    simulate_hierarchical,
    simulate_pipeline,
)

from .conftest import (
    blocking_cluster,
    build_tiny_transformer,
    make_cluster,
    with_overlap,
)


def small_planner(beam_width=8):
    return SynthesisConfig(beam_width=beam_width)


def hier_config(**kwargs):
    kwargs.setdefault("synthesis", small_planner())
    return HierarchicalConfig(**kwargs)


def random_stages(rng, s):
    return [
        StageTimes(
            forward=rng.uniform(0.3, 4),
            backward=rng.uniform(0.3, 6),
            sync=rng.uniform(0, 2),
            send_bytes=rng.uniform(0, 5),
            activation_bytes=rng.uniform(1, 100),
        )
        for _ in range(s)
    ]


# ---------------------------------------------------------------------------
# the efficiency on the cluster spec
# ---------------------------------------------------------------------------

class TestClusterOverlapEfficiency:
    @pytest.mark.parametrize("efficiency", [-0.1, 1.1, 2.0, float("nan")])
    def test_validation(self, efficiency):
        with pytest.raises(ValueError):
            ClusterSpec(
                [Machine("m", device_type("A100"), num_gpus=1)],
                comm_overlap_efficiency=efficiency,
            )

    def test_pricers_read_the_cluster(self, synthesized_program):
        training, _program, cluster = synthesized_program
        assert cluster.comm_overlap_efficiency == pytest.approx(
            DEFAULT_COMM_OVERLAP_EFFICIENCY
        )
        blocking = blocking_cluster(cluster)
        for spec in (cluster, blocking):
            e = spec.comm_overlap_efficiency
            assert CostModel(training, spec).overlap == e
            assert ExecutionSimulator(spec).overlap == e
        assert blocking.comm_overlap_efficiency == 0.0

    def test_cluster_propagates_to_partitions(self):
        cluster = heterogeneous_testbed(num_gpus=32)
        assert cluster.comm_overlap_efficiency == DEFAULT_COMM_OVERLAP_EFFICIENCY
        tweaked = ClusterSpec(
            cluster.machines,
            network=cluster.network,
            group_by_machine=True,
            comm_overlap_efficiency=0.25,
        )
        assert all(
            g.comm_overlap_efficiency == 0.25 for g in tweaked.split([1, len(tweaked.machines)])
        )


# ---------------------------------------------------------------------------
# schedule engine: asynchronous boundary transfers
# ---------------------------------------------------------------------------

class TestScheduleOverlap:
    def two_stage_inputs(self):
        # The PR-3 hand-computed case: per-microbatch (m=4) forward 1s,
        # backward 2s on both stages, 0.5s transfer per hop, syncs 3s/1s.
        return [
            StageTimes(forward=4.0, backward=8.0, sync=3.0, send_bytes=2.0),
            StageTimes(forward=4.0, backward=8.0, sync=1.0),
        ]

    def test_hand_computed_partial_overlap_1f1b(self):
        # overlap=0.5 hides 0.5*min(0.5, 1)=0.25s of each forward hop and
        # 0.5*min(0.5, 2)=0.25s of each gradient hop, so every dependency
        # edge carries 0.25s instead of 0.5s.  Hand trace (stage0 order
        # F0 F1 B0 F2 B1 F3 B2 B3; stage1 F0 B0 F1 B1 F2 B2 F3 B3):
        # F0s0 0-1, F0s1 1.25-2.25, B0s1 2.25-4.25, B0s0 4.5-6.5,
        # F1s1 4.25-5.25, B1s1 5.25-7.25, F2s0 6.5-7.5, B1s0 7.5-9.5,
        # F2s1 7.75-8.75, B2s1 8.75-10.75, F3s0 9.5-10.5, B2s0 11-13,
        # F3s1 10.75-11.75, B3s1 11.75-13.75, B3s0 14-16.
        # Finish: stage0 16+3=19, stage1 13.75+1=14.75 -> total 19.
        result = simulate_pipeline(
            self.two_stage_inputs(), 4, inter_group_bandwidth=1.0,
            schedule="1f1b", overlap=0.5,
        )
        assert result.total == pytest.approx(19.0)
        assert result.stage_finish == pytest.approx([19.0, 14.75])
        # Raw transfer load is unchanged; half of it hides per edge.
        assert result.transfer == pytest.approx(4.0)
        assert result.hidden_transfer == pytest.approx(2.0)
        assert result.exposed_transfer == pytest.approx(2.0)
        assert result.overlap == 0.5
        # Sender comm streams: stage 0 ships 4 forward sends, stage 1 ships
        # 4 gradient sends, 0.5s each.
        assert result.comm_busy == pytest.approx([2.0, 2.0])
        # Full overlap exposes nothing on the edges: total drops to 18.
        full = simulate_pipeline(
            self.two_stage_inputs(), 4, inter_group_bandwidth=1.0,
            schedule="1f1b", overlap=1.0,
        )
        assert full.total == pytest.approx(18.0)
        assert full.hidden_transfer == pytest.approx(4.0)
        # The blocking reference of PR 3 stays pinned at 20.
        blocking = simulate_pipeline(
            self.two_stage_inputs(), 4, inter_group_bandwidth=1.0, schedule="1f1b"
        )
        assert blocking.total == pytest.approx(20.0)

    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_overlap_zero_reproduces_blocking_times_exactly(self, schedule):
        # Property: overlap=0 is bit-for-bit today's blocking engine for
        # every schedule, on random stage profiles.
        rng = random.Random(23)
        for _ in range(40):
            s = rng.randint(2, 5)
            m = rng.randint(2, 20)
            stages = random_stages(rng, s)
            blocking = simulate_pipeline(
                stages, m, inter_group_bandwidth=1.0, schedule=schedule
            )
            zero = simulate_pipeline(
                stages, m, inter_group_bandwidth=1.0, schedule=schedule, overlap=0.0
            )
            assert zero.total == blocking.total
            assert zero.stage_finish == blocking.stage_finish
            assert zero.peak_stash == blocking.peak_stash
            assert zero.hidden_transfer == 0.0
            assert zero.exposed_transfer == blocking.transfer

    @pytest.mark.parametrize("schedule", SCHEDULE_NAMES)
    def test_total_time_monotone_in_overlap(self, schedule):
        rng = random.Random(31)
        grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        for _ in range(25):
            s = rng.randint(2, 4)
            m = rng.randint(2, 16)
            stages = random_stages(rng, s)
            totals = [
                simulate_pipeline(
                    stages, m, inter_group_bandwidth=1.0, schedule=schedule, overlap=e
                ).total
                for e in grid
            ]
            assert all(
                later <= earlier + 1e-9 for earlier, later in zip(totals, totals[1:])
            ), (schedule, totals)

    def test_exposed_plus_hidden_equals_transfer(self):
        rng = random.Random(5)
        for _ in range(20):
            stages = random_stages(rng, rng.randint(2, 4))
            result = simulate_pipeline(
                stages, 8, inter_group_bandwidth=1.0, schedule="1f1b",
                overlap=rng.uniform(0.0, 1.0),
            )
            assert result.exposed_transfer + result.hidden_transfer == pytest.approx(
                result.transfer
            )

    def test_invalid_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            simulate_pipeline(
                [StageTimes(1.0, 2.0)], 1, inter_group_bandwidth=1.0, overlap=1.5
            )


# ---------------------------------------------------------------------------
# cost model and execution simulator
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def synthesized_program():
    cluster = make_cluster()
    training = build_training_graph(build_tiny_transformer()).graph
    program = (
        ProgramSynthesizer(training, cluster, SynthesisConfig(beam_width=8))
        .synthesize()
        .program
    )
    return training, program, cluster


def window_program(cluster):
    """A hand-built program whose sync stage has an overlap window.

    Stage 0 produces ``a`` (sharded); stage 1 all-gathers ``a`` and then runs
    one comp that consumes the gathered tensor (dependent) and one comp that
    only touches ``x`` (independent — the collective hides behind it).
    """
    from repro.collectives.cost import CollectiveKind
    from repro.core.instructions import CommInstruction, CompInstruction
    from repro.core.program import DistributedProgram
    from repro.core.properties import replicated, sharded

    b = GraphBuilder("window")
    x = b.placeholder((256, 256), name="x")
    a = b.relu(x)
    c = b.relu(a)
    d = b.relu(x)
    graph = b.graph
    instructions = [
        CompInstruction(
            node="x", op="placeholder", inputs=(), output=replicated("x"),
            flops_sharded=False,
        ),
        CompInstruction(node=a, op="relu", inputs=(sharded("x", 0),), output=sharded(a, 0)),
        CommInstruction(
            kind=CollectiveKind.ALL_GATHER, input=sharded(a, 0), output=replicated(a), dim=0,
        ),
        CompInstruction(
            node=c, op="relu", inputs=(replicated(a),), output=replicated(c),
            flops_sharded=False,
        ),
        CompInstruction(
            node=d, op="relu", inputs=(replicated("x"),), output=replicated(d),
            flops_sharded=False,
        ),
    ]
    program = DistributedProgram(
        graph=graph,
        instructions=instructions,
        properties=frozenset(),
        num_devices=cluster.num_devices,
    )
    return graph, program, {"x", a, c, d}


class TestCostModelOverlap:
    def test_evaluate_monotone_and_bounded(self, synthesized_program):
        training, program, cluster = synthesized_program
        ratios = cluster.proportional_ratios()
        model = CostModel(training, cluster)
        totals = [
            model.evaluate(program, ratios, overlap=e).total
            for e in (0.0, 0.3, 0.6, 1.0)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
        # Even full overlap cannot hide compute: the total stays above the
        # pure-computation floor.
        blocking = model.evaluate(program, ratios, overlap=0.0)
        assert totals[-1] >= blocking.computation

    def test_collective_hides_behind_independent_compute(self):
        cluster = make_cluster()
        graph, program, _forward = window_program(cluster)
        model = CostModel(graph, cluster)
        breakdown = model.evaluate(program, cluster.even_ratios())
        assert breakdown.hidden_communication > 0.0
        assert breakdown.exposed_communication < breakdown.communication
        serialized = model.evaluate(program, cluster.even_ratios(), overlap=0.0)
        assert breakdown.total < serialized.total

    def test_dependent_mask_tracks_transitive_consumers(self):
        cluster = make_cluster()
        _graph, program, _forward = window_program(cluster)
        stages = program.stages()
        assert [s.comm is not None for s in stages] == [False, True]
        # Stage 0 has no collective: nothing depends on one.
        assert stages[0].dependent_mask() == [False, False]
        # Stage 1: the consumer of the gathered tensor is dependent, the
        # unrelated comp is the overlap window.
        assert stages[1].dependent_mask() == [True, False]

    def test_dependent_mask_is_transitive(self, synthesized_program):
        _training, program, _cluster = synthesized_program
        for stage in program.stages():
            mask = stage.dependent_mask()
            assert len(mask) == len(stage.comps)
            if stage.comm is None:
                assert not any(mask)
        # The synthesized program's collectives all feed later compute.
        assert any(any(s.dependent_mask()) for s in program.stages())

    def test_phase_profile_overlap_only_shrinks_comm_phases(self):
        cluster = make_cluster()
        graph, program, forward_nodes = window_program(cluster)
        model = CostModel(graph, cluster)
        ratios = cluster.even_ratios()
        blocking = CostModel(graph, blocking_cluster(cluster)).phase_profile(
            program, ratios, forward_nodes
        )
        overlapped = model.phase_profile(program, ratios, forward_nodes)
        for phase in ("forward", "backward", "sync"):
            assert overlapped[phase] <= blocking[phase] + 1e-12
        assert sum(overlapped.values()) < sum(blocking.values())


class TestSimulatorOverlap:
    def test_dual_stream_beats_blocking(self, synthesized_program):
        # On the real synthesized program the event timeline hides the
        # gradient collectives behind the backward tail and the parameter
        # updates behind later collectives.
        _, program, cluster = synthesized_program
        ratios = cluster.proportional_ratios()
        blocking = ExecutionSimulator(blocking_cluster(cluster), seed=0).simulate(
            program, ratios, 2
        )
        overlapped = ExecutionSimulator(cluster, seed=0).simulate(program, ratios, 2)
        assert overlapped.total < blocking.total
        assert overlapped.hidden_communication > 0.0
        # Raw collective load and compute are stream-local and unchanged.
        assert overlapped.communication == pytest.approx(blocking.communication)
        assert overlapped.computation == pytest.approx(blocking.computation)

    def test_simulator_total_monotone_in_overlap(self, synthesized_program):
        _, program, cluster = synthesized_program
        ratios = cluster.proportional_ratios()
        totals = [
            ExecutionSimulator(with_overlap(cluster, e), seed=3)
            .simulate(program, ratios, 1)
            .total
            for e in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(totals, totals[1:]))

    def test_per_stream_breakdowns(self, synthesized_program):
        _, program, cluster = synthesized_program
        result = ExecutionSimulator(cluster, seed=0).simulate(
            program, cluster.proportional_ratios(), 1
        )
        n = cluster.num_devices
        assert len(result.per_device_busy) == n
        assert len(result.per_device_comm_busy) == n
        assert len(result.per_device_idle) == n
        assert all(b == pytest.approx(result.communication) for b in result.per_device_comm_busy)
        assert all(idle >= 0.0 for idle in result.per_device_idle)
        assert result.communication == pytest.approx(
            result.exposed_communication + result.hidden_communication, rel=1e-9
        )


# ---------------------------------------------------------------------------
# hierarchical planner: exposed-communication ranking
# ---------------------------------------------------------------------------

class TestPlannerOverlap:
    def test_plan_records_resolved_overlap(self):
        forward = build_tiny_transformer()
        cluster = make_cluster()
        plan = HierarchicalPlanner(forward, cluster, hier_config(max_stages=2)).plan()
        assert plan.overlap == pytest.approx(cluster.comm_overlap_efficiency)
        blocking = HierarchicalPlanner(
            forward, blocking_cluster(cluster), hier_config(max_stages=2)
        ).plan()
        assert blocking.overlap == 0.0
        assert blocking.schedule.overlap == 0.0
        assert plan.estimated_time <= blocking.estimated_time + 1e-12

    def test_simulate_hierarchical_uses_plan_overlap(self):
        forward = build_tiny_transformer()
        plan = HierarchicalPlanner(
            forward, make_cluster(), hier_config(max_stages=2)
        ).plan()
        sim = simulate_hierarchical(plan, iterations=1, seed=0)
        assert sim.schedule.overlap == pytest.approx(plan.overlap)

    def test_slow_network_testbed_selects_different_plan_with_default_overlap(self):
        # Acceptance scenario: on the paper's bandwidth-constrained
        # heterogeneous testbed the blocking model and the dual-stream model
        # rank the microbatch grid differently — blocking chases ever-smaller
        # per-microbatch transfers, while with the default overlap those
        # transfers hide behind compute and a cheaper combination wins.
        cluster = heterogeneous_testbed(num_gpus=32, gpus_per_machine=8)
        forward = build_bert(BERTConfig(batch_size=64, num_layers=4))
        intra = NetworkSpec(bandwidth=100e9 / 8)
        config = hier_config(intra_group_network=intra, max_stages=2)
        blocking = HierarchicalPlanner(forward, blocking_cluster(cluster), config).plan()
        overlapped = HierarchicalPlanner(forward, cluster, config).plan()
        assert (
            blocking.num_stages,
            blocking.schedule_name,
            blocking.num_microbatches,
            blocking.recompute,
        ) != (
            overlapped.num_stages,
            overlapped.schedule_name,
            overlapped.num_microbatches,
            overlapped.recompute,
        )
        assert overlapped.estimated_time <= blocking.estimated_time + 1e-12
        assert overlapped.schedule.hidden_transfer > 0.0


# ---------------------------------------------------------------------------
# per-hop skip-connection byte charging
# ---------------------------------------------------------------------------

def build_skip_chain(batch=8, width=32):
    """Four matmul blocks with a skip connection from block 1 to block 4."""
    b = GraphBuilder("skipchain")
    x = b.placeholder((batch, width), name="features")
    h1 = b.relu(b.linear(x, width))
    h2 = b.relu(b.linear(h1, width))
    h3 = b.relu(b.linear(h2, width))
    h4 = b.add(b.linear(h3, width), h1)  # skip spans two boundaries
    labels = b.placeholder((batch,), dtype=DType.INT64, name="labels")
    loss = b.cross_entropy(h4, labels)
    b.loss(loss)
    return b.graph


class TestPerHopTransferBytes:
    def test_skip_tensor_charged_once_per_hop_crossed(self):
        graph = build_skip_chain()
        cut = pipeline_cut(graph, [1.0, 1.0, 1.0])
        assert cut.num_stages == 3
        skip_ref = next(
            ref
            for stage_refs in cut.cut_refs
            for ref in stage_refs
            if any(
                cut.stage_of[c] - cut.stage_of[ref] > 1
                for c in cut.consumers.get(ref, [])
                if c in cut.stage_of
            )
        )
        producer = cut.stage_of[skip_ref]
        last_consumer = max(
            cut.stage_of[c] for c in cut.consumers[skip_ref] if c in cut.stage_of
        )
        assert last_consumer - producer >= 2
        # The tensor is listed once per boundary it crosses...
        for boundary in range(producer, last_consumer):
            assert skip_ref in cut.crossing_refs(boundary)
        # ...but only once in cut_refs (its producer's boundary outputs).
        assert sum(skip_ref in refs for refs in cut.cut_refs) == 1
        per_hop = cut_transfer_bytes(graph, cut)
        assert len(per_hop) == cut.num_stages
        assert per_hop[-1] == 0
        skip_bytes = graph[skip_ref].spec.size_bytes
        # Every interior hop the skip crosses carries at least its bytes.
        for boundary in range(producer, last_consumer):
            assert per_hop[boundary] >= skip_bytes

    def test_crossing_refs_validates_boundary(self):
        graph = build_skip_chain()
        cut = pipeline_cut(graph, [1.0, 1.0])
        with pytest.raises(ValueError):
            cut.crossing_refs(cut.num_stages - 1)

    def test_planner_charges_relayed_bytes_on_interior_hops(self):
        # With 3 stages the middle chunk's outgoing hop must include the
        # skip tensor it merely relays: its send_bytes can exceed the bytes
        # of the tensors it produces itself.
        graph = build_skip_chain(batch=16, width=64)
        cluster = make_cluster(("A100", "A100", "A100"))
        planner = HierarchicalPlanner(graph, cluster, hier_config())
        candidate = planner.build_candidate(3)
        if candidate is None or candidate.num_stages != 3:
            pytest.skip("graph cut to fewer than 3 stages")
        cut = candidate.cut
        hop_bytes = [
            sum(graph[ref].spec.size_bytes for ref in cut.crossing_refs(b))
            for b in range(cut.num_stages - 1)
        ]
        for stage in candidate.stages[:-1]:
            assert stage.send_bytes == hop_bytes[stage.index]
        assert candidate.stages[-1].send_bytes == 0
