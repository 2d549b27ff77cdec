"""Parity of the synthesizer's hot-path optimisations.

Every optimisation behind a ``SynthesisConfig`` flag (rule indexing, the
Pareto dominance store, cost-model memoization, vectorized cost evaluation)
is required to be *result-identical*: toggling it must not change the
synthesized instruction sequence nor the estimated cost by a single bit.
These tests run the synthesizer with each optimisation disabled
individually and all disabled at once, and compare against the fully
optimised default.
"""

import dataclasses

import numpy as np
import pytest

from repro.autodiff import build_training_graph
from repro.core import (
    CostModel,
    HAPPlanner,
    HierarchicalConfig,
    HierarchicalPlanner,
    LoadBalancerConfig,
    PlannerConfig,
    ProgramSynthesizer,
    SynthesisConfig,
)
from repro.graph import DType, GraphBuilder

from .conftest import build_mlp, build_tiny_moe, build_tiny_transformer, make_cluster

OPT_FLAGS = (
    "enable_rule_indexing",
    "enable_pareto_store",
    "enable_cost_memoization",
    "enable_vectorized_cost",
)

MODEL_BUILDERS = {
    "mlp": build_mlp,
    "tiny_transformer": build_tiny_transformer,
    "tiny_moe": build_tiny_moe,
}


def _synthesize(graph, cluster, strategy, **flags):
    config = SynthesisConfig(search_strategy=strategy, beam_width=8, **flags)
    return ProgramSynthesizer(graph, cluster, config).synthesize()


def _assert_identical(reference, candidate, label):
    assert candidate.cost == reference.cost, f"{label}: cost differs"
    assert list(candidate.program.instructions) == list(
        reference.program.instructions
    ), f"{label}: instruction sequence differs"


@pytest.fixture(scope="module")
def parity_cluster():
    return make_cluster(("A100", "A100", "P100", "P100"))


@pytest.fixture(scope="module")
def training_graphs():
    return {
        name: build_training_graph(builder()).graph
        for name, builder in MODEL_BUILDERS.items()
    }


class TestBeamParity:
    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_all_optimisations_off(self, model, training_graphs, parity_cluster):
        graph = training_graphs[model]
        optimised = _synthesize(graph, parity_cluster, "beam")
        naive = _synthesize(
            graph, parity_cluster, "beam", **{flag: False for flag in OPT_FLAGS}
        )
        _assert_identical(optimised, naive, f"{model}/beam/all-off")
        # The optimisations must not change what the search explores either.
        assert naive.expanded_states == optimised.expanded_states
        assert naive.generated_states == optimised.generated_states

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    @pytest.mark.parametrize("flag", OPT_FLAGS)
    def test_each_optimisation_individually(
        self, model, flag, training_graphs, parity_cluster
    ):
        graph = training_graphs[model]
        optimised = _synthesize(graph, parity_cluster, "beam")
        toggled = _synthesize(graph, parity_cluster, "beam", **{flag: False})
        _assert_identical(optimised, toggled, f"{model}/beam/{flag}=False")


class TestAStarParity:
    """A* exercises the Pareto dominance store, which beam search does not."""

    @pytest.mark.parametrize("model", ["mlp", "tiny_transformer"])
    def test_all_optimisations_off(self, model, training_graphs, parity_cluster):
        graph = training_graphs[model]
        optimised = _synthesize(graph, parity_cluster, "astar")
        naive = _synthesize(
            graph, parity_cluster, "astar", **{flag: False for flag in OPT_FLAGS}
        )
        _assert_identical(optimised, naive, f"{model}/astar/all-off")
        assert naive.expanded_states == optimised.expanded_states
        assert naive.generated_states == optimised.generated_states

    @pytest.mark.parametrize("flag", OPT_FLAGS)
    def test_each_optimisation_individually(self, flag, training_graphs, parity_cluster):
        graph = training_graphs["mlp"]
        optimised = _synthesize(graph, parity_cluster, "astar")
        toggled = _synthesize(graph, parity_cluster, "astar", **{flag: False})
        _assert_identical(optimised, toggled, f"mlp/astar/{flag}=False")

    def test_unrestricted_search_parity(self, parity_cluster):
        """Fig. 10's unrestricted search (no topological order) agrees too.

        The unrestricted search is only tractable for very small graphs with
        an untrimmed open list (matching the seed's own A* test), so parity is
        checked on a single-matmul classifier.
        """
        from repro.graph import DType, GraphBuilder

        b = GraphBuilder("tiny")
        x = b.placeholder((16, 8), name="x")
        w = b.parameter((8, 4), name="w")
        y = b.matmul(x, w)
        labels = b.placeholder((16,), dtype=DType.INT64, name="labels")
        b.loss(b.cross_entropy(y, labels))
        graph = build_training_graph(b.build()).graph

        def run(**flags):
            config = SynthesisConfig(
                search_strategy="astar",
                beam_width=None,
                follow_topological_order=False,
                **flags,
            )
            return ProgramSynthesizer(graph, parity_cluster, config).synthesize()

        optimised = run()
        naive = run(**{flag: False for flag in OPT_FLAGS})
        _assert_identical(optimised, naive, "tiny/astar-unrestricted/all-off")


def build_deep_transformer(layers, batch=8, seq=4, hidden=16, heads=2):
    """Multi-layer transformer: the repeated layers are what block reuse and
    sub-plan dedupe exploit (the single-layer registry models never repeat)."""
    b = GraphBuilder("deep")
    ids = b.placeholder((batch, seq), dtype=DType.INT64, name="input_ids")
    table = b.parameter((50, hidden), name="embed_table")
    x = b.embedding(ids, table)
    for i in range(layers):
        x = b.transformer_layer(x, num_heads=heads, ffn_hidden=hidden * 2, prefix=f"layer{i}")
    x = b.reshape(x, (batch * seq, hidden))
    logits = b.linear(x, 7)
    labels2d = b.placeholder((batch, seq), dtype=DType.INT64, name="labels")
    labels = b.reshape(labels2d, (batch * seq,))
    b.loss(b.cross_entropy(logits, labels))
    return b.build()


class TestBlockReuseParity:
    """``enable_block_reuse`` replays recorded rule chains across repeated
    layer blocks; the replay must be bit-identical to searching each block."""

    @pytest.fixture(scope="class")
    def deep_training(self):
        return build_training_graph(build_deep_transformer(layers=3)).graph

    def test_block_reuse_is_result_identical(self, deep_training, parity_cluster):
        reference = _synthesize(deep_training, parity_cluster, "beam")
        config = SynthesisConfig(
            search_strategy="beam", beam_width=8, enable_block_reuse=True
        )
        synthesizer = ProgramSynthesizer(deep_training, parity_cluster, config)
        reused = synthesizer.synthesize()
        _assert_identical(reference, reused, "deep/beam/block-reuse")
        # The flag must actually replay — a silent no-op would pass parity.
        assert synthesizer.reuse_stats["replayed"] > 0
        assert synthesizer.reuse_stats["fallbacks"] == 0

    def test_block_reuse_composes_with_other_flags_off(
        self, deep_training, parity_cluster
    ):
        reference = _synthesize(deep_training, parity_cluster, "beam")
        reused = _synthesize(
            deep_training,
            parity_cluster,
            "beam",
            enable_block_reuse=True,
            **{flag: False for flag in OPT_FLAGS},
        )
        _assert_identical(reference, reused, "deep/beam/block-reuse+all-off")

    def test_block_reuse_across_ratio_changes(self, deep_training, parity_cluster):
        """Replayed rule costs are recomputed when the shard ratios change."""
        config = SynthesisConfig(
            search_strategy="beam", beam_width=8, enable_block_reuse=True
        )
        synthesizer = ProgramSynthesizer(deep_training, parity_cluster, config)
        reference = ProgramSynthesizer(
            deep_training, parity_cluster, SynthesisConfig(search_strategy="beam", beam_width=8)
        )
        for ratios in ([0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.25] * 4):
            _assert_identical(
                reference.synthesize(ratios),
                synthesizer.synthesize(ratios),
                f"deep/beam/block-reuse/ratios={ratios}",
            )


class TestSubplanDedupeParity:
    """``dedupe_subplans`` plans one flat HAP problem per distinct (chunk
    content, group) pair and renames the plan onto isomorphic chunks; the
    resulting hierarchical plan must be identical to planning every chunk."""

    def test_dedupe_is_result_identical(self):
        forward = build_deep_transformer(layers=8)
        # Two *identical* machine groups: isomorphic chunks then share a
        # (fingerprint, group-signature) key across stages and dedupe.
        cluster = make_cluster(("A100", "A100", "A100", "A100"), group=True)
        base = HierarchicalConfig(
            planner=PlannerConfig(
                max_rounds=1,
                synthesis=SynthesisConfig(search_strategy="beam", beam_width=4),
            ),
            max_stages=2,
            schedules=["interleaved-1f1b"],
            num_model_chunks=2,
        )
        deduped = HierarchicalPlanner(forward, cluster, base).plan()
        replanned = HierarchicalPlanner(
            forward, cluster, dataclasses.replace(base, dedupe_subplans=False)
        ).plan()

        assert deduped.reuse_stats["subplans_deduped"] > 0
        assert replanned.reuse_stats["subplans_deduped"] == 0
        assert deduped.estimated_time == replanned.estimated_time
        assert deduped.schedule_name == replanned.schedule_name
        assert deduped.num_stages == replanned.num_stages
        chunks_a = [c for s in deduped.stages for c in s.chunks]
        chunks_b = [c for s in replanned.stages for c in s.chunks]
        assert len(chunks_a) == len(chunks_b)
        for a, b in zip(chunks_a, chunks_b):
            assert a.virtual_index == b.virtual_index
            assert list(a.plan.program.instructions) == list(b.plan.program.instructions)
            assert a.plan.estimated_time.total == b.plan.estimated_time.total


class TestVectorizedCostParity:
    """``evaluate_many``/``evaluate_batch`` stack the per-stage coefficients
    into arrays but must agree with K scalar ``evaluate`` calls bit for bit."""

    RATIO_SETS = [
        ([0.25, 0.25, 0.25, 0.25], None),
        ([0.4, 0.3, 0.2, 0.1], None),
        ([0.1, 0.2, 0.3, 0.4], {0: [0.7, 0.1, 0.1, 0.1]}),
    ]

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_evaluate_many_matches_scalar(self, model, training_graphs, parity_cluster):
        graph = training_graphs[model]
        program = _synthesize(graph, parity_cluster, "beam").program
        cost_model = CostModel(graph, parity_cluster)
        batched = cost_model.evaluate_many(program, self.RATIO_SETS)
        for (base, per_segment), b in zip(self.RATIO_SETS, batched):
            scalar = cost_model.evaluate(
                program, base, ratios_per_segment=per_segment
            )
            assert b.total == scalar.total
            assert b.communication == scalar.communication
            assert b.computation == scalar.computation
            assert b.exposed_communication == scalar.exposed_communication
            assert b.hidden_communication == scalar.hidden_communication
            assert list(b.stage_times) == list(scalar.stage_times)

    def test_evaluate_batch_matches_scalar(self, training_graphs, parity_cluster):
        graph = training_graphs["mlp"]
        program = _synthesize(graph, parity_cluster, "beam").program
        cost_model = CostModel(graph, parity_cluster)
        ratios = np.array([base for base, _ in self.RATIO_SETS])
        totals = cost_model.evaluate_batch(program, ratios)
        for k, (base, _) in enumerate(self.RATIO_SETS):
            assert totals[k] == cost_model.evaluate(program, base).total

    def test_evaluate_batch_honours_overlap_override(
        self, training_graphs, parity_cluster
    ):
        graph = training_graphs["mlp"]
        program = _synthesize(graph, parity_cluster, "beam").program
        cost_model = CostModel(graph, parity_cluster)
        ratios = np.array([[0.25, 0.25, 0.25, 0.25]])
        serialized = cost_model.evaluate_batch(program, ratios, overlap=0.0)
        assert serialized[0] == cost_model.evaluate(program, ratios[0], overlap=0.0).total

    def test_memoization_off_matches(self, training_graphs, parity_cluster):
        graph = training_graphs["mlp"]
        program = _synthesize(graph, parity_cluster, "beam").program
        memoized = CostModel(graph, parity_cluster)
        plain = CostModel(graph, parity_cluster, memoize=False)
        a = memoized.evaluate_many(program, self.RATIO_SETS)
        b = plain.evaluate_many(program, self.RATIO_SETS)
        assert [x.total for x in a] == [y.total for y in b]
        # The memoized arrays are reused across calls, not rebuilt.
        assert memoized.coefficient_arrays(program) is memoized.coefficient_arrays(program)

    def test_full_planner_parity_with_flag_off(self, parity_cluster):
        """End-to-end composition: synthesis ranking + LP polish pricing both
        vectorized vs. both scalar must produce the same plan and history."""
        graph = build_training_graph(build_mlp()).graph

        def plan(flag):
            config = PlannerConfig(
                max_rounds=2,
                synthesis=SynthesisConfig(
                    search_strategy="beam", beam_width=8, enable_vectorized_cost=flag
                ),
                load_balancer=LoadBalancerConfig(enable_vectorized_cost=flag),
            )
            return HAPPlanner(graph, parity_cluster, config).plan()

        vectorized = plan(True)
        scalar = plan(False)
        assert vectorized.estimated_time.total == scalar.estimated_time.total
        assert vectorized.ratios == scalar.ratios
        assert list(vectorized.program.instructions) == list(scalar.program.instructions)
        for rv, rs in zip(vectorized.rounds, scalar.rounds):
            assert rv.cost_after_synthesis == rs.cost_after_synthesis
            assert rv.cost_after_balancing == rs.cost_after_balancing


class TestParityAcrossRatios:
    def test_skewed_ratios(self, training_graphs, parity_cluster):
        """Memoized cost plans are invalidated when the ratios change."""
        graph = training_graphs["mlp"]
        config = SynthesisConfig(search_strategy="beam", beam_width=8)
        synthesizer = ProgramSynthesizer(graph, parity_cluster, config)
        naive_cfg = SynthesisConfig(
            search_strategy="beam",
            beam_width=8,
            **{flag: False for flag in OPT_FLAGS},
        )
        naive_synthesizer = ProgramSynthesizer(graph, parity_cluster, naive_cfg)
        for ratios in ([0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.25] * 4):
            optimised = synthesizer.synthesize(ratios)
            naive = naive_synthesizer.synthesize(ratios)
            _assert_identical(optimised, naive, f"mlp/beam/ratios={ratios}")
