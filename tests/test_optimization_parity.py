"""Result-identical speed-ups that stay switchable or have a reference path.

Block reuse (``SynthesisConfig.enable_block_reuse``) replays recorded rule
chains across repeated layers and must synthesize the same program as the
full search.  The batched cost evaluation (``CostModel.evaluate_many`` /
``evaluate_batch``) must agree bit for bit with scalar ``evaluate``, and the
memoized cost model with ``memoize=False``.  The synthesizer's rule-cost
memo must be dropped when the ratios change, and the planner's batched
pricing must agree with the scalar reference.  Sub-plan dedupe in the
hierarchical planner must actually fire on repeated layers and rename plans
that equal planning each chunk from scratch.  The synthesized programs of
the default search are pinned by ``tests/golden/programs.json``.
"""

import numpy as np
import pytest

from repro.autodiff import build_training_graph
from repro.core import (
    CostModel,
    HAPPlanner,
    HierarchicalConfig,
    HierarchicalPlanner,
    PlannerConfig,
    ProgramSynthesizer,
    SynthesisConfig,
)
from repro.graph import DType, GraphBuilder

from .conftest import build_mlp, build_tiny_moe, build_tiny_transformer, make_cluster

MODEL_BUILDERS = {
    "mlp": build_mlp,
    "tiny_transformer": build_tiny_transformer,
    "tiny_moe": build_tiny_moe,
}


def _synthesize(graph, cluster):
    config = SynthesisConfig(search_strategy="beam", beam_width=8)
    return ProgramSynthesizer(graph, cluster, config).synthesize()


def _assert_identical(reference, candidate, label):
    assert candidate.cost == reference.cost, f"{label}: cost differs"
    assert list(candidate.program.instructions) == list(
        reference.program.instructions
    ), f"{label}: instruction sequence differs"


def _assert_search_identical(reference, candidate, label):
    """Same program and cost, and the search explored the same states."""
    _assert_identical(reference, candidate, label)
    assert candidate.expanded_states == reference.expanded_states, label
    assert candidate.generated_states == reference.generated_states, label
    assert candidate.program.describe() == reference.program.describe(), label


@pytest.fixture(scope="module")
def parity_cluster():
    return make_cluster(("A100", "A100", "P100", "P100"))


@pytest.fixture(scope="module")
def training_graphs():
    return {
        name: build_training_graph(builder()).graph
        for name, builder in MODEL_BUILDERS.items()
    }


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
        reference = _synthesize(deep_training, parity_cluster)
        config = SynthesisConfig(
            search_strategy="beam", beam_width=8, enable_block_reuse=True
        )
        synthesizer = ProgramSynthesizer(deep_training, parity_cluster, config)
        reused = synthesizer.synthesize()
        _assert_identical(reference, reused, "deep/beam/block-reuse")
        # The flag must actually replay — a silent no-op would pass parity.
        assert synthesizer.reuse_stats["replayed"] > 0
        assert synthesizer.reuse_stats["fallbacks"] == 0

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


@pytest.fixture(scope="module")
def registry_models():
    """Every registry model at test scale."""
    from repro.models import MODEL_NAMES, BenchmarkScale, build_model

    scale = BenchmarkScale("test", layer_fraction=0.1, batch_per_device=8)
    return {name: build_model(name, num_gpus=4, scale=scale) for name in MODEL_NAMES}


class TestRegistryModels:
    """The serial search is reproducible on every registry model, and block
    reuse leaves its result unchanged there too."""

    @pytest.fixture(scope="class")
    def grouped_cluster(self):
        return make_cluster(("A100", "A100", "P100", "P100"), group=True)

    @pytest.mark.parametrize("model_name", ["vgg19", "vit", "bert_base", "bert_moe"])
    @pytest.mark.parametrize("reuse", [False, True], ids=["plain", "block-reuse"])
    def test_search_is_reproducible(
        self, registry_models, grouped_cluster, model_name, reuse
    ):
        graph = registry_models[model_name]

        def config(block_reuse):
            return SynthesisConfig(
                search_strategy="beam", beam_width=6, enable_block_reuse=block_reuse
            )

        reference = ProgramSynthesizer(graph, grouped_cluster, config(False)).synthesize()
        synthesizer = ProgramSynthesizer(graph, grouped_cluster, config(reuse))
        label = f"{model_name}/{'block-reuse' if reuse else 'plain'}"
        _assert_search_identical(reference, synthesizer.synthesize(), label)
        # A second search on the same synthesizer runs on warm rule-cost
        # memos and must not differ from the cold one.
        _assert_search_identical(reference, synthesizer.synthesize(), f"{label}/warm")

    @pytest.mark.parametrize("model_name", ["vgg19", "vit", "bert_base", "bert_moe"])
    def test_program_verifies(self, registry_models, grouped_cluster, model_name):
        from repro.verify.program import verify_program

        config = SynthesisConfig(search_strategy="beam", beam_width=6)
        program = ProgramSynthesizer(
            registry_models[model_name], grouped_cluster, config
        ).synthesize().program
        report = verify_program(
            program, grouped_cluster, grouped_cluster.proportional_ratios()
        )
        assert report.ok, report


class TestSubplanDedupe:
    """The hierarchical planner plans one flat HAP problem per distinct
    (chunk content, group) pair and renames the plan onto isomorphic chunks."""

    def test_dedupe_fires_and_matches_planning_each_chunk(self):
        forward = build_deep_transformer(layers=8)
        # Two *identical* machine groups: isomorphic chunks then share a
        # (fingerprint, group-signature) key across stages and dedupe.
        cluster = make_cluster(("A100", "A100", "A100", "A100"), group=True)
        config = HierarchicalConfig(
            planner=PlannerConfig(
                max_rounds=1,
                synthesis=SynthesisConfig(search_strategy="beam", beam_width=4),
            ),
            max_stages=2,
            schedules=["interleaved-1f1b"],
            num_model_chunks=2,
        )
        plan = HierarchicalPlanner(forward, cluster, config).plan()
        assert plan.reuse_stats["subplans_deduped"] > 0
        for chunk in plan.chunk_sequence():
            fresh = HAPPlanner(chunk.info.graph, chunk.subcluster, config.planner).plan()
            assert list(chunk.plan.program.instructions) == list(fresh.program.instructions)
            assert chunk.plan.estimated_time.total == fresh.estimated_time.total


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
        program = _synthesize(graph, parity_cluster).program
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

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_evaluate_batch_matches_scalar(self, model, training_graphs, parity_cluster):
        graph = training_graphs[model]
        program = _synthesize(graph, parity_cluster).program
        cost_model = CostModel(graph, parity_cluster)
        ratios = np.array([base for base, _ in self.RATIO_SETS])
        totals = cost_model.evaluate_batch(program, ratios)
        for k, (base, _) in enumerate(self.RATIO_SETS):
            assert totals[k] == cost_model.evaluate(program, base).total

    def test_evaluate_batch_honours_overlap_override(
        self, training_graphs, parity_cluster
    ):
        graph = training_graphs["mlp"]
        program = _synthesize(graph, parity_cluster).program
        cost_model = CostModel(graph, parity_cluster)
        ratios = np.array([[0.25, 0.25, 0.25, 0.25]])
        serialized = cost_model.evaluate_batch(program, ratios, overlap=0.0)
        assert serialized[0] == cost_model.evaluate(program, ratios[0], overlap=0.0).total

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_memoization_off_matches(self, model, training_graphs, parity_cluster):
        graph = training_graphs[model]
        program = _synthesize(graph, parity_cluster).program
        memoized = CostModel(graph, parity_cluster)
        plain = CostModel(graph, parity_cluster, memoize=False)
        a = memoized.evaluate_many(program, self.RATIO_SETS)
        b = plain.evaluate_many(program, self.RATIO_SETS)
        assert [x.total for x in a] == [y.total for y in b]
        # The memoized arrays are reused across calls, not rebuilt.
        assert memoized.coefficient_arrays(program) is memoized.coefficient_arrays(program)

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_planner_prices_like_scalar_evaluate(self, model, training_graphs, parity_cluster):
        """The planner prices each round in one batched call; its reported
        costs must equal the unmemoized scalar reference."""
        graph = training_graphs[model]
        config = PlannerConfig(
            max_rounds=2, synthesis=SynthesisConfig(search_strategy="beam", beam_width=8)
        )
        planner = HAPPlanner(graph, parity_cluster, config)
        plan = planner.plan()
        reference = CostModel(graph, parity_cluster, memoize=False)

        def price(ratios):
            return reference.evaluate(
                plan.program,
                ratios[0],
                ratios_per_segment={k: seg for k, seg in enumerate(ratios)},
                segment_of=planner.segment_of,
            )

        expected = price(plan.ratios)
        assert plan.estimated_time.total == expected.total
        assert plan.estimated_time.communication == expected.communication
        assert plan.estimated_time.computation == expected.computation
        assert min(r.cost_after_balancing for r in plan.rounds) == plan.estimated_time.total
        assert plan.rounds[-1].cost_after_balancing == price(plan.rounds[-1].ratios).total


class TestParityAcrossRatios:
    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_skewed_ratios(self, model, training_graphs, parity_cluster):
        """Memoized rule-cost plans are dropped when the ratios change: one
        synthesizer reused across ratio vectors matches a fresh one per vector."""
        graph = training_graphs[model]
        config = SynthesisConfig(search_strategy="beam", beam_width=8)
        reused = ProgramSynthesizer(graph, parity_cluster, config)
        for ratios in ([0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.25] * 4):
            fresh = ProgramSynthesizer(graph, parity_cluster, config).synthesize(ratios)
            _assert_search_identical(
                fresh, reused.synthesize(ratios), f"{model}/beam/ratios={ratios}"
            )
