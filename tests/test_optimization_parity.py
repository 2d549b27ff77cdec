"""Result-identical speed-ups checked against a reference path.

Block reuse replays the beam decisions recorded on one repeated layer across
the later ones and must synthesize the same program as the plain per-node
search, which :func:`plain_beam` recovers by hiding the repeated blocks.
``CostModel.evaluate_many`` must agree bit for bit with scalar ``evaluate``.
The synthesizer's rule-cost memo must be dropped when the ratios change, and
the planner's per-round pricing must agree with a fresh cost model.  Sub-plan dedupe in the
hierarchical planner must actually fire on repeated layers and rename plans
that equal planning each chunk from scratch.  The synthesized programs of
the default search are pinned by ``tests/golden/programs.json``.
"""

import contextlib

import pytest

from repro.autodiff import build_training_graph
from repro.cluster import NetworkSpec
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
from repro.hap import hap_pipeline

from .conftest import build_mlp, build_tiny_moe, build_tiny_transformer, make_cluster

MODEL_BUILDERS = {
    "mlp": build_mlp,
    "tiny_transformer": build_tiny_transformer,
    "tiny_moe": build_tiny_moe,
}


def _synthesize(graph, cluster):
    config = SynthesisConfig(search_strategy="beam", beam_width=8)
    return ProgramSynthesizer(graph, cluster, config).synthesize()


@contextlib.contextmanager
def plain_beam():
    """The beam search without block reuse: with no repeated blocks found,
    every topological-order node is a plain beam level."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.synthesizer.find_repeated_blocks", lambda *a, **k: [])
        yield


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
    """The beam search replays recorded rule chains across repeated layer
    blocks; the replay must be bit-identical to searching each block."""

    @pytest.fixture(scope="class")
    def deep_training(self):
        return build_training_graph(build_deep_transformer(layers=3)).graph

    def test_block_reuse_is_result_identical(self, deep_training, parity_cluster):
        with plain_beam():
            reference = _synthesize(deep_training, parity_cluster)
        config = SynthesisConfig(search_strategy="beam", beam_width=8)
        synthesizer = ProgramSynthesizer(deep_training, parity_cluster, config)
        reused = synthesizer.synthesize()
        _assert_identical(reference, reused, "deep/beam/block-reuse")
        # Reuse must actually replay — a silent no-op would pass parity.
        assert synthesizer.reuse_stats["replayed"] > 0
        assert synthesizer.reuse_stats["fallbacks"] == 0

    def test_block_reuse_across_ratio_changes(self, deep_training, parity_cluster):
        """Replayed rule costs are recomputed when the shard ratios change."""
        config = SynthesisConfig(search_strategy="beam", beam_width=8)
        synthesizer = ProgramSynthesizer(deep_training, parity_cluster, config)
        reference = ProgramSynthesizer(deep_training, parity_cluster, config)
        for ratios in ([0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.25] * 4):
            with plain_beam():
                expected = reference.synthesize(ratios)
            _assert_identical(
                expected,
                synthesizer.synthesize(ratios),
                f"deep/beam/block-reuse/ratios={ratios}",
            )


    def test_twelve_layer_bert_is_result_identical(self):
        """A wide beam on a deep registry model: exit beams of many distinct
        states, whose block-relevant parts a replay must pair with the right
        lineages."""
        from repro.models import BenchmarkScale, build_model

        cluster = make_cluster(("A100", "P100") * 4)
        scale = BenchmarkScale("deep", layer_fraction=1.0, batch_per_device=32)
        graph = build_model("bert_base", num_gpus=8, scale=scale)
        config = SynthesisConfig(search_strategy="beam", beam_width=16)
        with plain_beam():
            reference = ProgramSynthesizer(graph, cluster, config).synthesize()
        synthesizer = ProgramSynthesizer(graph, cluster, config)
        _assert_identical(reference, synthesizer.synthesize(), "bert12/beam/block-reuse")
        assert synthesizer.reuse_stats == {
            "occurrences": 12, "replayed": 8, "recorded": 4, "fallbacks": 0
        }


class TestBlockReuseDepth:
    """Block reuse records a fixed set of block templates and replays every
    later matching occurrence, so recording stays flat as layers are added
    while replays and the search-work saving grow.  Counts, not wall-clock
    time, so the guard holds on any host."""

    @pytest.fixture(scope="class")
    def runs(self, parity_cluster):
        config = SynthesisConfig(search_strategy="beam", beam_width=8)
        out = {}
        for layers in (3, 8):
            graph = build_training_graph(build_deep_transformer(layers=layers)).graph
            synthesizer = ProgramSynthesizer(graph, parity_cluster, config)
            out[layers] = (synthesizer.synthesize(), dict(synthesizer.reuse_stats), graph)
        return out

    def test_recording_is_flat_across_depth(self, runs):
        assert runs[3][1]["recorded"] == runs[8][1]["recorded"]

    @pytest.mark.parametrize("layers", [3, 8])
    def test_no_fallbacks(self, runs, layers):
        assert runs[layers][1]["fallbacks"] == 0

    def test_replay_grows_with_depth(self, runs):
        assert runs[8][1]["replayed"] > runs[3][1]["replayed"] > 0

    def test_replay_halves_the_search_at_depth(self, runs, parity_cluster):
        result, _, graph = runs[8]
        with plain_beam():
            reference = _synthesize(graph, parity_cluster)
        _assert_identical(reference, result, "deep8/beam/block-reuse")
        assert 2 * result.expanded_states < reference.expanded_states


class TestLazyRecording:
    """A fully searched occurrence keeps its raw decisions; they are turned
    into replayable descriptors only when a later occurrence matches."""

    def test_only_matched_records_are_normalized(self, parity_cluster, monkeypatch):
        import repro.core.synthesizer as synthesizer_module

        created = []

        class Recording(synthesizer_module._BlockRecord):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                created.append(self)

        monkeypatch.setattr(synthesizer_module, "_BlockRecord", Recording)
        graph = build_training_graph(build_deep_transformer(layers=3)).graph
        synthesizer = ProgramSynthesizer(
            graph, parity_cluster, SynthesisConfig(search_strategy="beam", beam_width=8)
        )
        synthesizer.synthesize()
        stats = synthesizer.reuse_stats
        normalized = [record for record in created if record.levels is not None]
        assert len(created) == stats["recorded"]
        assert 0 < len(normalized) <= stats["replayed"] + stats["fallbacks"]
        assert len(normalized) < len(created)


class TestPlainNodeSchedule:
    """Beam search walks one schedule; a graph without repeated blocks is
    all plain nodes."""

    def test_graph_without_repeats_is_the_plain_loop(self, training_graphs, parity_cluster):
        graph = training_graphs["mlp"]
        synthesizer = ProgramSynthesizer(
            graph, parity_cluster, SynthesisConfig(search_strategy="beam", beam_width=8)
        )
        result = synthesizer.synthesize()
        assert synthesizer.reuse_stats["occurrences"] == 0
        with plain_beam():
            reference = _synthesize(graph, parity_cluster)
        _assert_search_identical(reference, result, "mlp/beam")


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
        config = SynthesisConfig(search_strategy="beam", beam_width=6)
        with plain_beam():
            reference = ProgramSynthesizer(graph, grouped_cluster, config).synthesize()
        with plain_beam() if not reuse else contextlib.nullcontext():
            synthesizer = ProgramSynthesizer(graph, grouped_cluster, config)
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


class TestCostPricing:
    """The cost model prices a program one way: ``evaluate_many`` walks the
    same cached stage lines as ``evaluate`` and must agree with K scalar
    calls bit for bit."""

    RATIO_SETS = [
        [0.25, 0.25, 0.25, 0.25],
        [0.4, 0.3, 0.2, 0.1],
        [0.7, 0.1, 0.1, 0.1],
    ]

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_evaluate_many_matches_scalar(self, model, training_graphs, parity_cluster):
        graph = training_graphs[model]
        program = _synthesize(graph, parity_cluster).program
        cost_model = CostModel(graph, parity_cluster)
        batched = cost_model.evaluate_many(program, self.RATIO_SETS)
        for ratios, b in zip(self.RATIO_SETS, batched):
            scalar = cost_model.evaluate(program, ratios)
            assert b.total == scalar.total
            assert b.communication == scalar.communication
            assert b.computation == scalar.computation
            assert b.exposed_communication == scalar.exposed_communication
            assert b.hidden_communication == scalar.hidden_communication
            assert list(b.stage_times) == list(scalar.stage_times)

    def test_evaluate_many_honours_overlap_override(self, training_graphs, parity_cluster):
        graph = training_graphs["mlp"]
        program = _synthesize(graph, parity_cluster).program
        cost_model = CostModel(graph, parity_cluster)
        (serialized,) = cost_model.evaluate_many(program, self.RATIO_SETS[:1], overlap=0.0)
        assert serialized == cost_model.evaluate(program, self.RATIO_SETS[0], overlap=0.0)
        assert serialized.exposed_communication == serialized.communication

    def test_stage_lines_are_linearised_once(self, training_graphs, parity_cluster):
        graph = training_graphs["mlp"]
        program = _synthesize(graph, parity_cluster).program
        cost_model = CostModel(graph, parity_cluster)
        assert cost_model.stage_coefficients(program) is cost_model.stage_coefficients(program)

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_planner_prices_like_scalar_evaluate(self, model, training_graphs, parity_cluster):
        """The planner prices each round through ``evaluate_many``; its
        estimate must be a fresh cost model's scalar ``evaluate`` of the one
        ratio vector every consumer reads, ``flat_ratios``."""
        graph = training_graphs[model]
        config = PlannerConfig(
            max_rounds=2, synthesis=SynthesisConfig(search_strategy="beam", beam_width=8)
        )
        plan = HAPPlanner(graph, parity_cluster, config).plan()
        reference = CostModel(graph, parity_cluster)
        assert plan.ratios == [plan.flat_ratios]
        assert plan.estimated_time == reference.evaluate(plan.program, plan.flat_ratios)
        assert min(r.cost_after_balancing for r in plan.rounds) == plan.estimated_time.total
        assert (
            plan.rounds[-1].cost_after_balancing
            == reference.evaluate(plan.program, plan.rounds[-1].ratios).total
        )

    @pytest.mark.parametrize("schedule", ["gpipe", "interleaved-1f1b"])
    def test_pipeline_chunks_price_like_scalar_evaluate(self, schedule):
        """Every chunk's estimate is a fresh cost model's scalar ``evaluate``
        of the chunk program at ``chunk.ratios`` on the chunk's machine group."""
        # Eight alternating A100/P100 machines on the slow network, fast
        # inside each group: pipelining wins, so the chunks are real.
        cluster = make_cluster(("A100", "P100") * 4, network=NetworkSpec(), group=True)
        config = HierarchicalConfig(
            planner=PlannerConfig(
                max_rounds=2, synthesis=SynthesisConfig(search_strategy="beam", beam_width=8)
            ),
            max_stages=2,
            schedules=[schedule],
            intra_group_network=NetworkSpec(bandwidth=100e9 / 8),
        )
        plan = hap_pipeline(build_deep_transformer(layers=4), cluster, config)
        assert plan.num_stages == 2
        for chunk in plan.chunk_sequence():
            reference = CostModel(chunk.program.graph, chunk.subcluster)
            expected = reference.evaluate(chunk.program, chunk.ratios)
            assert chunk.plan.estimated_time == expected, chunk.virtual_index


class TestParityAcrossRatios:
    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_skewed_ratios(self, model, training_graphs, parity_cluster):
        """Cached rule-cost plans are dropped when the ratios change: one
        synthesizer reused across ratio vectors matches a fresh one per vector."""
        graph = training_graphs[model]
        config = SynthesisConfig(search_strategy="beam", beam_width=8)
        reused = ProgramSynthesizer(graph, parity_cluster, config)
        for ratios in ([0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.25] * 4):
            fresh = ProgramSynthesizer(graph, parity_cluster, config).synthesize(ratios)
            _assert_search_identical(
                fresh, reused.synthesize(ratios), f"{model}/beam/ratios={ratios}"
            )
