"""Result-identical speed-ups checked against a reference path.

The beam search is reproducible: fresh synthesizers, and a warm re-run on
one synthesizer, return the same program and explore the same states.  It
searches one level per topological-order node, on stacks of identical layers
too, and expands at most ``beam_width`` states per level.
``CostModel.evaluate_many`` must agree bit for bit with scalar ``evaluate``.
The synthesizer's rule-cost memo must be dropped when the ratios change, and
the planner's round pricing must agree with a fresh cost model.  Every
chunk plan of the hierarchical planner equals planning that chunk from
scratch.  The synthesized programs of the default search are pinned by
``tests/golden/programs.json``.
"""

import pytest

from repro.autodiff import build_training_graph
from repro.cluster import NetworkSpec
from repro.core import (
    CostModel,
    HAPPlanner,
    HierarchicalConfig,
    HierarchicalPlanner,
    ProgramSynthesizer,
    SynthesisConfig,
)
from repro.core.instructions import CommInstruction
from repro.hap import hap_pipeline

from .conftest import (
    blocking_cluster,
    build_deep_transformer,
    build_mlp,
    build_tiny_moe,
    build_tiny_transformer,
    make_cluster,
)

MODEL_BUILDERS = {
    "mlp": build_mlp,
    "tiny_transformer": build_tiny_transformer,
    "tiny_moe": build_tiny_moe,
    "deep3": lambda: build_deep_transformer(layers=3),
}


def _synthesize(graph, cluster):
    config = SynthesisConfig(beam_width=8)
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


def _assert_reproducible(graph, cluster, config, label):
    """Two fresh synthesizers agree, and a second search on one of them,
    on warm rule-cost memos, agrees with its cold one."""
    reference = ProgramSynthesizer(graph, cluster, config).synthesize()
    synthesizer = ProgramSynthesizer(graph, cluster, config)
    _assert_search_identical(reference, synthesizer.synthesize(), label)
    _assert_search_identical(reference, synthesizer.synthesize(), f"{label}/warm")


@pytest.fixture(scope="module")
def parity_cluster():
    return make_cluster(("A100", "A100", "P100", "P100"))


@pytest.fixture(scope="module")
def training_graphs():
    return {
        name: build_training_graph(builder()).graph
        for name, builder in MODEL_BUILDERS.items()
    }


class TestPlainNodeSchedule:
    """The beam search is one walk over the topological order, node by node."""

    def test_search_is_reproducible(self, training_graphs, parity_cluster):
        config = SynthesisConfig(beam_width=8)
        _assert_reproducible(training_graphs["mlp"], parity_cluster, config, "mlp/beam")

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_levels_follow_topological_order(
        self, model, training_graphs, parity_cluster, monkeypatch
    ):
        """``_beam_search`` runs one ``_beam_level`` per non-source node, in
        topological order, and nothing else."""
        levels = []
        beam_level = ProgramSynthesizer._beam_level

        def spy(self, states, node_name, ratios, beam_width):
            levels.append(node_name)
            return beam_level(self, states, node_name, ratios, beam_width)

        monkeypatch.setattr(ProgramSynthesizer, "_beam_level", spy)
        config = SynthesisConfig(beam_width=8)
        synthesizer = ProgramSynthesizer(training_graphs[model], parity_cluster, config)
        synthesizer.synthesize()
        assert levels == synthesizer._topo_order
        assert len(set(levels)) == len(levels)


class TestBeamDepth:
    """The beam search on stacks of identical transformer layers: every layer
    is searched, so the work grows with depth and stays within what the beam
    width allows per level.  Counts, not wall-clock time, so the checks hold
    on any host."""

    DEPTHS = (1, 2, 3, 4)
    BEAM_WIDTH = 8

    @pytest.fixture(scope="class")
    def runs(self, parity_cluster):
        config = SynthesisConfig(beam_width=self.BEAM_WIDTH)
        out = {}
        for layers in self.DEPTHS:
            graph = build_training_graph(build_deep_transformer(layers=layers)).graph
            synthesizer = ProgramSynthesizer(graph, parity_cluster, config)
            out[layers] = (synthesizer.synthesize(), len(synthesizer._topo_order))
        return out

    @pytest.mark.parametrize("layers", DEPTHS)
    def test_program_verifies(self, runs, parity_cluster, layers):
        from repro.verify.program import verify_program

        result, _ = runs[layers]
        report = verify_program(
            result.program, parity_cluster, parity_cluster.proportional_ratios()
        )
        assert report.ok, report

    @pytest.mark.parametrize("layers", DEPTHS)
    def test_expansion_is_bounded_by_beam_width(self, runs, layers):
        """The root level expands the root alone, every later level between
        one and ``beam_width`` states."""
        result, levels = runs[layers]
        assert levels <= result.expanded_states <= 1 + (levels - 1) * self.BEAM_WIDTH
        assert result.generated_states > levels

    def test_search_work_grows_with_depth(self, runs):
        levels = [runs[layers][1] for layers in self.DEPTHS]
        expanded = [runs[layers][0].expanded_states for layers in self.DEPTHS]
        generated = [runs[layers][0].generated_states for layers in self.DEPTHS]
        # Each added layer adds the same number of levels.
        assert len({b - a for a, b in zip(levels, levels[1:])}) == 1
        assert expanded == sorted(set(expanded))
        assert generated == sorted(set(generated))


@pytest.fixture(scope="module")
def registry_models():
    """Every registry model at test scale."""
    from repro.models import MODEL_NAMES, BenchmarkScale, build_model

    scale = BenchmarkScale("test", layer_fraction=0.1, batch_per_device=8)
    return {name: build_model(name, num_gpus=4, scale=scale) for name in MODEL_NAMES}


class TestRegistryModels:
    """The search is reproducible on every registry model, and its programs
    verify."""

    @pytest.fixture(scope="class")
    def grouped_cluster(self):
        return make_cluster(("A100", "A100", "P100", "P100"), group=True)

    @pytest.mark.parametrize("model_name", ["vgg19", "vit", "bert_base", "bert_moe"])
    def test_search_is_reproducible(self, registry_models, grouped_cluster, model_name):
        config = SynthesisConfig(beam_width=6)
        _assert_reproducible(registry_models[model_name], grouped_cluster, config, model_name)

    @pytest.mark.parametrize("model_name", ["vgg19", "vit", "bert_base", "bert_moe"])
    def test_program_verifies(self, registry_models, grouped_cluster, model_name):
        from repro.verify.program import verify_program

        config = SynthesisConfig(beam_width=6)
        program = ProgramSynthesizer(
            registry_models[model_name], grouped_cluster, config
        ).synthesize().program
        report = verify_program(
            program, grouped_cluster, grouped_cluster.proportional_ratios()
        )
        assert report.ok, report


class TestChunkPlans:
    """The hierarchical planner's chunk plans are flat HAP plans of the
    chunks, one-device chunks (built in closed form) included."""

    def test_every_chunk_plan_equals_a_fresh_plan(self):
        forward = build_deep_transformer(layers=8)
        # Identical one-machine groups: isomorphic one-device chunks.
        cluster = make_cluster(("A100", "A100", "A100", "A100"), group=True)
        config = HierarchicalConfig(
            synthesis=SynthesisConfig(beam_width=4),
            max_stages=4,
        )
        plan = HierarchicalPlanner(forward, cluster, config).plan()
        for chunk in plan.stages:
            fresh = HAPPlanner(chunk.info.graph, chunk.subcluster, config.synthesis).plan()
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

    def test_blocking_cluster_prices_like_serialized_evaluate(self, parity_cluster):
        """The serialized price has two routes: a cluster whose overlap
        efficiency is 0, and ``evaluate(overlap=0.0)`` on any cluster.  Both
        must agree bit for bit, and the blocking cluster's phase profile must
        be the plain serialized walk (collective plus per-phase slowest
        device, per stage)."""
        info = build_training_graph(build_mlp())
        graph = info.graph
        program = _synthesize(graph, parity_cluster).program
        overlapped = CostModel(graph, parity_cluster)
        blocking = CostModel(graph, blocking_cluster(parity_cluster))
        assert overlapped.overlap > 0.0 and blocking.overlap == 0.0
        batched = blocking.evaluate_many(program, self.RATIO_SETS)
        for ratios, b in zip(self.RATIO_SETS, batched):
            serialized = overlapped.evaluate(program, ratios, overlap=0.0)
            assert b.total == serialized.total
            assert list(b.stage_times) == list(serialized.stage_times)
            assert b.exposed_communication == serialized.exposed_communication
            assert b.exposed_communication == b.communication

        ratios = self.RATIO_SETS[1]
        phase_of = dict(
            zip(map(id, program.instructions), program.instruction_phases(info.forward_nodes))
        )
        walk = {"forward": 0.0, "backward": 0.0, "sync": 0.0}
        for stage in program.stages():
            if stage.comm is not None:
                walk[phase_of[id(stage.comm)]] += blocking.comm_time(stage.comm, ratios)
            vectors = {}
            for comp in stage.comps:
                if isinstance(comp, CommInstruction):
                    continue
                vec = vectors.setdefault(phase_of[id(comp)], [0.0] * len(ratios))
                for j, t in enumerate(blocking.comp_times(comp, ratios)):
                    vec[j] += t
            for phase, vec in vectors.items():
                walk[phase] += max(vec)
        assert blocking.phase_profile(program, ratios, info.forward_nodes) == walk

    def test_stage_lines_are_linearised_once(self, training_graphs, parity_cluster):
        graph = training_graphs["mlp"]
        program = _synthesize(graph, parity_cluster).program
        cost_model = CostModel(graph, parity_cluster)
        assert cost_model.stage_coefficients(program) is cost_model.stage_coefficients(program)

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_planner_prices_like_scalar_evaluate(self, model, training_graphs, parity_cluster):
        """The planner prices its round through ``evaluate_many``; its
        estimate must be a fresh cost model's scalar ``evaluate`` of the one
        ratio vector every consumer reads, ``flat_ratios``."""
        graph = training_graphs[model]
        config = SynthesisConfig(beam_width=8)
        plan = HAPPlanner(graph, parity_cluster, config).plan()
        reference = CostModel(graph, parity_cluster)
        assert plan.ratios == [plan.flat_ratios]
        assert plan.estimated_time == reference.evaluate(plan.program, plan.flat_ratios)
        (record,) = plan.rounds
        assert record.ratios == plan.flat_ratios
        assert record.cost_after_balancing == plan.estimated_time.total

    def test_pipeline_chunks_price_like_scalar_evaluate(self):
        """Every chunk's estimate is a fresh cost model's scalar ``evaluate``
        of the chunk program at ``chunk.ratios`` on the chunk's machine group.
        The chunks are planned before any schedule is searched, so the
        schedule plays no part."""
        # Eight alternating A100/P100 machines on the slow network, fast
        # inside each group: pipelining wins, so the chunks are real.
        cluster = make_cluster(("A100", "P100") * 4, network=NetworkSpec(), group=True)
        config = HierarchicalConfig(
            synthesis=SynthesisConfig(beam_width=8),
            max_stages=2,
            intra_group_network=NetworkSpec(bandwidth=100e9 / 8),
        )
        plan = hap_pipeline(build_deep_transformer(layers=4), cluster, config)
        assert plan.num_stages == 2
        for chunk in plan.stages:
            reference = CostModel(chunk.program.graph, chunk.subcluster)
            expected = reference.evaluate(chunk.program, chunk.ratios)
            assert chunk.plan.estimated_time == expected, chunk.index


class TestParityAcrossRatios:
    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_skewed_ratios(self, model, training_graphs, parity_cluster):
        """Cached rule-cost plans are dropped when the ratios change: one
        synthesizer reused across ratio vectors matches a fresh one per vector."""
        graph = training_graphs[model]
        config = SynthesisConfig(beam_width=8)
        reused = ProgramSynthesizer(graph, parity_cluster, config)
        for ratios in ([0.25] * 4, [0.4, 0.3, 0.2, 0.1], [0.25] * 4):
            fresh = ProgramSynthesizer(graph, parity_cluster, config).synthesize(ratios)
            _assert_search_identical(
                fresh, reused.synthesize(ratios), f"{model}/beam/ratios={ratios}"
            )
