"""Tests for the program synthesizer (beam search and A* search)."""

import pytest

from repro.autodiff import build_training_graph
from repro.collectives import CollectiveKind
from repro.core import (
    CostModel,
    PlannerConfig,
    ProgramSynthesizer,
    SynthesisConfig,
    synthesize_program,
)
from repro.core.costmodel import beam_rank_order
from repro.graph import DType, GraphBuilder
from repro.graph.ops import OpKind

from .conftest import build_mlp, build_tiny_moe, build_tiny_transformer, make_cluster


def synthesize(graph, cluster, **cfg_kwargs):
    config = SynthesisConfig(beam_width=16, **cfg_kwargs)
    return ProgramSynthesizer(graph, cluster, config).synthesize()


class TestCompleteness:
    """Every synthesized program emulates every node and produces all outputs."""

    @pytest.mark.parametrize("builder", [build_mlp, build_tiny_transformer, build_tiny_moe])
    def test_all_outputs_covered(self, builder, four_device_cluster):
        training = build_training_graph(builder())
        result = synthesize(training.graph, four_device_cluster)
        emulated = {
            instr.node for instr in result.program.instructions if not instr.is_communication
        }
        for output in training.graph.outputs:
            assert output in emulated

    def test_every_compute_node_emulated_once(self, mlp_training, four_device_cluster):
        result = synthesize(mlp_training.graph, four_device_cluster)
        names = [
            i.node for i in result.program.instructions if not i.is_communication
        ]
        assert len(names) == len(set(names))
        non_source = [n.name for n in mlp_training.graph if n.kind is not OpKind.SOURCE]
        assert set(non_source) <= set(names)

    def test_tensor_communicated_at_most_once(self, transformer_training, four_device_cluster):
        result = synthesize(transformer_training.graph, four_device_cluster)
        comm_refs = [
            i.input.ref
            for i in result.program.instructions
            if i.is_communication and i.kind is not CollectiveKind.SLICE
        ]
        assert len(comm_refs) == len(set(comm_refs))

    def test_two_device_cluster(self, mlp_training, two_device_cluster):
        result = synthesize(mlp_training.graph, two_device_cluster)
        assert result.cost > 0
        assert result.program.num_devices == 2


class TestCostOrdering:
    def test_cost_matches_cost_model(self, mlp_training, four_device_cluster):
        result = synthesize(mlp_training.graph, four_device_cluster)
        model = CostModel(mlp_training.graph, four_device_cluster)
        evaluated = model.evaluate(result.program, four_device_cluster.proportional_ratios())
        assert result.cost == pytest.approx(evaluated.total, rel=0.05)

    def test_beats_or_matches_pure_data_parallelism(self, four_device_cluster):
        """The HAP search space contains DP, so its result can't be much worse.

        The default beam search is approximate, so on microsecond-scale toy
        workloads (where many strategies are nearly tied) HAP may land a few
        percent off the restricted DP optimum; a generous bound still catches
        real regressions (e.g. a missing rule forcing full replication).
        """
        training = build_training_graph(build_tiny_transformer(batch=32, hidden=64)).graph
        hap = synthesize(training, four_device_cluster)
        dp = synthesize(training, four_device_cluster, force_data_parallel=True)
        model = CostModel(training, four_device_cluster)
        ratios = four_device_cluster.proportional_ratios()
        hap_cost = model.evaluate(hap.program, ratios).total
        dp_cost = model.evaluate(dp.program, ratios).total
        assert hap_cost <= dp_cost * 1.3

    def test_slow_network_prefers_fewer_collectives(self, slow_network_cluster, four_device_cluster):
        training = build_training_graph(build_mlp(batch=32)).graph
        slow = synthesize(training, slow_network_cluster)
        fast = synthesize(training, four_device_cluster)
        assert slow.program.num_communications <= fast.program.num_communications + 2


class TestSearchMechanics:
    def test_statistics_populated(self, mlp_training, four_device_cluster):
        result = synthesize(mlp_training.graph, four_device_cluster)
        assert result.expanded_states > 0
        assert result.generated_states >= result.expanded_states
        assert result.elapsed_seconds >= 0

    def test_wrong_ratio_length_rejected(self, mlp_training, four_device_cluster):
        synthesizer = ProgramSynthesizer(mlp_training.graph, four_device_cluster)
        with pytest.raises(ValueError):
            synthesizer.synthesize([0.5, 0.5])

    def test_beam_width_one_still_completes(self, mlp_training, four_device_cluster):
        config = SynthesisConfig(beam_width=1)
        result = ProgramSynthesizer(mlp_training.graph, four_device_cluster, config).synthesize()
        assert result.program.num_computations > 0

    def test_astar_on_small_graph(self, two_device_cluster):
        b = GraphBuilder("tiny")
        x = b.placeholder((16, 8), name="x")
        w = b.parameter((8, 4), name="w")
        y = b.matmul(x, w)
        labels = b.placeholder((16,), dtype=DType.INT64, name="labels")
        loss = b.cross_entropy(y, labels)
        b.loss(loss)
        training = build_training_graph(b.build()).graph
        config = SynthesisConfig(search_strategy="astar", beam_width=None)
        result = ProgramSynthesizer(training, two_device_cluster, config).synthesize()
        assert result.cost > 0

    def test_astar_not_worse_than_beam_on_small_graph(self, two_device_cluster):
        b = GraphBuilder("tiny")
        x = b.placeholder((32, 16), name="x")
        w = b.parameter((16, 8), name="w")
        y = b.matmul(x, w)
        labels = b.placeholder((32,), dtype=DType.INT64, name="labels")
        b.loss(b.cross_entropy(y, labels))
        training = build_training_graph(b.build()).graph
        astar = ProgramSynthesizer(
            training, two_device_cluster, SynthesisConfig(search_strategy="astar")
        ).synthesize()
        beam = ProgramSynthesizer(
            training, two_device_cluster, SynthesisConfig(search_strategy="beam", beam_width=16)
        ).synthesize()
        assert astar.cost <= beam.cost * 1.01

    def test_synthesize_program_helper(self, mlp_training, four_device_cluster):
        result = synthesize_program(mlp_training.graph, four_device_cluster)
        assert result.program.graph is mlp_training.graph

    def test_unbounded_beam_keeps_every_candidate(self, mlp_forward, two_device_cluster):
        """``beam_width=None`` keeps every merged child, like a beam wider
        than any level (the forward graph keeps the unbounded search small)."""
        graph = mlp_forward
        unbounded = ProgramSynthesizer(
            graph, two_device_cluster, SynthesisConfig(beam_width=None)
        ).synthesize()
        wide = ProgramSynthesizer(
            graph, two_device_cluster, SynthesisConfig(beam_width=10_000)
        ).synthesize()
        assert unbounded.cost == wide.cost
        assert list(unbounded.program.instructions) == list(wide.program.instructions)
        assert unbounded.expanded_states == wide.expanded_states

    def test_ratios_affect_cost(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=64, hidden=128)).graph
        synthesizer = ProgramSynthesizer(
            training, four_device_cluster, SynthesisConfig(beam_width=8)
        )
        balanced = synthesizer.synthesize([0.25] * 4)
        skewed = synthesizer.synthesize([0.97, 0.01, 0.01, 0.01])
        assert balanced.cost != pytest.approx(skewed.cost)


class TestProgramStructure:
    def test_stages_start_with_collectives(self, transformer_training, slow_network_cluster):
        result = synthesize(transformer_training.graph, slow_network_cluster)
        stages = result.program.stages()
        assert stages[0].comm is None
        for stage in stages[1:]:
            assert stage.comm is not None and stage.comm.synchronises

    def test_describe_lists_stages(self, mlp_training, four_device_cluster):
        result = synthesize(mlp_training.graph, four_device_cluster)
        text = result.program.describe()
        assert "stage 0" in text

    def test_parameter_shardings_reported(self, mlp_training, four_device_cluster):
        result = synthesize(mlp_training.graph, four_device_cluster)
        shardings = result.program.parameter_shardings()
        assert set(shardings) == {p.name for p in mlp_training.graph.parameters()}

    def test_data_parallel_program_allreduces_gradients(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=64, hidden=128)).graph
        result = synthesize(training, four_device_cluster, force_data_parallel=True)
        kinds = result.program.communication_kinds()
        assert kinds.get("all_reduce", 0) + kinds.get("reduce_scatter", 0) >= 1
        # all parameters stay replicated under DP
        assert all(v is None for v in result.program.parameter_shardings().values())


class TestAStarCompletionFallback:
    """Trimming the unrestricted A* open list must never yield failure.

    The ROADMAP-listed dead-end: with ``follow_topological_order=False`` and
    ``beam_width`` set, open-list trimming can discard every completable
    state.  The completion fallback (greedy best-prefix completion, then an
    untrimmed retry) must always return a valid program on the registry
    models.
    """

    @pytest.mark.parametrize(
        "model", ["vgg19", "vit", "bert_base", "bert_moe"]
    )
    def test_registry_models_never_fail(self, model, four_device_cluster):
        from repro.models import build_tiny_model

        training = build_training_graph(build_tiny_model(model)).graph
        config = SynthesisConfig(
            search_strategy="astar",
            follow_topological_order=False,
            beam_width=8,
        )
        result = ProgramSynthesizer(training, four_device_cluster, config).synthesize()
        # The fallback program is complete: every output is established.
        established = {p.ref for p in result.program.properties}
        assert set(training.outputs) <= established
        assert result.cost > 0

    def test_fallback_program_is_executable(self, four_device_cluster):
        import numpy as np

        from repro.runtime import SingleDeviceExecutor
        from repro.runtime.spmd import SPMDExecutor

        from .conftest import bindings_for

        training = build_training_graph(build_mlp())
        config = SynthesisConfig(
            search_strategy="astar", follow_topological_order=False, beam_width=8
        )
        result = ProgramSynthesizer(training.graph, four_device_cluster, config).synthesize()
        bindings = bindings_for(training.graph, seed=7)
        ratios = four_device_cluster.proportional_ratios()
        spmd = SPMDExecutor(result.program, ratios).run(bindings)
        reference = SingleDeviceExecutor(training.graph).run(bindings)
        assert spmd.loss == pytest.approx(
            float(reference[training.loss]), rel=2e-4, abs=1e-4
        )


class TestSearchConfigValidation:
    @pytest.mark.parametrize("strategy", ["Beam", "a*", ""])
    def test_unknown_strategy_rejected(self, strategy):
        with pytest.raises(ValueError, match="search_strategy"):
            SynthesisConfig(search_strategy=strategy)

    @pytest.mark.parametrize("width", [0, -1])
    def test_non_positive_beam_width_rejected(self, width):
        with pytest.raises(ValueError, match="beam_width"):
            SynthesisConfig(beam_width=width)

    @pytest.mark.parametrize(
        "strategy,width", [("beam", None), ("beam", 1), ("astar", None), ("astar", 8)]
    )
    def test_valid_search_config_accepted(self, strategy, width):
        config = SynthesisConfig(search_strategy=strategy, beam_width=width)
        assert (config.search_strategy, config.beam_width) == (strategy, width)


class TestPlannerConfigValidation:
    @pytest.mark.parametrize("rounds", [0, -1])
    def test_non_positive_max_rounds_rejected(self, rounds):
        with pytest.raises(ValueError, match="max_rounds"):
            PlannerConfig(max_rounds=rounds)

    def test_smallest_valid_values_accepted(self):
        assert PlannerConfig(max_rounds=1).max_rounds == 1


class TestBeamRankOrder:
    """Ranking key ``(max(vector), sum(stage))``; exact ties keep input order."""

    def test_equal_keys_keep_input_order(self):
        vectors = [(2.0, 1.0)] * 4
        stages = [(0.5, 0.5)] * 4
        assert beam_rank_order(vectors, stages) == [0, 1, 2, 3]

    def test_tie_resolution_depends_on_input_order(self):
        """Position, not content, decides a pure tie."""
        tied_a = (2.0, 1.0)
        tied_b = (1.0, 2.0)  # same max, same sum
        stages = [(0.5, 0.5), (0.5, 0.5)]
        assert beam_rank_order([tied_a, tied_b], stages) == [0, 1]
        assert beam_rank_order([tied_b, tied_a], stages) == [0, 1]

    def test_primary_key_then_work_tie_break(self):
        vectors = [(4.0, 1.0), (2.0, 3.0), (3.0, 2.0)]
        stages = [(1.0, 1.0), (3.0, 1.0), (0.5, 0.5)]
        # finals 4.0, 3.0, 3.0; works 2.0, 4.0, 1.0
        assert beam_rank_order(vectors, stages) == [2, 1, 0]

    @pytest.mark.parametrize("seed", range(3))
    def test_random_inputs_match_a_stable_sort(self, seed):
        import random

        rng = random.Random(seed)
        vectors = []
        stages = []
        for _ in range(17):
            stage = tuple(rng.choice([0.25, 0.5, 1.0, 2.0]) for _ in range(4))
            closed = rng.choice([0.0, 1.0, 1.5])
            vectors.append(tuple(closed + s for s in stage))
            stages.append(stage)
        keys = [(max(v), sum(s)) for v, s in zip(vectors, stages)]
        assert beam_rank_order(vectors, stages) == sorted(range(17), key=keys.__getitem__)
