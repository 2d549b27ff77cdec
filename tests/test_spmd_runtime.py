"""SPMD runtime tests: synthesized programs are numerically equivalent to the
single-device training graph, for HAP plans and for every baseline."""

import numpy as np
import pytest

from repro.autodiff import build_training_graph
from repro.baselines import plan_baseline
from repro.core import HAPPlanner, ProgramSynthesizer, SynthesisConfig
from repro.runtime import SingleDeviceExecutor
from repro.runtime.spmd import SPMDExecutor, run_plan

from .conftest import (
    bindings_for,
    build_mlp,
    build_tiny_moe,
    build_tiny_transformer,
    make_cluster,
)


def single_device_reference(training, bindings):
    return SingleDeviceExecutor(training.graph).run(bindings)


def assert_equivalent(training, program, ratios, bindings, rtol=2e-4):
    reference = single_device_reference(training, bindings)
    result = SPMDExecutor(program, ratios).run(bindings)
    assert result.loss == pytest.approx(float(reference[training.loss]), rel=rtol, abs=1e-4)
    for name, value in reference.items():
        assert name in result.outputs, f"missing output {name}"
        np.testing.assert_allclose(result.outputs[name], value, rtol=rtol, atol=1e-4)


@pytest.fixture
def fast_cluster():
    """Fast network so synthesized plans include real collectives."""
    return make_cluster(("A100", "A100", "P100", "P100"))


class TestHAPPlanEquivalence:
    def test_mlp_plan(self, fast_cluster):
        training = build_training_graph(build_mlp(batch=32, in_features=24, hidden=48, classes=8))
        plan = HAPPlanner(training.graph, fast_cluster, _planner()).plan()
        bindings = bindings_for(training.graph, seed=0)
        assert_equivalent(training, plan.program, plan.flat_ratios, bindings)

    def test_transformer_plan(self, fast_cluster):
        training = build_training_graph(build_tiny_transformer(batch=16, seq=8, hidden=32))
        plan = HAPPlanner(training.graph, fast_cluster, _planner()).plan()
        bindings = bindings_for(training.graph, seed=1)
        assert_equivalent(training, plan.program, plan.flat_ratios, bindings)

    def test_moe_plan(self, fast_cluster):
        training = build_training_graph(build_tiny_moe(batch=8, seq=8, hidden=32, experts=4))
        plan = HAPPlanner(training.graph, fast_cluster, _planner()).plan()
        bindings = bindings_for(training.graph, seed=2)
        assert_equivalent(training, plan.program, plan.flat_ratios, bindings, rtol=1e-3)

    def test_run_plan_helper(self, fast_cluster):
        training = build_training_graph(build_mlp(batch=16))
        plan = HAPPlanner(training.graph, fast_cluster, _planner()).plan()
        bindings = bindings_for(training.graph, seed=0)
        result = run_plan(plan, bindings)
        assert result.loss is not None


class TestBaselineEquivalence:
    @pytest.mark.parametrize("baseline", ["DP-EV", "DP-CP", "DeepSpeed", "TAG"])
    def test_transformer_baselines(self, baseline, fast_cluster):
        training = build_training_graph(build_tiny_transformer(batch=16, seq=8, hidden=32))
        plan = plan_baseline(baseline, training.graph, fast_cluster, SynthesisConfig(beam_width=8))
        bindings = bindings_for(training.graph, seed=3)
        assert_equivalent(training, plan.program, plan.flat_ratios, bindings)

    @pytest.mark.parametrize("baseline", ["DP-EV", "DeepSpeed"])
    def test_moe_baselines(self, baseline, fast_cluster):
        training = build_training_graph(build_tiny_moe(batch=8, seq=8, hidden=32, experts=4))
        plan = plan_baseline(baseline, training.graph, fast_cluster, SynthesisConfig(beam_width=8))
        bindings = bindings_for(training.graph, seed=4)
        assert_equivalent(training, plan.program, plan.flat_ratios, bindings, rtol=1e-3)


class TestRatioRobustness:
    """The same program stays correct under arbitrary sharding ratios."""

    @pytest.mark.parametrize(
        "ratios",
        [
            [0.25, 0.25, 0.25, 0.25],
            [0.4, 0.3, 0.2, 0.1],
            [0.85, 0.05, 0.05, 0.05],
            [0.5, 0.5, 0.0, 0.0],
        ],
    )
    def test_dp_program_any_ratios(self, ratios, fast_cluster):
        training = build_training_graph(build_tiny_transformer(batch=16, seq=8, hidden=32))
        program = (
            ProgramSynthesizer(
                training.graph, fast_cluster, SynthesisConfig(beam_width=8, force_data_parallel=True)
            )
            .synthesize()
            .program
        )
        bindings = bindings_for(training.graph, seed=5)
        assert_equivalent(training, program, ratios, bindings)

    def test_integer_rounding_consistency_small_batch(self, fast_cluster):
        # batch barely divisible: shard sizes differ across devices
        training = build_training_graph(build_mlp(batch=10, in_features=16, hidden=32, classes=4))
        program = (
            ProgramSynthesizer(
                training.graph, fast_cluster, SynthesisConfig(beam_width=8, force_data_parallel=True)
            )
            .synthesize()
            .program
        )
        bindings = bindings_for(training.graph, seed=6)
        assert_equivalent(training, program, [0.31, 0.27, 0.22, 0.2], bindings)


class TestExecutorErrors:
    def test_missing_binding_raises(self, fast_cluster):
        from repro.graph.graph import GraphError

        training = build_training_graph(build_mlp(batch=16))
        plan = HAPPlanner(training.graph, fast_cluster, _planner()).plan()
        with pytest.raises(GraphError):
            SPMDExecutor(plan.program, plan.flat_ratios).run({})

    def test_wrong_ratio_count_rejected(self, fast_cluster):
        training = build_training_graph(build_mlp(batch=16))
        plan = HAPPlanner(training.graph, fast_cluster, _planner()).plan()
        with pytest.raises(ValueError):
            SPMDExecutor(plan.program, [1.0])


def _planner():
    return SynthesisConfig(beam_width=8)
