"""Tests for the execution simulator and its relationship to the cost model."""

import numpy as np
import pytest

from repro.autodiff import build_training_graph
from repro.core import CostModel, ProgramSynthesizer, SynthesisConfig
from repro.simulator import ExecutionSimulator, OverheadModel, simulate_plan

from .conftest import blocking_cluster, build_mlp, build_tiny_transformer


@pytest.fixture(scope="module")
def dp_program_and_cluster():
    from .conftest import make_cluster

    cluster = make_cluster()
    training = build_training_graph(build_tiny_transformer(batch=32, seq=8, hidden=32)).graph
    program = (
        ProgramSynthesizer(training, cluster, SynthesisConfig(beam_width=8, force_data_parallel=True))
        .synthesize()
        .program
    )
    return training, program, cluster


class TestSimulator:
    def test_simulation_exceeds_cost_model_estimate(self, dp_program_and_cluster):
        """The simulator adds overheads, so it must report more time than the
        planner's optimistic estimate (the Fig. 18 under-estimation)."""
        training, program, cluster = dp_program_and_cluster
        ratios = cluster.even_ratios()
        estimate = CostModel(training, cluster).evaluate(program, ratios).total
        simulated = ExecutionSimulator(cluster, seed=0).simulate(program, ratios, 2).total
        assert simulated > estimate

    def test_components_sum_to_total(self, dp_program_and_cluster):
        _, program, cluster = dp_program_and_cluster
        result = ExecutionSimulator(cluster, seed=0).simulate(program, cluster.even_ratios(), 1)
        # The dual-stream replay puts only the *exposed* communication on the
        # critical path; raw collective seconds split into exposed + hidden.
        assert result.total == pytest.approx(
            result.exposed_communication + result.computation + result.overhead,
            rel=1e-6,
        )
        assert result.communication == pytest.approx(
            result.exposed_communication + result.hidden_communication, rel=1e-6
        )
        # With serialized streams the classic additive identity holds.
        blocking = ExecutionSimulator(blocking_cluster(cluster), seed=0).simulate(
            program, cluster.even_ratios(), 1
        )
        assert blocking.total == pytest.approx(
            blocking.communication + blocking.computation + blocking.overhead,
            rel=1e-6,
        )
        assert blocking.hidden_communication == 0.0

    def test_deterministic_for_fixed_seed(self, dp_program_and_cluster):
        _, program, cluster = dp_program_and_cluster
        a = ExecutionSimulator(cluster, seed=5).simulate(program, cluster.even_ratios(), 2).total
        b = ExecutionSimulator(cluster, seed=5).simulate(program, cluster.even_ratios(), 2).total
        assert a == pytest.approx(b)

    def test_noise_changes_with_seed(self, dp_program_and_cluster):
        _, program, cluster = dp_program_and_cluster
        a = ExecutionSimulator(cluster, seed=1).simulate(program, cluster.even_ratios(), 1).total
        b = ExecutionSimulator(cluster, seed=2).simulate(program, cluster.even_ratios(), 1).total
        assert a != pytest.approx(b, rel=1e-9)

    def test_per_device_busy_reported(self, dp_program_and_cluster):
        _, program, cluster = dp_program_and_cluster
        result = ExecutionSimulator(cluster, seed=0).simulate(program, cluster.even_ratios(), 1)
        assert len(result.per_device_busy) == cluster.num_devices
        assert all(b > 0 for b in result.per_device_busy)

    def test_skewed_ratios_slow_down_computation(self, dp_program_and_cluster):
        _, program, cluster = dp_program_and_cluster
        sim = ExecutionSimulator(cluster, OverheadModel(noise=0.0), seed=0)
        even = sim.simulate(program, cluster.even_ratios(), 1)
        skew = sim.simulate(program, [0.97, 0.01, 0.01, 0.01], 1)
        assert skew.computation > even.computation

    def test_zero_noise_model(self, dp_program_and_cluster):
        _, program, cluster = dp_program_and_cluster
        sim = ExecutionSimulator(cluster, OverheadModel(noise=0.0), seed=0)
        a = sim.simulate(program, cluster.even_ratios(), 1).total
        b = ExecutionSimulator(cluster, OverheadModel(noise=0.0), seed=9).simulate(
            program, cluster.even_ratios(), 1
        ).total
        assert a == pytest.approx(b)

    def test_estimates_correlate_with_simulation_across_models(self, four_device_cluster):
        """Cost-model estimates and simulated times are strongly correlated
        (the paper reports Pearson r = 0.97 for its cost model)."""
        estimates, actuals = [], []
        for batch, hidden in [(16, 32), (64, 64), (192, 128), (512, 256)]:
            training = build_training_graph(
                build_mlp(batch=batch, in_features=hidden, hidden=hidden * 2)
            ).graph
            program = (
                ProgramSynthesizer(
                    training, four_device_cluster, SynthesisConfig(beam_width=8)
                )
                .synthesize()
                .program
            )
            ratios = four_device_cluster.proportional_ratios()
            estimates.append(CostModel(training, four_device_cluster).evaluate(program, ratios).total)
            actuals.append(
                ExecutionSimulator(four_device_cluster, seed=0).simulate(program, ratios, 2).total
            )
        r = float(np.corrcoef(estimates, actuals)[0, 1])
        assert r > 0.8

    def test_simulate_plan_helper(self, four_device_cluster, small_synthesis_config):
        from repro.core import HAPPlanner

        training = build_training_graph(build_mlp(batch=32)).graph
        plan = HAPPlanner(training, four_device_cluster, small_synthesis_config).plan()
        result = simulate_plan(plan, four_device_cluster, iterations=2)
        assert result.total > 0

    def test_simulated_time_is_pinned(self, four_device_cluster, small_synthesis_config):
        """One small flat plan's simulated time, bit for bit (``float.hex``):
        a refactor of the simulator's pricing must leave it unchanged."""
        from repro.core import HAPPlanner

        training = build_training_graph(build_mlp(batch=32)).graph
        plan = HAPPlanner(training, four_device_cluster, small_synthesis_config).plan()
        total = simulate_plan(plan, four_device_cluster, iterations=2, seed=0).total
        assert total.hex() == "0x1.6f67eea4b71a8p-12"

    def test_rejects_a_cluster_of_the_wrong_size(self, dp_program_and_cluster, two_device_cluster):
        """A 4-device program replayed on 2 devices (or the reverse) is refused
        with both device counts named, not silently priced on the wrong devices."""
        _, program, cluster = dp_program_and_cluster
        with pytest.raises(ValueError, match=r"program is for 4 device\(s\).* has 2"):
            ExecutionSimulator(two_device_cluster).simulate(program, [0.5, 0.5])
        with pytest.raises(ValueError, match=r"ratio vector is for 2 device\(s\).* has 4"):
            ExecutionSimulator(cluster).simulate(program, [0.5, 0.5])

    def test_simulate_plan_rejects_a_cluster_of_the_wrong_size(
        self, four_device_cluster, two_device_cluster, small_synthesis_config
    ):
        from repro.core import HAPPlanner

        training = build_training_graph(build_mlp(batch=32)).graph
        plan = HAPPlanner(training, four_device_cluster, small_synthesis_config).plan()
        with pytest.raises(ValueError, match=r"4 device\(s\).* has 2"):
            simulate_plan(plan, two_device_cluster)
        small = HAPPlanner(training, two_device_cluster, small_synthesis_config).plan()
        with pytest.raises(ValueError, match=r"2 device\(s\).* has 4"):
            simulate_plan(small, four_device_cluster)
