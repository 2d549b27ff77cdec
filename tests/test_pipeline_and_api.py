"""Tests for the iterative (Q, B) optimisation loop and the user-facing API."""

import dataclasses

import pytest

from repro.autodiff import build_training_graph
from repro.core import HAPPlan, HAPPlanner, PlannerConfig, SynthesisConfig
from repro.hap import hap

from .conftest import build_mlp, build_tiny_transformer, make_cluster


def planner_config(beam=8, rounds=3):
    config = PlannerConfig(max_rounds=rounds)
    config.synthesis = SynthesisConfig(beam_width=beam)
    return config


class TestHAPPlanner:
    def test_plan_returns_rounds_history(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=64, hidden=128)).graph
        plan = HAPPlanner(training, four_device_cluster, planner_config()).plan()
        assert 1 <= len(plan.rounds) <= 3
        for record in plan.rounds:
            assert record.cost_after_balancing <= record.cost_after_synthesis * 1.001

    def test_load_balancing_never_hurts(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=128, hidden=256)).graph
        plan = HAPPlanner(training, four_device_cluster, planner_config()).plan()
        first = plan.rounds[0]
        assert first.cost_after_balancing <= first.cost_after_synthesis * 1.001

    def test_best_plan_is_minimum_over_rounds(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=64, hidden=64)).graph
        plan = HAPPlanner(training, four_device_cluster, planner_config()).plan()
        assert plan.estimated_time.total <= min(r.cost_after_balancing for r in plan.rounds) * 1.001

    def test_plan_at_keeps_the_fixed_ratios(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=64, hidden=64)).graph
        planner = HAPPlanner(training, four_device_cluster, planner_config(rounds=1))
        ratios = four_device_cluster.proportional_ratios()
        plan = planner.plan_at(ratios)
        assert plan.flat_ratios == ratios
        assert plan.rounds == []

    def test_plan_stores_its_program_once(self):
        assert [f.name for f in dataclasses.fields(HAPPlan)] == [
            "program",
            "ratios",
            "estimated_time",
            "rounds",
        ]

    def test_describe_mentions_ratios(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=32)).graph
        plan = HAPPlanner(training, four_device_cluster, planner_config(rounds=1)).plan()
        text = plan.describe()
        assert "ratios" in text and "per-iteration" in text

    def test_ratios_valid_distribution(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=64, hidden=128)).graph
        plan = HAPPlanner(training, four_device_cluster, planner_config()).plan()
        assert plan.ratios == [plan.flat_ratios]
        ratios = plan.flat_ratios
        assert len(ratios) == four_device_cluster.num_devices
        assert sum(ratios) == pytest.approx(1.0, abs=1e-6)
        assert all(r >= -1e-9 for r in ratios)
        assert all(len(r.ratios) == four_device_cluster.num_devices for r in plan.rounds)


class TestUserAPI:
    def test_hap_accepts_forward_graph(self, four_device_cluster):
        plan = hap(build_mlp(batch=32), four_device_cluster, planner_config(rounds=1))
        assert plan.program.num_computations > 0

    def test_hap_accepts_training_graph(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=32)).graph
        plan = hap(training, four_device_cluster, planner_config(rounds=1))
        assert plan.program.graph is training

    def test_hap_rejects_graph_without_loss(self, four_device_cluster):
        from repro.graph import GraphBuilder

        b = GraphBuilder()
        x = b.placeholder((4, 4))
        b.relu(x)
        with pytest.raises(ValueError):
            hap(b.build(), four_device_cluster)

    def test_hap_on_heterogeneous_cluster_favours_fast_devices(self):
        cluster = make_cluster(("A100", "A100", "P100", "P100"))
        plan = hap(build_mlp(batch=512, in_features=256, hidden=512), cluster, planner_config())
        ratios = plan.flat_ratios
        # A100 devices (index 0, 1) should not get less work than P100s.
        assert ratios[0] + ratios[1] >= ratios[2] + ratios[3] - 1e-6

    def test_hap_estimate_not_worse_than_dp_baselines(self, four_device_cluster):
        """HAP's search space includes data parallelism, so its cost-model
        estimate can never be meaningfully worse than DP-EV / DP-CP."""
        from repro.baselines import plan_baseline
        from repro.core import CostModel

        training = build_training_graph(
            build_tiny_transformer(batch=64, seq=8, hidden=64)
        ).graph
        plan = hap(training, four_device_cluster, planner_config())
        cost_model = CostModel(training, four_device_cluster)
        hap_time = cost_model.evaluate(plan.program, plan.flat_ratios).total
        for baseline in ("DP-EV", "DP-CP"):
            base = plan_baseline(
                baseline, training, four_device_cluster, SynthesisConfig(beam_width=8)
            )
            base_time = cost_model.evaluate(base.program, base.flat_ratios).total
            # Beam-search slack: tiny toy workloads have many near-ties.
            assert hap_time <= base_time * 1.3
