"""Tests for the one-round (Q, B) optimisation and the user-facing API."""

import dataclasses

import pytest

from repro.autodiff import build_training_graph
from repro.core import (
    CostModel,
    HAPPlan,
    HAPPlanner,
    LoadBalancer,
    ProgramSynthesizer,
    SynthesisConfig,
)
from repro.hap import hap

from .conftest import build_mlp, build_tiny_transformer, make_cluster
from .test_optimization_parity import MODEL_BUILDERS


def planner_config(beam=8):
    return SynthesisConfig(beam_width=beam)


def assert_second_round_reproduces_the_first(model, cluster, beam):
    graph = build_training_graph(MODEL_BUILDERS[model]()).graph
    planner = HAPPlanner(graph, cluster, planner_config(beam))
    plan = planner.plan()
    program = planner.synthesizer.synthesize(plan.flat_ratios).program
    ratios = planner.load_balancer.optimize(program, planner.cost_model).ratios
    assert program == plan.program
    assert list(program.instructions) == list(plan.program.instructions)
    assert ratios == plan.flat_ratios
    assert planner.cost_model.evaluate(program, ratios) == plan.estimated_time


class TestHAPPlanner:
    def test_plan_runs_one_synthesis_and_one_lp(self, four_device_cluster, monkeypatch):
        calls = []
        synthesize, optimize = ProgramSynthesizer.synthesize, LoadBalancer.optimize

        def spy_synthesize(self, ratios=None):
            calls.append(("synthesize", list(ratios)))
            return synthesize(self, ratios)

        def spy_optimize(self, program, cost_model):
            calls.append(("optimize", None))
            return optimize(self, program, cost_model)

        monkeypatch.setattr(ProgramSynthesizer, "synthesize", spy_synthesize)
        monkeypatch.setattr(LoadBalancer, "optimize", spy_optimize)
        training = build_training_graph(build_mlp(batch=64, hidden=128)).graph
        plan = HAPPlanner(training, four_device_cluster, planner_config()).plan()
        assert calls == [
            ("synthesize", four_device_cluster.proportional_ratios()),
            ("optimize", None),
        ]
        (record,) = plan.rounds
        assert record.ratios == plan.flat_ratios
        assert record.cost_after_balancing == plan.estimated_time.total
        fresh = CostModel(training, four_device_cluster)
        assert plan.estimated_time == fresh.evaluate(plan.program, plan.flat_ratios)

    def test_load_balancing_never_hurts(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=128, hidden=256)).graph
        plan = HAPPlanner(training, four_device_cluster, planner_config()).plan()
        (record,) = plan.rounds
        assert record.cost_after_balancing <= record.cost_after_synthesis * 1.001

    def test_plan_returns_rounds_history(self, four_device_cluster):
        """The one round record prices the synthesized program at the
        proportional ratios it was synthesized at, then at the LP's ratios;
        ``plan_at`` runs no LP and records no round."""
        training = build_training_graph(build_mlp(batch=64, hidden=128)).graph
        planner = HAPPlanner(training, four_device_cluster, planner_config())
        plan = planner.plan()
        (record,) = plan.rounds
        fresh = CostModel(training, four_device_cluster)
        proportional = four_device_cluster.proportional_ratios()
        assert record.cost_after_synthesis == fresh.evaluate(plan.program, proportional).total
        assert record.cost_after_balancing == fresh.evaluate(plan.program, record.ratios).total
        assert record.synthesis_seconds >= 0 and record.balancing_seconds >= 0
        assert planner.plan_at(proportional).rounds == []

    def test_best_plan_is_minimum_over_rounds(self, four_device_cluster):
        """The selected estimate is no worse than any price the history
        records, before or after the LP."""
        training = build_training_graph(build_mlp(batch=64, hidden=64)).graph
        plan = HAPPlanner(training, four_device_cluster, planner_config()).plan()
        prices = [c for r in plan.rounds for c in (r.cost_after_synthesis, r.cost_after_balancing)]
        assert plan.estimated_time.total <= min(prices) * 1.001

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_second_round_reproduces_the_first(self, model):
        """A second (Q, B) round gives back ``plan()``'s result bit for bit.

        Synthesizing again at the LP's ratios and balancing again returns
        the same program, ratios and estimate, which is why
        :meth:`HAPPlanner.plan` runs one round.  If this ever fails, a
        second round may pay: re-run the README's round-2 measurement (the
        e2e workloads, the Fig. 13/14 cases and the registry models) before
        the alternation loop comes back.
        """
        assert_second_round_reproduces_the_first(
            model, make_cluster(("A100", "A100", "P100", "P100")), beam=8
        )

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    @pytest.mark.parametrize(
        "gpus, beam",
        [
            (("A100", "A100", "P100", "P100"), 32),
            (("A100", "P100") * 4, 8),
            (("A100", "P100") * 4, 32),
        ],
        ids=["4dev-beam32", "8dev-beam8", "8dev-beam32"],
    )
    def test_second_round_reproduces_the_first_on_wider_searches(self, model, gpus, beam):
        """The same tripwire on the rest of the measured fixtures: a wider
        beam, and eight alternating A100 / P100 devices."""
        assert_second_round_reproduces_the_first(model, make_cluster(gpus), beam=beam)

    def test_plan_at_keeps_the_fixed_ratios(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=64, hidden=64)).graph
        planner = HAPPlanner(training, four_device_cluster, planner_config())
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
        plan = HAPPlanner(training, four_device_cluster, planner_config()).plan()
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
        plan = hap(build_mlp(batch=32), four_device_cluster, planner_config())
        assert plan.program.num_computations > 0

    def test_hap_accepts_training_graph(self, four_device_cluster):
        training = build_training_graph(build_mlp(batch=32)).graph
        plan = hap(training, four_device_cluster, planner_config())
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
