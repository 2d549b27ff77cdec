"""Tests for the baseline planners (DP-EV, DP-CP, DeepSpeed-like, TAG-like)."""

import pytest

from repro.autodiff import build_training_graph
from repro.baselines import BASELINE_NAMES, plan_baseline
from repro.core import HAPPlan, SynthesisConfig
from repro.experiments.harness import flat_peak_memory

from .conftest import build_mlp, build_tiny_moe, build_tiny_transformer


@pytest.fixture(scope="module")
def transformer():
    return build_tiny_transformer(batch=32, seq=8, hidden=32)


@pytest.fixture(scope="module")
def transformer_graph(transformer):
    return build_training_graph(transformer).graph


@pytest.fixture(scope="module")
def moe():
    return build_tiny_moe(batch=16, seq=8, hidden=32, experts=8)


@pytest.fixture(scope="module")
def moe_graph(moe):
    return build_training_graph(moe).graph


@pytest.fixture
def cfg():
    return SynthesisConfig(beam_width=8)


class TestDataParallelBaselines:
    def test_dp_ev_even_ratios(self, transformer_graph, four_device_cluster, cfg):
        plan = plan_baseline("DP-EV", transformer_graph, four_device_cluster, cfg)
        assert plan.flat_ratios == four_device_cluster.even_ratios()

    def test_dp_cp_proportional_ratios(self, transformer_graph, four_device_cluster, cfg):
        plan = plan_baseline("DP-CP", transformer_graph, four_device_cluster, cfg)
        assert plan.flat_ratios == four_device_cluster.proportional_ratios()

    def test_dp_keeps_parameters_replicated(self, transformer_graph, four_device_cluster, cfg):
        plan = plan_baseline("DP-EV", transformer_graph, four_device_cluster, cfg)
        assert all(d is None for d in plan.program.parameter_shardings().values())

    def test_dp_synchronises_gradients(self, transformer_graph, four_device_cluster, cfg):
        plan = plan_baseline("DP-EV", transformer_graph, four_device_cluster, cfg)
        kinds = plan.program.communication_kinds()
        assert kinds.get("all_reduce", 0) + kinds.get("reduce_scatter", 0) > 0

    def test_dp_cp_same_program_as_dp_ev(self, transformer_graph, four_device_cluster, cfg):
        ev = plan_baseline("DP-EV", transformer_graph, four_device_cluster, cfg)
        cp = plan_baseline("DP-CP", transformer_graph, four_device_cluster, cfg)
        assert ev.program.num_computations == cp.program.num_computations

    def test_accepts_forward_graph(self, four_device_cluster, cfg):
        forward = build_mlp(batch=32)
        plan = plan_baseline("DP-EV", forward, four_device_cluster, cfg)
        assert plan.program.num_computations > len(forward)


class TestDeepSpeedLike:
    def test_expert_parameters_sharded(self, moe_graph, four_device_cluster, cfg):
        plan = plan_baseline("DeepSpeed", moe_graph, four_device_cluster, cfg)
        shardings = plan.program.parameter_shardings()
        expert_params = [
            name for name in shardings if moe_graph[name].spec.rank == 3
        ]
        assert expert_params
        for name in expert_params:
            assert shardings[name] == 0  # sharded on the expert dimension

    def test_dense_parameters_replicated(self, moe_graph, four_device_cluster, cfg):
        plan = plan_baseline("DeepSpeed", moe_graph, four_device_cluster, cfg)
        shardings = plan.program.parameter_shardings()
        dense = [n for n in shardings if moe_graph[n].spec.rank < 3]
        assert any(shardings[n] is None for n in dense)

    def test_uses_all_to_all_for_expert_layers(self, moe_graph, four_device_cluster, cfg):
        plan = plan_baseline("DeepSpeed", moe_graph, four_device_cluster, cfg)
        assert plan.program.communication_kinds().get("all_to_all", 0) >= 2

    def test_lower_memory_than_dp_on_moe(self, moe, moe_graph, four_device_cluster, cfg):
        dp = plan_baseline("DP-EV", moe_graph, four_device_cluster, cfg)
        ds = plan_baseline("DeepSpeed", moe_graph, four_device_cluster, cfg)
        assert max(flat_peak_memory(ds, moe)) < max(flat_peak_memory(dp, moe))


class TestTAGLike:
    def test_tag_plans_successfully(self, transformer_graph, four_device_cluster, cfg):
        plan = plan_baseline("TAG", transformer_graph, four_device_cluster, cfg)
        assert plan.estimated_time.total > 0

    def test_tag_not_slower_than_dp_ev_estimate(self, transformer_graph, four_device_cluster, cfg):
        """TAG's search space is a superset of DP-EV's (adds SFB)."""
        tag = plan_baseline("TAG", transformer_graph, four_device_cluster, cfg)
        dp = plan_baseline("DP-EV", transformer_graph, four_device_cluster, cfg)
        assert tag.estimated_time.total <= dp.estimated_time.total * 1.05


class TestRegistryAndMemory:
    def test_plan_baseline_by_name(self, transformer_graph, four_device_cluster, cfg):
        for name in BASELINE_NAMES:
            plan = plan_baseline(name, transformer_graph, four_device_cluster, cfg)
            assert isinstance(plan, HAPPlan)
            assert plan.rounds == []

    @pytest.mark.parametrize("name", ["HAP", "HAP-Pipeline", "Megatron"])
    def test_unknown_baseline_rejected(self, name, transformer_graph, four_device_cluster):
        with pytest.raises(KeyError):
            plan_baseline(name, transformer_graph, four_device_cluster)

    def test_baseline_names_constant(self):
        assert BASELINE_NAMES == ["DP-EV", "DP-CP", "DeepSpeed", "TAG"]

    @pytest.mark.parametrize("verify", [True, False])
    def test_plans_go_through_the_verify_hooks(
        self, verify, monkeypatch, transformer_graph, four_device_cluster
    ):
        import repro.verify.graph
        import repro.verify.program

        calls = []
        for module, name in (
            (repro.verify.graph, "verify_graph"),
            (repro.verify.program, "verify_program"),
        ):
            check = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *args, _c=check, _n=name: calls.append(_n) or _c(*args)
            )
        config = SynthesisConfig(beam_width=8, verify_after_plan=verify)
        plan_baseline("TAG", transformer_graph, four_device_cluster, config)
        assert calls == (["verify_graph", "verify_program"] if verify else [])

    def test_memory_estimate_positive_and_per_device(
        self, transformer, transformer_graph, four_device_cluster, cfg
    ):
        plan = plan_baseline("DP-EV", transformer_graph, four_device_cluster, cfg)
        memory = flat_peak_memory(plan, transformer)
        assert len(memory) == four_device_cluster.num_devices
        assert all(m > 0 for m in memory)

    def test_replicated_parameters_dominate_dp_memory(
        self, transformer, transformer_graph, four_device_cluster, cfg
    ):
        plan = plan_baseline("DP-EV", transformer_graph, four_device_cluster, cfg)
        memory = flat_peak_memory(plan, transformer)
        params = transformer_graph.parameter_bytes()
        assert min(memory) >= 3.0 * params * 0.9
