"""Tests for the LP-based load balancer and the cost model linearisation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import build_training_graph
from repro.cluster import ClusterSpec
from repro.core import (
    CostModel,
    LoadBalancer,
    ProgramSynthesizer,
    SynthesisConfig,
)
from repro.graph import shard_sizes

from .conftest import build_mlp, build_tiny_transformer


def _assert_objective_is_exact(result, program, cost_model):
    """The LP objective is the cost model's time at the returned ratios."""
    evaluated = cost_model.evaluate(program, result.ratios).total
    assert result.objective == pytest.approx(evaluated, rel=1e-12)


@pytest.fixture
def dp_setup(four_device_cluster):
    """A data-parallel program on a heterogeneous 4-GPU cluster."""
    training = build_training_graph(build_mlp(batch=256, in_features=64, hidden=256)).graph
    config = SynthesisConfig(beam_width=8, force_data_parallel=True)
    program = ProgramSynthesizer(training, four_device_cluster, config).synthesize().program
    cost_model = CostModel(training, four_device_cluster)
    return training, program, cost_model, four_device_cluster


class TestLoadBalancer:
    def test_ratios_sum_to_one(self, dp_setup):
        _, program, cost_model, cluster = dp_setup
        result = LoadBalancer(cluster).optimize(program, cost_model)
        _assert_objective_is_exact(result, program, cost_model)
        assert len(result.ratios) == cluster.num_devices
        assert sum(result.ratios) == pytest.approx(1.0, abs=1e-6)
        assert all(r >= -1e-9 for r in result.ratios)

    def test_lp_not_worse_than_proportional_or_even(self, dp_setup):
        _, program, cost_model, cluster = dp_setup
        result = LoadBalancer(cluster).optimize(program, cost_model)
        optimised = cost_model.evaluate(program, result.ratios).total
        proportional = cost_model.evaluate(program, cluster.proportional_ratios()).total
        even = cost_model.evaluate(program, cluster.even_ratios()).total
        assert optimised <= proportional * 1.001
        assert optimised <= even * 1.001

    def test_lp_objective_matches_cost_model(self, dp_setup):
        _, program, cost_model, cluster = dp_setup
        result = LoadBalancer(cluster).optimize(program, cost_model)
        _assert_objective_is_exact(result, program, cost_model)

    def test_lp_objective_matches_cost_model_on_tiny_transformer(self, four_device_cluster):
        training = build_training_graph(build_tiny_transformer()).graph
        config = SynthesisConfig(beam_width=8)
        program = ProgramSynthesizer(training, four_device_cluster, config).synthesize().program
        cost_model = CostModel(training, four_device_cluster)
        result = LoadBalancer(four_device_cluster).optimize(program, cost_model)
        _assert_objective_is_exact(result, program, cost_model)

    def test_fast_devices_get_larger_share_when_compute_bound(self, four_device_cluster):
        # Huge compute, negligible communication: ratios should follow flops.
        training = build_training_graph(build_mlp(batch=1024, in_features=512, hidden=1024)).graph
        config = SynthesisConfig(beam_width=8, force_data_parallel=True)
        program = ProgramSynthesizer(training, four_device_cluster, config).synthesize().program
        cost_model = CostModel(training, four_device_cluster)
        result = LoadBalancer(four_device_cluster).optimize(program, cost_model)
        ratios = result.ratios
        flops = four_device_cluster.device_flops()
        fast = max(range(4), key=lambda j: flops[j])
        slow = min(range(4), key=lambda j: flops[j])
        assert ratios[fast] > ratios[slow]

    def test_single_device_cluster(self, dp_setup):
        from repro.cluster import Machine, device_type

        training, _, _, _ = dp_setup
        cluster = ClusterSpec([Machine("m", device_type("V100"), 1)], group_by_machine=False)
        config = SynthesisConfig(beam_width=4)
        program = ProgramSynthesizer(training, cluster, config).synthesize().program
        cost_model = CostModel(training, cluster)
        result = LoadBalancer(cluster).optimize(program, cost_model)
        assert result.ratios == [1.0]

    def test_lp_ignores_device_memory(self, dp_setup):
        # The LP prices time only; per-device memory is judged by the
        # hierarchical planner, so shrinking capacity leaves the ratios alone.
        training, program, cost_model, cluster = dp_setup
        tight = ClusterSpec(
            cluster.machines,
            network=cluster.network,
            group_by_machine=cluster.group_by_machine,
            memory_reserve_fraction=0.99,
            comm_overlap_efficiency=cluster.comm_overlap_efficiency,
        )
        roomy = LoadBalancer(cluster).optimize(program, cost_model)
        cramped = LoadBalancer(tight).optimize(program, CostModel(training, tight))
        _assert_objective_is_exact(cramped, program, CostModel(training, tight))
        assert cramped.ratios == roomy.ratios
        assert cramped.objective == roomy.objective


class TestIntegerRounding:
    def test_even_split(self):
        assert shard_sizes(10, [0.5, 0.5]) == (5, 5)

    @given(
        total=st.integers(min_value=1, max_value=4096),
        ratios=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_rounding_preserves_total(self, total, ratios):
        sizes = shard_sizes(total, ratios)
        assert sum(sizes) == total

    @pytest.mark.parametrize(
        "total,ratios,expected",
        [
            (9, [0.6, 0.4], (5, 4)),
            (100, [0.7, 0.2, 0.1], (70, 20, 10)),
            # 3.33 each rounds down; the first of the tied shards takes the rest.
            (10, [1, 1, 1], (4, 3, 3)),
            # 3.5 rounds up, overshooting; the shard closest to its target gives back.
            (7, [0.5, 0.25, 0.25], (3, 2, 2)),
            (5, [0.0, 1.0], (0, 5)),
            # All-zero ratios fall back to an even split.
            (4, [0.0, 0.0], (2, 2)),
        ],
    )
    def test_hand_computed_splits(self, total, ratios, expected):
        assert shard_sizes(total, ratios) == expected

    @pytest.mark.parametrize(
        "total,ratios", [(-1, [0.5, 0.5]), (4, []), (4, [0.5, -0.5])]
    )
    def test_invalid_inputs_rejected(self, total, ratios):
        with pytest.raises(ValueError):
            shard_sizes(total, ratios)

    @given(
        total=st.integers(min_value=0, max_value=4096),
        ratios=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_each_size_within_one_of_its_target(self, total, ratios):
        sizes = shard_sizes(total, ratios)
        weight = sum(ratios)
        if weight > 0:
            targets = [total * r / weight for r in ratios]
        else:
            targets = [total / len(ratios)] * len(ratios)
        assert all(size >= 0 for size in sizes)
        assert all(abs(size - t) < 1 for size, t in zip(sizes, targets))


class TestCostModelLinearisation:
    def test_stage_coefficients_reproduce_evaluate(self, dp_setup):
        """Summing the per-stage linear pieces must equal the evaluator."""
        _, program, cost_model, cluster = dp_setup
        for ratios in (cluster.even_ratios(), cluster.proportional_ratios(), [0.7, 0.1, 0.1, 0.1]):
            for overlap in (0.0, cost_model.overlap, 1.0):
                total = sum(
                    c.time(ratios, overlap=overlap)
                    for c in cost_model.stage_coefficients(program)
                )
                evaluated = cost_model.evaluate(program, ratios, overlap=overlap).total
                assert total == pytest.approx(evaluated, rel=1e-6)

    def test_comm_linear_exact_at_endpoints(self, dp_setup):
        _, program, cost_model, cluster = dp_setup
        n = cluster.num_devices
        comms = [i for i in program.instructions if i.is_communication and i.synchronises]
        assert comms
        for instr in comms[:5]:
            const, slope = cost_model.comm_linear(instr)
            even = cost_model.comm_time(instr, [1.0 / n] * n)
            skew = cost_model.comm_time(instr, [1.0] + [0.0] * (n - 1))
            assert const + slope / n == pytest.approx(even, rel=1e-6)
            assert const + slope == pytest.approx(skew, rel=1e-6)

    def test_comm_time_cache_follows_the_ratios(self, dp_setup):
        """One cost model priced at alternating ratio tuples, at lists, and
        at a list changed in place agrees bit for bit with a fresh model."""
        training, _, cost_model, cluster = dp_setup
        theory = ProgramSynthesizer(training, cluster).theory
        comms = [
            rule.instructions[0]
            for rule in theory.rules
            if rule.is_communication and rule.instructions[0].synchronises
        ]
        even, skew = tuple(cluster.even_ratios()), (0.7, 0.1, 0.1, 0.1)

        def check(ratios):
            for instr in comms:
                fresh = CostModel(training, cluster).comm_time(instr, tuple(ratios))
                assert cost_model.comm_time(instr, ratios).hex() == fresh.hex()

        assert any(cost_model.comm_time(i, even) != cost_model.comm_time(i, skew) for i in comms)
        for ratios in (even, skew, even, tuple(list(even)), list(skew)):
            check(ratios)
        mutable = list(even)
        check(mutable)
        mutable[:] = skew
        check(mutable)

    def test_breakdown_components_sum(self, dp_setup):
        # The dual-stream model prices the critical path by *exposed*
        # communication; the raw collective seconds split exactly into
        # exposed + hidden, and with overlap 0 nothing hides.
        _, program, cost_model, cluster = dp_setup
        breakdown = cost_model.evaluate(program, cluster.even_ratios())
        assert breakdown.total == pytest.approx(
            breakdown.exposed_communication + breakdown.computation, rel=1e-9
        )
        assert breakdown.communication == pytest.approx(
            breakdown.exposed_communication + breakdown.hidden_communication, rel=1e-9
        )
        assert len(breakdown.stage_times) == len(program.stages())
        serialized = cost_model.evaluate(program, cluster.even_ratios(), overlap=0.0)
        assert serialized.total == pytest.approx(
            serialized.communication + serialized.computation, rel=1e-9
        )
        assert serialized.hidden_communication == 0.0

    def test_machine_level_devices_add_internal_sync(self, machine_cluster):
        training = build_training_graph(build_mlp(batch=256, hidden=256)).graph
        config = SynthesisConfig(beam_width=8, force_data_parallel=True)
        program = ProgramSynthesizer(training, machine_cluster, config).synthesize().program
        cost_model = CostModel(training, machine_cluster)
        updates = [
            i for i in program.instructions if not i.is_communication and i.op == "sgd_update"
        ]
        assert updates
        times = cost_model.comp_times(updates[0], machine_cluster.even_ratios())
        flops_only = cost_model.node_flops(updates[0].node) / machine_cluster.device_flops()[0]
        assert times[0] > flops_only  # intra-machine gradient sync included
