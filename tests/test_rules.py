"""Tests for the background theory: properties, sharding variants, Hoare rules."""

import re

import pytest

from repro.autodiff import build_training_graph
from repro.collectives import CollectiveKind
from repro.core import (
    DistState,
    ProgramSynthesizer,
    StateKind,
    SynthesisConfig,
    SynthesisError,
    build_theory,
    moe_restricted_refs,
    node_variants,
    partial,
    replicated,
    sharded,
)
from repro.core.rules import fireable_rules
from repro.core.variants import Variant, _reshape_dim_map, source_variants
from repro.graph import DType, GraphBuilder
from repro.graph.ops import OpKind
from repro.models import build_tiny_model

from .conftest import build_mlp, build_tiny_moe, build_tiny_transformer, make_cluster


class TestProperties:
    def test_state_constructors(self):
        assert DistState.replicated().is_replicated
        assert DistState.partial().is_partial
        assert DistState.sharded(1).dim == 1

    def test_state_constructors_return_one_object_per_value(self):
        assert DistState.replicated() is DistState.replicated()
        assert DistState.partial() is DistState.partial()
        assert DistState.sharded(1) is DistState.sharded(1)
        assert DistState.sharded(0) is not DistState.sharded(1)
        assert DistState.sharded(2) == DistState(StateKind.SHARDED, 2)

    def test_invalid_states(self):
        with pytest.raises(ValueError):
            DistState(StateKind.SHARDED, None)
        with pytest.raises(ValueError):
            DistState(StateKind.REPLICATED, 2)

    def test_property_helpers(self):
        assert replicated("x").state.is_replicated
        assert partial("x").state.is_partial
        assert sharded("x", 2).state.dim == 2

    def test_properties_hashable_and_equal(self):
        assert sharded("x", 1) == sharded("x", 1)
        assert len({sharded("x", 1), sharded("x", 1), replicated("x")}) == 2

    def test_str_matches_paper_notation(self):
        assert "all-gather(0)" in str(sharded("e1", 0))
        assert "all-reduce" in str(partial("e1"))
        assert "identity" in str(replicated("e1"))


def variant_states(graph, node_name, num_devices=4, cfg=None):
    cfg = cfg or SynthesisConfig()
    node = graph[node_name]
    return node_variants(node, graph, cfg, num_devices)


class TestNodeVariants:
    def make_matmul(self, a_shape, b_shape):
        b = GraphBuilder()
        x = b.placeholder(a_shape, name="a")
        w = b.parameter(b_shape, name="w")
        y = b.matmul(x, w)
        g = b.build()
        return g, y

    def test_matmul_2d_has_paper_rules(self):
        g, y = self.make_matmul((16, 32), (32, 64))
        variants = variant_states(g, y)
        outs = {(v.input_states, v.output_state) for v in variants}
        S, R, P = DistState.sharded, DistState.replicated(), DistState.partial()
        assert ((S(0), R), S(0)) in outs          # data parallelism
        assert ((R, S(1)), S(1)) in outs          # column (feature) parallelism
        assert ((S(1), S(0)), P) in outs          # reduction parallelism
        assert ((R, R), R) in outs                # duplicated compute (SFB)

    def test_matmul_sfb_rule_removed_when_disabled(self):
        g, y = self.make_matmul((16, 32), (32, 64))
        variants = variant_states(g, y, cfg=SynthesisConfig(enable_sfb=False))
        assert not any(
            all(s.is_replicated for s in v.input_states) for v in variants
        )

    def test_matmul_small_dims_not_sharded(self):
        g, y = self.make_matmul((2, 32), (32, 3))
        variants = variant_states(g, y)
        for v in variants:
            assert v.output_state != DistState.sharded(0) or v.input_states[0] != DistState.sharded(0)

    def test_elementwise_propagates_every_dim(self):
        b = GraphBuilder()
        x = b.placeholder((8, 16), name="x")
        y = b.relu(x)
        g = b.build()
        variants = variant_states(g, y)
        sharded_dims = {v.output_state.dim for v in variants if v.output_state.is_sharded}
        assert sharded_dims == {0, 1}

    def test_add_propagates_partial(self):
        b = GraphBuilder()
        x = b.placeholder((8, 8), name="x")
        y = b.placeholder((8, 8), name="y")
        z = b.add(x, y)
        g = b.build()
        variants = variant_states(g, z)
        assert any(
            v.output_state.is_partial and all(s.is_partial for s in v.input_states)
            for v in variants
        )

    def test_softmax_never_sharded_on_axis(self):
        b = GraphBuilder()
        x = b.placeholder((8, 16), name="x")
        y = b.softmax(x, axis=-1)
        g = b.build()
        variants = variant_states(g, y)
        for v in variants:
            if v.output_state.is_sharded:
                assert v.output_state.dim != 1

    def test_cross_entropy_batch_sharding_gives_partial_loss(self):
        b = GraphBuilder()
        logits = b.placeholder((16, 8), name="logits")
        labels = b.placeholder((16,), dtype=DType.INT64, name="labels")
        loss = b.cross_entropy(logits, labels)
        g = b.build()
        variants = variant_states(g, loss)
        assert any(v.output_state.is_partial for v in variants)

    def test_sgd_update_requires_matching_states(self):
        b = GraphBuilder()
        p = b.parameter((32, 32), name="p")
        grad = b.placeholder((32, 32), name="g")
        g = b.build()
        g.add_node("upd", "sgd_update", (p, grad))
        variants = variant_states(g, "upd")
        for v in variants:
            assert v.input_states[0] == v.input_states[1]

    def test_conv_only_batch_sharded(self):
        b = GraphBuilder()
        x = b.placeholder((8, 3, 16, 16), name="x")
        w = b.parameter((8, 3, 3, 3), name="w")
        y = b.conv2d(x, w, padding=1)
        g = b.build()
        variants = variant_states(g, y)
        for v in variants:
            if v.output_state.is_sharded:
                assert v.output_state.dim == 0

    def test_moe_dispatch_token_sharding_gives_capacity_sharding(self):
        b = GraphBuilder()
        tokens = b.placeholder((32, 16), name="tokens")
        gates = b.placeholder((32, 4), name="gates")
        d = b.moe_dispatch(tokens, gates)
        g = b.build()
        variants = variant_states(g, d)
        assert any(
            v.output_state == DistState.sharded(1)
            and v.input_states == (DistState.sharded(0), DistState.sharded(0))
            for v in variants
        )


class TestReshapeDimMap:
    def test_merge_leading_dims(self):
        assert (0, 0) in _reshape_dim_map((4, 8, 16), (32, 16))

    def test_split_leading_dim(self):
        assert (0, 0) in _reshape_dim_map((32, 16), (4, 8, 16))

    def test_common_prefix(self):
        pairs = _reshape_dim_map((4, 8, 16), (4, 8, 4, 4))
        assert (0, 0) in pairs and (1, 1) in pairs

    def test_common_suffix(self):
        pairs = _reshape_dim_map((4, 8, 16), (32, 16))
        assert (2, 1) in pairs

    def test_middle_dim_not_mapped_when_merging(self):
        pairs = _reshape_dim_map((4, 8, 16), (32, 16))
        assert all(din != 1 for din, _ in pairs)


class TestSourceVariants:
    def make_param(self, shape):
        b = GraphBuilder()
        p = b.parameter(shape, name="p")
        return b.build()[p]

    def test_default_allows_shard_and_replicate(self):
        states = source_variants(self.make_param((64, 64)), SynthesisConfig(), 4)
        assert DistState.replicated() in states
        assert DistState.sharded(0) in states and DistState.sharded(1) in states

    def test_small_dims_not_sharded(self):
        states = source_variants(self.make_param((2, 3)), SynthesisConfig(), 4)
        assert states == [DistState.replicated()]

    def test_force_data_parallel_parameters_replicated(self):
        cfg = SynthesisConfig(force_data_parallel=True)
        states = source_variants(self.make_param((64, 64)), cfg, 4)
        assert states == [DistState.replicated()]

    def test_force_data_parallel_expert_parameters_sharded(self):
        cfg = SynthesisConfig(force_data_parallel=True, expert_parallel_parameters=True)
        states = source_variants(self.make_param((8, 64, 64)), cfg, 4)
        assert states == [DistState.sharded(0)]

    def test_force_data_parallel_placeholder_batch_sharded(self):
        b = GraphBuilder()
        x = b.placeholder((64, 8), name="x")
        node = b.build()[x]
        cfg = SynthesisConfig(force_data_parallel=True)
        assert source_variants(node, cfg, 4) == [DistState.sharded(0)]


class TestTheory:
    def test_theory_built_for_training_graph(self, transformer_training, four_device_cluster):
        theory = build_theory(transformer_training.graph, four_device_cluster.num_devices)
        assert len(theory) > 100
        # every non-source node has at least one computation rule
        for node in transformer_training.graph:
            if node.kind is not OpKind.SOURCE:
                assert node.name in theory.comp_rules_by_node, node.name

    def test_fused_rules_have_no_source_preconditions_variant(self, mlp_training):
        theory = build_theory(mlp_training.graph, 4)
        sources = {p.name for p in mlp_training.graph.parameters()}
        sources |= {p.name for p in mlp_training.graph.placeholders()}
        fully_fused = [
            r
            for rules in theory.comp_rules_by_node.values()
            for r in rules
            if not any(p.ref in sources for p in r.pre) and r.completes & sources
        ]
        assert fully_fused, "expected at least one rule with inlined source instructions"

    @pytest.mark.parametrize("num_devices", [1, 2, 4])
    @pytest.mark.parametrize(
        "builder",
        [build_mlp, build_tiny_transformer, build_tiny_moe, lambda: build_tiny_model("bert_moe")],
        ids=["mlp", "tiny_transformer", "tiny_moe", "bert_moe"],
    )
    def test_each_source_is_fused_into_its_first_consumer(self, builder, num_devices):
        """A computation rule of node n completes n and exactly the sources
        whose first consumer in graph order is n; it requires every other
        source input as a precondition."""
        graph = build_training_graph(builder()).graph
        theory = build_theory(graph, num_devices)
        first_consumer = {}
        for node in graph:
            for inp in node.inputs:
                if graph[inp].kind is OpKind.SOURCE:
                    first_consumer.setdefault(inp, node.name)
        checked = 0
        for name, rules in theory.comp_rules_by_node.items():
            first_use = {s for s, consumer in first_consumer.items() if consumer == name}
            later_use = {
                inp for inp in graph[name].inputs if inp in first_consumer
            } - first_use
            for rule in rules:
                assert rule.completes == {name} | first_use
                pre_refs = {p.ref for p in rule.pre}
                assert not pre_refs & first_use
                assert later_use <= pre_refs
                checked += 1
        assert checked and first_consumer

    def test_comm_rules_cover_partial_to_replicated(self, mlp_training):
        theory = build_theory(mlp_training.graph, 4)
        kinds = {
            instr.kind
            for rules in theory.comm_rules_by_ref.values()
            for rule in rules
            for instr in rule.instructions
        }
        assert CollectiveKind.ALL_REDUCE in kinds

    def test_grouped_all_gather_toggle(self, mlp_training):
        on = build_theory(mlp_training.graph, 4, SynthesisConfig(enable_grouped_all_gather=True))
        off = build_theory(mlp_training.graph, 4, SynthesisConfig(enable_grouped_all_gather=False))

        def grouped_count(theory):
            return sum(
                1
                for rules in theory.comm_rules_by_ref.values()
                for rule in rules
                for instr in rule.instructions
                if instr.kind is CollectiveKind.ALL_GATHER_GROUPED
            )

        assert grouped_count(on) >= grouped_count(off)

    @pytest.mark.parametrize("builder", [build_mlp, build_tiny_transformer, build_tiny_moe])
    def test_all_gather_twins_are_adjacent_in_comm_rules_by_post(self, builder):
        """Each grouped All-Gather follows its padded twin, with equal pre,
        post and comm masks, in its ``comm_rules_by_post`` list: synthesis
        compares a collective with the option just before it to keep the
        cheaper twin."""
        training = build_training_graph(builder())
        theory = build_theory(training.graph, 4)
        pairs = 0
        for rules in theory.comm_rules_by_post.values():
            for index, rule in enumerate(rules):
                if rule.instructions[0].kind is not CollectiveKind.ALL_GATHER_GROUPED:
                    continue
                assert index > 0
                padded = rules[index - 1]
                assert padded.instructions[0].kind is CollectiveKind.ALL_GATHER
                assert (padded.pre_mask, padded.post_mask, padded.comm_mask) == (
                    rule.pre_mask,
                    rule.post_mask,
                    rule.comm_mask,
                )
                pairs += 1
        assert pairs > 0

    def test_rule_describe_round_trips(self, mlp_training):
        theory = build_theory(mlp_training.graph, 4)
        text = theory.describe(limit=5)
        assert "{" in text and "}" in text

    def test_moe_restricted_refs_cover_capacity_path(self, moe_training):
        restricted = moe_restricted_refs(moe_training.graph)
        dispatch_nodes = [n.name for n in moe_training.graph if n.op == "moe_dispatch"]
        assert dispatch_nodes
        for name in dispatch_nodes:
            assert name in restricted

    def test_moe_expert_weight_grad_not_restricted(self, moe_training):
        restricted = moe_restricted_refs(moe_training.graph)
        grads = [
            grad
            for param, grad in moe_training.gradients.items()
            if moe_training.graph[param].spec.rank == 3
        ]
        assert grads
        for grad in grads:
            assert grad not in restricted

    def test_restricted_refs_only_all_to_all(self, moe_training, four_device_cluster):
        theory = build_theory(moe_training.graph, four_device_cluster.num_devices)
        for ref in theory.restricted_refs:
            for rule in theory.comm_rules_by_ref.get(ref, []):
                for instr in rule.instructions:
                    if instr.is_communication and instr.input.ref == ref:
                        assert instr.kind is CollectiveKind.ALL_TO_ALL


def _fire_every_candidate(pres, posts):
    """A fixpoint that keeps every candidate: the theory before filtering."""
    return [True] * len(pres), {p for sets in (pres, posts) for props in sets for p in props}


@pytest.mark.parametrize("force_data_parallel", [False, True], ids=["hap", "data-parallel"])
@pytest.mark.parametrize("num_devices", [1, 2, 4])
@pytest.mark.parametrize(
    "builder", [build_tiny_transformer, build_tiny_moe], ids=["tiny_transformer", "tiny_moe"]
)
class TestFireableRules:
    def test_fixpoint_over_a_built_theory_removes_nothing(
        self, builder, num_devices, force_data_parallel
    ):
        config = SynthesisConfig(force_data_parallel=force_data_parallel)
        theory = build_theory(build_training_graph(builder()).graph, num_devices, config)
        fires, reached = fireable_rules(
            [r.pre for r in theory.rules], [r.post for r in theory.rules]
        )
        assert all(fires)
        assert reached == set(theory.props)

    def test_theory_is_the_candidates_filtered_to_fireable_rules(
        self, builder, num_devices, force_data_parallel, monkeypatch
    ):
        """The kept rules are exactly the fireable candidates, in candidate
        order."""
        config = SynthesisConfig(force_data_parallel=force_data_parallel)
        graph = build_training_graph(builder()).graph
        theory = build_theory(graph, num_devices, config)
        monkeypatch.setattr("repro.core.rules.fireable_rules", _fire_every_candidate)
        candidates = build_theory(graph, num_devices, config).rules
        fires, _ = fireable_rules([r.pre for r in candidates], [r.post for r in candidates])
        assert [rule for rule, fired in zip(candidates, fires) if fired] == theory.rules
        if num_devices > 1 or force_data_parallel:
            assert len(theory.rules) < len(candidates)


def test_node_with_no_fireable_rule_raises_naming_it(monkeypatch):
    """A node whose every variant wants a property no rule establishes keeps
    no rule, and synthesis fails at that node."""
    b = GraphBuilder()
    x = b.placeholder((8, 16), name="x")
    y = b.relu(x)
    z = b.relu(y)
    b.output(b.relu(z))
    graph = b.build()

    def variants(node, *args):
        if node.name == z:  # wants y partial, which nothing produces
            return [Variant((DistState.partial(),), DistState.replicated(), False)]
        return node_variants(node, *args)

    monkeypatch.setattr("repro.core.rules.node_variants", variants)
    theory = build_theory(graph, 2)
    assert y in theory.comp_rules_by_node and z not in theory.comp_rules_by_node
    cluster = make_cluster(("A100", "P100"))
    with pytest.raises(SynthesisError, match=re.escape(repr(z))):
        ProgramSynthesizer(graph, cluster, theory=theory).synthesize()
