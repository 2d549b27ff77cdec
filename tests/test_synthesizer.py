"""Tests for the program synthesizer (beam search and A* search)."""

import functools
import gc
import itertools
import types

import pytest

from repro.autodiff import build_training_graph
from repro.cluster import NetworkSpec, heterogeneous_testbed
from repro.collectives import CollectiveKind
from repro.core import (
    CostModel,
    HierarchicalConfig,
    HierarchicalPlanner,
    ProgramSynthesizer,
    SynthesisConfig,
    SynthesisError,
)
from repro.core.instructions import CommInstruction
from repro.core.synthesizer import (
    _EMPTY_PLAN,
    _CostPlan,
    _SearchNode,
    _then,
    beam_rank_order,
)
from repro.graph import DType, GraphBuilder
from repro.graph.ops import OpKind
from repro.models import BenchmarkScale, build_model

from .conftest import build_mlp, build_tiny_moe, build_tiny_transformer, make_cluster


def build_tiny_matmul():
    """One matmul and a cross-entropy loss: the smallest training graph."""
    b = GraphBuilder("tiny")
    x = b.placeholder((16, 8), name="x")
    w = b.parameter((8, 4), name="w")
    y = b.matmul(x, w)
    labels = b.placeholder((16,), dtype=DType.INT64, name="labels")
    b.loss(b.cross_entropy(y, labels))
    return b.build()


@functools.lru_cache(maxsize=None)
def bert_e2e_last_chunk():
    """The last chunk of a real transformer pipeline, with its machine group.

    ``bert_base`` at the e2e scale (layer fraction 0.09, batch 8 per GPU) for
    4 GPUs, i.e. batch 32, planned on ``heterogeneous_testbed(32, 8)`` with a
    100 Gbps intra-group network.  Its 2-stage candidate splits the machines
    1 | 3; the last stage's training graph has 19 nodes on 3 devices.  A*
    proves 16.849 ms there, while the default beam (width 32, and 128)
    returns 20.800 ms (+23.4%).
    """
    forward = build_model(
        "bert_base", 4, BenchmarkScale("e2e", layer_fraction=0.09, batch_per_device=8)
    )
    config = HierarchicalConfig(intra_group_network=NetworkSpec(bandwidth=100e9 / 8))
    planner = HierarchicalPlanner(forward, heterogeneous_testbed(32, 8), config)
    chunk = planner.build_candidate(2).stages[-1]
    assert len(chunk.info.graph) == 19 and chunk.subcluster.num_devices == 3
    return chunk.info.graph, chunk.subcluster


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

    @pytest.mark.parametrize("search", ["synthesize", "astar"])
    def test_wrong_ratio_length_rejected(self, search, mlp_training, four_device_cluster):
        synthesizer = ProgramSynthesizer(mlp_training.graph, four_device_cluster)
        with pytest.raises(ValueError, match="expected 4 sharding ratios, got 2"):
            getattr(synthesizer, search)([0.5, 0.5])

    def test_beam_width_one_still_completes(self, mlp_training, four_device_cluster):
        config = SynthesisConfig(beam_width=1)
        result = ProgramSynthesizer(mlp_training.graph, four_device_cluster, config).synthesize()
        assert result.program.num_computations > 0

    def test_astar_on_small_graph(self, two_device_cluster):
        training = build_training_graph(build_tiny_matmul()).graph
        config = SynthesisConfig(beam_width=None)
        result = ProgramSynthesizer(training, two_device_cluster, config).astar()
        assert result.cost > 0

    def test_astar_not_worse_than_beam_on_small_graph(self, two_device_cluster):
        b = GraphBuilder("tiny")
        x = b.placeholder((32, 16), name="x")
        w = b.parameter((16, 8), name="w")
        y = b.matmul(x, w)
        labels = b.placeholder((32,), dtype=DType.INT64, name="labels")
        b.loss(b.cross_entropy(y, labels))
        training = build_training_graph(b.build()).graph
        astar = ProgramSynthesizer(training, two_device_cluster).astar()
        beam = ProgramSynthesizer(
            training, two_device_cluster, SynthesisConfig(beam_width=16)
        ).synthesize()
        assert astar.cost <= beam.cost

    def test_program_is_over_the_input_graph(self, mlp_training, four_device_cluster):
        result = ProgramSynthesizer(mlp_training.graph, four_device_cluster).synthesize()
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


def _apply(synthesizer, node, rule, ratios):
    """Append one rule to a partial program: the step-by-step reference.

    Replays the rule's cost-model steps one at a time, ORs in its
    completions, posts and communications, and drops the properties of
    every tensor whose consumers are then all emulated.  Reads no level
    data: completion, liveness and the topological pointer come from the
    rule and the graph.
    """
    graph = synthesizer.graph
    position = {name: i for i, name in enumerate(graph.node_names)}
    consumers = graph.consumers()
    closed, stage = _step_replay(
        _rule_steps(synthesizer, [rule], ratios), node.closed_cost, node.stage_comp
    )
    completed = node.completed
    for name in rule.completes:
        completed |= 1 << position[name]
    pbits = node.pbits | rule.post_mask
    for name in rule.completes:
        for ref in (*graph[name].inputs, name):
            users = consumers[ref]
            if (users or ref in graph.outputs) and all(
                completed >> position[user] & 1 for user in users
            ):
                pbits &= ~synthesizer.theory.ref_masks.get(ref, 0)
    topo_ptr, order = node.topo_ptr, synthesizer._topo_order
    while topo_ptr < len(order) and completed >> position[order[topo_ptr]] & 1:
        topo_ptr += 1
    return _SearchNode(
        node,
        rule,
        pbits,
        completed,
        node.cbits | rule.comm_mask,
        closed,
        stage,
        node.depth + 1,
        topo_ptr,
    )


def _remaining_ideal(synthesizer, completed):
    """A*'s heuristic for a state with ``completed`` emulated: the ideal time
    of every non-source node less that of the completed ones, each summed
    left to right in topological order, floored at zero."""
    position = {name: i for i, name in enumerate(synthesizer.graph.node_names)}
    total = done = 0.0
    for name in synthesizer._topo_order:
        ideal = synthesizer.cost_model.ideal_node_time(name)
        total += ideal
        if completed >> position[name] & 1:
            done += ideal
    return max(total - done, 0.0)


def _one_apply_at_a_time(synthesizer, state, rule, ratios, collapse=True):
    """The children of firing ``rule`` on ``state``, one ``_apply`` per rule.

    Every combination of the collectives that establish the missing
    preconditions (each collective's own precondition held by ``state``, its
    tensor not yet communicated), in ``itertools.product`` order, then the
    rule.  With ``collapse``, of two twin collectives (equal pre, post and
    comm masks) only the one the cost model prices strictly lower is an
    option, the first on a tie.  Returns the children and the number of
    option sets they combine.
    """
    option_sets = []
    for index, bit in synthesizer._ordered_pre(rule):
        if state.pbits & bit:
            continue
        options = [
            comm
            for comm in synthesizer.theory.comm_rules_by_post.get(index, ())
            if comm.pre_mask & state.pbits == comm.pre_mask
            and not comm.comm_mask & state.cbits
        ]
        if collapse:
            options = _collapse_twins(
                options,
                lambda comm: synthesizer.cost_model.comm_time(comm.instructions[0], ratios),
            )
        if not options:
            return [], 0
        option_sets.append(options)
    children = []
    for comms in itertools.product(*option_sets):
        node = state
        for comm in comms:
            node = _apply(synthesizer, node, comm, ratios)
        children.append(_apply(synthesizer, node, rule, ratios))
    return children, len(option_sets)


def _twins(a, b):
    return (a.pre_mask, a.post_mask, a.comm_mask) == (b.pre_mask, b.post_mask, b.comm_mask)


def _collapse_twins(options, price):
    """``options`` with each twin pair reduced to its strictly cheaper rule
    under ``price``, the first of the pair on a tie."""
    kept = []
    for comm in options:
        twin = next((k for k in kept if _twins(k, comm)), None)
        if twin is None:
            kept.append(comm)
        elif price(comm) < price(twin):
            kept[kept.index(twin)] = comm
    return kept


def _lineage(node, stop):
    """The rules from ``node`` back to (not including) ``stop``, newest first."""
    rules = []
    while node is not stop:
        rules.append(node.rule)
        node = node.parent
    return rules


def _bits(x):
    return float(x).hex()


def _left_to_right(stage):
    """Total work of an open stage summed left to right, as the beam ranks it."""
    work = 0.0
    for c in stage:
        work += c
    return work


def _step_replay(steps, closed, stage):
    """Replay ``("sync", cost)`` / ``("comp", deltas)`` steps one at a time."""
    for kind, payload in steps:
        if kind == "sync":
            closed += max(stage) + payload
            stage = (0.0,) * len(stage)
        else:
            stage = tuple([s + t for s, t in zip(stage, payload)])
    return closed, stage


def _compile(steps, devices, drop_zeros=True):
    """The compiled plan of a step list, joined one step at a time; with
    ``drop_zeros``, all-zero deltas are left out, as ``_rule_plan`` does."""
    plan = _EMPTY_PLAN
    for kind, payload in steps:
        if kind == "sync":
            step = _CostPlan((), payload, (), (0.0,) * devices, 0.0, 0.0)
        elif drop_zeros and not any(payload):
            continue
        else:
            step = _CostPlan((payload,), None, (), None, None, None)
        plan = _then(plan, step)
    return plan


def _rule_steps(synthesizer, rules, ratios):
    """The cost-model steps of a chain of rules' instructions, in order."""
    steps = []
    for rule in rules:
        for instr in rule.instructions:
            if isinstance(instr, CommInstruction):
                if instr.synchronises:
                    steps.append(("sync", synthesizer.cost_model.comm_time(instr, ratios)))
            else:
                times = tuple(synthesizer.cost_model.comp_times(instr, ratios))
                steps.append(("comp", times))
    return steps


@functools.lru_cache(maxsize=None)
def _replay_synthesizer():
    """A synthesizer whose ``_expand`` applies hand-fed chains: the chains
    come from the memo, so neither its graph nor its cluster matters."""
    training = build_training_graph(build_tiny_matmul()).graph
    return ProgramSynthesizer(training, make_cluster(("A100", "P100")))


def _expand_replay(plan, closed, stage):
    """``(closed, stage, rank)`` of the one child ``_expand`` makes when it
    applies ``plan`` to a state with that closed cost and open stage."""
    synthesizer = _replay_synthesizer()
    state = synthesizer._root()
    state.closed_cost, state.stage_comp = closed, stage
    node_name = synthesizer._topo_order[0]
    memo = {node_name: [(None, 0, 0, {(0, 0): [((), plan, 0, 0)]})]}
    _, (child,) = synthesizer._expand([state], node_name, None, memo)
    return child[1], child[2], child[3]


def _assert_replay_exact(plan, steps, closed, stage):
    """``_expand``'s inline replay of a compiled plan equals step replay bit
    for bit: closed cost, open stage, and the rank key's max and work."""
    want_closed, want_stage = _step_replay(steps, closed, stage)
    got_closed, got_stage, (cost, work) = _expand_replay(plan, closed, stage)
    assert _bits(got_closed) == _bits(want_closed)
    assert [_bits(c) for c in got_stage] == [_bits(c) for c in want_stage]
    assert _bits(cost) == _bits(max(want_closed + c for c in want_stage))
    assert _bits(work) == _bits(_left_to_right(want_stage))
    if plan.sync is not None:
        assert _bits(got_closed + plan.stage_max) == _bits(cost)
        assert _bits(plan.work) == _bits(work)


class TestCompiledReplay:
    """A compiled cost plan replays exactly like its steps one at a time."""

    STATES = [
        (0.0, (0.0, 0.0, 0.0)),
        (0.1, (0.3, 0.7, 1e-9)),
        (1 / 3, (2 / 3, 0.1 + 0.2, 1e16)),
        # ulp(1e16) is 2: a sync adds ``max(stage) + sync`` in one rounding.
        (1e16, (1.0, 0.5, 0.25)),
    ]
    PLANS = {
        "comp only": [("comp", (0.1, 0.2, 0.3)), ("comp", (1e-17, 0.7, 1 / 7))],
        "sync first": [("sync", 0.35), ("comp", (0.1, 0.2, 0.3))],
        "comp sync comp": [
            ("comp", (0.1, 0.2, 0.3)),
            ("sync", 1 / 3),
            ("comp", (0.3, 1e-9, 0.2)),
        ],
        "two syncs": [
            ("comp", (1 / 3, 0.2, 0.1)),
            ("sync", 0.1),
            ("comp", (0.7, 0.1, 1 / 9)),
            ("comp", (0.2, 0.3, 1e-12)),
            ("sync", 1 / 7),
            ("comp", (0.6, 1 / 11, 0.5)),
        ],
        "all-zero deltas": [("comp", (0.0, 0.0, 0.0)), ("comp", (0.0, -0.0, 0.0))],
        "zeros between deltas": [
            ("comp", (0.1, 0.2, 0.3)),
            ("comp", (0.0, 0.0, 0.0)),
            ("comp", (1e-17, 0.7, 1 / 7)),
            ("comp", (0.0, 0.0, 0.0)),
        ],
        "zeros after a sync": [
            ("comp", (0.1, 1 / 3, 0.0)),
            ("sync", 0.35),
            ("comp", (0.0, 0.0, 0.0)),
            ("sync", 1 / 7),
            ("comp", (0.0, 0.0, 0.0)),
            ("comp", (0.2, 0.0, 1 / 9)),
            ("comp", (0.0, 0.0, 0.0)),
        ],
    }

    @pytest.mark.parametrize("drop_zeros", [True, False], ids=["zeros-dropped", "zeros-kept"])
    @pytest.mark.parametrize("shape", sorted(PLANS))
    def test_hand_built_plans(self, shape, drop_zeros):
        steps = self.PLANS[shape]
        plan = _compile(steps, 3, drop_zeros)
        assert (plan.sync is None) == all(kind == "comp" for kind, _ in steps)
        for closed, stage in self.STATES:
            _assert_replay_exact(plan, steps, closed, stage)

    @pytest.mark.parametrize("builder", [build_tiny_transformer, build_tiny_moe])
    def test_rule_plans_leave_out_free_steps(self, builder, four_device_cluster):
        """No rule's compiled plan holds an all-zero delta, and a rule whose
        steps all cost nothing compiles to the empty plan itself."""
        training = build_training_graph(builder()).graph
        synthesizer = ProgramSynthesizer(training, four_device_cluster)
        ratios = tuple(four_device_cluster.proportional_ratios())
        free = 0
        for rule in synthesizer.theory.rules:
            plan = synthesizer._rule_plan(rule, ratios)
            assert all(any(delta) for delta in plan.head)
            steps = _rule_steps(synthesizer, [rule], ratios)
            if not any(kind == "sync" or any(payload) for kind, payload in steps):
                free += 1
                assert plan is _EMPTY_PLAN
        assert free > 0

    @pytest.mark.parametrize("builder", [build_tiny_transformer, build_tiny_moe])
    def test_every_chain_of_the_tiny_graphs(self, builder, four_device_cluster):
        """Every chain ``_chains`` builds along the beam search's levels,
        replayed on the state it was built for."""
        training = build_training_graph(builder()).graph
        synthesizer = ProgramSynthesizer(
            training, four_device_cluster, SynthesisConfig(beam_width=4)
        )
        synthesizer.synthesize()
        ratios = synthesizer._plan_ratios
        states = [synthesizer._root()]
        syncs_seen = {0: 0, 1: 0, 2: 0}
        for node_name in synthesizer._topo_order:
            for state in states:
                for rule in synthesizer.theory.comp_rules_by_node[node_name]:
                    chains = synthesizer._chains(rule, state.pbits, state.cbits, ratios)
                    for comms, plan, _, _ in chains:
                        steps = _rule_steps(synthesizer, comms + (rule,), ratios)
                        syncs = sum(kind == "sync" for kind, _ in steps)
                        syncs_seen[min(syncs, 2)] += 1
                        _assert_replay_exact(plan, steps, state.closed_cost, state.stage_comp)
            states = synthesizer._beam_level(states, node_name, ratios, 4)
        assert all(syncs_seen.values()), syncs_seen


def _assert_expansion_matches_reference(builder, cluster, config, collapse=True):
    """Walk the beam search level by level and check each level's one
    :meth:`_expand` call against :func:`_one_apply_at_a_time`, in order."""
    training = build_training_graph(builder()).graph
    synthesizer = ProgramSynthesizer(training, cluster, config)
    synthesizer.synthesize()
    if not collapse:
        assert all(
            _twin_of(synthesizer, comm) is None
            for comm in synthesizer.theory.rules
            if comm.is_communication
        )
    ratios = synthesizer._plan_ratios
    states = [synthesizer._root()]
    chains_seen = {1: 0, 2: 0}
    multi_state_levels = 0
    for node_name in synthesizer._topo_order:
        level, children = synthesizer._expand(states, node_name, ratios, {})
        expected = []
        for state in states:
            for rule in synthesizer.theory.comp_rules_by_node[node_name]:
                # No rule completes a node some state has already emulated.
                assert not any(
                    state.completed >> training.node_names.index(name) & 1
                    for name in rule.completes
                )
                batch, missing = _one_apply_at_a_time(
                    synthesizer, state, rule, ratios, collapse
                )
                if batch and missing in chains_seen:
                    chains_seen[missing] += 1
                expected.extend((state, rule, want) for want in batch)
        assert len(children) == len(expected)
        if len(states) > 1 and children:
            multi_state_levels += 1
        for child, (state, rule, want) in zip(children, expected):
            assert child[4] is state and child[5] is rule
            got = synthesizer._materialize(child, level)
            # The merge key, and the rank key that orders the level.
            assert child[0] == (want.pbits, want.cbits)
            cost, work = child[3]
            assert _bits(cost) == _bits(
                max(want.closed_cost + c for c in want.stage_comp)
            )
            assert _bits(work) == _bits(_left_to_right(want.stage_comp))
            assert (got.pbits, got.completed, got.cbits) == (
                want.pbits,
                want.completed,
                want.cbits,
            )
            assert _bits(got.closed_cost) == _bits(want.closed_cost)
            assert [_bits(c) for c in got.stage_comp] == [
                _bits(c) for c in want.stage_comp
            ]
            assert _bits(synthesizer._remaining_ideal[got.topo_ptr]) == _bits(
                _remaining_ideal(synthesizer, want.completed)
            )
            assert (got.depth, got.topo_ptr) == (want.depth, want.topo_ptr)
            assert got.instructions() == want.instructions()
            got_rules = _lineage(got, state)
            want_rules = _lineage(want, state)
            assert len(got_rules) == len(want_rules)
            assert all(a is b for a, b in zip(got_rules, want_rules))
        states = synthesizer._beam_level(states, node_name, ratios, 4)
        # The survivors share the level's one ``completed`` int.
        assert states[0].completed == level[0]
        assert all(state.completed is states[0].completed for state in states)
    # Both shapes occurred: one missing precondition, and two (two option sets).
    assert chains_seen[1] > 0 and chains_seen[2] > 0
    assert multi_state_levels > 0


def _beam_levels(forward, cluster, ratios=None, width=4):
    """The synthesizer and the :meth:`_expand` children of every level of
    its beam search at ``ratios``."""
    training = build_training_graph(forward).graph
    synthesizer = ProgramSynthesizer(training, cluster, SynthesisConfig(beam_width=width))
    synthesizer.synthesize(ratios)
    ratios = synthesizer._plan_ratios
    states, levels = [synthesizer._root()], []
    for node_name in synthesizer._topo_order:
        _, children = synthesizer._expand(states, node_name, ratios, {})
        levels.append(children)
        states = synthesizer._beam_level(states, node_name, ratios, width)
    return synthesizer, levels


def _twin_of(synthesizer, comm):
    """The other rule of ``comm``'s twin pair, or ``None``."""
    ref = comm.instructions[0].input.ref
    twins = [
        other for other in synthesizer.theory.comm_rules_by_ref.get(ref, ())
        if other is not comm and _twins(other, comm)
    ]
    assert len(twins) <= 1
    return twins[0] if twins else None


class TestExpansion:
    """One level's expansion yields exactly the children of one ``_apply`` at a time.

    The walk follows the beam search level by level, expands each beam
    level in one :meth:`_expand` call, and compares its children with the
    per-(state, rule) reference, in order.  Floats are compared bit for bit.
    """

    @pytest.mark.parametrize("builder", [build_tiny_transformer, build_tiny_moe])
    def test_matches_one_apply_at_a_time(self, builder, four_device_cluster):
        _assert_expansion_matches_reference(
            builder, four_device_cluster, SynthesisConfig(beam_width=4)
        )

    def test_without_grouped_all_gather_nothing_collapses(self, four_device_cluster):
        """Without the grouped rule the theory has no twins, and every level
        yields the full product of the options, as before the collapse."""
        _assert_expansion_matches_reference(
            build_tiny_transformer,
            four_device_cluster,
            SynthesisConfig(beam_width=4, enable_grouped_all_gather=False),
            collapse=False,
        )

    @pytest.mark.parametrize(
        "size,ratios,winners",
        [
            # Small tensors at proportional ratios: the padded kind always wins.
            ({}, None, {CollectiveKind.ALL_GATHER}),
            # Larger tensors on skewed ratios: each kind wins some tensors.
            (
                {"batch": 64, "hidden": 256},
                (0.7, 0.1, 0.1, 0.1),
                {CollectiveKind.ALL_GATHER, CollectiveKind.ALL_GATHER_GROUPED},
            ),
        ],
        ids=["small-proportional", "large-skewed"],
    )
    def test_no_child_holds_the_costlier_twin(
        self, size, ratios, winners, four_device_cluster
    ):
        """Every enabling All-Gather of every level's children is the
        cheaper of its twin pair."""
        synthesizer, levels = _beam_levels(
            build_tiny_transformer(**size), four_device_cluster, ratios
        )
        ratios = synthesizer._plan_ratios
        price = synthesizer.cost_model.comm_time
        kept = set()
        for children in levels:
            for child in children:
                for comm in child[6]:
                    twin = _twin_of(synthesizer, comm)
                    if twin is None:
                        continue
                    assert price(comm.instructions[0], ratios) <= price(
                        twin.instructions[0], ratios
                    )
                    kept.add(comm.instructions[0].kind)
        assert kept == winners

    @pytest.mark.parametrize(
        "size,ratios",
        [({}, None), ({"batch": 64, "hidden": 256}, (0.7, 0.1, 0.1, 0.1))],
        ids=["small-proportional", "large-skewed"],
    )
    def test_kept_twin_is_the_best_all_gather(self, size, ratios, four_device_cluster):
        """Synthesis keeps the All-Gather implementation that
        :meth:`CollectiveCostModel.best_all_gather` picks for the tensor's
        bytes at the synthesized ratios."""
        synthesizer, levels = _beam_levels(
            build_tiny_transformer(**size), four_device_cluster, ratios
        )
        ratios = synthesizer._plan_ratios
        model = synthesizer.cost_model
        checked = 0
        for children in levels:
            for child in children:
                for comm in child[6]:
                    if _twin_of(synthesizer, comm) is None:
                        continue
                    instr = comm.instructions[0]
                    best, _ = model.collectives.best_all_gather(
                        float(model.ref_bytes(instr.input.ref)), ratios
                    )
                    assert instr.kind is best
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("grouped_offset", [0.0, -1e-9])
    def test_equal_prices_keep_the_padded_all_gather(
        self, grouped_offset, four_device_cluster, monkeypatch
    ):
        """Priced alike, the twins leave the padded All-Gather, listed first;
        priced a hair lower, the grouped one wins instead."""
        comm_time = CostModel.comm_time

        def flat_all_gather(self, instr, ratios):
            if instr.kind is CollectiveKind.ALL_GATHER:
                return 1e-3
            if instr.kind is CollectiveKind.ALL_GATHER_GROUPED:
                return 1e-3 + grouped_offset
            return comm_time(self, instr, ratios)

        monkeypatch.setattr(CostModel, "comm_time", flat_all_gather)
        synthesizer, levels = _beam_levels(build_tiny_transformer(), four_device_cluster)
        winner = (
            CollectiveKind.ALL_GATHER if grouped_offset == 0.0
            else CollectiveKind.ALL_GATHER_GROUPED
        )
        kept = [
            comm.instructions[0].kind
            for children in levels
            for child in children
            for comm in child[6]
            if _twin_of(synthesizer, comm) is not None
        ]
        assert kept and set(kept) == {winner}

    @pytest.mark.parametrize("builder", [build_tiny_transformer, build_tiny_moe])
    def test_free_chain_passes_the_parent_stage_and_rank(self, builder, four_device_cluster):
        """A child whose chain's steps all cost zero holds its parent's open
        stage tuple itself, and the parent's rank key, built once per parent."""
        synthesizer, levels = _beam_levels(builder(), four_device_cluster)
        ratios = synthesizer._plan_ratios
        free = 0
        for children in levels:
            ranks = {}
            for child in children:
                state, rule, comms = child[4], child[5], child[6]
                steps = _rule_steps(synthesizer, comms + (rule,), ratios)
                if any(kind == "sync" or any(payload) for kind, payload in steps):
                    continue
                free += 1
                assert child[1] == state.closed_cost and child[2] is state.stage_comp
                assert child[3] == (
                    state.closed_cost + max(state.stage_comp),
                    _left_to_right(state.stage_comp),
                )
                assert ranks.setdefault(id(state), child[3]) is child[3]
        assert free > 0

    def test_synthesizer_keeps_no_per_state_memo(
        self, transformer_training, four_device_cluster, monkeypatch
    ):
        """The chain memo dies with its search: a second identical search
        rebuilds every chain, the synthesizer then holds no search node, and
        every table it keeps is keyed by rule or by name."""
        built = []
        chains = ProgramSynthesizer._chains

        def counting_chains(self, *args):
            built.append(args[0])
            return chains(self, *args)

        monkeypatch.setattr(ProgramSynthesizer, "_chains", counting_chains)
        synthesizer = ProgramSynthesizer(
            transformer_training.graph, four_device_cluster, SynthesisConfig(beam_width=4)
        )
        first = synthesizer.synthesize()
        first_built = len(built)
        second = synthesizer.synthesize()
        assert len(built) == 2 * first_built > 0
        assert second.program.instructions == first.program.instructions
        assert any(instr.is_communication for instr in first.program.instructions)

        rule_ids = {id(rule) for rule in synthesizer.theory.rules}
        for name, value in vars(synthesizer).items():
            if isinstance(value, dict) and name != "_occ_info":
                for key in value:
                    assert isinstance(key, str) or key in rule_ids, (name, key)
        seen, stack = set(), [synthesizer]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, _SearchNode)
            stack.extend(gc.get_referents(obj))


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


class TestAStarOracle:
    """A* is the beam search's exact oracle over the same space."""

    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(lambda: build_training_graph(build_tiny_matmul()).graph, id="tiny"),
            pytest.param(build_mlp, id="mlp_forward"),
            pytest.param(build_tiny_moe, id="moe_forward"),
        ],
    )
    @pytest.mark.parametrize(
        "gpus",
        [("A100", "P100"), ("A100", "A100", "P100", "P100"), ("A100", "V100", "P100")],
        ids=["2dev", "4dev", "3dev"],
    )
    def test_astar_equals_exhaustive_beam(self, graph, gpus):
        """Where the unpruned beam finishes, A* returns its program bit for bit."""
        graph, cluster = graph(), make_cluster(gpus)
        astar = ProgramSynthesizer(graph, cluster).astar()
        beam = ProgramSynthesizer(graph, cluster, SynthesisConfig(beam_width=None)).synthesize()
        assert astar.cost.hex() == beam.cost.hex()
        assert astar.program.instructions == beam.program.instructions

    def test_heuristic_total_is_the_left_to_right_fold(self):
        """The heuristic's remaining ideal times add the nodes' ideal times
        left to right, in graph order, on every interpreter: not with
        ``sum``, which compensates rounding from Python 3.12 and moves the
        total.  Position ``k`` holds the total less the first ``k`` nodes'."""
        forward = build_model(
            "bert_base", 8, BenchmarkScale("e2e", layer_fraction=0.25, batch_per_device=32)
        )
        graph = build_training_graph(forward).graph
        synthesizer = ProgramSynthesizer(graph, make_cluster(("A100", "P100") * 4))
        ideals = [
            synthesizer.cost_model.ideal_node_time(node.name)
            for node in graph
            if node.kind is not OpKind.SOURCE
        ]
        total = 0.0
        for ideal in ideals:
            total += ideal
        want, done = [total], 0.0
        for ideal in ideals:
            done += ideal
            want.append(max(total - done, 0.0))
        assert [_bits(r) for r in synthesizer._remaining_ideal] == [_bits(w) for w in want]
        assert synthesizer._remaining_ideal[-1] == 0.0

    def test_step_cap_raises(self, mlp_training, four_device_cluster, monkeypatch):
        """A* never returns an unproved program: reaching the cap is an error."""
        import repro.core.synthesizer as synthesizer_module

        monkeypatch.setattr(synthesizer_module, "MAX_SEARCH_STEPS", 100)
        synthesizer = ProgramSynthesizer(mlp_training.graph, four_device_cluster)
        with pytest.raises(SynthesisError) as excinfo:
            synthesizer.astar()
        message = str(excinfo.value)
        assert "MAX_SEARCH_STEPS=100" in message
        assert "after expanding 100 states" in message

    def test_step_cap_raises_after_a_complete_program(self, two_device_cluster, monkeypatch):
        """A complete program found before the cap is not returned unproved.

        The tiny training graph's A* proves its optimum after 18 expansions
        and has found a costlier complete program by the 17th.
        """
        import repro.core.synthesizer as synthesizer_module

        training = build_training_graph(build_tiny_matmul()).graph
        optimum = ProgramSynthesizer(training, two_device_cluster).astar()
        assert optimum.expanded_states == 18
        monkeypatch.setattr(synthesizer_module, "MAX_SEARCH_STEPS", 17)
        synthesizer = ProgramSynthesizer(training, two_device_cluster)
        with pytest.raises(SynthesisError) as excinfo:
            synthesizer.astar()
        message = str(excinfo.value)
        assert "MAX_SEARCH_STEPS=17" in message
        assert "after expanding 17 states" in message
        best = float(message.rsplit("best complete cost so far ", 1)[1])
        assert best > optimum.cost

    def test_step_cap_counts_expansions(self, two_device_cluster, monkeypatch):
        """A cap equal to the expansions the search needs does not fire."""
        import repro.core.synthesizer as synthesizer_module

        training = build_training_graph(build_tiny_matmul()).graph
        optimum = ProgramSynthesizer(training, two_device_cluster).astar()
        monkeypatch.setattr(synthesizer_module, "MAX_SEARCH_STEPS", optimum.expanded_states)
        capped = ProgramSynthesizer(training, two_device_cluster).astar()
        assert capped.cost.hex() == optimum.cost.hex()
        assert capped.program.instructions == optimum.program.instructions
        assert capped.expanded_states == optimum.expanded_states

    @pytest.mark.parametrize("width", [1, 2, None])
    def test_astar_ignores_beam_width(self, width, mlp_training, four_device_cluster):
        """A* keeps its whole open list whatever ``beam_width`` says."""
        graph = mlp_training.graph
        default = ProgramSynthesizer(graph, four_device_cluster).astar()
        result = ProgramSynthesizer(
            graph, four_device_cluster, SynthesisConfig(beam_width=width)
        ).astar()
        assert result.cost.hex() == default.cost.hex()
        assert result.program.instructions == default.program.instructions
        assert (result.expanded_states, result.generated_states) == (
            default.expanded_states,
            default.generated_states,
        )

    @pytest.mark.parametrize(
        "problem",
        [
            pytest.param(lambda: (build_tiny_moe(), make_cluster()), id="tiny_moe"),
            pytest.param(bert_e2e_last_chunk, id="bert_chunk"),
        ],
    )
    @pytest.mark.parametrize("width", [1, 4, 16, 64])
    def test_beam_at_any_width_is_bounded_by_astar(self, width, problem):
        """No beam width finds a program cheaper than the oracle's optimum."""
        graph, cluster = problem()
        astar = ProgramSynthesizer(graph, cluster).astar()
        beam = ProgramSynthesizer(graph, cluster, SynthesisConfig(beam_width=width)).synthesize()
        assert beam.cost >= astar.cost

    @pytest.mark.parametrize("builder", [build_mlp, build_tiny_moe], ids=["mlp", "tiny_moe"])
    @pytest.mark.parametrize(
        "gpus",
        [("A100", "A100", "P100", "P100"), ("A100",) * 4 + ("P100",) * 4],
        ids=["parity4", "mixed8"],
    )
    def test_oracle_program_is_executable(self, builder, gpus):
        """The optimum runs under the SPMD runtime to the single-device loss."""
        from repro.runtime import SingleDeviceExecutor
        from repro.runtime.spmd import SPMDExecutor

        from .conftest import bindings_for

        training, cluster = build_training_graph(builder()), make_cluster(gpus)
        result = ProgramSynthesizer(training.graph, cluster).astar()
        bindings = bindings_for(training.graph, seed=7)
        spmd = SPMDExecutor(result.program, cluster.proportional_ratios()).run(bindings)
        reference = SingleDeviceExecutor(training.graph).run(bindings)
        assert spmd.loss == pytest.approx(
            float(reference[training.loss]), rel=2e-4, abs=1e-4
        )


class TestSearchConfigValidation:
    @pytest.mark.parametrize("width", [0, -1])
    def test_non_positive_beam_width_rejected(self, width):
        with pytest.raises(ValueError, match="beam_width"):
            SynthesisConfig(beam_width=width)

    @pytest.mark.parametrize("width", [None, 1, 8])
    def test_valid_search_config_accepted(self, width):
        assert SynthesisConfig(beam_width=width).beam_width == width


class TestBeamRankOrder:
    """Ranking key ``(max(vector), work(stage))``; exact ties keep input order."""

    @staticmethod
    def rank(vectors, stages):
        return beam_rank_order(
            [(max(v), _left_to_right(s)) for v, s in zip(vectors, stages)]
        )

    def test_equal_keys_keep_input_order(self):
        vectors = [(2.0, 1.0)] * 4
        stages = [(0.5, 0.5)] * 4
        assert self.rank(vectors, stages) == [0, 1, 2, 3]

    def test_tie_resolution_depends_on_input_order(self):
        """Position, not content, decides a pure tie."""
        tied_a = (2.0, 1.0)
        tied_b = (1.0, 2.0)  # same max, same sum
        stages = [(0.5, 0.5), (0.5, 0.5)]
        assert self.rank([tied_a, tied_b], stages) == [0, 1]
        assert self.rank([tied_b, tied_a], stages) == [0, 1]

    def test_primary_key_then_work_tie_break(self):
        vectors = [(4.0, 1.0), (2.0, 3.0), (3.0, 2.0)]
        stages = [(1.0, 1.0), (3.0, 1.0), (0.5, 0.5)]
        # finals 4.0, 3.0, 3.0; works 2.0, 4.0, 1.0
        assert self.rank(vectors, stages) == [2, 1, 0]

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
        assert self.rank(vectors, stages) == sorted(range(17), key=keys.__getitem__)
