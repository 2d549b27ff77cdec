"""The theory's bit encoding of property sets.

The synthesizer holds every search state's property set as an ``int`` and
checks preconditions, unions and liveness drops with bit operations.  Bits
are recycled over ref lifetimes, so a mask is unambiguous only among
properties that are live at one topological level: the sets a search state
can hold.  These properties tie each bit operation to the set operation it
replaces, on random subsets of the properties co-live at a random level of a
built theory, with the rules whose properties are all live there.  They
check that the allocation gives co-live properties distinct bits in the
fewest bits possible, that the layout depends on graph structure only, not
on node names, and that bit order never orders the search.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autodiff import build_training_graph
from repro.core import ProgramSynthesizer, SynthesisConfig, Theory, build_theory
from repro.core.instructions import CommInstruction
from repro.core.rules import ref_lifetimes
from repro.graph import ComputationGraph
from repro.graph.ops import OpKind

from .conftest import build_deep_transformer, build_tiny_moe, build_tiny_transformer, make_cluster

NUM_DEVICES = 4

BUILDERS = {
    "tiny_transformer": build_tiny_transformer,
    "tiny_moe": build_tiny_moe,
    "deep_transformer_8": lambda: build_deep_transformer(8),
}


@lru_cache(maxsize=None)
def _training_graph(model: str) -> ComputationGraph:
    return build_training_graph(BUILDERS[model]()).graph


@lru_cache(maxsize=None)
def _theory(model: str):
    return build_theory(_training_graph(model), NUM_DEVICES)


def _live(theory: Theory, refs, position: int) -> bool:
    return all(
        theory.lifetimes[ref][0] <= position <= theory.lifetimes[ref][1] for ref in refs
    )


@lru_cache(maxsize=None)
def _live_at(model: str, position: int):
    """The properties co-live at ``position`` and the rules over them only."""
    theory = _theory(model)
    props = [p for p in theory.props if _live(theory, (p.ref,), position)]
    rules = [
        r for r in theory.rules if _live(theory, {p.ref for p in r.pre | r.post}, position)
    ]
    return props, rules


def _subset_and_rule(model: str):
    levels = sum(1 for node in _training_graph(model) if node.kind is not OpKind.SOURCE)

    def at(position: int):
        props, rules = _live_at(model, position)
        return st.tuples(
            st.just(model),
            st.just(position),
            st.frozensets(st.sampled_from(props)),
            st.sampled_from(rules),
        )

    # Every level has its node's computation rules, all of them live there.
    return st.integers(0, levels - 1).flatmap(at)


MODELS = ("tiny_transformer", "tiny_moe")
cases = st.sampled_from(MODELS).flatmap(_subset_and_rule)


@settings(max_examples=200, deadline=None)
@given(cases)
def test_precondition_check_matches_subset(case):
    model, _, subset, rule = case
    theory = _theory(model)
    bits = theory.encode(subset)
    assert (rule.pre <= subset) == (rule.pre_mask & bits == rule.pre_mask)
    assert (rule.post <= subset) == (not rule.post_mask & ~bits)
    assert theory.encode(rule.pre | rule.post) == rule.pre_mask | rule.post_mask


@settings(max_examples=200, deadline=None)
@given(cases)
def test_decode_inverts_encode(case):
    model, position, subset, rule = case
    theory = _theory(model)
    assert theory.decode(theory.encode(subset), position) == subset
    assert theory.decode(theory.encode(subset) | rule.post_mask, position) == subset | rule.post


@settings(max_examples=200, deadline=None)
@given(cases, st.data())
def test_liveness_drop_matches_filter(case, data):
    model, position, subset, _ = case
    theory = _theory(model)
    live_refs = sorted({p.ref for p in _live_at(model, position)[0]})
    ref = data.draw(st.sampled_from(live_refs))
    dropped = theory.encode(subset) & ~theory.ref_masks[ref]
    assert theory.decode(dropped, position) == frozenset(p for p in subset if p.ref != ref)


def _instruction_properties(rule):
    for instr in rule.instructions:
        if isinstance(instr, CommInstruction):
            yield from (instr.input, instr.output)
        else:
            yield from (*instr.inputs, instr.output)


@pytest.mark.parametrize("force_data_parallel", [False, True], ids=["hap", "data-parallel"])
@pytest.mark.parametrize("num_devices", [1, 2, 4])
@pytest.mark.parametrize("model", MODELS)
def test_rules_share_the_indexed_properties(model, num_devices, force_data_parallel):
    """Every property a rule mentions is the very object at its index, the
    masks are the encodings of the sets they stand for, rules share one
    one-element set per property and per ref, and communication rules share
    their properties' and ref's bits."""
    config = SynthesisConfig(force_data_parallel=force_data_parallel)
    theory = build_theory(_training_graph(model), num_devices, config)
    position = {name: i for i, name in enumerate(theory.graph.node_names)}
    shared = {}
    for rule in theory.rules:
        for prop in (*rule.pre, *rule.post, *_instruction_properties(rule)):
            assert theory.props[theory.prop_index[prop]] is prop
        assert rule.pre_mask == theory.encode(rule.pre)
        assert rule.post_mask == theory.encode(rule.post)
        assert rule.comm_mask == sum(1 << position[ref] for ref in rule.communicates)
        for part in (rule.pre, rule.post, rule.communicates):
            if len(part) == 1:
                (value,) = part
                assert shared.setdefault(value, part) is part
        if rule.is_communication:
            (pin,), (pout,) = rule.pre, rule.post
            assert rule.pre_mask is theory.prop_bits[pin]
            assert rule.post_mask is theory.prop_bits[pout]
            for ref in rule.communicates:
                assert shared.setdefault((ref, "bit"), rule.comm_mask) is rule.comm_mask


ALLOCATION_MODELS = (*MODELS, "deep_transformer_8")


@pytest.mark.parametrize("force_data_parallel", [False, True], ids=["hap", "data-parallel"])
@pytest.mark.parametrize("num_devices", [1, 2, 4])
@pytest.mark.parametrize("model", ALLOCATION_MODELS)
def test_bits_are_recycled_over_ref_lifetimes(model, num_devices, force_data_parallel):
    """Properties of refs live at one topological level never share a bit,
    and the bit width is the largest number of co-live properties (greedy
    interval colouring is optimal).  The lifetime table is the one the
    liveness drop reads: birth at the producer's level (a source's first
    consumer's), death at the last consumer's."""
    config = SynthesisConfig(force_data_parallel=force_data_parallel)
    graph = _training_graph(model)
    theory = build_theory(graph, num_devices, config)
    assert theory.lifetimes == ref_lifetimes(graph)

    levels = {n.name: i for i, n in enumerate(n for n in graph if n.kind is not OpKind.SOURCE)}
    consumers = graph.consumers()
    for ref, (birth, death) in theory.lifetimes.items():
        users = [levels[user] for user in consumers[ref]]
        assert birth == levels.get(ref, min(users, default=None))
        if users:
            assert death == max(users)
        else:
            assert death == (birth if ref in graph.outputs else len(levels))

    # Per bit, its properties' lifetimes are pairwise disjoint.
    by_bit = {}
    for prop in theory.props:
        by_bit.setdefault(theory.prop_bits[prop], []).append(theory.lifetimes[prop.ref])
    for intervals in by_bit.values():
        intervals.sort()
        for (_, death), (birth, _) in zip(intervals, intervals[1:]):
            assert death < birth

    # The most properties live at one level, by a sweep over the levels.
    delta = [0] * (len(levels) + 2)
    for prop in theory.props:
        birth, death = theory.lifetimes[prop.ref]
        delta[birth] += 1
        delta[death + 1] -= 1
    live, most = 0, 0
    for change in delta:
        live += change
        most = max(most, live)
    width = max(bit.bit_length() for bit in theory.prop_bits.values())
    assert width == most
    assert len(by_bit) == width


def _renamed(graph: ComputationGraph) -> ComputationGraph:
    renamed = ComputationGraph("renamed")
    new_name = {name: f"n{i}" for i, name in enumerate(reversed(graph.node_names))}
    for node in graph:
        renamed.add_node(
            new_name[node.name],
            node.op,
            tuple(new_name[i] for i in node.inputs),
            dict(node.attrs),
        )
    for out in graph.outputs:
        renamed.mark_output(new_name[out])
    if graph.loss is not None:
        renamed.mark_loss(new_name[graph.loss])
    return renamed


def _layout(theory):
    position = {name: i for i, name in enumerate(theory.graph.node_names)}
    props = [(position[p.ref], p.state) for p in theory.props]
    masks = [(r.pre_mask, r.post_mask, r.comm_mask) for r in theory.rules]
    return props, masks


@pytest.mark.parametrize("model", MODELS)
def test_renamed_graph_gets_identical_layout(model):
    theory = _theory(model)
    renamed = build_theory(_renamed(theory.graph), NUM_DEVICES)
    assert len(renamed.rules) == len(theory.rules)
    assert _layout(renamed) == _layout(theory)


def _reversed_bits(theory: Theory) -> Theory:
    """The same theory with its slot assignment permuted: the property at
    slot ``i`` of ``width`` moves to slot ``width - 1 - i``."""
    width = max(bit.bit_length() for bit in theory.prop_bits.values())
    bits = {p: 1 << (width - bit.bit_length()) for p, bit in theory.prop_bits.items()}

    def mask(properties):
        out = 0
        for prop in properties:
            out |= bits[prop]
        return out

    moved = {
        id(rule): dataclasses.replace(rule, pre_mask=mask(rule.pre), post_mask=mask(rule.post))
        for rule in theory.rules
    }

    def index(table):
        return {key: [moved[id(rule)] for rule in rules] for key, rules in table.items()}

    return Theory(
        theory.graph,
        theory.num_devices,
        theory.config,
        [moved[id(rule)] for rule in theory.rules],
        theory.restricted_refs,
        theory.props,
        bits,
        theory.lifetimes,
        index(theory.comp_rules_by_node),
        index(theory.comm_rules_by_ref),
        index(theory.comm_rules_by_post),
    )


@pytest.mark.parametrize(
    "search",
    [ProgramSynthesizer.synthesize, ProgramSynthesizer.astar],
    ids=["beam", "astar"],
)
def test_bit_order_never_orders_the_search(search):
    theory = _theory("tiny_moe")
    cluster = make_cluster(("A100", "A100", "P100", "P100"))
    config = SynthesisConfig(beam_width=8)
    results = [
        search(ProgramSynthesizer(theory.graph, cluster, config, theory=t))
        for t in (theory, _reversed_bits(theory))
    ]
    a, b = results
    assert list(a.program.instructions) == list(b.program.instructions)
    assert a.cost == b.cost
    assert (a.expanded_states, a.generated_states) == (b.expanded_states, b.generated_states)
