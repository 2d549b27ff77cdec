"""The theory's bit encoding of property sets.

The synthesizer holds every search state's property set as an ``int`` over
the theory's property index and checks preconditions, unions and liveness
drops with bit operations.  These properties tie each bit operation to the
set operation it replaces, on random subsets of a built theory's properties,
and check that the layout depends on graph structure only, not on node names,
and that bit order never orders the search.
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
from repro.graph import ComputationGraph

from .conftest import build_tiny_moe, build_tiny_transformer, make_cluster

NUM_DEVICES = 4


@lru_cache(maxsize=None)
def _training_graph(model: str) -> ComputationGraph:
    builder = {"tiny_transformer": build_tiny_transformer, "tiny_moe": build_tiny_moe}[model]
    return build_training_graph(builder()).graph


@lru_cache(maxsize=None)
def _theory(model: str):
    return build_theory(_training_graph(model), NUM_DEVICES)


def _subset_and_rule(model: str):
    theory = _theory(model)
    subsets = st.frozensets(st.integers(0, len(theory.props) - 1)).map(
        lambda indexes: frozenset(theory.props[i] for i in indexes)
    )
    rules = st.integers(0, len(theory.rules) - 1).map(lambda i: theory.rules[i])
    return st.tuples(st.just(theory), subsets, rules)


MODELS = ("tiny_transformer", "tiny_moe")
cases = st.sampled_from(MODELS).flatmap(_subset_and_rule)


@settings(max_examples=200, deadline=None)
@given(cases)
def test_precondition_check_matches_subset(case):
    theory, subset, rule = case
    bits = theory.encode(subset)
    assert (rule.pre <= subset) == (rule.pre_mask & bits == rule.pre_mask)
    assert (rule.post <= subset) == (not rule.post_mask & ~bits)
    assert theory.encode(rule.pre | rule.post) == rule.pre_mask | rule.post_mask


@settings(max_examples=200, deadline=None)
@given(cases)
def test_decode_inverts_encode(case):
    theory, subset, rule = case
    assert theory.decode(theory.encode(subset)) == subset
    assert theory.decode(theory.encode(subset) | rule.post_mask) == subset | rule.post


@settings(max_examples=200, deadline=None)
@given(cases, st.data())
def test_liveness_drop_matches_filter(case, data):
    theory, subset, _ = case
    ref = data.draw(st.sampled_from(sorted(theory.ref_masks)))
    dropped = theory.encode(subset) & ~theory.ref_masks[ref]
    assert theory.decode(dropped) == frozenset(p for p in subset if p.ref != ref)


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
    """Every property a rule mentions is the very object at its bit, and the
    masks are the encodings of the sets they stand for."""
    config = SynthesisConfig(force_data_parallel=force_data_parallel)
    theory = build_theory(_training_graph(model), num_devices, config)
    position = {name: i for i, name in enumerate(theory.graph.node_names)}
    for rule in theory.rules:
        for prop in (*rule.pre, *rule.post, *_instruction_properties(rule)):
            assert theory.props[theory.prop_bits[prop].bit_length() - 1] is prop
        assert rule.pre_mask == theory.encode(rule.pre)
        assert rule.post_mask == theory.encode(rule.post)
        assert rule.comm_mask == sum(1 << position[ref] for ref in rule.communicates)


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
    """The same theory with its property bits assigned in reverse order."""
    props = tuple(reversed(theory.props))
    bits = {p: 1 << i for i, p in enumerate(props)}

    def mask(properties):
        out = 0
        for prop in properties:
            out |= bits[prop]
        return out

    rules = [
        dataclasses.replace(rule, pre_mask=mask(rule.pre), post_mask=mask(rule.post))
        for rule in theory.rules
    ]
    return Theory(
        theory.graph, theory.num_devices, theory.config, rules, theory.restricted_refs, props
    )


@pytest.mark.parametrize(
    "search",
    [
        {"search_strategy": "beam"},
        {"search_strategy": "astar"},
    ],
    ids=["beam", "astar"],
)
def test_bit_order_never_orders_the_search(search):
    theory = _theory("tiny_moe")
    cluster = make_cluster(("A100", "A100", "P100", "P100"))
    config = SynthesisConfig(beam_width=8, **search)
    results = [
        ProgramSynthesizer(theory.graph, cluster, config, theory=t).synthesize()
        for t in (theory, _reversed_bits(theory))
    ]
    a, b = results
    assert list(a.program.instructions) == list(b.program.instructions)
    assert a.cost == b.cost
    assert (a.expanded_states, a.generated_states) == (b.expanded_states, b.generated_states)
