"""One virtual device: the background theory is the single-device program.

On one device there is nothing to distribute, so ``build_theory`` emits one
replicated computation rule per node and no collective, and the synthesized
program costs exactly the sum of its computation times.  ``HAPPlanner``
builds that one program in closed form (``single_device_program``); the
theory's one-device branch is the reference it is checked against here.
Baseline emulation (``force_data_parallel``) keeps its restricted
data-parallel theory there.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.autodiff import build_training_graph
from repro.baselines import plan_baseline
from repro.cluster import ClusterSpec, Machine, device_type
from repro.collectives.cost import CollectiveKind
from repro.core import (
    CostModel,
    HAPPlanner,
    LoadBalancer,
    ProgramSynthesizer,
    SynthesisConfig,
    build_theory,
)
from repro.core.instructions import CommInstruction, is_source_op
from repro.core.properties import DistState
from repro.core.rules import single_device_program
from repro.graph.ops import OpKind
from repro.models import build_tiny_model
from repro.runtime import SingleDeviceExecutor
from repro.runtime.spmd import SPMDExecutor
from repro.verify import verify_graph, verify_program

from .conftest import bindings_for, fast_network

MODELS = ("vgg19", "vit", "bert_base", "bert_moe")


def one_machine(num_gpus: int) -> ClusterSpec:
    """One A100 machine: a single HAP virtual device of ``num_gpus`` GPUs."""
    return ClusterSpec(
        [Machine("m0", device_type("A100"), num_gpus=num_gpus)],
        network=fast_network(),
        group_by_machine=True,
    )


@functools.lru_cache(maxsize=None)
def training_graph(model: str):
    return build_training_graph(build_tiny_model(model))


@pytest.mark.parametrize("num_gpus", [1, 8])
@pytest.mark.parametrize("enable_sfb", [True, False])
@pytest.mark.parametrize("strategy", ["beam", "astar"])
@pytest.mark.parametrize("model", MODELS)
def test_one_device_program_is_the_single_device_program(model, strategy, enable_sfb, num_gpus):
    training = training_graph(model)
    graph = training.graph
    cluster = one_machine(num_gpus)
    assert cluster.num_devices == 1
    config = SynthesisConfig(enable_sfb=enable_sfb)

    theory = build_theory(graph, 1, config)
    assert not any(rule.is_communication for rule in theory.rules)
    compute = [n.name for n in graph if not is_source_op(n.op)]
    assert sorted(theory.comp_rules_by_node) == sorted(compute)
    first_consumer = {}
    for node in graph:
        for inp in node.inputs:
            if is_source_op(graph[inp].op):
                first_consumer.setdefault(inp, node.name)
    for name in compute:
        # Exactly one rule per node, which fuses exactly the node's
        # first-use sources.
        (rule,) = theory.comp_rules_by_node[name]
        fused = {src for src, consumer in first_consumer.items() if consumer == name}
        *creates, instr = rule.instructions
        assert instr.node == name
        assert sorted(i.node for i in creates) == sorted(fused)
        assert rule.completes == {name} | fused

    synthesizer = ProgramSynthesizer(graph, cluster, config)
    result = synthesizer.synthesize() if strategy == "beam" else synthesizer.astar()
    program = result.program
    assert not any(isinstance(i, CommInstruction) for i in program.instructions)
    replicated = DistState.replicated()
    assert all(i.output.state == replicated for i in program.instructions)

    cost_model = CostModel(graph, cluster)
    lower_bound = math.fsum(
        cost_model.comp_times(i, (1.0,))[0] for i in program.instructions
    )
    assert result.cost == pytest.approx(lower_bound, rel=1e-12, abs=0.0)

    report = verify_program(program, cluster, [1.0])
    assert report.ok, report.describe()

    bindings = bindings_for(graph, seed=0)
    reference = SingleDeviceExecutor(graph).run(bindings)
    outputs = SPMDExecutor(program, [1.0]).run(bindings).outputs
    for name, value in reference.items():
        np.testing.assert_allclose(outputs[name], value, rtol=1e-5, atol=1e-6)


def test_data_parallel_baseline_keeps_its_theory_on_one_machine():
    """``force_data_parallel`` is not collapsed: DP stays batch-sharded with a
    gradient All-Reduce, so the baseline numbers of Figs. 13/15 do not move."""
    training = training_graph("bert_base")
    plan = plan_baseline("DP-EV", training.graph, one_machine(8))
    placeholders = [
        i for i in plan.program.instructions
        if not i.is_communication and i.op == "placeholder"
    ]
    assert placeholders
    assert all(i.output.state == DistState.sharded(0) for i in placeholders)
    gradients = {
        i.inputs[1].ref
        for i in plan.program.instructions
        if not i.is_communication and training.graph[i.node].kind is OpKind.OPTIMIZER
    }
    reduced = {
        i.input.ref for i in plan.program.instructions
        if i.is_communication and i.kind is CollectiveKind.ALL_REDUCE
    }
    assert gradients and gradients <= reduced


@pytest.mark.parametrize("num_gpus", [1, 8])
@pytest.mark.parametrize("enable_sfb", [True, False])
@pytest.mark.parametrize("model", MODELS)
def test_closed_form_plan_is_the_theory_search_plan(model, enable_sfb, num_gpus):
    """The planner's closed-form plan equals the plan the one-device theory's
    beam and A* searches give, bit for bit: program, ratios and estimate."""
    graph = training_graph(model).graph
    cluster = one_machine(num_gpus)
    closed = single_device_program(graph)
    config = SynthesisConfig(enable_sfb=enable_sfb)
    for search in (ProgramSynthesizer.synthesize, ProgramSynthesizer.astar):
        cost_model = CostModel(graph, cluster)
        searched = search(
            ProgramSynthesizer(
                graph, cluster, config, theory=build_theory(graph, 1, config), cost_model=cost_model
            ),
            cluster.proportional_ratios(),
        ).program
        ratios = LoadBalancer(cluster).optimize(searched, cost_model).ratios
        estimate = cost_model.evaluate(searched, ratios)
        assert closed == searched
        assert closed.instructions == searched.instructions

        planner = HAPPlanner(graph, cluster, config)
        plan = planner.plan()
        assert plan.program == searched
        assert plan.ratios == [ratios] == [[1.0]]
        assert plan.estimated_time == estimate
        (round_record,) = plan.rounds
        assert round_record.ratios == [1.0]
        assert round_record.cost_after_synthesis == estimate.total
        assert round_record.cost_after_balancing == estimate.total

        fixed = planner.plan_at([1.0])
        assert fixed.program == searched
        assert fixed.ratios == [[1.0]]
        assert fixed.estimated_time == estimate
        assert fixed.rounds == []


def _raise(*args, **kwargs):
    raise AssertionError("one virtual device must not search")


def test_one_device_planner_builds_no_theory_or_synthesizer(monkeypatch):
    monkeypatch.setattr("repro.core.pipeline.build_theory", _raise)
    monkeypatch.setattr("repro.core.pipeline.ProgramSynthesizer", _raise)
    graph = training_graph("bert_base").graph
    planner = HAPPlanner(graph, one_machine(8))
    assert planner.synthesizer is None
    assert planner.plan().program == single_device_program(graph)
    assert planner.plan_at([1.0]).program == single_device_program(graph)
    with pytest.raises(ValueError, match="1 sharding ratio"):
        planner.plan_at([0.5, 0.5])


def test_one_device_plan_is_verified(monkeypatch):
    """``verify_after_plan`` checks the graph and the closed-form program."""
    calls = []

    def recording(name, check):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return check(*args, **kwargs)

        return wrapper

    monkeypatch.setattr("repro.verify.graph.verify_graph", recording("graph", verify_graph))
    monkeypatch.setattr(
        "repro.verify.program.verify_program", recording("program", verify_program)
    )
    graph = training_graph("vit").graph
    config = SynthesisConfig(verify_after_plan=True)
    planner = HAPPlanner(graph, one_machine(8), config)
    assert calls == ["graph"]
    planner.plan()
    assert calls == ["graph", "program"]
    planner.plan_at([1.0])
    assert calls == ["graph", "program", "program"]

    calls.clear()
    quiet = SynthesisConfig(verify_after_plan=False)
    HAPPlanner(graph, one_machine(8), quiet).plan()
    assert calls == []
