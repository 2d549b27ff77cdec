"""Baseline planners: DP-EV, DP-CP, DeepSpeed-like and TAG-like.

The baselines reuse HAP's background theory and synthesizer with restricted
rule sets (see ``SynthesisConfig.force_data_parallel``), so every baseline
produces a genuine distributed program that can be costed, simulated and even
executed by the SPMD runtime.  Where a baseline leaves out part of the real
system, as the TAG-like one leaves out inter-op placement, its planner's
docstring says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

from ..cluster.spec import ClusterSpec
from ..core.config import PlannerConfig, SynthesisConfig
from ..core.costmodel import CostBreakdown
from ..core.hierarchical import (
    OPTIMIZER_STATE_FACTOR,
    HierarchicalConfig,
    HierarchicalPlan,
)
from ..core.pipeline import HAPPlan
from ..core.program import DistributedProgram
from ..core.synthesizer import ProgramSynthesizer
from ..graph.graph import ComputationGraph
from ..hap import hap as _hap
from ..hap import hap_pipeline as _hap_pipeline

BASELINE_NAMES = ["DP-EV", "DP-CP", "DeepSpeed", "TAG", "HAP", "HAP-Pipeline"]


@dataclass
class BaselinePlan:
    """A baseline's distributed program plus its cost estimate.

    Attributes:
        name: baseline identifier (one of :data:`BASELINE_NAMES`).
        program: the distributed program the baseline would execute.
        ratios: sharding ratios the baseline uses.
        estimated_time: planner cost-model estimate of the iteration time.
        memory_per_device: estimated per-device parameter+gradient+optimizer
            memory in bytes (used to flag out-of-memory configurations).
        out_of_memory: True if the memory estimate exceeds some device's
            capacity (the paper reports OOM for DP baselines on BERT-MoE).
    """

    name: str
    program: DistributedProgram
    ratios: List[float]
    estimated_time: CostBreakdown
    memory_per_device: List[float] = field(default_factory=list)
    out_of_memory: bool = False

    @property
    def flat_ratios(self) -> List[float]:
        return list(self.ratios)


def estimate_memory_per_device(
    program: DistributedProgram, ratios: Sequence[float], cluster: ClusterSpec
) -> List[float]:
    """Per-device memory estimate for parameters, gradients and optimizer state.

    Sharded parameters contribute proportionally to the device's ratio,
    replicated parameters contribute fully; the total is multiplied by
    :data:`~repro.core.hierarchical.OPTIMIZER_STATE_FACTOR` to account for
    the gradient and one optimizer moment, plus an activation term
    proportional to the batch shard.
    """
    graph = program.graph
    shardings = program.parameter_shardings()
    sharded_bytes = sum(
        p.spec.size_bytes for p in graph.parameters() if shardings.get(p.name) is not None
    )
    replicated_bytes = sum(
        p.spec.size_bytes for p in graph.parameters() if shardings.get(p.name) is None
    )
    activation_bytes = graph.activation_bytes()
    totals = []
    for j in range(cluster.num_devices):
        share = ratios[j]
        params = replicated_bytes + sharded_bytes * share
        acts = activation_bytes * share * 0.25  # re-materialisation / fusion discount
        totals.append(OPTIMIZER_STATE_FACTOR * params + acts)
    return totals


def _run_restricted_planner(
    graph: ComputationGraph,
    cluster: ClusterSpec,
    name: str,
    synthesis: SynthesisConfig,
    ratios: Sequence[float],
) -> BaselinePlan:
    """Synthesize a program under a restricted theory and fixed ratios."""
    synthesizer = ProgramSynthesizer(graph, cluster, synthesis)
    result = synthesizer.synthesize(list(ratios))
    cost_model = synthesizer.cost_model
    estimated = cost_model.evaluate(result.program, list(ratios))
    memory = estimate_memory_per_device(result.program, ratios, cluster)
    capacities = cluster.device_memory()
    oom = any(m > cap for m, cap in zip(memory, capacities))
    return BaselinePlan(
        name=name,
        program=result.program,
        ratios=list(ratios),
        estimated_time=estimated,
        memory_per_device=memory,
        out_of_memory=oom,
    )


def _training_graph(model: ComputationGraph) -> ComputationGraph:
    from ..autodiff import build_training_graph
    from ..graph.ops import OpKind

    if any(node.kind is OpKind.OPTIMIZER for node in model):
        return model
    return build_training_graph(model).graph


def plan_dp_ev(
    model: ComputationGraph, cluster: ClusterSpec, config: Optional[SynthesisConfig] = None
) -> BaselinePlan:
    """PyTorch-DDP data parallelism with even sharding ratios (DP-EV)."""
    graph = _training_graph(model)
    synthesis = replace(
        config or SynthesisConfig(),
        force_data_parallel=True,
        expert_parallel_parameters=False,
        enable_sfb=False,
        enable_grouped_all_gather=False,
    )
    return _run_restricted_planner(graph, cluster, "DP-EV", synthesis, cluster.even_ratios())


def plan_dp_cp(
    model: ComputationGraph, cluster: ClusterSpec, config: Optional[SynthesisConfig] = None
) -> BaselinePlan:
    """Data parallelism with computation-proportional ratios (DP-CP)."""
    graph = _training_graph(model)
    synthesis = replace(
        config or SynthesisConfig(),
        force_data_parallel=True,
        expert_parallel_parameters=False,
        enable_sfb=False,
        enable_grouped_all_gather=False,
    )
    return _run_restricted_planner(
        graph, cluster, "DP-CP", synthesis, cluster.proportional_ratios()
    )


def plan_deepspeed_like(
    model: ComputationGraph, cluster: ClusterSpec, config: Optional[SynthesisConfig] = None
) -> BaselinePlan:
    """DeepSpeed-style baseline: ZeRO data parallelism + expert parallelism.

    Dense parameters are replicated with gradient all-reduce; expert (rank-3)
    parameters are sharded evenly across devices on the expert dimension, as
    DeepSpeed-MoE does.  Expert-count padding for indivisible expert counts is
    handled by the experiment harness, which builds the model with the padded
    expert count for this baseline (Sec. 7.6).
    """
    graph = _training_graph(model)
    synthesis = replace(
        config or SynthesisConfig(),
        force_data_parallel=True,
        expert_parallel_parameters=True,
        enable_sfb=False,
        enable_grouped_all_gather=False,
    )
    return _run_restricted_planner(
        graph, cluster, "DeepSpeed", synthesis, cluster.even_ratios()
    )


def plan_tag_like(
    model: ComputationGraph, cluster: ClusterSpec, config: Optional[SynthesisConfig] = None
) -> BaselinePlan:
    """TAG-style baseline: data parallelism with automatic SFB.

    TAG additionally performs inter-op placement on small clusters; that part
    is out of scope here, since every system in the comparison runs one SPMD
    program across all devices.  So this baseline captures TAG's
    communication optimisation (sufficient factor broadcasting and gradient
    aggregation choice) on top of even data parallelism.
    """
    graph = _training_graph(model)
    synthesis = replace(
        config or SynthesisConfig(),
        force_data_parallel=True,
        expert_parallel_parameters=False,
        enable_sfb=True,
        enable_grouped_all_gather=False,
    )
    return _run_restricted_planner(graph, cluster, "TAG", synthesis, cluster.even_ratios())


def plan_hap(
    model: ComputationGraph, cluster: ClusterSpec, config: Optional[PlannerConfig] = None
) -> BaselinePlan:
    """Run full HAP and wrap its plan in the common baseline container."""
    plan: HAPPlan = _hap(model, cluster, config)
    memory = estimate_memory_per_device(plan.program, plan.flat_ratios, cluster)
    capacities = cluster.device_memory()
    return BaselinePlan(
        name="HAP",
        program=plan.program,
        ratios=plan.flat_ratios,
        estimated_time=plan.estimated_time,
        memory_per_device=memory,
        out_of_memory=any(m > cap for m, cap in zip(memory, capacities)),
    )


def plan_hap_pipeline(
    model: ComputationGraph,
    cluster: ClusterSpec,
    config: Optional[HierarchicalConfig] = None,
) -> HierarchicalPlan:
    """Run hierarchical HAP (pipeline-over-SPMD stages) as a named system.

    Unlike the flat systems, the input must be the *forward* graph with a
    marked loss (stages are differentiated individually) and the result is a
    :class:`~repro.core.hierarchical.HierarchicalPlan`, not a
    :class:`BaselinePlan` — it holds one SPMD program per machine group.
    """
    return _hap_pipeline(model, cluster, config)


_PLANNERS = {
    "DP-EV": plan_dp_ev,
    "DP-CP": plan_dp_cp,
    "DeepSpeed": plan_deepspeed_like,
    "TAG": plan_tag_like,
}


def plan_baseline(
    name: str,
    model: ComputationGraph,
    cluster: ClusterSpec,
    config=None,
):
    """Plan any baseline (or HAP / HAP-Pipeline) by name.

    Returns a :class:`BaselinePlan` for the flat systems and a
    :class:`~repro.core.hierarchical.HierarchicalPlan` for ``HAP-Pipeline``.
    """
    if name == "HAP":
        return plan_hap(model, cluster, config)
    if name == "HAP-Pipeline":
        return plan_hap_pipeline(model, cluster, config)
    try:
        planner = _PLANNERS[name]
    except KeyError:
        raise KeyError(f"unknown baseline {name!r}; known: {BASELINE_NAMES}") from None
    return planner(model, cluster, config)
