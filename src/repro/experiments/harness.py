"""Comparison harness: plan and simulate HAP and the baselines on one workload.

This module is the reproduction of the paper's ``run_all worker.py`` /
``ddp.py`` / ``run_all_deepspeed`` scripts: for a given model and cluster it
produces one per-iteration training time per system.  Planning happens with
the corresponding planner (full HAP or a restricted baseline) and "measured"
times come from the execution simulator, which plays the role of the real
64-GPU testbed: every system runs on the same simulated cluster, so the
systems are compared under one execution model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..autodiff import build_training_graph
from ..baselines import plan_baseline
from ..cluster.spec import ClusterSpec
from ..core.config import SynthesisConfig
from ..core.hierarchical import device_peak_memory, parameter_bytes_split
from ..core.pipeline import HAPPlan
from ..graph.graph import ComputationGraph
from ..hap import hap
from ..models import BenchmarkScale, build_model
from ..simulator import ExecutionSimulator

#: Systems compared in Figs. 13-14 (TAG only supports VGG19 and BERT-Base in
#: the paper; DP baselines go out of memory on BERT-MoE).
DEFAULT_SYSTEMS = ["HAP", "DP-EV", "DP-CP", "DeepSpeed", "TAG"]


def default_planner_config(beam_width: Optional[int] = None) -> SynthesisConfig:
    """Planner configuration used by the experiment harness (beam 16 by default)."""
    return SynthesisConfig(beam_width=beam_width or 16)


@dataclass
class SystemResult:
    """Outcome of one system on one workload.

    Attributes:
        system: system name (HAP or a baseline).
        simulated_time: per-iteration time on the simulated cluster, in
            seconds (None when the configuration runs out of memory).
        estimated_time: the planner's own cost-model estimate.
        out_of_memory: True if some device's peak memory exceeds its capacity.
        num_collectives: number of collective instructions in the program.
        comm_kinds: histogram of collective kinds.
        planning_seconds: wall-clock planning time.
    """

    system: str
    simulated_time: Optional[float]
    estimated_time: float
    out_of_memory: bool
    num_collectives: int
    comm_kinds: Dict[str, int] = field(default_factory=dict)
    planning_seconds: float = 0.0

    @property
    def throughput(self) -> float:
        """Iterations per second (0 when OOM)."""
        if self.simulated_time is None or self.simulated_time <= 0:
            return 0.0
        return 1.0 / self.simulated_time


@dataclass
class ComparisonResult:
    """All systems' results for one (model, cluster) workload."""

    model: str
    num_gpus: int
    cluster: str
    results: Dict[str, SystemResult]

    def best_baseline(self) -> Optional[SystemResult]:
        """The fastest non-HAP system that does not run out of memory."""
        candidates = [
            r
            for name, r in self.results.items()
            if name != "HAP"
            and r.simulated_time is not None
            and not r.out_of_memory
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda r: r.simulated_time)

    def hap_speedup(self) -> Optional[float]:
        """Speed-up of HAP over the best baseline (the paper's headline metric)."""
        hap = self.results.get("HAP")
        best = self.best_baseline()
        if hap is None or best is None or hap.simulated_time in (None, 0.0):
            return None
        return best.simulated_time / hap.simulated_time


def compare_systems(
    model_name: str,
    cluster: ClusterSpec,
    num_gpus: Optional[int] = None,
    systems: Sequence[str] = DEFAULT_SYSTEMS,
    scale: Optional[BenchmarkScale] = None,
    planner_config: Optional[SynthesisConfig] = None,
    forward: Optional[ComputationGraph] = None,
    simulation_iterations: int = 3,
) -> ComparisonResult:
    """Plan and simulate every requested system on one workload.

    Args:
        model_name: benchmark model name or paper alias.
        cluster: target cluster.
        num_gpus: number of GPUs for weak scaling (defaults to the cluster's).
        systems: which systems to evaluate.
        scale: model scale (paper or reduced).
        planner_config: configuration shared by the HAP and baseline
            planners.
        forward: pre-built forward graph with a marked loss (overrides
            ``model_name`` construction).
        simulation_iterations: iterations averaged by the simulator, which
            draws its noise from seed 0.

    Returns:
        A :class:`ComparisonResult` with one entry per system.
    """
    import time as _time

    num_gpus = num_gpus or cluster.num_gpus
    if forward is None:
        forward = build_model(model_name, num_gpus=num_gpus, scale=scale)
    training_graph = build_training_graph(forward).graph
    planner_config = planner_config or default_planner_config()
    simulator = ExecutionSimulator(cluster)

    results: Dict[str, SystemResult] = {}
    for system in systems:
        start = _time.perf_counter()
        if system == "HAP":
            plan = hap(training_graph, cluster, planner_config)
        else:
            plan = plan_baseline(system, training_graph, cluster, planner_config)
        planning_seconds = _time.perf_counter() - start
        oom = out_of_memory(plan, forward, cluster)
        simulated = None
        if not oom:
            simulated = simulator.simulate(
                plan.program, plan.flat_ratios, iterations=simulation_iterations
            ).total
        results[system] = SystemResult(
            system=system,
            simulated_time=simulated,
            estimated_time=plan.estimated_time.total,
            out_of_memory=oom,
            num_collectives=plan.program.num_communications,
            comm_kinds=plan.program.communication_kinds(),
            planning_seconds=planning_seconds,
        )
    return ComparisonResult(
        model=model_name,
        num_gpus=num_gpus,
        cluster=cluster.name,
        results=results,
    )


def flat_peak_memory(plan: HAPPlan, forward: ComputationGraph) -> List[float]:
    """Per-device peak bytes of a flat plan of ``forward``'s training graph.

    A flat plan is the one-stage pipeline: it stashes the activations of the
    whole forward pass, so its peaks are
    :func:`~repro.core.hierarchical.device_peak_memory` with ``forward``'s
    non-source bytes as the stash — the peaks the hierarchical planner
    judges its one-stage candidate by.
    """
    sharded, replicated = parameter_bytes_split(plan.program)
    return device_peak_memory(sharded, replicated, forward.activation_bytes(), plan.flat_ratios)


def out_of_memory(plan: HAPPlan, forward: ComputationGraph, cluster: ClusterSpec) -> bool:
    """True if some device's peak (:func:`flat_peak_memory`) exceeds its capacity.

    The paper reports OOM for the DP baselines on BERT-MoE.
    """
    peaks = flat_peak_memory(plan, forward)
    return any(peak > cap for peak, cap in zip(peaks, cluster.device_memory()))


def format_comparison(comparison: ComparisonResult) -> str:
    """Render one comparison as the per-iteration-time table of Fig. 13/14."""
    lines = [
        f"{comparison.model} on {comparison.cluster} ({comparison.num_gpus} GPUs)",
        f"  {'system':12s} {'sim time (ms)':>14s} {'est time (ms)':>14s} {'collectives':>12s}",
    ]
    for name, result in comparison.results.items():
        sim = "OOM" if result.simulated_time is None else f"{result.simulated_time * 1e3:.1f}"
        lines.append(
            f"  {name:12s} {sim:>14s} {result.estimated_time * 1e3:>14.1f} "
            f"{result.num_collectives:>12d}"
        )
    speedup = comparison.hap_speedup()
    if speedup is not None:
        lines.append(f"  HAP speed-up over best baseline: {speedup:.2f}x")
    return "\n".join(lines)
