"""Regenerators for every table and figure of the paper's evaluation.

Each ``figNN_*`` function returns a list of row dictionaries (one per plotted
point / table cell) so the benchmark harness can both print them and assert
the qualitative shape the paper reports.  All functions accept size parameters
so the full paper-scale sweep and a CI-sized sweep share the same code path.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..autodiff import build_training_graph
from ..baselines import plan_baseline
from ..cluster.spec import (
    ClusterSpec,
    a100_p100_pair,
    a100_pair,
    heterogeneous_testbed,
    homogeneous_testbed,
    p100_a100_mixed,
)
from ..collectives.cost import CollectiveCostModel, CollectiveKind
from ..core.config import SynthesisConfig
from ..core.costmodel import CostModel
from ..core.pipeline import HAPPlan, HAPPlanner
from ..core.synthesizer import ProgramSynthesizer
from ..graph.builder import GraphBuilder
from ..graph.graph import ComputationGraph
from ..graph.tensor import DType
from ..hap import hap
from ..models import (
    BenchmarkScale,
    BERTConfig,
    BERTMoEConfig,
    ViTConfig,
    build_bert,
    build_bert_moe,
    build_model,
    build_vit,
    table1_inventory,
)
from ..simulator import ExecutionSimulator
from .harness import ComparisonResult, compare_systems, default_planner_config, out_of_memory

Row = Dict[str, object]


def format_rows(rows: Sequence[Row], title: str = "") -> str:
    """Render rows as an aligned text table."""
    if not rows:
        return f"{title}\n  (no rows)"
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), max(len(_fmt(r.get(c))) for r in rows)) for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  " + "  ".join(str(c).ljust(widths[c]) for c in columns))
    for row in rows:
        lines.append("  " + "  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# ---------------------------------------------------------------------------
# Table 1 — benchmark models
# ---------------------------------------------------------------------------

def table1_models(num_gpus: int = 8) -> List[Row]:
    """Table 1: benchmark models and their parameter counts."""
    paper = {"vgg19": 133.0, "vit": 54.0, "bert_base": 102.0, "bert_moe": 84.0 + 36.0 * num_gpus}
    rows: List[Row] = []
    for info in table1_inventory(num_gpus=num_gpus):
        rows.append(
            {
                "model": info.name,
                "task": info.task,
                "parameters_millions": round(info.parameters_millions, 1),
                "paper_parameters_millions": paper.get(info.name, float("nan")),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 2 — CP vs EV sharding ratios while varying the comp/comm ratio
# ---------------------------------------------------------------------------

def _model_parallel_transformer(batch: int, seq: int, hidden: int, heads: int):
    """One-layer transformer used by the Fig. 2 motivation experiment."""
    b = GraphBuilder(f"fig2_transformer_h{hidden}")
    x = b.placeholder((batch, seq, hidden), name="activations")
    y = b.transformer_layer(x, num_heads=heads, ffn_hidden=hidden * 4)
    y = b.reshape(y, (batch * seq, hidden))
    logits = b.linear(y, 32)
    labels2d = b.placeholder((batch, seq), dtype=DType.INT64, name="labels")
    labels = b.reshape(labels2d, (batch * seq,))
    loss = b.cross_entropy(logits, labels)
    b.loss(loss)
    return b.build()


def fig2_sharding_ratio_tradeoff(
    hidden_sizes: Sequence[int] = (256, 1024, 2048, 4096),
    batch: int = 32,
    seq: int = 64,
    heads: int = 8,
    cluster: Optional[ClusterSpec] = None,
) -> List[Row]:
    """Fig. 2: computation-proportional (CP) vs even (EV) sharding ratios.

    A Transformer layer is trained with intra-op model parallelism on one
    P100 pair plus one A100 pair; sweeping the hidden size changes the
    computation-to-communication ratio.  CP should win when computation
    dominates and EV when communication dominates.

    The default cluster uses a 25 GB/s effective interconnect: the original
    experiment communicates mostly over NVLink/PCIe inside the two machines,
    which our flat network model folds into a single effective bandwidth.
    """
    if cluster is None:
        from ..cluster.spec import NetworkSpec

        cluster = p100_a100_mixed()
        cluster = ClusterSpec(
            cluster.machines,
            network=NetworkSpec(bandwidth=25e9, latency=2e-5),
            group_by_machine=False,
            name="fig2-p100-a100",
        )
    config = SynthesisConfig(
        enable_replicated_sources=False, enable_sfb=False, beam_width=8
    )
    rows: List[Row] = []
    simulator = ExecutionSimulator(cluster, seed=0)
    for hidden in hidden_sizes:
        graph = build_training_graph(
            _model_parallel_transformer(batch, seq, hidden, heads)
        ).graph
        synthesizer = ProgramSynthesizer(graph, cluster, config)
        program = synthesizer.synthesize(cluster.proportional_ratios()).program
        cost_model = CostModel(graph, cluster)
        cp = cluster.proportional_ratios()
        ev = cluster.even_ratios()
        cp_cost = cost_model.evaluate(program, cp)
        time_cp = simulator.simulate(program, cp, iterations=2).total
        time_ev = simulator.simulate(program, ev, iterations=2).total
        comp_comm = cp_cost.computation / max(cp_cost.communication, 1e-12)
        rows.append(
            {
                "hidden": hidden,
                "comp_to_comm_ratio": round(comp_comm, 3),
                "time_cp_ms": time_cp * 1e3,
                "time_ev_ms": time_ev * 1e3,
                "winner": "CP" if time_cp < time_ev else "EV",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 — padded All-Gather vs grouped Broadcast
# ---------------------------------------------------------------------------

def fig4_all_gather_variants(
    tensor_bytes: float = 4e6,
    max_ratios: Sequence[float] = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    cluster: Optional[ClusterSpec] = None,
) -> List[Row]:
    """Fig. 4: effective bandwidth of the two All-Gather implementations.

    The largest shard is placed on the first device and the rest is split
    evenly, exactly as in the paper's micro-benchmark on 2x2 A100 machines.
    """
    cluster = cluster or a100_pair()
    model = CollectiveCostModel(cluster)
    n = cluster.num_devices
    rows: List[Row] = []
    for max_ratio in max_ratios:
        max_ratio = min(max(max_ratio, 1.0 / n), 1.0)
        rest = (1.0 - max_ratio) / (n - 1) if n > 1 else 0.0
        ratios = [max_ratio] + [rest] * (n - 1)
        padded = model.effective_bandwidth(CollectiveKind.ALL_GATHER, tensor_bytes, ratios)
        grouped = model.effective_bandwidth(
            CollectiveKind.ALL_GATHER_GROUPED, tensor_bytes, ratios
        )
        rows.append(
            {
                "max_ratio": max_ratio,
                "padded_all_gather_gbps": padded / 1e9,
                "grouped_broadcast_gbps": grouped / 1e9,
                "winner": "padded" if padded >= grouped else "grouped",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figs. 13 & 14 — end-to-end training time vs baselines
# ---------------------------------------------------------------------------

def fig13_heterogeneous_cluster(
    models: Sequence[str] = ("vgg19", "vit", "bert_base", "bert_moe"),
    gpu_counts: Sequence[int] = (8, 16, 32, 64),
    systems: Optional[Sequence[str]] = None,
    scale: Optional[BenchmarkScale] = None,
    planner_config: Optional[SynthesisConfig] = None,
) -> List[Row]:
    """Fig. 13: per-iteration time on the heterogeneous V100+P100 cluster."""
    scale = scale or BenchmarkScale.reduced()
    rows: List[Row] = []
    for model in models:
        model_systems = list(systems) if systems else _systems_for(model)
        for gpus in gpu_counts:
            cluster = heterogeneous_testbed(gpus)
            comparison = compare_systems(
                model,
                cluster,
                num_gpus=gpus,
                systems=model_systems,
                scale=scale,
                planner_config=planner_config,
            )
            rows.extend(_comparison_rows(comparison))
    return rows


def fig14_homogeneous_cluster(
    models: Sequence[str] = ("vgg19", "vit", "bert_base", "bert_moe"),
    gpu_counts: Sequence[int] = (8, 16, 24, 32),
    systems: Optional[Sequence[str]] = None,
    scale: Optional[BenchmarkScale] = None,
    planner_config: Optional[SynthesisConfig] = None,
) -> List[Row]:
    """Fig. 14: per-iteration time on the homogeneous P100 cluster.

    DP-CP equals DP-EV on a homogeneous cluster and is therefore omitted,
    matching the paper.
    """
    scale = scale or BenchmarkScale.reduced()
    rows: List[Row] = []
    for model in models:
        model_systems = [s for s in (systems or _systems_for(model)) if s != "DP-CP"]
        for gpus in gpu_counts:
            cluster = homogeneous_testbed(gpus)
            comparison = compare_systems(
                model,
                cluster,
                num_gpus=gpus,
                systems=model_systems,
                scale=scale,
                planner_config=planner_config,
            )
            rows.extend(_comparison_rows(comparison))
    return rows


def _systems_for(model: str) -> List[str]:
    """Which systems the paper evaluates for each model (Sec. 7.1)."""
    systems = ["HAP", "DP-EV", "DP-CP", "DeepSpeed"]
    if model in ("vgg19", "bert_base"):
        systems.append("TAG")
    return systems


def _comparison_rows(comparison: ComparisonResult) -> List[Row]:
    rows: List[Row] = []
    for system, result in comparison.results.items():
        rows.append(
            {
                "model": comparison.model,
                "gpus": comparison.num_gpus,
                "system": system,
                "per_iteration_ms": (
                    None if result.simulated_time is None else result.simulated_time * 1e3
                ),
                "oom": result.out_of_memory,
                "collectives": result.num_collectives,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 15 — ablation of HAP's components
# ---------------------------------------------------------------------------

def fig15_ablation(
    models: Sequence[str] = ("vgg19", "vit", "bert_base", "bert_moe"),
    num_gpus: int = 64,
    scale: Optional[BenchmarkScale] = None,
    beam_width: int = 16,
) -> List[Row]:
    """Fig. 15: throughput contribution of the synthesizer (Q), the load
    balancer (B) and the communication optimisations (C), relative to DP-EV."""
    scale = scale or BenchmarkScale.reduced()
    cluster = heterogeneous_testbed(num_gpus)
    simulator = ExecutionSimulator(cluster, seed=0)
    rows: List[Row] = []
    for model in models:
        forward = build_model(model, num_gpus=num_gpus, scale=scale)
        graph = build_training_graph(forward).graph
        throughputs: Dict[str, float] = {}

        # DP-EV reference.
        dp = plan_baseline("DP-EV", graph, cluster, SynthesisConfig(beam_width=beam_width))
        throughputs["DP-EV"] = (
            0.0
            if out_of_memory(dp, forward, cluster)
            else 1.0 / simulator.simulate(dp.program, dp.flat_ratios, iterations=2).total
        )

        # Q: synthesizer only (even ratios, no communication optimisation).
        q_plan = fig15_q_plan(graph, cluster, beam_width)
        throughputs["Q"] = 1.0 / simulator.simulate(q_plan.program, q_plan.flat_ratios, 2).total

        # Q+B: add the LP load balancer.
        qb_cfg = SynthesisConfig(
            beam_width=beam_width, enable_sfb=False, enable_grouped_all_gather=False
        )
        qb_plan = HAPPlanner(graph, cluster, qb_cfg).plan()
        throughputs["Q+B"] = 1.0 / simulator.simulate(qb_plan.program, qb_plan.flat_ratios, 2).total

        # Q+B+C: full HAP (adds SFB and the grouped All-Gather).
        full_cfg = SynthesisConfig(beam_width=beam_width)
        full_plan = HAPPlanner(graph, cluster, full_cfg).plan()
        throughputs["Q+B+C"] = 1.0 / simulator.simulate(
            full_plan.program, full_plan.flat_ratios, 2
        ).total

        reference = throughputs["Q+B+C"]
        for config_name, value in throughputs.items():
            rows.append(
                {
                    "model": model,
                    "config": config_name,
                    "throughput_iter_per_s": value,
                    "relative_to_full_hap_pct": 100.0 * value / reference if reference else 0.0,
                }
            )
    return rows


def fig15_q_plan(graph: ComputationGraph, cluster: ClusterSpec, beam_width: int) -> HAPPlan:
    """Fig. 15's "Q" point: one synthesis at even ratios, with neither load
    balancing nor SFB and the grouped All-Gather.

    The program is synthesized at the ratios it is simulated at
    (:meth:`~repro.core.pipeline.HAPPlanner.plan_at`, as the baselines are).
    """
    synthesis = SynthesisConfig(
        beam_width=beam_width, enable_sfb=False, enable_grouped_all_gather=False
    )
    planner = HAPPlanner(graph, cluster, synthesis)
    return planner.plan_at(cluster.even_ratios())


# ---------------------------------------------------------------------------
# Fig. 16 — concurrent training on homogeneous subsets vs HAP
# ---------------------------------------------------------------------------

def fig16_concurrent_training(
    models: Sequence[str] = ("vgg19", "vit", "bert_base", "bert_moe"),
    scale: Optional[BenchmarkScale] = None,
    planner_config: Optional[SynthesisConfig] = None,
    gpus_per_machine: int = 8,
) -> List[Row]:
    """Fig. 16: total throughput of two concurrent jobs on homogeneous subsets
    (2 V100 machines + 6 P100 machines) vs one HAP job on the whole cluster.

    Throughput is measured in samples per second (global batch / iteration
    time) and normalised by the concurrent total, as in the paper.
    """
    scale = scale or BenchmarkScale.reduced()
    planner_config = planner_config or default_planner_config()
    whole = heterogeneous_testbed(8 * gpus_per_machine, gpus_per_machine=gpus_per_machine)
    v100_machines = [m for m in whole.machines if m.gpu.name == "V100"]
    p100_machines = [m for m in whole.machines if m.gpu.name == "P100"]
    v100_cluster = ClusterSpec(v100_machines, network=whole.network, name="v100-subset")
    p100_cluster = ClusterSpec(p100_machines, network=whole.network, name="p100-subset")

    rows: List[Row] = []
    for model in models:
        per_device_batch = {"bert_moe": 32}.get(model, 64)

        def job_throughput(
            cluster: ClusterSpec,
            model: str = model,
            per_device_batch: int = per_device_batch,
        ) -> float:
            gpus = cluster.num_gpus
            forward = build_model(model, num_gpus=gpus, scale=scale)
            graph = build_training_graph(forward).graph
            plan = hap(graph, cluster, planner_config)
            sim = ExecutionSimulator(cluster, seed=0).simulate(
                plan.program, plan.flat_ratios, iterations=2
            )
            return per_device_batch * gpus / sim.total

        concurrent_v100 = job_throughput(v100_cluster)
        concurrent_p100 = job_throughput(p100_cluster)
        hap_throughput = job_throughput(whole)
        concurrent_total = concurrent_v100 + concurrent_p100
        rows.append(
            {
                "model": model,
                "concurrent_v100_samples_per_s": concurrent_v100,
                "concurrent_p100_samples_per_s": concurrent_p100,
                "hap_samples_per_s": hap_throughput,
                "hap_relative_pct": 100.0 * hap_throughput / concurrent_total,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 17 — uneven placement of experts
# ---------------------------------------------------------------------------

def fig17_uneven_experts(
    expert_counts: Sequence[int] = (4, 8, 12, 16, 20, 24, 28, 32),
    tokens_per_expert: int = 64,
    hidden_size: int = 256,
    num_layers: int = 2,
    seq_len: int = 32,
    planner_config: Optional[SynthesisConfig] = None,
) -> List[Row]:
    """Fig. 17: BERT-MoE with varying expert counts on 2 A100 + 2 P100 GPUs.

    The token count is kept proportional to the expert count (constant load
    per expert).  DeepSpeed-style expert parallelism pads the expert count to
    a multiple of the device count; HAP places experts unevenly without
    padding and gives more experts to the faster GPUs.
    """
    cluster = a100_p100_pair()
    planner_config = planner_config or default_planner_config()
    simulator = ExecutionSimulator(cluster, seed=0)
    num_devices = cluster.num_devices
    rows: List[Row] = []
    for experts in expert_counts:
        batch = max(1, tokens_per_expert * experts // seq_len)

        def moe_graph(num_experts: int):
            config = BERTMoEConfig(
                batch_size=batch,
                seq_len=seq_len,
                hidden_size=hidden_size,
                num_layers=num_layers,
                num_heads=4,
                mlp_ratio=4,
                vocab_size=8192,
                num_experts=num_experts,
            )
            return build_training_graph(build_bert_moe(config)).graph

        hap_plan = hap(moe_graph(experts), cluster, planner_config)
        hap_time = simulator.simulate(hap_plan.program, hap_plan.flat_ratios, 2).total

        padded = ((experts + num_devices - 1) // num_devices) * num_devices
        ds_plan = plan_baseline("DeepSpeed", moe_graph(padded), cluster, planner_config)
        ds_time = simulator.simulate(ds_plan.program, ds_plan.flat_ratios, 2).total

        rows.append(
            {
                "experts": experts,
                "padded_experts": padded,
                "hap_ms": hap_time * 1e3,
                "deepspeed_ms": ds_time * 1e3,
                "hap_speedup": ds_time / hap_time if hap_time else float("nan"),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 18 — cost-model accuracy
# ---------------------------------------------------------------------------

def fig18_cost_model_accuracy(
    layer_counts: Sequence[int] = (2, 4, 6),
    hidden_sizes: Sequence[int] = (256, 512, 768),
    seq_lens: Sequence[int] = (64, 128),
    num_gpus: int = 16,
    planner_config: Optional[SynthesisConfig] = None,
) -> List[Row]:
    """Fig. 18: estimated vs simulated ("actual") per-iteration time.

    BERT variants with different layer counts, widths and sequence lengths are
    planned by HAP; the plan's cost-model estimate is compared against the
    execution simulator, and the Pearson correlation over all variants is
    attached to every row.
    """
    cluster = heterogeneous_testbed(num_gpus)
    planner_config = planner_config or default_planner_config()
    simulator = ExecutionSimulator(cluster, seed=0)
    rows: List[Row] = []
    estimates: List[float] = []
    actuals: List[float] = []
    for layers in layer_counts:
        for hidden in hidden_sizes:
            for seq in seq_lens:
                config = BERTConfig(
                    batch_size=32 * num_gpus,
                    seq_len=seq,
                    hidden_size=hidden,
                    num_layers=layers,
                    num_heads=max(4, hidden // 64),
                    vocab_size=8192,
                )
                graph = build_training_graph(build_bert(config, name=f"bert_{layers}l_{hidden}h_{seq}s")).graph
                plan = hap(graph, cluster, planner_config)
                actual = simulator.simulate(plan.program, plan.flat_ratios, 2).total
                estimates.append(plan.estimated_time.total)
                actuals.append(actual)
                rows.append(
                    {
                        "layers": layers,
                        "hidden": hidden,
                        "seq_len": seq,
                        "estimated_s": plan.estimated_time.total,
                        "actual_s": actual,
                    }
                )
    pearson = float(np.corrcoef(np.asarray(estimates), np.asarray(actuals))[0, 1])
    for row in rows:
        row["pearson_r"] = pearson
    return rows


# ---------------------------------------------------------------------------
# Fig. 19 — program-synthesis overhead
# ---------------------------------------------------------------------------

def fig19_synthesis_time(
    layer_counts: Sequence[int] = (1, 2, 4, 8, 12, 16, 20, 24),
    hidden_size: int = 384,
    batch_size: int = 64,
    beam_width: int = 16,
) -> List[Row]:
    """Fig. 19: wall-clock program-synthesis time vs ViT depth."""
    cluster = heterogeneous_testbed(64)
    config = SynthesisConfig(beam_width=beam_width)
    rows: List[Row] = []
    for layers in layer_counts:
        vit_config = ViTConfig(
            batch_size=batch_size,
            hidden_size=hidden_size,
            num_layers=layers,
            num_heads=6,
        )
        graph = build_training_graph(build_vit(vit_config)).graph
        synthesizer = ProgramSynthesizer(graph, cluster, config)
        start = _time.perf_counter()
        result = synthesizer.synthesize(cluster.proportional_ratios())
        elapsed = _time.perf_counter() - start
        rows.append(
            {
                "layers": layers,
                "graph_nodes": len(graph),
                "synthesis_seconds": elapsed,
                "expanded_states": result.expanded_states,
            }
        )
    return rows
