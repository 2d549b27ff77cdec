"""The planning problems behind the five workloads, and the checks on their plans.

Everything here goes through the planner's public API (``hap``,
``hap_pipeline``, ``DiskPlanCache``) with library-default configurations;
only the model, its node names and the cluster differ per workload.  This
module imports ``repro`` at import time, so a child process imports it
inside its timed set-up.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, List, Optional, Union

from repro.cluster import ClusterSpec, Machine, NetworkSpec, device_type, heterogeneous_testbed
from repro.core import DiskPlanCache, HAPPlan, HierarchicalConfig, HierarchicalPlan
from repro.graph.canonical import canonical_order
from repro.graph.graph import ComputationGraph
from repro.hap import hap, hap_pipeline
from repro.models import BenchmarkScale, build_model
from repro.simulator import simulate_hierarchical, simulate_plan
from repro.verify import verify_plan, verify_program

Plan = Union[HAPPlan, HierarchicalPlan]

#: Workloads that plan the hetero testbed problem (cold, or from a cache).
HETERO = ("hetero-pipeline", "warm-hit", "warm-replan")

#: Rack-local network inside each machine group of the hetero testbed.
HETERO_INTRA_GROUP = NetworkSpec(bandwidth=100e9 / 8)


def build_cluster(workload: str) -> ClusterSpec:
    """The cluster each workload plans for."""
    if workload in HETERO:
        return heterogeneous_testbed(num_gpus=32, gpus_per_machine=8)
    if workload == "flat-deep":
        machines = [
            Machine(f"m{i}", device_type("A100" if i % 2 == 0 else "P100"), num_gpus=1)
            for i in range(8)
        ]
        return ClusterSpec(machines, name="a100-p100-alternating")
    if workload == "moe-memory":
        # The pipeline benchmark's memory-constrained testbed, from its one home.
        from benchmarks.bench_pipeline import _memory_constrained_cluster

        return _memory_constrained_cluster()
    raise ValueError(f"unknown workload {workload!r}")


def build_forward(workload: str, num_gpus: int, prefix: str) -> ComputationGraph:
    """The workload's forward graph with every node name prefixed by ``prefix``."""
    if workload in HETERO:
        model = build_model(
            "bert_base", num_gpus, BenchmarkScale("e2e", layer_fraction=0.09, batch_per_device=8)
        )
    elif workload == "flat-deep":
        model = build_model(
            "bert_base", num_gpus, BenchmarkScale("e2e", layer_fraction=0.25, batch_per_device=32)
        )
    elif workload == "moe-memory":
        model = build_model(
            "bert_moe", num_gpus, BenchmarkScale("e2e", layer_fraction=0.09, batch_per_device=16)
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return rename(model, prefix)


def rename(graph: ComputationGraph, prefix: str) -> ComputationGraph:
    """An isomorphic copy of ``graph`` whose node names carry ``prefix``."""
    renamed = ComputationGraph(graph.name)
    new = {name: prefix + name for name in graph.node_names}
    for node in graph:
        renamed.add_node(new[node.name], node.op, [new[i] for i in node.inputs], dict(node.attrs))
    for out in graph.outputs:
        renamed.mark_output(new[out])
    if graph.loss is not None:
        renamed.mark_loss(new[graph.loss])
    return renamed


def request_sets(workload: str, rng: random.Random, sets: int, last_set: int) -> Iterator[int]:
    """The node-name set (of ``sets``) of each warm request, after one under ``last_set``.

    The whole-plan cache entry is guarded by exact node names and the last
    writer wins.  On ``warm-hit`` every request uses set 0, the names the
    cache was filled under, so each is a whole-plan hit.  On ``warm-replan``
    each request uses a seeded set other than the previous request's, so
    each replans from the chunk entries and rewrites the whole-plan entry.
    """
    while True:
        if workload == "warm-hit":
            yield 0
        else:
            last_set = rng.choice([s for s in range(sets) if s != last_set])
            yield last_set


def plan(
    workload: str,
    forward: ComputationGraph,
    cluster: ClusterSpec,
    cache: Optional[DiskPlanCache] = None,
) -> Plan:
    """Plan one request through the public API."""
    if workload == "flat-deep":
        return hap(forward, cluster)
    if workload in HETERO:
        config = HierarchicalConfig(intra_group_network=HETERO_INTRA_GROUP, plan_cache=cache)
        return hap_pipeline(forward, cluster, config)
    if workload == "moe-memory":
        return hap_pipeline(forward, cluster)
    raise ValueError(f"unknown workload {workload!r}")


def check(plan: Plan, forward: ComputationGraph, cluster: ClusterSpec) -> List[str]:
    """Full static verification; returns one line per error diagnostic."""
    if isinstance(plan, HierarchicalPlan):
        report = verify_plan(plan, forward)
    else:
        report = verify_program(plan.program, cluster, plan.flat_ratios)
    return [d.describe() for d in report.errors]


def iteration_ms(plan: Plan, cluster: ClusterSpec) -> float:
    """Simulated iteration time of the plan (simulator seed 0), in ms."""
    if isinstance(plan, HierarchicalPlan):
        return simulate_hierarchical(plan, seed=0).total * 1e3
    return simulate_plan(plan, cluster, seed=0).total * 1e3


def _program_encoding(program) -> tuple:
    """The program's instructions, sorted, with node names replaced by their
    canonical positions.

    Sorted because the planner orders independent instructions (e.g. two
    source placeholders) by string-hash set iteration, which depends on the
    node names and the interpreter's hash seed; dataflow order is the
    verifier's concern, not the digest's.
    """
    index = {name: i for i, name in enumerate(canonical_order(program.graph))}

    def prop(p):
        return (index[p.ref], str(p.state))

    out = []
    for instr in program.instructions:
        if instr.is_communication:
            out.append(repr((instr.kind.value, prop(instr.input), prop(instr.output),
                             instr.dim, instr.dim2)))
        else:
            out.append(repr((index[instr.node], instr.op, tuple(prop(p) for p in instr.inputs),
                             prop(instr.output), instr.flops_sharded)))
    return tuple(sorted(out))


def digest(plan: Plan) -> str:
    """Name-free digest of a plan: equal for plans of renamed models.

    Covers every decision the planner makes (schedule, stage count,
    microbatches, each chunk program and its sharding ratios) and the exact
    cost estimates, but no node name.
    """
    if isinstance(plan, HierarchicalPlan):
        payload = (
            plan.schedule_name,
            plan.num_stages,
            plan.num_microbatches,
            plan.num_model_chunks,
            plan.recompute,
            plan.fits_memory,
            repr(plan.estimated_time),
            tuple(sorted((k, repr(v)) for k, v in plan.schedule_candidate_times.items())),
            tuple(
                (c.virtual_index, c.stage_index, _program_encoding(c.program),
                 tuple(repr(r) for r in c.ratios), c.send_bytes)
                for c in plan.chunk_sequence()
            ),
        )
    else:
        payload = (
            _program_encoding(plan.program),
            tuple(tuple(repr(r) for r in seg) for seg in plan.ratios),
            repr(plan.estimated_time.total),
        )
    return hashlib.sha256(repr(payload).encode()).hexdigest()
