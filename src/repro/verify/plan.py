"""Plan checks: is a :class:`HierarchicalPlan` structurally sound?

These passes re-derive the hierarchical planner's invariants from the plan
artifact itself — the pipeline cut, the per-chunk plans and the schedule
result — against the original forward graph:

* ``L001`` — exact partition: the cut's stage graphs cover the forward graph
  exactly (every compute node and parameter in exactly one stage), and each
  chunk's forward nodes are exactly its cut stage's compute nodes.
* ``L002`` — boundary transfers: each chunk's boundary outputs are its cut
  refs, every incoming activation has a placeholder seed in the chunk graph,
  and ``send_bytes`` equals the bytes actually in flight across the chunk's
  outgoing hop (skip-connection tensors relayed across the hop included).
* ``L003`` — stage coverage: stage ``i`` sits at position ``i`` (and so
  hosts the chunk of cut piece ``i``), and the cut has exactly one piece
  per stage.
* ``L004`` — memory feasibility: per-device peak memory re-derived from the
  chunk plans and the schedule's activation-stash peaks must agree with the
  plan's ``fits_memory`` verdict against the groups' device capacities.

:func:`verify_plan` composes these with the program checks over every chunk
program and the schedule checks over the plan's canonical task orders — the
one-call entry point used by the planner's ``verify_after_plan`` hook, the
cache-hit guard and the ``python -m repro.verify`` CLI.  It reports errors
only; the warning-severity performance lints are
:func:`repro.verify.lint.lint_plan`'s.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from ..core.hierarchical import HierarchicalPlan
from ..core.instructions import is_source_op
from ..graph.graph import ComputationGraph
from ..simulator.schedule import task_orders
from .base import Diagnostic, Severity, VerificationReport, VerifierPass, run_passes
from .program import verify_program
from .schedule import verify_schedule_orders


class PartitionPass(VerifierPass):
    """L001: stage graphs partition the forward graph exactly."""

    name = "plan-partition"
    codes = ("L001",)

    def run(
        self, plan: HierarchicalPlan, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        forward: ComputationGraph = context["forward"]
        cut = plan.cut
        counts: Dict[str, int] = {}
        for stage_nodes in cut.stages:
            for name in stage_nodes:
                if name not in forward:
                    yield Diagnostic(
                        "L001",
                        Severity.ERROR,
                        f"cut lists {name!r}, which is not a forward-graph node",
                        "cut",
                    )
                    continue
                counts[name] = counts.get(name, 0) + 1
        for node in forward:
            n = counts.get(node.name, 0)
            if node.op == "placeholder":
                if n < 1:
                    yield Diagnostic(
                        "L001",
                        Severity.ERROR,
                        f"placeholder {node.name!r} is in no stage",
                        "cut",
                    )
            elif n != 1:
                yield Diagnostic(
                    "L001",
                    Severity.ERROR,
                    f"{node.op} node {node.name!r} appears in {n} stages "
                    "(must be exactly 1)",
                    "cut",
                )
        # Each chunk's forward compute must be exactly its cut stage's compute.
        for stage in plan.stages:
            k = stage.index
            if not 0 <= k < cut.num_stages:
                continue  # L003's finding
            stage_compute = {
                name
                for name in cut.stages[k]
                if name in forward and not is_source_op(forward[name].op)
            }
            chunk_compute = {
                name
                for name in stage.info.forward_nodes
                if name in stage.info.graph
                and not is_source_op(stage.info.graph[name].op)
            }
            if chunk_compute != stage_compute:
                extra = sorted(chunk_compute - stage_compute)[:3]
                missing = sorted(stage_compute - chunk_compute)[:3]
                yield Diagnostic(
                    "L001",
                    Severity.ERROR,
                    f"chunk forward compute differs from its cut stage "
                    f"(extra: {extra}, missing: {missing})",
                    f"stage {k}",
                )


class BoundaryPass(VerifierPass):
    """L002: boundary refs and per-hop transfer bytes are consistent."""

    name = "plan-boundaries"
    codes = ("L002",)

    def run(
        self, plan: HierarchicalPlan, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        forward: ComputationGraph = context["forward"]
        cut = plan.cut
        for stage in plan.stages:
            k = stage.index
            if not 0 <= k < cut.num_stages:
                continue  # L003's finding
            where = f"stage {k}"
            if list(stage.info.boundary_outputs) != list(cut.cut_refs[k]):
                yield Diagnostic(
                    "L002",
                    Severity.ERROR,
                    f"chunk boundary outputs {list(stage.info.boundary_outputs)} "
                    f"do not match the cut's refs {list(cut.cut_refs[k])}",
                    where,
                )
            for ref in cut.incoming_refs(k):
                if ref not in stage.info.graph or stage.info.graph[ref].op != "placeholder":
                    yield Diagnostic(
                        "L002",
                        Severity.ERROR,
                        f"incoming activation {ref!r} has no placeholder seed "
                        "in the chunk graph",
                        where,
                    )
            # Outgoing-hop bytes: everything in flight across boundary k —
            # including skip-connection tensors this hop merely relays.
            if k < cut.num_stages - 1:
                expected = sum(
                    forward[ref].spec.size_bytes
                    for ref in cut.crossing_refs(k)
                    if ref in forward
                )
            else:
                expected = 0
            if stage.send_bytes != expected:
                yield Diagnostic(
                    "L002",
                    Severity.ERROR,
                    f"send_bytes={stage.send_bytes} but the hop actually ships "
                    f"{expected} bytes",
                    where,
                )


class ChunkCoveragePass(VerifierPass):
    """L003: one chunk per stage, each at its own cut piece."""

    name = "plan-chunk-coverage"
    codes = ("L003",)

    def run(
        self, plan: HierarchicalPlan, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        s = plan.num_stages
        for i, stage in enumerate(plan.stages):
            if stage.index != i:
                yield Diagnostic(
                    "L003",
                    Severity.ERROR,
                    f"stage at position {i} carries index {stage.index}",
                    f"stage {i}",
                )
        if plan.cut.num_stages != s:
            yield Diagnostic(
                "L003",
                Severity.ERROR,
                f"cut has {plan.cut.num_stages} stages for {s} pipeline stages",
                "cut",
            )


class MemoryPass(VerifierPass):
    """L004: re-derived per-device peak memory agrees with ``fits_memory``."""

    name = "plan-memory"
    codes = ("L004",)

    def run(
        self, plan: HierarchicalPlan, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        stash = plan.schedule.peak_stash
        if len(stash) != plan.num_stages:
            yield Diagnostic(
                "L004",
                Severity.ERROR,
                f"schedule reports {len(stash)} stage stash peaks for "
                f"{plan.num_stages} stages",
                "schedule",
            )
            return
        derived_fits = True
        for i, stage in enumerate(plan.stages):
            capacities = stage.subcluster.device_memory()
            peaks = stage.peak_device_memory(stash[i])
            for j, (peak, cap) in enumerate(zip(peaks, capacities)):
                if peak > cap:
                    derived_fits = False
                    yield Diagnostic(
                        "L004",
                        Severity.ERROR if plan.fits_memory else Severity.INFO,
                        f"device {j} needs {peak / 1e9:.3f} GB but its capacity "
                        f"is {cap / 1e9:.3f} GB",
                        f"stage {i} device {j}",
                    )
        if derived_fits and not plan.fits_memory:
            yield Diagnostic(
                "L004",
                Severity.ERROR,
                "plan claims fits_memory=False but every device fits the "
                "re-derived peak",
                "memory verdict",
            )
        # (fits_memory=True with an over-capacity device already produced an
        # error diagnostic per offending device above.)


#: The default plan-check pipeline, in execution order.
PLAN_PASSES = (
    ChunkCoveragePass(),
    PartitionPass(),
    BoundaryPass(),
    MemoryPass(),
)


def verify_plan_structure(
    plan: HierarchicalPlan, forward: ComputationGraph
) -> VerificationReport:
    """Run only the plan-level structural checks (L001–L004)."""
    return run_passes(PLAN_PASSES, plan, {"forward": forward})


def verify_plan(
    plan: HierarchicalPlan,
    forward: ComputationGraph,
    check_cost: bool = True,
) -> VerificationReport:
    """Verify a hierarchical plan end to end.

    Composes the plan structure checks with the program checks over every
    chunk program (each against its own machine group and sharding ratios)
    and the schedule checks over the plan's canonical task orders.  The
    performance lints are not part of it: run
    :func:`~repro.verify.lint.lint_plan` for those.

    Args:
        plan: the plan to verify.
        forward: the forward graph the plan was built from.
        check_cost: include the P008 cost cross-check per program (the most
            expensive check; the cache-hit guard disables it to keep warm
            lookups O(instructions)).
    """
    report = verify_plan_structure(plan, forward)
    for stage in plan.stages:
        sub = verify_program(
            stage.program,
            cluster=stage.subcluster,
            ratios=stage.ratios,
            check_cost=check_cost,
        )
        report.merge(sub, prefix=f"stage {stage.index}")
    s = plan.num_stages
    try:
        orders = task_orders(plan.schedule_name, s, plan.num_microbatches)
    except KeyError as exc:
        report.add(
            Diagnostic(
                "S003",
                Severity.ERROR,
                f"plan's schedule is not constructible: {exc}",
                f"schedule {plan.schedule_name!r}",
            )
        )
    else:
        sub = verify_schedule_orders(
            orders,
            num_stages=s,
            num_microbatches=plan.num_microbatches,
            schedule_name=plan.schedule_name,
        )
        report.merge(sub, prefix=f"schedule {plan.schedule_name}")
    return report
