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
* ``L004`` — stash peaks: the schedule reports one activation-stash peak
  per stage.  The plan's memory verdict (``fits_memory``) is derived from
  those peaks, so it needs no check of its own, but a short list would
  leave stages unjudged.

:func:`verify_plan` composes these with the program checks over every chunk
program and ``S003``, a schedule name outside
:data:`~repro.simulator.schedule.SCHEDULE_NAMES` — the one-call entry point
used by the planner's ``verify_after_plan`` hook, the plan cache's store
check (a plan is checked structurally once before it is stored; a hit,
under its own node names or through a checked rename onto others, is
served without another check) and the
``python -m repro.verify`` CLI.  The task orders of a known schedule
are the library's own :func:`~repro.simulator.schedule.task_orders`, which
its tests check; a plan carries only the name.  ``verify_plan`` reports
errors only; the warning-severity performance lints are
:func:`repro.verify.lint.lint_plan`'s.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable

from ..core.hierarchical import HierarchicalPlan
from ..core.instructions import is_source_op
from ..graph.graph import ComputationGraph
from ..simulator.schedule import SCHEDULE_NAMES
from .base import Diagnostic, Severity, VerificationReport, VerifierPass, run_passes
from .program import verify_program


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


class StashPeaksPass(VerifierPass):
    """L004: the schedule reports one stash peak per stage."""

    name = "plan-stash-peaks"
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


#: The default plan-check pipeline, in execution order.
PLAN_PASSES = (
    ChunkCoveragePass(),
    PartitionPass(),
    BoundaryPass(),
    StashPeaksPass(),
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
    and reports a schedule name outside ``SCHEDULE_NAMES`` as ``S003``.  The
    performance lints are not part of it: run
    :func:`~repro.verify.lint.lint_plan` for those.

    Args:
        plan: the plan to verify.
        forward: the forward graph the plan was built from.
        check_cost: include the P008 cost cross-check per program (the most
            expensive check; the plan cache's store check disables it to
            stay O(instructions)).
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
    if plan.schedule_name not in SCHEDULE_NAMES:
        report.add(
            Diagnostic(
                "S003",
                Severity.ERROR,
                f"unknown schedule; the known ones are {', '.join(SCHEDULE_NAMES)}",
                f"schedule {plan.schedule_name!r}",
            )
        )
    return report
