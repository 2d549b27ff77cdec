"""Plan performance linter: legal-but-slow patterns in a finished plan.

The error-severity passes (:mod:`repro.verify.plan`, :mod:`repro.verify.program`)
prove a :class:`~repro.core.hierarchical.HierarchicalPlan` *well-formed*; this
module flags plans that are well-formed but carry a performance anti-pattern
the planner's own objective can hide.  Every finding is WARNING severity —
a linted plan still verifies ``ok`` and is still served — but the warnings
ride on the same :class:`~repro.verify.base.VerificationReport`, so a caller
(or ``python -m repro.verify --lint --strict-warnings``) can refuse to accept
a plan that smells slow.  HetPipe- and HARP-style heterogeneous failures are
exactly of this kind: nothing is malformed, the plan is just quietly
imbalanced or its links oversubscribed.

* ``W001`` — per-link bandwidth oversubscription: some stage's communication
  stream is busy for more than :data:`COMM_BUSY_FRACTION` of the iteration;
  the simulator queues sends without contention, so such plans look cheaper
  than they run (the known comm-contention blind spot).
* ``W002`` — exposed communication: transfer seconds left on the critical
  path after overlap exceed :data:`EXPOSED_COMM_FRACTION` of the iteration.
* ``W003`` — critical-path stage imbalance: the busiest stage does more than
  :data:`STAGE_IMBALANCE_RATIO` times the work of the laziest.
* ``W004`` — memory headroom: a stage's worst device sits above
  :data:`MEMORY_HEADROOM_FRACTION` of its capacity — one activation spike
  from an OOM even though the plan nominally fits.
* ``W006`` — dominated collective: a paid All-Gather variant is slower than
  the other variant in the paper's Sec. 2.5.1 rule table by more than
  :data:`DOMINATED_COMM_RTOL`.  Synthesis keeps the cheaper variant for the
  ratios it synthesizes at, so this fires only when the LP load balancer
  then moves the ratios past the two variants' crossover point.

``W005`` flagged a pipeline schedule the planner no longer has; the code is
retired, not reused.

:func:`lint_plan` is the one lint entry point.
:func:`~repro.verify.plan.verify_plan` reports errors only and does not run
these passes: lint a plan, a cache hit included, by calling
:func:`lint_plan` on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable

from ..collectives.cost import CollectiveCostModel, CollectiveKind
from ..core.instructions import CommInstruction
from .base import Diagnostic, Severity, VerificationReport, VerifierPass, run_passes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.hierarchical import HierarchicalPlan

#: W001 fires when a stage's comm stream is busy above this iteration fraction.
COMM_BUSY_FRACTION = 0.75
#: W002 fires when exposed transfer exceeds this fraction of the iteration.
#: Calibrated against the paper testbeds, where healthy 2-stage plans sit at
#: 26-33% exposed transfer; the lint flags the outliers well above that band.
EXPOSED_COMM_FRACTION = 0.40
#: W003 fires when max/min per-stage busy time exceeds this ratio.
STAGE_IMBALANCE_RATIO = 1.5
#: W004 fires when a stage's worst device exceeds this fraction of capacity.
MEMORY_HEADROOM_FRACTION = 0.9
#: W006 fires when a paid collective is slower than the best variant by more
#: than this relative margin.
DOMINATED_COMM_RTOL = 0.01

#: All-Gather variants of the paper's Sec. 2.5.1 rule table (W006 candidates).
_ALL_GATHER_KINDS = (CollectiveKind.ALL_GATHER, CollectiveKind.ALL_GATHER_GROUPED)


class CommOversubscriptionPass(VerifierPass):
    """W001: a pipeline link's send queue nearly saturates the iteration."""

    name = "lint-comm-oversubscription"
    codes = ("W001",)

    def run(
        self, plan: HierarchicalPlan, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        schedule = plan.schedule
        if schedule.total <= 0:
            return
        for i, busy in enumerate(schedule.comm_busy):
            fraction = busy / schedule.total
            if fraction > COMM_BUSY_FRACTION:
                yield Diagnostic(
                    "W001",
                    Severity.WARNING,
                    f"communication stream busy {fraction:.0%} of the iteration "
                    f"(> {COMM_BUSY_FRACTION:.0%}); queued sends are simulated "
                    f"without contention, so the link is likely oversubscribed",
                    f"stage {i}",
                )


class ExposedCommPass(VerifierPass):
    """W002: too much transfer time survives overlap onto the critical path."""

    name = "lint-exposed-comm"
    codes = ("W002",)

    def run(
        self, plan: HierarchicalPlan, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        schedule = plan.schedule
        if schedule.total <= 0:
            return
        fraction = schedule.exposed_transfer / schedule.total
        if fraction > EXPOSED_COMM_FRACTION:
            yield Diagnostic(
                "W002",
                Severity.WARNING,
                f"exposed boundary transfer is {fraction:.0%} of the iteration "
                f"(> {EXPOSED_COMM_FRACTION:.0%}); overlap hides too little of "
                f"the activation/gradient traffic",
                f"schedule {plan.schedule_name}",
            )


class StageImbalancePass(VerifierPass):
    """W003: the pipeline's critical path is dominated by one stage."""

    name = "lint-stage-imbalance"
    codes = ("W003",)

    def run(
        self, plan: HierarchicalPlan, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        busy = plan.schedule.stage_busy
        if len(busy) <= 1:
            return
        slowest, fastest = max(busy), min(busy)
        if fastest <= 0 or slowest / fastest <= STAGE_IMBALANCE_RATIO:
            return
        yield Diagnostic(
            "W003",
            Severity.WARNING,
            f"stage busy times span {fastest:.4g}s..{slowest:.4g}s "
            f"(ratio {slowest / fastest:.2f} > {STAGE_IMBALANCE_RATIO}); the "
            f"fast stages idle in the slow stage's shadow",
            f"stage {busy.index(slowest)}",
        )


class MemoryHeadroomPass(VerifierPass):
    """W004: a fitting plan with almost no per-device memory headroom."""

    name = "lint-memory-headroom"
    codes = ("W004",)

    def run(
        self, plan: HierarchicalPlan, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        if not plan.fits_memory:
            return  # an infeasible plan says so in its verdict; headroom is moot
        for i, utilization in enumerate(plan.stage_memory_utilization):
            if utilization >= MEMORY_HEADROOM_FRACTION:
                yield Diagnostic(
                    "W004",
                    Severity.WARNING,
                    f"worst device at {utilization:.0%} of memory capacity "
                    f"(>= {MEMORY_HEADROOM_FRACTION:.0%}); one activation "
                    f"spike from OOM",
                    f"stage {i}",
                )


class DominatedCollectivePass(VerifierPass):
    """W006: an All-Gather variant dominated by the paper's rule table."""

    name = "lint-dominated-collective"
    codes = ("W006",)

    def run(
        self, plan: HierarchicalPlan, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        for chunk in plan.stages:
            model = CollectiveCostModel(chunk.subcluster)
            ratios = chunk.ratios
            program = chunk.program
            for instr in program.instructions:
                if not isinstance(instr, CommInstruction):
                    continue
                if instr.kind not in _ALL_GATHER_KINDS:
                    continue
                ref = instr.input.ref
                if ref not in program.graph:
                    continue  # P001's problem, not a lint
                total_bytes = float(program.graph[ref].spec.size_bytes)
                paid = model.collective_time(instr.kind, total_bytes, ratios)
                best_kind, best = model.best_all_gather(total_bytes, ratios)
                if best_kind is not instr.kind and paid > best * (1.0 + DOMINATED_COMM_RTOL):
                    yield Diagnostic(
                        "W006",
                        Severity.WARNING,
                        f"{instr.kind.value} of {ref} costs {paid:.3g}s but "
                        f"{best_kind.value} would cost {best:.3g}s for these "
                        f"sharding ratios (Sec. 2.5.1 rule table)",
                        f"stage {chunk.index}: {instr.describe()}",
                    )


#: The default lint pipeline, in execution order.
LINT_PASSES = (
    CommOversubscriptionPass(),
    ExposedCommPass(),
    StageImbalancePass(),
    MemoryHeadroomPass(),
    DominatedCollectivePass(),
)


def lint_plan(plan: HierarchicalPlan) -> VerificationReport:
    """Run every performance lint over a finished hierarchical plan.

    All findings are WARNING severity: the returned report is always ``ok``
    unless a lint pass itself crashes.
    """
    return run_passes(LINT_PASSES, plan, {})
