"""Schedule checks: is a pipeline task order executable and deadlock-free?

The schedule engine (:mod:`repro.simulator.schedule`) consumes, per stage,
an ordered list of ``(kind, microbatch)`` tasks and executes them under
in-order head consumption.  These passes prove the order sound
*statically*, before anything is simulated or executed:

* ``S001`` — deadlock-freedom: the dependency graph combining per-stage
  sequential order with the data edges (``F(k-1, j) -> F(k, j)``,
  ``F(k, j) -> B(k, j)``, ``B(k+1, j) -> B(k, j)`` for stage ``k`` and
  microbatch ``j``) must be acyclic.  These are exactly the send/recv
  dependencies of the pipelined execution, so a cycle is a guaranteed
  runtime deadlock.
* ``S002`` — task completeness and matched send/recv pairing: every
  ``(kind, microbatch)`` task appears exactly once on every stage, so every
  boundary send has exactly one matching receive.
* ``S003`` — per-microbatch ordering legality: the order must equal the
  canonical task enumeration of the named schedule (``gpipe`` or ``1f1b``),
  which encodes e.g. GPipe's reversed backward drain.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..simulator.schedule import task_orders
from .base import Diagnostic, Severity, VerificationReport, VerifierPass, run_passes

#: A task is (kind, microbatch); kind is "F" or "B".
Task = Tuple[str, int]


def _schedule_context(context: Dict[str, Any]) -> Tuple[int, int]:
    return context["num_stages"], context["num_microbatches"]


class TaskCompletenessPass(VerifierPass):
    """S002: every task exactly once, sends and recvs matched per hop."""

    name = "schedule-completeness"
    codes = ("S002",)

    def run(
        self, orders: Sequence[Sequence[Task]], context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        s, m = _schedule_context(context)
        if len(orders) != s:
            yield Diagnostic(
                "S002",
                Severity.ERROR,
                f"{len(orders)} per-stage task orders for {s} stages",
                "task orders",
            )
            return
        expected_per_stage = {(kind, j) for kind in ("F", "B") for j in range(m)}
        for i, order in enumerate(orders):
            seen: Dict[Task, int] = {}
            for pos, task in enumerate(order):
                if task in seen:
                    yield Diagnostic(
                        "S002",
                        Severity.ERROR,
                        f"task {task} appears twice (positions {seen[task]} and {pos})",
                        f"stage {i}",
                    )
                seen[task] = pos
                if task not in expected_per_stage:
                    yield Diagnostic(
                        "S002",
                        Severity.ERROR,
                        f"task {task} is outside the (kind, microbatch<{m}) grid",
                        f"stage {i} order[{pos}]",
                    )
            missing = expected_per_stage - set(seen)
            for task in sorted(missing):
                # A missing forward leaves the downstream stage's matching
                # receive unpaired; a missing backward strands the upstream
                # gradient receive.  Either way the send/recv pairing breaks.
                yield Diagnostic(
                    "S002",
                    Severity.ERROR,
                    f"task {task} never scheduled — its boundary send/recv "
                    "pairing is unmatched",
                    f"stage {i}",
                )


class AcyclicityPass(VerifierPass):
    """S001: the send/recv dependency graph has no cycle (deadlock-freedom)."""

    name = "schedule-acyclicity"
    codes = ("S001",)

    def run(
        self, orders: Sequence[Sequence[Task]], context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        s, _m = _schedule_context(context)
        # Node = (stage, kind, microbatch); edges = in-order execution per
        # stage plus the cross-stage data dependencies the engine enforces.
        nodes: List[Tuple[int, str, int]] = []
        index: Dict[Tuple[int, str, int], int] = {}
        for i, order in enumerate(orders[:s]):
            for kind, j in order:
                node = (i, kind, j)
                if node not in index:  # duplicates are S002's finding
                    index[node] = len(nodes)
                    nodes.append(node)
        succ: List[List[int]] = [[] for _ in nodes]
        indeg = [0] * len(nodes)

        def add_edge(a: Tuple[int, str, int], b: Tuple[int, str, int]) -> None:
            ia, ib = index.get(a), index.get(b)
            if ia is None or ib is None or ia == ib:
                return
            succ[ia].append(ib)
            indeg[ib] += 1

        for i, order in enumerate(orders[:s]):
            for prev, nxt in zip(order, order[1:]):
                add_edge((i, *prev), (i, *nxt))
        for i, kind, j in nodes:
            if kind == "F":
                if i > 0:
                    add_edge((i - 1, "F", j), (i, "F", j))
            else:
                add_edge((i, "F", j), (i, "B", j))
                if i < s - 1:
                    add_edge((i + 1, "B", j), (i, "B", j))
        # Kahn's algorithm: every node left unconsumed sits on a cycle.
        queue = deque(i for i, d in enumerate(indeg) if d == 0)
        consumed = 0
        while queue:
            a = queue.popleft()
            consumed += 1
            for b in succ[a]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    queue.append(b)
        if consumed != len(nodes):
            stuck = [nodes[i] for i, d in enumerate(indeg) if d > 0]
            sample = ", ".join(
                f"stage {i}:{kind}({j})" for i, kind, j in stuck[:4]
            )
            yield Diagnostic(
                "S001",
                Severity.ERROR,
                f"dependency cycle: {len(stuck)} task(s) can never become "
                f"ready ({sample}{', …' if len(stuck) > 4 else ''}) — the "
                "pipeline deadlocks",
                "task orders",
            )


class CanonicalOrderPass(VerifierPass):
    """S003: the order equals the named schedule's canonical enumeration."""

    name = "schedule-canonical-order"
    codes = ("S003",)

    def run(
        self, orders: Sequence[Sequence[Task]], context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        s, m = _schedule_context(context)
        schedule_name: Optional[str] = context.get("schedule_name")
        if schedule_name is None:
            return
        canonical = task_orders(schedule_name, s, m)
        for i, (got, want) in enumerate(zip(orders, canonical)):
            if list(got) == list(want):
                continue
            pos = next(
                (p for p, (a, b) in enumerate(zip(got, want)) if a != b),
                min(len(got), len(want)),
            )
            yield Diagnostic(
                "S003",
                Severity.ERROR,
                f"order deviates from canonical {schedule_name!r} at position "
                f"{pos}: got {list(got)[pos] if pos < len(got) else '<end>'}, "
                f"expected {list(want)[pos] if pos < len(want) else '<end>'}",
                f"stage {i}",
            )


#: The default schedule-check pipeline, in execution order.
SCHEDULE_PASSES = (
    TaskCompletenessPass(),
    AcyclicityPass(),
    CanonicalOrderPass(),
)


def verify_schedule_orders(
    orders: Sequence[Sequence[Task]],
    num_stages: int,
    num_microbatches: int,
    schedule_name: Optional[str] = None,
) -> VerificationReport:
    """Run every schedule check over explicit per-stage task orders.

    Passing the orders explicitly (instead of regenerating them from the
    schedule name) is what lets the negative-test harness verify *corrupted*
    orders; callers holding a plan use
    :func:`repro.verify.plan.verify_plan`, which regenerates the canonical
    orders from the plan's schedule name.
    """
    context: Dict[str, Any] = {
        "num_stages": num_stages,
        "num_microbatches": num_microbatches,
        "schedule_name": schedule_name,
    }
    return run_passes(SCHEDULE_PASSES, orders, context)
