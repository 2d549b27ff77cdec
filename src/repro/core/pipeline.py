"""Iterative joint optimisation of program and sharding ratios (Sec. 3.1).

HAP alternates two optimisers:

* the program synthesizer produces the best distributed program ``Q`` for the
  current sharding ratios ``B`` (Eqn. 1), and
* the load balancer produces the best ratios ``B`` for the current program
  ``Q`` (Eqn. 2),

starting from computation-proportional ratios ``B^(0)``, stopping after
``max_rounds`` rounds or once a round improves the cost by less than
:data:`CONVERGENCE_TOLERANCE` (relative), and returning the cheapest
``(Q, B)`` pair seen.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..cluster.spec import ClusterSpec
from ..graph.graph import ComputationGraph
from .config import PlannerConfig
from .costmodel import CostBreakdown, CostModel
from .load_balancer import LoadBalancer
from .program import DistributedProgram
from .rules import build_theory
from .synthesizer import ProgramSynthesizer, SynthesisResult

#: Relative cost improvement below which the (Q, B) alternation stops.  Known
#: defect: the previous cost starts at ``inf``, so round 1 always passes this
#: test and the alternation never runs a second round (see
#: :attr:`~repro.core.config.PlannerConfig.max_rounds`).
CONVERGENCE_TOLERANCE = 1e-3


@dataclass
class OptimizationRound:
    """Record of one (Q, B) alternation round."""

    round_index: int
    cost_after_synthesis: float
    cost_after_balancing: float
    ratios: List[float]
    synthesis_seconds: float
    balancing_seconds: float


@dataclass
class HAPPlan:
    """The final output of HAP planning.

    Attributes:
        program: the selected distributed program ``Q*``.
        ratios: the selected sharding ratios ``B*`` as a one-row list,
            ``[B*]``.  A program has one ratio vector; the extra nesting is
            kept only because the end-to-end benchmark's plan digest
            iterates this field row by row.  Read :attr:`flat_ratios`.
        estimated_time: cost-model estimate of the per-iteration time.
        rounds: per-round optimisation history.
        synthesis: statistics of the final synthesis run.
    """

    program: DistributedProgram
    ratios: List[List[float]]
    estimated_time: CostBreakdown
    rounds: List[OptimizationRound]
    synthesis: SynthesisResult

    @property
    def flat_ratios(self) -> List[float]:
        """The plan's sharding ratios ``B*``, one per virtual device."""
        return list(self.ratios[0])

    def describe(self) -> str:
        """Readable plan summary."""
        lines = [
            f"HAP plan for {self.program.graph.name!r} on {self.program.num_devices} devices",
            f"  estimated per-iteration time: {self.estimated_time.total * 1e3:.2f} ms "
            f"(comm {self.estimated_time.communication * 1e3:.2f} ms, "
            f"comp {self.estimated_time.computation * 1e3:.2f} ms)",
            f"  instructions: {self.program.num_computations} compute, "
            f"{self.program.num_communications} collectives {self.program.communication_kinds()}",
            f"  ratios: {[[round(r, 3) for r in seg] for seg in self.ratios]}",
            f"  optimisation rounds: {len(self.rounds)}",
        ]
        return "\n".join(lines)


class HAPPlanner:
    """End-to-end HAP planning: theory construction, A* synthesis, LP balancing.

    The planner keeps one :class:`~repro.core.synthesizer.ProgramSynthesizer`
    for all optimisation rounds, so its per-rule caches carry across rounds.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        cluster: ClusterSpec,
        config: Optional[PlannerConfig] = None,
    ) -> None:
        self.graph = graph
        self.cluster = cluster
        self.config = config or PlannerConfig()
        if self.config.synthesis.verify_after_plan:
            # Pre-synthesis IR check: a malformed graph fails here with a
            # G-code diagnostic instead of a traceback mid-search.
            from ..verify.base import PlanVerificationError
            from ..verify.graph import verify_graph

            graph_report = verify_graph(graph)
            if not graph_report.ok:
                raise PlanVerificationError(graph_report)
        self.cost_model = CostModel(graph, cluster)
        self.theory = build_theory(graph, cluster.num_devices, self.config.synthesis)
        self.synthesizer = ProgramSynthesizer(
            graph, cluster, self.config.synthesis, theory=self.theory, cost_model=self.cost_model
        )
        self.load_balancer = LoadBalancer(cluster, self.config.load_balancer)

    # -- main entry point ---------------------------------------------------------
    def plan(self) -> HAPPlan:
        """Run the iterative optimisation and return the best (Q, B) pair."""
        ratios = list(self.cluster.proportional_ratios())
        best: Optional[
            Tuple[DistributedProgram, List[float], CostBreakdown, SynthesisResult]
        ] = None
        rounds: List[OptimizationRound] = []
        previous_cost = float("inf")

        for round_index in range(self.config.max_rounds):
            synth_start = _time.perf_counter()
            synthesis = self.synthesizer.synthesize(ratios)
            synth_seconds = _time.perf_counter() - synth_start
            program = synthesis.program
            ratios_q = ratios

            balance_seconds = 0.0
            if self.config.enable_load_balancer:
                balance_start = _time.perf_counter()
                balance = self.load_balancer.optimize(program, self.cost_model)
                balance_seconds = _time.perf_counter() - balance_start
                if balance.success:
                    ratios = balance.ratios
            # Evaluation is pure, so pricing the pre-balance ratios after the
            # LP (in one batched call with the post-balance ratios, over the
            # stage lines the LP just read) yields the same numbers as
            # pricing them before it.
            cost_q, cost_b = self.cost_model.evaluate_many(program, [ratios_q, ratios])

            rounds.append(
                OptimizationRound(
                    round_index=round_index,
                    cost_after_synthesis=cost_q.total,
                    cost_after_balancing=cost_b.total,
                    ratios=list(ratios),
                    synthesis_seconds=synth_seconds,
                    balancing_seconds=balance_seconds,
                )
            )

            if best is None or cost_b.total < best[2].total:
                best = (program, list(ratios), cost_b, synthesis)

            improvement = previous_cost - cost_b.total
            if improvement <= CONVERGENCE_TOLERANCE * max(previous_cost, 1e-12):
                break
            previous_cost = cost_b.total

        assert best is not None  # at least one round always runs
        program, ratios, cost, synthesis = best
        plan = HAPPlan(
            program=program,
            ratios=[ratios],
            estimated_time=cost,
            rounds=rounds,
            synthesis=synthesis,
        )
        if self.config.synthesis.verify_after_plan:
            # Imported lazily: repro.verify depends on this module.
            from ..verify.base import PlanVerificationError
            from ..verify.program import verify_program

            report = verify_program(plan.program, self.cluster, plan.flat_ratios)
            if not report.ok:
                raise PlanVerificationError(report)
        return plan
