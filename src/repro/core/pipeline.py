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
from typing import Dict, List, Optional, Tuple

from ..cluster.spec import ClusterSpec
from ..graph.analysis import segment_graph
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
    ratios: List[List[float]]
    synthesis_seconds: float
    balancing_seconds: float


@dataclass
class HAPPlan:
    """The final output of HAP planning.

    Attributes:
        program: the selected distributed program ``Q*``.
        ratios: the selected per-segment sharding ratios ``B*``.
        estimated_time: cost-model estimate of the per-iteration time.
        rounds: per-round optimisation history.
        segment_of: node-name -> segment map used for per-segment ratios.
        synthesis: statistics of the final synthesis run.
    """

    program: DistributedProgram
    ratios: List[List[float]]
    estimated_time: CostBreakdown
    rounds: List[OptimizationRound]
    segment_of: Optional[Dict[str, int]]
    synthesis: SynthesisResult

    @property
    def flat_ratios(self) -> List[float]:
        """Sharding ratios of the first segment."""
        return list(self.ratios[0])

    @property
    def estimated_iteration_time(self) -> float:
        return self.estimated_time.total

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
        self.segment_of: Optional[Dict[str, int]] = None
        if self.config.load_balancer.num_segments > 1:
            segments = segment_graph(graph, self.config.load_balancer.num_segments)
            self.segment_of = {
                name: idx for idx, seg in enumerate(segments) for name in seg
            }

    # -- helpers ---------------------------------------------------------------
    def _evaluate_pair(
        self,
        program: DistributedProgram,
        ratios_q: List[List[float]],
        ratios_b: List[List[float]],
    ) -> Tuple[CostBreakdown, CostBreakdown]:
        """Price a round's pre- and post-balance ratios for one program.

        Both assignments go through one :meth:`CostModel.evaluate_many`
        call, which prices them over the program's cached stage lines (the
        ones the LP load balancer just read).
        """
        sets = [(r[0], {k: seg for k, seg in enumerate(r)}) for r in (ratios_q, ratios_b)]
        pair = self.cost_model.evaluate_many(program, sets, self.segment_of)
        return pair[0], pair[1]

    def _initial_ratios(self) -> List[List[float]]:
        base = self.cluster.proportional_ratios()
        segments = self.config.load_balancer.num_segments if self.segment_of else 1
        return [list(base) for _ in range(max(segments, 1))]

    # -- main entry point ---------------------------------------------------------
    def plan(self) -> HAPPlan:
        """Run the iterative optimisation and return the best (Q, B) pair."""
        ratios = self._initial_ratios()
        best: Optional[Tuple[DistributedProgram, List[List[float]], CostBreakdown, SynthesisResult]] = None
        rounds: List[OptimizationRound] = []
        previous_cost = float("inf")

        for round_index in range(self.config.max_rounds):
            synth_start = _time.perf_counter()
            synthesis = self.synthesizer.synthesize(ratios[0])
            synth_seconds = _time.perf_counter() - synth_start
            program = synthesis.program
            ratios_q = [list(r) for r in ratios]

            balance_seconds = 0.0
            if self.config.enable_load_balancer:
                balance_start = _time.perf_counter()
                balance = self.load_balancer.optimize(program, self.cost_model, self.segment_of)
                balance_seconds = _time.perf_counter() - balance_start
                if balance.success:
                    ratios = balance.ratios
            # Evaluation is pure, so pricing the pre-balance ratios after the
            # LP (in one batched call with the post-balance ratios) yields the
            # same numbers as pricing them before it.
            cost_q, cost_b = self._evaluate_pair(program, ratios_q, ratios)

            rounds.append(
                OptimizationRound(
                    round_index=round_index,
                    cost_after_synthesis=cost_q.total,
                    cost_after_balancing=cost_b.total,
                    ratios=[list(r) for r in ratios],
                    synthesis_seconds=synth_seconds,
                    balancing_seconds=balance_seconds,
                )
            )

            if best is None or cost_b.total < best[2].total:
                best = (program, [list(r) for r in ratios], cost_b, synthesis)

            improvement = previous_cost - cost_b.total
            if improvement <= CONVERGENCE_TOLERANCE * max(previous_cost, 1e-12):
                break
            previous_cost = cost_b.total

        assert best is not None  # at least one round always runs
        program, ratios, cost, synthesis = best
        plan = HAPPlan(
            program=program,
            ratios=ratios,
            estimated_time=cost,
            rounds=rounds,
            segment_of=self.segment_of,
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
