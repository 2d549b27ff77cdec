"""Joint optimisation of program and sharding ratios (Sec. 3.1).

HAP combines two optimisers:

* the program synthesizer produces the best distributed program ``Q`` for
  given sharding ratios ``B`` (Eqn. 1), and
* the load balancer produces the best ratios ``B`` for a given program ``Q``
  (Eqn. 2).

The paper alternates the two, starting from computation-proportional ratios
``B^(0)``, until the cost stops improving.  Here the alternation runs once:
one synthesis at ``B^(0)``, then one LP.  A second round, synthesizing again
at the LP's ratios, gave back the first round's program, ratios and cost bit
for bit on every problem it was measured on (see the README), so it is not
run.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cluster.spec import ClusterSpec
from ..graph.graph import ComputationGraph
from .config import SynthesisConfig
from .costmodel import CostBreakdown, CostModel
from .load_balancer import LoadBalancer
from .program import DistributedProgram
from .rules import build_theory, single_device_program
from .synthesizer import ProgramSynthesizer


@dataclass
class OptimizationRound:
    """Record of the one (Q, B) round: the cost before and after the LP."""

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
        rounds: the optimisation history: one record from :meth:`HAPPlanner.plan`,
            none from :meth:`HAPPlanner.plan_at`.
    """

    program: DistributedProgram
    ratios: List[List[float]]
    estimated_time: CostBreakdown
    rounds: List[OptimizationRound]

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
    """End-to-end HAP planning: theory construction, synthesis, LP balancing.

    :meth:`plan` synthesizes one program at the cluster's
    computation-proportional ratios and balances it with one LP (the module
    docstring says why there is no second round).  One virtual device (a
    whole machine running data parallelism inside it, Sec. 6) outside
    baseline emulation (``force_data_parallel``) builds no theory or
    synthesizer: its one program comes from :func:`single_device_program`,
    and :meth:`~repro.core.load_balancer.LoadBalancer.optimize`
    short-circuits one device.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        cluster: ClusterSpec,
        config: Optional[SynthesisConfig] = None,
    ) -> None:
        self.graph = graph
        self.cluster = cluster
        self.config = config or SynthesisConfig()
        if self.config.verify_after_plan:
            # Pre-synthesis IR check: a malformed graph fails here with a
            # G-code diagnostic instead of a traceback mid-search.
            from ..verify.base import PlanVerificationError
            from ..verify.graph import verify_graph

            graph_report = verify_graph(graph)
            if not graph_report.ok:
                raise PlanVerificationError(graph_report)
        self.cost_model = CostModel(graph, cluster)
        #: None on one virtual device outside baseline emulation: that
        #: theory holds one program (:func:`~repro.core.rules.build_theory`),
        #: which :func:`single_device_program` builds in closed form.
        self.synthesizer: Optional[ProgramSynthesizer] = None
        if cluster.num_devices > 1 or self.config.force_data_parallel:
            self.synthesizer = ProgramSynthesizer(
                graph,
                cluster,
                self.config,
                theory=build_theory(graph, cluster.num_devices, self.config),
                cost_model=self.cost_model,
            )
        self.load_balancer = LoadBalancer(cluster)

    def _program(self, ratios: Sequence[float]) -> DistributedProgram:
        """The program synthesized at ``ratios``, in closed form on one device."""
        if self.synthesizer is None:
            if len(ratios) != 1:
                raise ValueError(f"expected 1 sharding ratio, got {len(ratios)}")
            return single_device_program(self.graph)
        return self.synthesizer.synthesize(ratios).program

    # -- main entry point ---------------------------------------------------------
    def plan(self) -> HAPPlan:
        """Synthesize at proportional ratios, balance them with the LP, and
        return the program at the LP's ratios with one round record."""
        proportional = self.cluster.proportional_ratios()
        synth_start = _time.perf_counter()
        program = self._program(proportional)
        synth_seconds = _time.perf_counter() - synth_start

        balance_start = _time.perf_counter()
        ratios = self.load_balancer.optimize(program, self.cost_model).ratios
        balance_seconds = _time.perf_counter() - balance_start
        # Evaluation is pure, so pricing the pre-balance ratios after the LP
        # (in one batched call with the post-balance ratios, over the stage
        # lines the LP just read) yields the same numbers as pricing them
        # before it.
        cost_q, cost_b = self.cost_model.evaluate_many(program, [proportional, ratios])
        record = OptimizationRound(
            cost_after_synthesis=cost_q.total,
            cost_after_balancing=cost_b.total,
            ratios=list(ratios),
            synthesis_seconds=synth_seconds,
            balancing_seconds=balance_seconds,
        )
        return self.verified(HAPPlan(program, [list(ratios)], cost_b, [record]))

    def plan_at(self, ratios: Sequence[float]) -> HAPPlan:
        """One synthesis at the fixed ``ratios``, with no load balancing."""
        ratios = list(ratios)
        program = self._program(ratios)
        cost = self.cost_model.evaluate(program, ratios)
        return self.verified(HAPPlan(program, [ratios], cost, []))

    def verified(self, plan: HAPPlan) -> HAPPlan:
        """Return ``plan`` after the ``verify_after_plan`` program check.

        With the flag on, :func:`~repro.verify.verify_program` runs on the
        plan's program at its ratios and any error-severity diagnostic
        raises :class:`~repro.verify.base.PlanVerificationError`; the graph
        check ran when the planner was built.
        """
        if self.config.verify_after_plan:
            # Imported lazily: repro.verify depends on this module.
            from ..verify.base import PlanVerificationError
            from ..verify.program import verify_program

            report = verify_program(plan.program, self.cluster, plan.flat_ratios)
            if not report.ok:
                raise PlanVerificationError(report)
        return plan
