"""Configuration of the HAP planner (synthesizer + load balancer)."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional


def verify_default() -> bool:
    """Default of the ``verify_after_plan`` flags.

    Reads the ``REPRO_VERIFY`` environment variable so test runs can turn the
    static verifier on for every plan any test builds (``tests/conftest.py``
    sets it) without threading the flag through every config construction.
    Unset/0/false means off — production planning opts in explicitly.
    """
    return os.environ.get("REPRO_VERIFY", "0").strip().lower() not in (
        "",
        "0",
        "false",
        "no",
    )


@dataclass
class SynthesisConfig:
    """Knobs of the program synthesizer and its background theory.

    The defaults correspond to the full HAP system; the ablation study
    (Fig. 15) switches individual features off.

    On a one-device cluster the theory is the single-device program's (see
    :func:`~repro.core.rules.build_theory`), so ``enable_sfb`` and
    ``enable_replicated_sources`` have no effect there;
    ``force_data_parallel`` keeps its restricted theory.

    Every search, whatever the flags, holds a state as three ints — the live
    properties as a bit mask over the theory's property index, and the
    completed and communicated nodes as bit masks over graph positions — plus
    its costs.  No flag changes that representation, and bit order never
    orders the search.

    Attributes:
        enable_sfb: include the duplicated-computation MatMul rule that makes
            sufficient factor broadcasting reachable (Sec. 4.4).
        enable_grouped_all_gather: include the grouped-Broadcast
            implementation of All-Gather as an alternative instruction.
        enable_replicated_sources: allow ``Placeholder()``/``Parameter()``
            (fully replicated) besides the sharded variants.
        beam_width: number of candidate distribution states kept per level by
            the beam search (and cap on the open list of the A* search);
            ``None`` keeps every candidate.
        search_strategy: ``"beam"`` (default) runs a level-synchronised beam
            search — one level per single-device node, keeping the
            ``beam_width`` cheapest distribution states per level; this is
            what makes Python-side synthesis scale to the full benchmark
            models.  ``"astar"`` runs the priority-queue search of Fig. 10.
        follow_topological_order: A* only.  When True (the default) the A*
            search emulates computation nodes following one fixed
            topological order of the single-device graph and applies
            communication rules only when they enable the next node.  This is
            the reproduction's analogue of the paper's search-time
            optimisations for large models: it preserves the per-node
            sharding/communication choices (the decisions that matter for
            cost) while removing the combinatorial freedom of interleaving
            unrelated instructions.  Setting it to False recovers the
            unrestricted search of Fig. 10, which is only practical for small
            graphs in pure Python.  The beam search always walks the
            topological order, replaying repeated blocks (transformer layers,
            their backward blocks, per-layer optimizer updates) from the
            decisions recorded on an earlier occurrence, and ignores the flag.
        verify_after_plan: run the static program verifier
            (:func:`repro.verify.verify_program` — dataflow, collective
            legality, compute-flag and cost-accounting checks) on the
            synthesized program at the end of every
            :meth:`~repro.core.pipeline.HAPPlanner.plan` call, raising
            :class:`~repro.verify.base.PlanVerificationError` on any
            error-severity diagnostic.  Defaults to the ``REPRO_VERIFY``
            environment variable (on in tests); excluded from plan-cache keys
            (verification never changes the plan).
    """

    enable_sfb: bool = True
    enable_grouped_all_gather: bool = True
    enable_replicated_sources: bool = True
    beam_width: Optional[int] = 32
    follow_topological_order: bool = True
    search_strategy: str = "beam"
    verify_after_plan: bool = field(default_factory=verify_default)
    # Baseline-emulation switches (used by repro.baselines, not by HAP itself):
    # restrict the theory so only data-parallel programs exist, optionally with
    # expert parallelism for rank-3 (expert) parameters.
    force_data_parallel: bool = False
    expert_parallel_parameters: bool = False

    def __post_init__(self) -> None:
        if self.search_strategy not in ("beam", "astar"):
            raise ValueError(
                f"search_strategy must be 'beam' or 'astar', got {self.search_strategy!r}"
            )
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError(f"beam_width must be None or >= 1, got {self.beam_width}")


@dataclass
class LoadBalancerConfig:
    """Knobs of the LP-based sharding-ratio optimiser (Sec. 5).

    The LP solves for one sharding-ratio vector per program (the base case of
    Sec. 5.1); synthesis, the runtime and the simulator all read that one
    vector.

    Attributes:
        respect_memory: add per-device memory-capacity constraints to the LP.
    """

    respect_memory: bool = False


@dataclass
class PlannerConfig:
    """Configuration of the full iterative optimisation (Sec. 3.1).

    Attributes:
        max_rounds: maximum number of (Q, B) alternation rounds.  Known
            defect: the alternation never runs a second round.  The previous
            cost starts at ``inf``, so round 1 always passes the convergence
            test (``inf - cost <= tolerance * inf``, with
            :data:`~repro.core.pipeline.CONVERGENCE_TOLERANCE`) and
            :meth:`HAPPlanner.plan` stops; any ``max_rounds >= 1`` yields
            ``len(plan.rounds) == 1``.
        synthesis: synthesizer configuration.
        load_balancer: load-balancer configuration.
        enable_load_balancer: if False the initial (computation-proportional)
            ratios are kept — the "Q"-only ablation point.
    """

    max_rounds: int = 4
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    load_balancer: LoadBalancerConfig = field(default_factory=LoadBalancerConfig)
    enable_load_balancer: bool = True

    def __post_init__(self) -> None:
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
