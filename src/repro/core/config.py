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
    :func:`~repro.core.rules.build_theory`), so ``enable_sfb``,
    ``enable_replicated_sources`` and ``min_shard_dim_size`` have no effect
    there; ``force_data_parallel`` keeps its restricted theory.

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
        min_shard_dim_size: tensor dimensions smaller than this are never
            considered as sharding dimensions.
        max_search_steps: hard cap on A* iterations (safety valve).
        beam_width: number of candidate distribution states kept per level by
            the beam search (and cap on the open list of the A* search);
            ``None`` keeps every candidate.
        search_strategy: ``"beam"`` (default) runs a level-synchronised beam
            search — one level per single-device node, keeping the
            ``beam_width`` cheapest distribution states per level; this is
            what makes Python-side synthesis scale to the full benchmark
            models.  ``"astar"`` runs the priority-queue search of Fig. 10.
        follow_topological_order: when True (the default) computation nodes
            are emulated following one fixed topological order of the
            single-device graph and communication rules are only applied when
            they enable the next node.  This is the reproduction's analogue of
            the paper's search-time optimisations for large models: it
            preserves the per-node sharding/communication choices (the
            decisions that matter for cost) while removing the combinatorial
            freedom of interleaving unrelated instructions.  Setting it to
            False recovers the unrestricted search of Fig. 10, which is only
            practical for small graphs in pure Python.
        use_subsumption_pruning: prune programs whose property set is a subset
            of a cheaper program's (lines 9-14 of Fig. 10) in addition to the
            exact-state dominance check.
        enable_rule_indexing: precompute candidate-rule indexes (completion
            bitmasks, per-node topological candidate lists, per-property
            enabling-collective lists, consumer liveness masks) so the search
            never scans the full rule list per expansion.  Purely an
            implementation speed-up: the candidate sets, their order, and
            therefore the synthesized program are identical with the flag off.
        enable_pareto_store: store the per-state-key undominated cost vectors
            in a sum-sorted Pareto front with early-exit dominance checks
            instead of a flat list scanned in full.  The dominance predicate
            (and its tolerance) is unchanged, so accept/reject decisions — and
            the synthesized program — are identical.
        enable_cost_memoization: memoize per-(rule, sharding-ratio-signature)
            cost-model evaluations across expansions.  The cached values are
            replayed in the original per-instruction order, so the accumulated
            floating-point costs are bit-identical to the unmemoized path.
        enable_vectorized_cost: rank beam candidates with numpy array
            arithmetic (stacked per-state cost vectors, a stable lexsort)
            instead of per-candidate Python ``zip`` loops.  The ranking key —
            ``(closed + open-stage critical path, total device work)`` with
            left-to-right float accumulation — is computed by the exact same
            elementwise operations in the exact same order, so the surviving
            beam (and therefore the synthesized program) is bit-identical;
            ``tests/test_optimization_parity.py`` enforces it.
        enable_block_reuse: detect repeated subgraph blocks (transformer
            layers, their backward blocks, per-layer optimizer updates) in the
            topological emulation order and replay the beam-search decisions
            of the first occurrence across the later ones instead of
            re-expanding the full per-level candidate set.  Every replayed
            step re-runs the exact cost model on the occurrence's own rules,
            and replay is guarded by a structural entry signature — any
            mismatch falls back to full expansion (and re-records the block),
            so the synthesized program is identical to the flag-off path.
            Only the level-synchronised beam search uses it.
        verify_after_plan: run the static program verifier
            (:func:`repro.verify.verify_program` — dataflow, collective
            legality, compute-flag and cost-accounting checks) on the
            synthesized program at the end of every
            :meth:`~repro.core.pipeline.HAPPlanner.plan` call, raising
            :class:`~repro.verify.base.PlanVerificationError` on any
            error-severity diagnostic.  Defaults to the ``REPRO_VERIFY``
            environment variable (on in tests); excluded from plan-cache keys
            (verification never changes the plan).
        synthesis_workers: worker processes used to expand each beam level in
            parallel (1 = serial, the default).  Each level shards the
            entering states across a persistent fork-based pool shared with
            ``planner_workers`` (see :mod:`repro.core.workerpool`); workers
            return compactly encoded children and the parent merges and ranks
            them in serial generation order, so the surviving beam — and the
            synthesized program, its cost, and the ``expanded_states`` /
            ``generated_states`` counters — are bit-identical to serial.
            Only the level-synchronised beam search uses it (A* ignores the
            flag), replayed block-reuse occurrences skip the pool, and the
            count is clamped to the process budget so nesting under
            ``planner_workers`` never oversubscribes the machine.  Excluded
            from plan-cache keys (parallelism never changes the plan).
    """

    enable_sfb: bool = True
    enable_grouped_all_gather: bool = True
    enable_replicated_sources: bool = True
    min_shard_dim_size: int = 2
    max_search_steps: int = 2_000_000
    beam_width: Optional[int] = 32
    follow_topological_order: bool = True
    use_subsumption_pruning: bool = False
    search_strategy: str = "beam"
    # Hot-path optimisation switches (all result-identical; kept individually
    # toggleable for A/B benchmarking — see benchmarks/bench_synthesis.py).
    enable_rule_indexing: bool = True
    enable_pareto_store: bool = True
    enable_cost_memoization: bool = True
    enable_vectorized_cost: bool = True
    enable_block_reuse: bool = False
    verify_after_plan: bool = field(default_factory=verify_default)
    # Baseline-emulation switches (used by repro.baselines, not by HAP itself):
    # restrict the theory so only data-parallel programs exist, optionally with
    # expert parallelism for rank-3 (expert) parameters.
    force_data_parallel: bool = False
    expert_parallel_parameters: bool = False
    synthesis_workers: int = 1

    def __post_init__(self) -> None:
        if self.synthesis_workers < 1:
            raise ValueError(
                f"synthesis_workers must be >= 1, got {self.synthesis_workers}"
            )


@dataclass
class LoadBalancerConfig:
    """Knobs of the LP-based sharding-ratio optimiser (Sec. 5).

    Attributes:
        num_segments: number of model segments that receive independent
            sharding ratios (Sec. 5.2); 1 reproduces the base case of Sec. 5.1.
        respect_memory: add per-device memory-capacity constraints to the LP.
        solver_method: scipy ``linprog`` method.
        enable_vectorized_cost: price ratio vectors through the batched
            (numpy-stacked) cost-model path: the LP polish re-prices the
            normalised solution in one :meth:`CostModel.evaluate_many` pass
            (``LoadBalanceResult.polished_objective``) and the planner's
            per-round (Q, B) pricing evaluates both ratio assignments of a
            round in a single batched call.  The batched path accumulates
            floats stage by stage in the scalar path's exact operation order,
            so every reported cost is bit-identical with the flag off;
            ``tests/test_optimization_parity.py`` enforces it.
    """

    num_segments: int = 1
    respect_memory: bool = False
    solver_method: str = "highs"
    enable_vectorized_cost: bool = True


@dataclass
class PlannerConfig:
    """Configuration of the full iterative optimisation (Sec. 3.1).

    Attributes:
        max_rounds: maximum number of (Q, B) alternation rounds.
        convergence_tolerance: relative cost improvement below which the
            alternation stops.
        synthesis: synthesizer configuration.
        load_balancer: load-balancer configuration.
        enable_load_balancer: if False the initial (computation-proportional)
            ratios are kept — the "Q"-only ablation point.
        enable_synthesizer: if False a pure data-parallel program is used —
            the "B"-only ablation point.
    """

    max_rounds: int = 4
    convergence_tolerance: float = 1e-3
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    load_balancer: LoadBalancerConfig = field(default_factory=LoadBalancerConfig)
    enable_load_balancer: bool = True
    enable_synthesizer: bool = True
