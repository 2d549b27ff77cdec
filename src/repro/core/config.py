"""Configuration of the HAP planner (synthesizer + load balancer)."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional


def verify_default() -> bool:
    """Default of :attr:`SynthesisConfig.verify_after_plan`.

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
    properties as a bit mask over bits recycled over ref lifetimes, and the
    completed and communicated nodes as bit masks over graph positions — plus
    its costs.  No flag changes that representation, and bit order never
    orders the search.

    Attributes:
        enable_sfb: include the duplicated-computation MatMul rule that makes
            sufficient factor broadcasting reachable (Sec. 4.4).
        enable_grouped_all_gather: include the grouped-Broadcast
            implementation of All-Gather as an alternative instruction.  The
            theory then holds both implementations of each sharded to
            replicated conversion, and synthesis enables a missing
            precondition with the one the cost model prices lower for the
            ratios being synthesized (Sec. 2.5.1, Fig. 4), the padded one on
            a tie.  ``False`` (the baselines and the Fig. 15 ablation) leaves
            only the padded All-Gather.
        enable_replicated_sources: allow ``Placeholder()``/``Parameter()``
            (fully replicated) besides the sharded variants.
        beam_width: number of candidate distribution states the synthesizer's
            level-synchronised beam search keeps per level (one level per
            single-device node); ``None`` keeps every candidate.  The beam is
            what makes Python-side synthesis scale to the full benchmark
            models.  The exact A* search of Fig. 10,
            :meth:`~repro.core.synthesizer.ProgramSynthesizer.astar`, is a
            method rather than a setting: the oracle the tests check the
            beam search against.
        verify_after_plan: the one static-verifier switch.  Every
            :meth:`~repro.core.pipeline.HAPPlanner.plan` call checks its
            input graph and runs :func:`repro.verify.verify_program` —
            dataflow, collective legality, compute-flag and cost-accounting
            checks — on the synthesized program; the hierarchical planner
            reads the same switch from its ``synthesis`` to check
            the forward graph and run :func:`repro.verify.verify_plan` on
            the winning pipeline plan.  Either raises
            :class:`~repro.verify.base.PlanVerificationError` on any
            error-severity diagnostic.  Defaults to the ``REPRO_VERIFY``
            environment variable (on in tests); excluded from plan-cache keys
            (verification never changes the plan).
    """

    enable_sfb: bool = True
    enable_grouped_all_gather: bool = True
    enable_replicated_sources: bool = True
    beam_width: Optional[int] = 32
    verify_after_plan: bool = field(default_factory=verify_default)
    # Baseline-emulation switches (used by repro.baselines, not by HAP itself):
    # restrict the theory so only data-parallel programs exist, optionally with
    # expert parallelism for rank-3 (expert) parameters.
    force_data_parallel: bool = False
    expert_parallel_parameters: bool = False

    def __post_init__(self) -> None:
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError(f"beam_width must be None or >= 1, got {self.beam_width}")
