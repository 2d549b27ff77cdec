"""Static analysis suite: graph checks, plan verification, performance lints.

The synthesizer and hierarchical planner *construct* well-formed artifacts;
this package *proves* them well-formed after the fact, re-deriving every
invariant from first principles so corruption introduced anywhere between
synthesis and use — a stale cache entry, or a bad rename in a cache
remap — surfaces as a :class:`Diagnostic` instead of a wrong
plan.  On top of the error-severity proofs, the graph checker validates the
IR *before* planning and the plan linter flags legal-but-slow plans with
warning-severity findings.  See the README's "Plan verification and static
analysis" section for the diagnostic-code tables.

Entry points:

* :func:`verify_graph` — G001–G006 over one ``ComputationGraph`` (forward,
  training, or planner-cut stage graph);
* :func:`verify_program` — P001–P008 over one ``DistributedProgram``;
* :func:`verify_plan` — L001–L004 plus per-chunk program checks and the
  S003 unknown-schedule check over one ``HierarchicalPlan`` (errors only);
* :func:`lint_plan` — the W001–W004 and W006 performance lints, the one
  lint entry point;
* ``python -m repro.verify`` — plan + verify every registry model
  (``--lint`` adds the performance lints, ``--strict-warnings`` makes
  warnings fail the run, ``--json`` emits a machine-readable report).
"""

from .base import (
    Diagnostic,
    PlanVerificationError,
    Severity,
    VerificationReport,
    VerifierPass,
    run_passes,
)
from .graph import GRAPH_PASSES, verify_graph
from .lint import LINT_PASSES, lint_plan
from .plan import PLAN_PASSES, verify_plan, verify_plan_structure
from .program import PROGRAM_PASSES, verify_program

__all__ = [
    "Diagnostic",
    "PlanVerificationError",
    "Severity",
    "VerificationReport",
    "VerifierPass",
    "run_passes",
    "GRAPH_PASSES",
    "LINT_PASSES",
    "PROGRAM_PASSES",
    "PLAN_PASSES",
    "verify_graph",
    "lint_plan",
    "verify_program",
    "verify_plan",
    "verify_plan_structure",
]
