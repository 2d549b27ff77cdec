"""Pass framework of the static plan verifier.

The verifier is an *independent* analysis layer: it re-derives the invariants
the synthesizer and hierarchical planner are supposed to maintain — dataflow
well-formedness of :class:`~repro.core.program.DistributedProgram` and
structural consistency of :class:`~repro.core.hierarchical.HierarchicalPlan`
— from first principles, without trusting the machinery that produced them.
A bug in the synthesizer or in cache remapping therefore
surfaces as a :class:`Diagnostic` instead of a silently wrong plan.

Three building blocks:

* :class:`Diagnostic` — one finding, with a stable code (``G0xx`` graph-IR
  checks, ``P0xx`` program checks, ``L0xx`` plan checks, ``S003`` an unknown
  schedule name, ``W0xx`` warning-severity performance lints), a
  :class:`Severity` and a human-readable location.
* :class:`VerificationReport` — an ordered collection of diagnostics plus the
  names of the passes that ran; ``ok`` means *no error-severity findings*.
* :class:`VerifierPass` — one analysis; subclasses declare the codes they can
  emit and implement :meth:`VerifierPass.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Iterable, List, Set, Tuple


class Severity(Enum):
    """How bad a finding is: only errors make a report fail."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding.

    Attributes:
        code: stable diagnostic code (``G001`` … ``G006``, ``P001`` …
            ``P008``, ``L001`` … ``L004``, ``S003``, ``W001`` … ``W004``,
            ``W006``); tests and tooling key on it.  ``S001``, ``S002`` and
            ``W005`` are retired, not reused.
        severity: :class:`Severity` of the finding.
        message: human-readable description of the violated invariant.
        location: where in the artifact the finding anchors (instruction
            index, stage/chunk coordinates, schedule name, …).
    """

    code: str
    severity: Severity
    message: str
    location: str = ""

    def describe(self) -> str:
        """One-line rendering used by report listings and the CLI."""
        loc = f" @ {self.location}" if self.location else ""
        return f"[{self.code}/{self.severity.value}]{loc} {self.message}"


@dataclass
class VerificationReport:
    """The outcome of running one or more verifier passes."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    passes_run: List[str] = field(default_factory=list)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity diagnostic was reported."""
        return not self.errors

    def codes(self) -> Set[str]:
        """The distinct diagnostic codes present in the report."""
        return {d.code for d in self.diagnostics}

    def add(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    def merge(self, other: VerificationReport, prefix: str = "") -> None:
        """Fold another report into this one, optionally re-anchoring locations.

        ``prefix`` is prepended to every merged diagnostic's location so a
        plan-level report can embed per-chunk program reports without losing
        which chunk a finding came from.
        """
        for d in other.diagnostics:
            if prefix:
                location = f"{prefix}: {d.location}" if d.location else prefix
                d = Diagnostic(d.code, d.severity, d.message, location)
            self.diagnostics.append(d)
        self.passes_run.extend(p for p in other.passes_run if p not in self.passes_run)

    def describe(self) -> str:
        """Readable multi-line summary of the report."""
        header = (
            f"verification {'OK' if self.ok else 'FAILED'}: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s) "
            f"from {len(self.passes_run)} pass(es)"
        )
        lines = [header]
        lines.extend("  " + d.describe() for d in self.diagnostics)
        return "\n".join(lines)


class PlanVerificationError(RuntimeError):
    """Raised by the ``verify_after_plan`` hooks when verification fails.

    Carries the full :class:`VerificationReport` so callers (and test
    failures) see every diagnostic, not just the first.
    """

    def __init__(self, report: VerificationReport) -> None:
        super().__init__(report.describe())
        self.report = report


class VerifierPass:
    """One static analysis over a program, plan, or schedule artifact.

    Subclasses set :attr:`name`, declare the diagnostic :attr:`codes` they can
    emit, and implement :meth:`run`, which receives the artifact under
    analysis plus a context dict of auxiliary inputs (cluster, ratios, the
    original forward graph, …) and yields diagnostics.
    """

    name: str = "abstract"
    #: Diagnostic codes this pass can emit (documentation + CLI listing).
    codes: Tuple[str, ...] = ()

    def run(self, subject: Any, context: Dict[str, Any]) -> Iterable[Diagnostic]:
        raise NotImplementedError


def run_passes(
    passes: Iterable[VerifierPass], subject: Any, context: Dict[str, Any]
) -> VerificationReport:
    """Run a pass pipeline over one artifact and collect the report.

    A pass that crashes is itself a verification failure — the artifact was
    malformed enough to break the analysis — reported as an error diagnostic
    carrying the pass's first declared code (suffix ``/crash`` in the
    location) rather than an exception escaping to the caller.
    """
    report = VerificationReport()
    for p in passes:
        report.passes_run.append(p.name)
        try:
            report.extend(p.run(subject, context))
        except Exception as exc:  # noqa: BLE001 - any crash means "malformed"
            code = p.codes[0] if p.codes else "X000"
            report.add(
                Diagnostic(
                    code=code,
                    severity=Severity.ERROR,
                    message=f"pass {p.name!r} crashed on malformed input: {exc!r}",
                    location=f"{p.name}/crash",
                )
            )
    return report
