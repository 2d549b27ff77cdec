"""``python -m repro.verify``: plan and statically analyse every registry model.

For every registry model x testbed combination the CLI builds the tiny model
variant, runs the hierarchical planner, and verifies the winning plan with
the full pass pipeline: graph checks over the forward graph and every
planner-cut chunk graph (G codes), program, plan and schedule checks
(P/L/S codes, including the P008 cost cross-check), and — with ``--lint`` —
the warning-severity performance lints (W codes).  Exit status is non-zero
when any error-severity diagnostic is reported, or, under
``--strict-warnings``, when any warning is.  The CI ``lint-plans`` job
runs ``--lint --json``: it fails on any error diagnostic, then ratchets the
warnings against a committed baseline.

Usage::

    PYTHONPATH=src python -m repro.verify                 # all models x testbeds
    PYTHONPATH=src python -m repro.verify --models vit    # subset
    PYTHONPATH=src python -m repro.verify -v              # list every diagnostic
    PYTHONPATH=src python -m repro.verify --lint          # + performance lints
    PYTHONPATH=src python -m repro.verify --lint --json   # machine-readable
    PYTHONPATH=src python -m repro.verify --lint --strict-warnings
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..cluster.spec import ClusterSpec, NetworkSpec, heterogeneous_testbed, homogeneous_testbed
from ..core.config import SynthesisConfig
from ..core.hierarchical import HierarchicalConfig
from ..hap import hap_pipeline
from ..models.registry import MODEL_NAMES, build_tiny_model
from .base import VerificationReport
from .graph import verify_graph
from .lint import lint_plan
from .plan import verify_plan


@dataclass
class CaseResult:
    """Static-analysis outcome of one (model, testbed) combination.

    Attributes:
        model: registry model name.
        testbed: cluster name the plan targets.
        verify_seconds: wall time of the graph checks plus error-severity
            plan verification.
        lint_seconds: wall time of the performance lints (0 when disabled).
        report: the merged verification report.
    """

    model: str
    testbed: str
    verify_seconds: float
    lint_seconds: float
    report: VerificationReport

    def to_json(self) -> dict:
        """Machine-readable summary (the ``--json`` / CI baseline format)."""
        return {
            "model": self.model,
            "testbed": self.testbed,
            "ok": self.report.ok,
            "errors": len(self.report.errors),
            "warnings": len(self.report.warnings),
            "warning_codes": sorted(d.code for d in self.report.warnings),
            "verify_ms": round(self.verify_seconds * 1e3, 3),
            "lint_ms": round(self.lint_seconds * 1e3, 3),
        }


def _testbeds(num_gpus: int, gpus_per_machine: int) -> List[ClusterSpec]:
    return [
        heterogeneous_testbed(num_gpus=num_gpus, gpus_per_machine=gpus_per_machine),
        homogeneous_testbed(num_gpus=num_gpus, gpus_per_machine=gpus_per_machine),
    ]


def _config(beam: int) -> HierarchicalConfig:
    # Planning is the CLI's scaffolding, not its subject: the explicit
    # verify_graph()/verify_plan() below are the check, so the planner's
    # hooks are off (one switch: the hierarchical one and every chunk's).
    return HierarchicalConfig(
        synthesis=SynthesisConfig(beam_width=beam, verify_after_plan=False),
        intra_group_network=NetworkSpec(bandwidth=100e9 / 8),
        max_stages=2,
    )


def verify_registry(
    models: Sequence[str],
    num_gpus: int = 16,
    gpus_per_machine: int = 8,
    beam: int = 8,
    lint: bool = False,
) -> List[CaseResult]:
    """Plan + statically analyse each (model, testbed); one result per case.

    Every case runs the graph checker over the forward graph and every
    planner-cut chunk training graph, then the error-severity plan checks;
    with ``lint=True`` the W-code performance lints are timed separately and
    merged into the same report.
    """
    results: List[CaseResult] = []
    for name in models:
        forward = build_tiny_model(name)
        for cluster in _testbeds(num_gpus, gpus_per_machine):
            plan = hap_pipeline(forward, cluster, _config(beam))
            t0 = time.perf_counter()
            report = verify_graph(forward)
            for chunk in plan.stages:
                report.merge(
                    verify_graph(chunk.info.graph),
                    prefix=f"chunk graph {chunk.index}",
                )
            report.merge(verify_plan(plan, forward), prefix="plan")
            verify_seconds = time.perf_counter() - t0
            lint_seconds = 0.0
            if lint:
                t0 = time.perf_counter()
                lint_report = lint_plan(plan)
                lint_seconds = time.perf_counter() - t0
                report.merge(lint_report, prefix="lint")
            results.append(
                CaseResult(name, cluster.name, verify_seconds, lint_seconds, report)
            )
    return results


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify", description=__doc__
    )
    parser.add_argument(
        "--models",
        nargs="+",
        default=MODEL_NAMES,
        choices=MODEL_NAMES,
        help="registry models to verify (default: all)",
    )
    parser.add_argument(
        "--num-gpus", type=int, default=16, help="testbed GPU count"
    )
    parser.add_argument(
        "--gpus-per-machine", type=int, default=8, help="GPUs per machine"
    )
    parser.add_argument(
        "--beam", type=int, default=8, help="synthesis beam width for planning"
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="also run the W-code performance lints on every plan",
    )
    parser.add_argument(
        "--strict-warnings",
        action="store_true",
        help="exit non-zero when any warning-severity diagnostic is reported",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON document instead of status lines",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="list every diagnostic"
    )
    args = parser.parse_args(argv)

    results = verify_registry(
        args.models, args.num_gpus, args.gpus_per_machine, args.beam, lint=args.lint
    )

    failures = 0
    warned = 0
    for case in results:
        report = case.report
        if not report.ok:
            failures += 1
        if report.warnings:
            warned += 1
        if args.json:
            continue
        status = "ok" if report.ok else "FAIL"
        timing = f"verified in {case.verify_seconds * 1e3:.0f} ms"
        if args.lint:
            timing += f", linted in {case.lint_seconds * 1e3:.1f} ms"
        print(
            f"{case.model:>10s} x {case.testbed:<20s} {status:>4s}  "
            f"({len(report.errors)} error(s), {len(report.warnings)} warning(s), "
            f"{len(report.passes_run)} pass(es), {timing})"
        )
        if not report.ok or report.warnings or args.verbose:
            shown = report.diagnostics if args.verbose else report.errors + report.warnings
            for d in shown:
                print(f"    {d.describe()}")

    if args.json:
        print(json.dumps({"cases": [case.to_json() for case in results]}, indent=2))
    if failures:
        print(f"\n{failures} plan(s) failed verification", file=sys.stderr)
        return 1
    if args.strict_warnings and warned:
        print(
            f"\n{warned} plan(s) reported warnings (--strict-warnings)",
            file=sys.stderr,
        )
        return 1
    return 0
