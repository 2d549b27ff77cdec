"""Program checks: is a synthesized :class:`DistributedProgram` well-formed?

These passes re-derive the Hoare-triple invariants of the paper's background
theory (Fig. 8/9) directly from the instruction sequence, independently of the
synthesizer:

* ``P001`` — def-before-use dataflow: every consumed ``(ref, state)`` property
  must have been established by an earlier instruction.
* ``P002`` — single emulation: no graph node is emulated by two computation
  instructions.
* ``P003`` — completeness: every non-source graph node is emulated, and every
  instruction refers to a node of the graph and matches it (same op, output
  on the node, inputs on the node's inputs) — a program renamed by a wrong
  node pairing is otherwise self-consistent.
* ``P004`` — collective legality: each :class:`CommInstruction` is a valid
  ``DistState`` transition per the rule table (kind, dims, same ref on both
  sides, MoE capacity tensors restricted to All-To-All).
* ``P005`` — communication budget: at most one paid collective per reference
  tensor (the paper's optimisation; local ``slice`` is exempt).
* ``P006`` — replicated-compute flag soundness: ``flops_sharded`` must equal
  "some input or the output is sharded" (the invariant every rule-generated
  variant satisfies, including SFB's duplicated MatMul and fused sources).
* ``P007`` — final property set: every property the program claims in
  ``program.properties`` was actually established by some instruction.
* ``P008`` — cost-accounting cross-check: an independent serialized
  re-derivation of the program's flops/bytes timing (alpha-beta collective
  formulas + per-device flops shares, re-implemented here) must agree with
  :meth:`CostModel.evaluate` to within floating-point tolerance.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Optional, Sequence, Set

from ..cluster.spec import ClusterSpec
from ..collectives.cost import CollectiveCostModel, CollectiveKind
from ..core.costmodel import CostModel
from ..core.instructions import CommInstruction, CompInstruction, is_source_op
from ..core.program import DistributedProgram
from ..core.properties import Property
from ..core.variants import moe_restricted_refs
from .base import Diagnostic, Severity, VerificationReport, VerifierPass, run_passes

#: Relative tolerance of the P008 cost cross-check.  The cost model and the
#: re-derivation compute the same piecewise-linear quantities in different
#: operation orders, so they agree to float rounding, not bit-exactly.
COST_RTOL = 1e-6


def _where(idx: int, instr) -> str:
    """Location of instruction ``idx`` in a diagnostic.

    Built only when a diagnostic is emitted: formatting it for every
    instruction was most of a clean pass's time.
    """
    return f"instr {idx}: {instr.describe()}"


class DataflowPass(VerifierPass):
    """P001/P002/P003/P007: def-before-use, single emulation, completeness."""

    name = "program-dataflow"
    codes = ("P001", "P002", "P003", "P007")

    def run(
        self, program: DistributedProgram, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        graph = program.graph
        established: Set[Property] = set()
        emulated: Set[str] = set()
        for idx, instr in enumerate(program.instructions):
            if isinstance(instr, CompInstruction):
                if instr.node not in graph:
                    yield Diagnostic(
                        "P003",
                        Severity.ERROR,
                        f"instruction emulates unknown node {instr.node!r}",
                        _where(idx, instr),
                    )
                    continue
                node = graph[instr.node]
                if (
                    instr.op != node.op
                    or instr.output.ref != node.name
                    or tuple(p.ref for p in instr.inputs) != tuple(node.inputs)
                ):
                    yield Diagnostic(
                        "P003",
                        Severity.ERROR,
                        f"instruction does not match graph node {node.name!r} "
                        f"({node.op} of {list(node.inputs)})",
                        _where(idx, instr),
                    )
                if instr.node in emulated:
                    yield Diagnostic(
                        "P002",
                        Severity.ERROR,
                        f"node {instr.node!r} emulated more than once",
                        _where(idx, instr),
                    )
                emulated.add(instr.node)
                if not is_source_op(instr.op):
                    for p in instr.inputs:
                        if p not in established:
                            yield Diagnostic(
                                "P001",
                                Severity.ERROR,
                                f"input {p.ref}|{p.state} consumed before any "
                                "instruction established it",
                                _where(idx, instr),
                            )
                established.add(instr.output)
            else:  # CommInstruction
                if instr.input.ref not in graph:
                    yield Diagnostic(
                        "P003",
                        Severity.ERROR,
                        f"collective over unknown tensor {instr.input.ref!r}",
                        _where(idx, instr),
                    )
                    continue
                if instr.input not in established:
                    yield Diagnostic(
                        "P001",
                        Severity.ERROR,
                        f"collective consumes {instr.input.ref}|{instr.input.state} "
                        "before any instruction established it",
                        _where(idx, instr),
                    )
                established.add(instr.output)
        missing = [
            node.name
            for node in graph
            if not is_source_op(node.op) and node.name not in emulated
        ]
        for name in missing:
            yield Diagnostic(
                "P003",
                Severity.ERROR,
                f"graph node {name!r} is never emulated by the program",
                f"node {name}",
            )
        for p in program.properties:
            if p not in established:
                yield Diagnostic(
                    "P007",
                    Severity.ERROR,
                    f"final property {p.ref}|{p.state} was never established "
                    "by any instruction",
                    f"property {p.ref}",
                )


class CollectiveLegalityPass(VerifierPass):
    """P004/P005: every collective is a legal ``DistState`` transition."""

    name = "program-collectives"
    codes = ("P004", "P005")

    def run(
        self, program: DistributedProgram, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        restricted = moe_restricted_refs(program.graph)
        communicated: Set[str] = set()
        for idx, instr in enumerate(program.instructions):
            if not isinstance(instr, CommInstruction):
                continue
            if instr.input.ref != instr.output.ref:
                yield Diagnostic(
                    "P004",
                    Severity.ERROR,
                    f"collective changes the reference tensor "
                    f"({instr.input.ref!r} -> {instr.output.ref!r}); collectives "
                    "only change distribution state",
                    _where(idx, instr),
                )
                continue
            yield from self._check_transition(idx, instr, instr.input.ref in restricted)
            if instr.kind is not CollectiveKind.SLICE:
                if instr.input.ref in communicated:
                    yield Diagnostic(
                        "P005",
                        Severity.ERROR,
                        f"tensor {instr.input.ref!r} is communicated more than "
                        "once (one-collective-per-tensor budget)",
                        _where(idx, instr),
                    )
                communicated.add(instr.input.ref)

    @staticmethod
    def _check_transition(
        idx: int, instr: CommInstruction, restricted: bool
    ) -> Iterable[Diagnostic]:
        src, dst = instr.input.state, instr.output.state
        kind = instr.kind

        def illegal(reason: str) -> Diagnostic:
            return Diagnostic(
                "P004",
                Severity.ERROR,
                f"{kind.value} is not a legal {src} -> {dst} transition: {reason}",
                _where(idx, instr),
            )

        if restricted and kind is not CollectiveKind.ALL_TO_ALL:
            yield illegal(
                "MoE capacity tensors may only be re-distributed with All-To-All"
            )
            return
        if kind is CollectiveKind.ALL_REDUCE:
            if not (src.is_partial and dst.is_replicated):
                yield illegal("All-Reduce requires partial -> replicated")
        elif kind is CollectiveKind.REDUCE_SCATTER:
            if not (src.is_partial and dst.is_sharded):
                yield illegal("Reduce-Scatter requires partial -> sharded")
            elif instr.dim != dst.dim:
                yield illegal(
                    f"scatter dim {instr.dim} does not match output shard dim {dst.dim}"
                )
        elif kind in (CollectiveKind.ALL_GATHER, CollectiveKind.ALL_GATHER_GROUPED):
            if not (src.is_sharded and dst.is_replicated):
                yield illegal("All-Gather requires sharded -> replicated")
            elif instr.dim != src.dim:
                yield illegal(
                    f"gather dim {instr.dim} does not match input shard dim {src.dim}"
                )
        elif kind is CollectiveKind.ALL_TO_ALL:
            if not (src.is_sharded and dst.is_sharded and src.dim != dst.dim):
                yield illegal(
                    "All-To-All requires sharded -> sharded across distinct dims"
                )
            elif instr.dim != src.dim or instr.dim2 != dst.dim:
                yield illegal(
                    f"dims ({instr.dim} -> {instr.dim2}) do not match the state "
                    f"transition ({src.dim} -> {dst.dim})"
                )
        elif kind is CollectiveKind.SLICE:
            if not (src.is_replicated and dst.is_sharded):
                yield illegal("slice requires replicated -> sharded")
            elif instr.dim != dst.dim:
                yield illegal(
                    f"slice dim {instr.dim} does not match output shard dim {dst.dim}"
                )
        else:
            yield illegal("kind is not part of the synthesis rule table")


class ComputeFlagPass(VerifierPass):
    """P006: ``flops_sharded`` matches the instruction's sharding structure."""

    name = "program-compute-flags"
    codes = ("P006",)

    def run(
        self, program: DistributedProgram, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        for idx, instr in enumerate(program.instructions):
            if not isinstance(instr, CompInstruction):
                continue
            expected = any(p.state.is_sharded for p in instr.inputs) or (
                instr.output.state.is_sharded
            )
            if instr.flops_sharded != expected:
                yield Diagnostic(
                    "P006",
                    Severity.ERROR,
                    f"flops_sharded={instr.flops_sharded} but "
                    f"{'some input/output is sharded' if expected else 'nothing is sharded'} "
                    "— per-device flop accounting would be wrong",
                    _where(idx, instr),
                )


class CostCrossCheckPass(VerifierPass):
    """P008: independent flops/bytes re-derivation vs. ``CostModel`` accounting.

    Re-implements the serialized timing model from scratch — alpha-beta
    collective formulas over the reference tensor's bytes, per-device flop
    shares, machine-level intra-device synchronisation — and walks the
    program's synchronisation stages (``comm + max_j comp_j`` per stage,
    summed).  The result must match ``CostModel.evaluate(..., overlap=0.0)``,
    whose linearised per-stage coefficients take a very different code path.
    A disagreement means one side mis-accounts some instruction — exactly the
    corruption class a stale cache or a bad remap introduces.
    """

    name = "program-cost-crosscheck"
    codes = ("P008",)

    def run(
        self, program: DistributedProgram, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        cluster: Optional[ClusterSpec] = context.get("cluster")
        ratios: Optional[Sequence[float]] = context.get("ratios")
        if cluster is None or ratios is None:
            return
        derived = _rederive_serialized_time(program, cluster, ratios)
        reported = CostModel(program.graph, cluster).evaluate(
            program, list(ratios), overlap=0.0
        )
        if not math.isclose(
            derived, reported.total, rel_tol=COST_RTOL, abs_tol=1e-12
        ):
            yield Diagnostic(
                "P008",
                Severity.ERROR,
                f"independent cost re-derivation ({derived:.9g}s) disagrees with "
                f"CostModel accounting ({reported.total:.9g}s)",
                "program cost",
            )


def _rederive_serialized_time(
    program: DistributedProgram, cluster: ClusterSpec, ratios: Sequence[float]
) -> float:
    """Serialized per-iteration time, re-derived from first principles.

    Same physical model as :class:`~repro.core.costmodel.CostModel` with
    ``overlap=0`` — per stage, the synchronising collective plus the slowest
    device's compute — but computed instruction by instruction from the graph's
    flops/bytes and the collective formulas, without the linearised
    stage-coefficient machinery.
    """
    collectives = CollectiveCostModel(cluster)
    device_flops = cluster.device_flops()
    devices = cluster.virtual_devices
    graph = program.graph
    total = 0.0
    for stage in program.stages():
        comm = 0.0
        if stage.comm is not None:
            comm = collectives.collective_time(
                stage.comm.kind,
                float(graph[stage.comm.input.ref].spec.size_bytes),
                ratios,
            )
            # Gather/scatter step inside machine-level virtual devices.
            largest = graph[stage.comm.input.ref].spec.size_bytes * max(ratios)
            intra = 0.0
            for device in devices:
                if device.num_gpus > 1:
                    g = device.num_gpus
                    intra = max(
                        intra, 2.0 * (g - 1) / g * largest / device.intra_bandwidth
                    )
            comm += intra
        comp = [0.0] * len(devices)
        for comp_instr in stage.comps:
            if isinstance(comp_instr, CommInstruction):
                continue  # local slice pseudo-collective: costed as ~nothing
            flops = graph.node_flops(comp_instr.node)
            nbytes = graph[comp_instr.node].spec.size_bytes
            for j, device in enumerate(devices):
                share = ratios[j] if comp_instr.flops_sharded else 1.0
                t = flops * share / device_flops[j]
                if device.num_gpus > 1 and comp_instr.op == "sgd_update":
                    g = device.num_gpus
                    t += 2.0 * (g - 1) / g * (nbytes * share) / device.intra_bandwidth
                comp[j] += t
        total += comm + max(comp)
    return total


#: The default program-check pipeline, in execution order.
PROGRAM_PASSES = (
    DataflowPass(),
    CollectiveLegalityPass(),
    ComputeFlagPass(),
    CostCrossCheckPass(),
)


def verify_program(
    program: DistributedProgram,
    cluster: Optional[ClusterSpec] = None,
    ratios: Optional[Sequence[float]] = None,
    check_cost: bool = True,
) -> VerificationReport:
    """Run every program check over one distributed program.

    Args:
        program: the program to verify.
        cluster: target cluster; enables the P008 cost cross-check.
        ratios: sharding ratios the program was priced with (P008).
        check_cost: set False to skip the (comparatively expensive) P008
            re-derivation — e.g. on the cache-hit fast path.
    """
    context: Dict[str, Any] = {}
    if check_cost and cluster is not None and ratios is not None:
        context["cluster"] = cluster
        context["ratios"] = ratios
    return run_passes(PROGRAM_PASSES, program, context)
