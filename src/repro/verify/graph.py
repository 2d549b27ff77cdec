"""Graph IR checks: does a :class:`ComputationGraph` mean what it records?

The graph checker is an abstract interpreter over the operator registry
(:mod:`repro.graph.ops`, :mod:`repro.graph.grad_ops`): it re-derives every
node's output :class:`~repro.graph.tensor.TensorSpec` from the op's own shape
semantics applied to the *recorded* input specs, and diagnoses any node whose
recorded metadata disagrees with the re-derivation.  Builders, autodiff and
the hierarchical planner's stage cutter all construct graphs through
:meth:`ComputationGraph.add_node` — which runs the same inference — so a
clean graph stays clean; the checker exists for graphs that crossed a trust
boundary (a cache, a pickle, a remap, a hand-built test artifact) or were
corrupted after construction, where a stale ``spec`` would otherwise surface
as a runtime shape error deep inside synthesis.

* ``G001`` — shape mismatch: the op's inferred output shape disagrees with
  the node's recorded ``spec.shape``.
* ``G002`` — dtype mismatch: the inferred dtype disagrees with the recorded
  ``spec.dtype``.
* ``G003`` — dangling input: a node consumes a name that is not defined
  earlier in the graph (unknown, or defined only later — the insertion order
  is required to be topological).
* ``G004`` — dead node: a non-source node that nothing consumes and that is
  not a graph output / loss; the planner would synthesize and pay for a
  computation whose result is unreachable.
* ``G005`` — batch-dim inconsistency: an op mixes operands carrying two
  different propagated leading batch dimensions (batch tracking starts at
  the rank>=1 placeholders and follows ops that preserve the leading dim).
* ``G006`` — op semantics violated: unknown operator, wrong arity, or the
  op's own ``infer`` rejecting the recorded input specs outright.

:func:`verify_graph` is the entry point.  A pipeline-stage graph needs no
extra liveness roots: its boundary activations and exported upstream
gradients, consumed by *other* stages, are marked as its outputs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Set

from ..graph.graph import ComputationGraph, Node
from ..graph.ops import OpDef, OpKind, get_op
from ..graph.tensor import TensorSpec
from .base import Diagnostic, Severity, VerificationReport, VerifierPass, run_passes


def _op_def(node: Node) -> Optional[OpDef]:
    """The node's registered operator, or ``None`` when unregistered."""
    try:
        return get_op(node.op)
    except KeyError:
        return None


class OpSemanticsPass(VerifierPass):
    """G001/G002/G006: re-derive every spec from the op registry's semantics."""

    name = "graph-shapes"
    codes = ("G001", "G002", "G006")

    def run(
        self, graph: ComputationGraph, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        for node in graph:
            where = f"node {node.name} ({node.op})"
            op_def = _op_def(node)
            if op_def is None:
                yield Diagnostic(
                    "G006",
                    Severity.ERROR,
                    f"operator {node.op!r} is not in the registry",
                    where,
                )
                continue
            if op_def.num_inputs is not None and len(node.inputs) != op_def.num_inputs:
                yield Diagnostic(
                    "G006",
                    Severity.ERROR,
                    f"operator {node.op!r} takes {op_def.num_inputs} inputs, "
                    f"node has {len(node.inputs)}",
                    where,
                )
                continue
            if any(inp not in graph for inp in node.inputs):
                continue  # G003's finding; no specs to infer from
            input_specs = [graph[inp].spec for inp in node.inputs]
            try:
                derived: TensorSpec = op_def.infer(input_specs, node.attrs)
            except ValueError as exc:
                yield Diagnostic(
                    "G006",
                    Severity.ERROR,
                    f"op semantics reject the recorded inputs: {exc}",
                    where,
                )
                continue
            if derived.shape != node.spec.shape:
                yield Diagnostic(
                    "G001",
                    Severity.ERROR,
                    f"recorded shape {node.spec.shape} but {node.op} over "
                    f"{[s.shape for s in input_specs]} infers {derived.shape}",
                    where,
                )
            if derived.dtype is not node.spec.dtype:
                yield Diagnostic(
                    "G002",
                    Severity.ERROR,
                    f"recorded dtype {node.spec.dtype.value} but {node.op} "
                    f"infers {derived.dtype.value}",
                    where,
                )


class TopologyPass(VerifierPass):
    """G003/G004: def-before-use inputs and no unreachable compute."""

    name = "graph-topology"
    codes = ("G003", "G004")

    def run(
        self, graph: ComputationGraph, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        defined: Set[str] = set()
        for node in graph:
            for inp in node.inputs:
                if inp not in defined:
                    reason = (
                        "defined only later (order is not topological)"
                        if inp in graph
                        else "not a node of the graph"
                    )
                    yield Diagnostic(
                        "G003",
                        Severity.ERROR,
                        f"input {inp!r} is dangling: {reason}",
                        f"node {node.name} ({node.op})",
                    )
            defined.add(node.name)
        live: Set[str] = set(graph.outputs)
        if graph.loss is not None:
            live.add(graph.loss)
        consumers = graph.consumers()
        for node in graph:
            if node.name in live or consumers.get(node.name):
                continue
            op_def = _op_def(node)
            if op_def is not None and op_def.kind is OpKind.SOURCE:
                continue  # unused data/parameter bindings carry no compute
            yield Diagnostic(
                "G004",
                Severity.ERROR,
                "node is dead: nothing consumes it and it is not an "
                "output/loss",
                f"node {node.name} ({node.op})",
            )


#: Ops that legitimately bridge two batch spaces: MoE dispatch/combine (and
#: their gradients) reindex between token space ``[N, ...]`` and expert
#: space ``[E, C, ...]``, so their operands' leading dims never agree.
MIXED_BATCH_OPS = frozenset(
    {"moe_dispatch", "moe_combine", "moe_dispatch_grad", "moe_combine_grad"}
)


class BatchDimPass(VerifierPass):
    """G005: the leading batch dimension propagates consistently.

    Batch tracking starts at every rank>=1 placeholder (data inputs and
    pipeline-boundary activation seeds) and follows any op whose output keeps
    the common leading dimension of its batch-carrying inputs.  An op whose
    operands carry two *different* propagated batch sizes mixes tensors from
    two different batches — the classic stage-cut / reshape bug class the
    shape rules alone cannot see, because many such mixtures still have
    compatible shapes.  Ops in :data:`MIXED_BATCH_OPS` are exempt: they
    reindex between batch spaces by design.
    """

    name = "graph-batchdim"
    codes = ("G005",)

    def run(
        self, graph: ComputationGraph, context: Dict[str, Any]
    ) -> Iterable[Diagnostic]:
        batch: Dict[str, Optional[int]] = {}
        for node in graph:
            if node.op == "placeholder":
                batch[node.name] = node.spec.shape[0] if node.spec.rank >= 1 else None
                continue
            op_def = _op_def(node)
            if op_def is None or op_def.kind is OpKind.SOURCE:
                batch[node.name] = None
                continue
            if node.op in MIXED_BATCH_OPS:
                batch[node.name] = None
                continue
            carried = {
                batch[inp]
                for inp in node.inputs
                if inp in batch and batch[inp] is not None
            }
            if len(carried) > 1:
                yield Diagnostic(
                    "G005",
                    Severity.ERROR,
                    f"operands carry inconsistent batch dimensions "
                    f"{sorted(carried)}",
                    f"node {node.name} ({node.op})",
                )
                batch[node.name] = None
                continue
            b = carried.pop() if carried else None
            keeps_batch = (
                b is not None and node.spec.rank >= 1 and node.spec.shape[0] == b
            )
            batch[node.name] = b if keeps_batch else None


#: The default graph-check pipeline, in execution order.
GRAPH_PASSES = (
    TopologyPass(),
    OpSemanticsPass(),
    BatchDimPass(),
)


def verify_graph(graph: ComputationGraph) -> VerificationReport:
    """Run every graph check over one computation graph.

    Args:
        graph: the forward / training / stage graph to verify.  G004's
            liveness roots are the graph's own outputs and loss; a
            pipeline-stage graph marks its boundary refs as outputs.
    """
    return run_passes(GRAPH_PASSES, graph, {})
