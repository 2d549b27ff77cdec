"""Single-device computation graph.

A :class:`ComputationGraph` is the HAP input: a DAG of :class:`Node` objects
each applying one registered operator to the outputs of earlier nodes.  It is
the reproduction's stand-in for the PyTorch ``fx`` graph used by the paper.

Nodes are stored in insertion order, which is required to be a topological
order (every input of a node must already exist when the node is added); this
mirrors how tracing a PyTorch module produces a linearised program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .ops import OpDef, OpKind, get_op
from .tensor import TensorSpec


@dataclass
class Node:
    """One instruction of the single-device program.

    Attributes:
        name: unique identifier within the graph.
        op: operator name (must be registered in :mod:`repro.graph.ops`).
        inputs: names of producer nodes.
        attrs: operator attributes (shapes, strides, axes, ...).
        spec: inferred output :class:`TensorSpec`.
    """

    name: str
    op: str
    inputs: Tuple[str, ...]
    attrs: Dict[str, object]
    spec: TensorSpec

    @property
    def op_def(self) -> OpDef:
        """The registered operator definition for this node."""
        return get_op(self.op)

    @property
    def kind(self) -> OpKind:
        """Semantic category of this node's operator."""
        return self.op_def.kind

    def flops(self, input_specs: Sequence[TensorSpec]) -> float:
        """Estimated floating-point operations of this node."""
        return self.op_def.flops(input_specs, self.spec, self.attrs)


class GraphError(ValueError):
    """Raised when a graph is constructed or used inconsistently."""


class ComputationGraph:
    """A single-device tensor program represented as a DAG.

    Attributes:
        name: human-readable model name.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._nodes: Dict[str, Node] = {}
        self._order: List[str] = []
        self._outputs: List[str] = []
        self._loss: Optional[str] = None

    # -- construction --------------------------------------------------------
    def add_node(
        self,
        name: str,
        op: str,
        inputs: Sequence[str] = (),
        attrs: Optional[Mapping[str, object]] = None,
    ) -> Node:
        """Add a node and run shape inference.

        Args:
            name: unique node name.
            op: registered operator name.
            inputs: names of already-added producer nodes.
            attrs: operator attributes.

        Returns:
            The created :class:`Node`.

        Raises:
            GraphError: on duplicate names, unknown inputs, or shape errors.
        """
        if name in self._nodes:
            raise GraphError(f"duplicate node name {name!r}")
        op_def = get_op(op)
        input_specs = []
        for inp in inputs:
            if inp not in self._nodes:
                raise GraphError(f"node {name!r} references unknown input {inp!r}")
            input_specs.append(self._nodes[inp].spec)
        if op_def.num_inputs is not None and len(inputs) != op_def.num_inputs:
            raise GraphError(
                f"operator {op!r} expects {op_def.num_inputs} inputs, node {name!r} has {len(inputs)}"
            )
        attrs = dict(attrs or {})
        try:
            spec = op_def.infer(input_specs, attrs)
        except ValueError as exc:
            raise GraphError(f"shape inference failed for node {name!r} ({op}): {exc}") from exc
        node = Node(name=name, op=op, inputs=tuple(inputs), attrs=attrs, spec=spec)
        self._nodes[name] = node
        self._order.append(name)
        return node

    def mark_output(self, name: str) -> None:
        """Mark a node as a program output (e.g. an updated parameter)."""
        if name not in self._nodes:
            raise GraphError(f"cannot mark unknown node {name!r} as output")
        if name not in self._outputs:
            self._outputs.append(name)

    def mark_loss(self, name: str) -> None:
        """Mark the scalar training-loss node; it is also an output."""
        node = self[name]
        if node.spec.rank != 0:
            raise GraphError(f"loss node {name!r} must be a scalar, got {node.spec}")
        self._loss = name
        self.mark_output(name)

    # -- access ---------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __getitem__(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    def __iter__(self) -> Iterator[Node]:
        for name in self._order:
            yield self._nodes[name]

    def __len__(self) -> int:
        return len(self._order)

    @property
    def nodes(self) -> List[Node]:
        """Nodes in topological (insertion) order."""
        return [self._nodes[n] for n in self._order]

    @property
    def node_names(self) -> List[str]:
        """Node names in topological order."""
        return list(self._order)

    @property
    def outputs(self) -> List[str]:
        """Names of the program's output nodes."""
        return list(self._outputs)

    @property
    def loss(self) -> Optional[str]:
        """Name of the scalar loss node, if marked."""
        return self._loss

    def input_specs(self, node: Node) -> List[TensorSpec]:
        """Specs of a node's inputs, in order."""
        return [self._nodes[i].spec for i in node.inputs]

    # -- queries --------------------------------------------------------------
    def placeholders(self) -> List[Node]:
        """All placeholder (model/data input) nodes."""
        return [n for n in self if n.op == "placeholder"]

    def parameters(self) -> List[Node]:
        """All trainable parameter nodes."""
        return [n for n in self if n.op == "parameter"]

    def consumers(self) -> Dict[str, List[str]]:
        """Map from node name to the names of nodes that consume it."""
        out: Dict[str, List[str]] = {name: [] for name in self._order}
        for node in self:
            for inp in node.inputs:
                out[inp].append(node.name)
        return out

    def node_flops(self, name: str) -> float:
        """Flop estimate of a single node."""
        node = self[name]
        return node.flops(self.input_specs(node))

    def total_flops(self) -> float:
        """Total flops of one execution of the graph."""
        return sum(self.node_flops(n) for n in self._order)

    def parameter_count(self) -> int:
        """Total number of trainable parameter elements."""
        return sum(p.spec.numel for p in self.parameters())

    def parameter_bytes(self) -> int:
        """Total size of trainable parameters in bytes."""
        return sum(p.spec.size_bytes for p in self.parameters())

    def activation_bytes(self) -> int:
        """Total size of all non-source node outputs in bytes (peak proxy)."""
        return sum(n.spec.size_bytes for n in self if n.kind is not OpKind.SOURCE)

    def prune_dead(self) -> List[str]:
        """Remove non-source nodes whose results nothing can observe.

        A node is dead when it is not an output, not the loss, and no
        (transitively live) node consumes it.  Source nodes are kept: an
        unused placeholder or parameter is a binding, not compute, and other
        layers account for them (e.g. ``skipped_parameters`` in autodiff).
        Returns the removed names, in removal order.
        """
        roots = set(self._outputs)
        if self._loss is not None:
            roots.add(self._loss)
        removed: List[str] = []
        while True:
            consumers = self.consumers()
            dead = [
                node.name
                for node in self
                if node.name not in roots
                and not consumers[node.name]
                and node.kind is not OpKind.SOURCE
            ]
            if not dead:
                return removed
            for name in dead:
                del self._nodes[name]
                self._order.remove(name)
                removed.append(name)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError` on failure."""
        seen = set()
        for node in self:
            for inp in node.inputs:
                if inp not in seen:
                    raise GraphError(
                        f"node {node.name!r} uses input {inp!r} before it is defined"
                    )
            seen.add(node.name)
        for out in self._outputs:
            if out not in self._nodes:
                raise GraphError(f"output {out!r} is not a node")
        if self._loss is not None and self._loss not in self._nodes:
            raise GraphError(f"loss {self._loss!r} is not a node")

    def summary(self) -> str:
        """Human-readable multi-line description of the graph."""
        lines = [
            f"ComputationGraph {self.name!r}: {len(self)} nodes, "
            f"{self.parameter_count():,} parameters, {self.total_flops():.3e} flops"
        ]
        for node in self:
            ins = ", ".join(node.inputs)
            lines.append(f"  {node.name} = {node.op}({ins}) -> {node.spec}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ComputationGraph(name={self.name!r}, nodes={len(self)}, "
            f"outputs={len(self._outputs)})"
        )
