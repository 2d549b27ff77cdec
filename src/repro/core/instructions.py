"""The distributed instruction set (Fig. 8 of the paper).

A distributed program is a sequence of instructions of two flavours:

* :class:`CompInstruction` — run an operator on every device over local
  tensors.  Specialised source forms (``Placeholder-Shard(d)``,
  ``Parameter-Shard(d)``) are represented as a regular ``placeholder`` /
  ``parameter`` computation whose output state is *sharded*.
* :class:`CommInstruction` — run a collective (All-Reduce, padded All-Gather,
  grouped-Broadcast All-Gather, Reduce-Scatter, All-To-All) over a distributed
  tensor to change its state.

Each instruction records the *properties* (reference tensor + distribution
state) of its inputs and its output, which is all the SPMD runtime needs to
pick the right local operands, and all the cost model needs to account for
computation scaling and communication volume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..collectives.cost import CollectiveKind
from .properties import CachedHash, Property


@dataclass(frozen=True)
class CompInstruction(CachedHash):
    """One computation instruction executed by every device.

    Attributes:
        node: name of the single-device node this instruction emulates.
        op: operator name (normally the node's own operator).
        inputs: properties naming which distributed version of each input
            operand the instruction consumes, in operator argument order.
        output: property established for the produced distributed tensor.
        flops_sharded: True if each device only performs a ``B_j`` fraction of
            the reference node's flops (the common case when an input or the
            output is sharded); False when the computation is replicated on
            every device (e.g. the duplicated MatMul of SFB).
    """

    node: str
    op: str
    inputs: Tuple[Property, ...]
    output: Property
    flops_sharded: bool = True

    def __post_init__(self) -> None:
        # Instructions key the cost-model memo tables; cache the hash.
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        value = self._hash  # type: ignore[attr-defined]
        if value is None:  # first use (see CachedHash)
            value = hash((self.node, self.op, self.inputs, self.output, self.flops_sharded))
            object.__setattr__(self, "_hash", value)
        return value

    @property
    def is_communication(self) -> bool:
        return False

    def describe(self) -> str:
        """One-line textual rendering used by program listings."""
        args = ", ".join(f"{p.ref}|{p.state}" for p in self.inputs)
        suffix = "" if self.flops_sharded else "  # replicated compute"
        if self.op in ("placeholder", "parameter", "constant"):
            if self.output.state.is_sharded:
                return f"{self.node} = {self.op}-shard(dim={self.output.state.dim}){suffix}"
            return f"{self.node} = {self.op}(){suffix}"
        return f"{self.node} = {self.op}({args}) -> {self.output.state}{suffix}"


@dataclass(frozen=True)
class CommInstruction(CachedHash):
    """One collective communication instruction.

    Attributes:
        kind: the collective primitive (including the grouped-Broadcast
            implementation of All-Gather).
        input: property of the consumed distributed tensor.
        output: property established by the collective.
        dim: primary dimension argument (gather/scatter dimension).
        dim2: secondary dimension for All-To-All (destination dimension).
    """

    kind: CollectiveKind
    input: Property
    output: Property
    dim: Optional[int] = None
    dim2: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        value = self._hash  # type: ignore[attr-defined]
        if value is None:  # first use (see CachedHash)
            value = hash((self.kind, self.input, self.output, self.dim, self.dim2))
            object.__setattr__(self, "_hash", value)
        return value

    @property
    def node(self) -> str:
        """The reference tensor being communicated."""
        return self.input.ref

    @property
    def is_communication(self) -> bool:
        return True

    @property
    def synchronises(self) -> bool:
        """True for real collectives that act as stage boundaries (Sec. 3.2).

        The local ``slice`` pseudo-collective (replicated -> sharded) involves
        no network traffic and therefore does not synchronise the devices.
        """
        return self.kind is not CollectiveKind.SLICE

    def describe(self) -> str:
        """One-line textual rendering used by program listings."""
        dims = ""
        if self.kind is CollectiveKind.ALL_TO_ALL:
            dims = f", {self.dim} -> {self.dim2}"
        elif self.dim is not None:
            dims = f", dim={self.dim}"
        return f"{self.input.ref} : {self.input.state} --{self.kind.value}{dims}--> {self.output.state}"


Instruction = Union[CompInstruction, CommInstruction]


def is_source_op(op: str) -> bool:
    """True for operators bound to external data (no compute, no inputs)."""
    return op in ("placeholder", "parameter", "constant")
