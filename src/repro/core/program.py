"""Distributed-program container produced by the synthesizer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from ..graph.graph import ComputationGraph
from ..graph.ops import OpKind
from .instructions import CommInstruction, CompInstruction, Instruction
from .properties import Property

#: Pipeline phases of a program's instructions (see :meth:`instruction_phases`).
PHASE_FORWARD = "forward"
PHASE_BACKWARD = "backward"
PHASE_SYNC = "sync"


@dataclass
class Stage:
    """One synchronisation stage (Sec. 3.2): a collective followed by compute.

    The first stage of a program has no leading collective.  ``comps`` may
    also contain local ``slice`` pseudo-collectives, which cost (almost)
    nothing and do not synchronise devices.
    """

    comm: Optional[CommInstruction]
    comps: List[Instruction] = field(default_factory=list)

    @property
    def instructions(self) -> List[Instruction]:
        out: List[Instruction] = []
        if self.comm is not None:
            out.append(self.comm)
        out.extend(self.comps)
        return out

    def dependent_mask(self) -> List[bool]:
        """Which ``comps`` (transitively) consume this stage's collective output.

        The dual-stream timing model overlaps the stage's collective with the
        compute that follows it *when that compute does not need the
        collective's result* — e.g. a gradient all-reduce (sync phase, its
        consumer is the optimizer update) runs on the communication stream
        while the backward compute of earlier layers proceeds.  The mask is
        exact reference-level dependency tracking within the stage: a comp is
        dependent when any of its inputs is the collective's output or the
        output of an already-dependent comp.  Without a collective every comp
        is independent.
        """
        if self.comm is None:
            return [False] * len(self.comps)
        # Conservative reference-level taint: a comp touching the collective's
        # tensor in *any* distribution state is treated as dependent.
        mask: List[bool] = []
        tainted = {self.comm.output.ref}
        for comp in self.comps:
            inputs = (
                (comp.input,) if isinstance(comp, CommInstruction) else comp.inputs
            )
            depends = any(p.ref in tainted for p in inputs)
            mask.append(depends)
            if depends:
                tainted.add(comp.output.ref)
        return mask


@dataclass
class DistributedProgram:
    """A complete distributed program ``Q``.

    Attributes:
        graph: the single-device training graph this program emulates.
        instructions: the instruction sequence, in execution order.
        properties: the final property set ``P(Q)``.
        num_devices: number of virtual devices the program runs on.
    """

    graph: ComputationGraph
    instructions: List[Instruction]
    properties: FrozenSet[Property]
    num_devices: int

    # -- structure -------------------------------------------------------------
    def stages(self) -> List[Stage]:
        """Split the instruction sequence into synchronisation stages."""
        stages: List[Stage] = [Stage(comm=None)]
        for instr in self.instructions:
            if isinstance(instr, CommInstruction) and instr.synchronises:
                stages.append(Stage(comm=instr))
            else:
                stages[-1].comps.append(instr)
        return stages

    @property
    def num_communications(self) -> int:
        """Number of collective instructions in the program."""
        return sum(1 for i in self.instructions if i.is_communication)

    @property
    def num_computations(self) -> int:
        """Number of computation instructions in the program."""
        return len(self.instructions) - self.num_communications

    def communication_kinds(self) -> Dict[str, int]:
        """Histogram of collective kinds used by the program."""
        hist: Dict[str, int] = {}
        for instr in self.instructions:
            if isinstance(instr, CommInstruction):
                hist[instr.kind.value] = hist.get(instr.kind.value, 0) + 1
        return hist

    def instruction_phases(self, forward_nodes) -> List[str]:
        """Pipeline phase of every instruction, in instruction order.

        Used by the hierarchical planner and the pipeline-schedule simulator
        to split a stage program's time into the part that repeats per
        microbatch (``forward`` / ``backward``) and the part paid once per
        iteration (``sync``):

        * optimizer updates and parameter-source instructions are ``sync``;
        * collectives over parameters (sharded-parameter gathers) and over
          gradients consumed by an optimizer node (gradient all-reduce) are
          ``sync`` — parameters only change once per iteration and gradients
          are accumulated across microbatches;
        * everything over a node in ``forward_nodes`` is ``forward``;
        * the rest (activation gradients) is ``backward``.

        Args:
            forward_nodes: names of the graph's forward-pass nodes.
        """
        forward = set(forward_nodes)
        consumers = self.graph.consumers()
        phases: List[str] = []
        for instr in self.instructions:
            if isinstance(instr, CommInstruction):
                ref = instr.input.ref
                node = self.graph[ref]
                if node.op == "parameter":
                    phases.append(PHASE_SYNC)
                elif any(
                    self.graph[c].kind is OpKind.OPTIMIZER
                    for c in consumers.get(ref, [])
                ):
                    phases.append(PHASE_SYNC)
                elif ref in forward:
                    phases.append(PHASE_FORWARD)
                else:
                    phases.append(PHASE_BACKWARD)
            else:
                node = self.graph[instr.node]
                if node.kind is OpKind.OPTIMIZER or node.op == "parameter":
                    phases.append(PHASE_SYNC)
                elif instr.node in forward:
                    phases.append(PHASE_FORWARD)
                else:
                    phases.append(PHASE_BACKWARD)
        return phases

    def parameter_shardings(self) -> Dict[str, Optional[int]]:
        """Sharding dimension chosen for each parameter (None = replicated)."""
        out: Dict[str, Optional[int]] = {}
        for instr in self.instructions:
            if isinstance(instr, CompInstruction) and instr.op == "parameter":
                out[instr.node] = instr.output.state.dim if instr.output.state.is_sharded else None
        return out

    def describe(self) -> str:
        """Readable listing of the program, stage by stage."""
        lines = [
            f"DistributedProgram for {self.graph.name!r}: "
            f"{self.num_computations} compute + {self.num_communications} collective instructions"
        ]
        for idx, stage in enumerate(self.stages()):
            lines.append(f"-- stage {idx} --")
            for instr in stage.instructions:
                lines.append(f"  {instr.describe()}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)
