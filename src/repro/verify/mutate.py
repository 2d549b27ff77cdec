"""Seeded-corruption helpers for the verifier's negative tests.

Each mutator takes a well-formed artifact, applies one targeted corruption of
the kind a buggy cache remap, sub-plan rename or synthesizer could
introduce, and returns ``(mutated, expected_code)`` — the diagnostic code the
verifier MUST report for the mutation.  The test harness asserts exactly
that, so the verifier's checks are pinned to real failure modes rather than
to whatever they happen to flag today.

Three families, mirroring the pass families:

* graph mutations (:data:`GRAPH_MUTATIONS`) — corrupt a
  :class:`~repro.graph.graph.ComputationGraph` behind the builder's back;
* program mutations (:data:`PROGRAM_MUTATIONS`) — corrupt a
  :class:`~repro.core.program.DistributedProgram`;
* plan mutations (:data:`PLAN_MUTATIONS`) — corrupt a
  :class:`~repro.core.hierarchical.HierarchicalPlan` in place of the planner.

All mutators deep-copy (or rebuild) their input; the original artifact is
never modified.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Callable, Dict, List, Tuple

from ..core.hierarchical import HierarchicalPlan
from ..core.instructions import CommInstruction, CompInstruction, Instruction
from ..core.plancache import remap_program
from ..core.program import DistributedProgram
from ..core.properties import DistState, Property
from ..graph.graph import ComputationGraph, Node
from ..graph.ops import OpKind, get_op
from ..graph.tensor import DType, TensorSpec


class MutationError(RuntimeError):
    """The artifact has no site the requested corruption applies to."""


def _with_instructions(
    program: DistributedProgram, instructions: List[Instruction]
) -> DistributedProgram:
    return DistributedProgram(
        graph=program.graph,
        instructions=instructions,
        properties=program.properties,
        num_devices=program.num_devices,
    )


# -- graph mutations -----------------------------------------------------------

def _last_compute_node(graph: ComputationGraph) -> Node:
    """The last non-source node of rank >= 1.

    Topological order puts it at the sink end of the graph, so in practice
    nothing consumes it and the injected defect cannot cascade into a
    consumer's re-derivation — the pinned code is the one diagnostic the
    checker must emit.
    """
    candidates = [
        node
        for node in graph
        if get_op(node.op).kind is not OpKind.SOURCE and node.spec.rank >= 1
    ]
    if not candidates:
        raise MutationError("graph has no non-source node with rank >= 1")
    return candidates[-1]


def corrupt_shape(graph: ComputationGraph) -> Tuple[ComputationGraph, str]:
    """Grow one dimension of a node's recorded spec -> G001."""
    mutated = copy.deepcopy(graph)
    node = _last_compute_node(mutated)
    bad_shape = (node.spec.shape[0] + 1,) + node.spec.shape[1:]
    node.spec = TensorSpec(bad_shape, node.spec.dtype)
    return mutated, "G001"


def flip_dtype(graph: ComputationGraph) -> Tuple[ComputationGraph, str]:
    """Flip a node's recorded dtype -> G002."""
    mutated = copy.deepcopy(graph)
    node = _last_compute_node(mutated)
    bad = DType.FLOAT16 if node.spec.dtype is not DType.FLOAT16 else DType.FLOAT32
    node.spec = TensorSpec(node.spec.shape, bad)
    return mutated, "G002"


def dangle_input(graph: ComputationGraph) -> Tuple[ComputationGraph, str]:
    """Point one node at a name the graph never defines -> G003."""
    mutated = copy.deepcopy(graph)
    for node in mutated:
        if node.inputs:
            node.inputs = ("__dangling__",) + node.inputs[1:]
            return mutated, "G003"
    raise MutationError("graph has no node with inputs")


def orphan_node(graph: ComputationGraph) -> Tuple[ComputationGraph, str]:
    """Splice in a computation nothing consumes or outputs -> G004."""
    mutated = copy.deepcopy(graph)
    feed = next((node for node in mutated), None)
    if feed is None:
        raise MutationError("graph is empty")
    orphan = Node(
        name="__orphan__",
        op="identity",
        inputs=(feed.name,),
        attrs={},
        spec=feed.spec,
    )
    mutated._nodes[orphan.name] = orphan
    mutated._order.append(orphan.name)
    return mutated, "G004"


#: name -> mutator over a ComputationGraph.
GRAPH_MUTATIONS: Dict[
    str, Callable[[ComputationGraph], Tuple[ComputationGraph, str]]
] = {
    "corrupt_shape": corrupt_shape,
    "flip_dtype": flip_dtype,
    "dangle_input": dangle_input,
    "orphan_node": orphan_node,
}


# -- program mutations ---------------------------------------------------------

def drop_collective(program: DistributedProgram) -> Tuple[DistributedProgram, str]:
    """Delete a collective whose output a later instruction consumes -> P001."""
    instructions = list(program.instructions)
    for idx, instr in enumerate(instructions):
        if not isinstance(instr, CommInstruction):
            continue
        consumed_later = any(
            (isinstance(later, CompInstruction) and instr.output in later.inputs)
            or (isinstance(later, CommInstruction) and later.input == instr.output)
            for later in instructions[idx + 1 :]
        )
        if consumed_later:
            del instructions[idx]
            return _with_instructions(program, instructions), "P001"
    raise MutationError("program has no collective with a downstream consumer")


def swap_dist_state(program: DistributedProgram) -> Tuple[DistributedProgram, str]:
    """Flip a collective's output ``DistState`` to an illegal one -> P004."""
    instructions = list(program.instructions)
    for idx, instr in enumerate(instructions):
        if not isinstance(instr, CommInstruction):
            continue
        out = instr.output.state
        # Whatever the legal destination was, replace it with a state the
        # rule table forbids for this collective kind.
        if out.is_replicated:
            bad = DistState.partial()
        elif out.is_sharded:
            bad = DistState.replicated()
        else:
            bad = DistState.sharded(0)
        instructions[idx] = dataclasses.replace(
            instr, output=Property(instr.output.ref, bad)
        )
        return _with_instructions(program, instructions), "P004"
    raise MutationError("program has no collective to corrupt")


def duplicate_instruction(program: DistributedProgram) -> Tuple[DistributedProgram, str]:
    """Emulate one graph node twice -> P002."""
    instructions = list(program.instructions)
    for idx, instr in enumerate(instructions):
        if isinstance(instr, CompInstruction):
            instructions.insert(idx + 1, instr)
            return _with_instructions(program, instructions), "P002"
    raise MutationError("program has no computation instruction")


def flip_compute_flag(program: DistributedProgram) -> Tuple[DistributedProgram, str]:
    """Invert a ``flops_sharded`` flag -> P006 (per-device flops now wrong)."""
    instructions = list(program.instructions)
    for idx, instr in enumerate(instructions):
        if isinstance(instr, CompInstruction):
            instructions[idx] = dataclasses.replace(
                instr, flops_sharded=not instr.flops_sharded
            )
            return _with_instructions(program, instructions), "P006"
    raise MutationError("program has no computation instruction")


def swap_node_names(program: DistributedProgram) -> Tuple[DistributedProgram, str]:
    """Swap two computed nodes' names throughout the program -> P003.

    What a program renamed by a wrong rename map looks like:
    its dataflow stays self-consistent, but instructions land on graph nodes
    with another op.
    """
    computed = [i for i in program.instructions if isinstance(i, CompInstruction)]
    for a in computed:
        for b in computed:
            if a.op != b.op:
                rename = {name: name for name in program.graph.node_names}
                rename[a.node], rename[b.node] = b.node, a.node
                return remap_program(program, rename, program.graph), "P003"
    raise MutationError("program computes no two nodes with different ops")


#: name -> mutator over a DistributedProgram.
PROGRAM_MUTATIONS: Dict[
    str, Callable[[DistributedProgram], Tuple[DistributedProgram, str]]
] = {
    "drop_collective": drop_collective,
    "swap_dist_state": swap_dist_state,
    "duplicate_instruction": duplicate_instruction,
    "flip_compute_flag": flip_compute_flag,
    "swap_node_names": swap_node_names,
}


# -- plan mutations ------------------------------------------------------------

def truncate_stash_peaks(plan: HierarchicalPlan) -> Tuple[HierarchicalPlan, str]:
    """Drop the last stage's activation-stash peak -> L004."""
    mutated = copy.deepcopy(plan)
    mutated.schedule.peak_stash.pop()
    return mutated, "L004"


def corrupt_stage_index(plan: HierarchicalPlan) -> Tuple[HierarchicalPlan, str]:
    """Give the last stage another stage's position -> L003."""
    mutated = copy.deepcopy(plan)
    mutated.stages[-1].index += 1
    return mutated, "L003"


def corrupt_send_bytes(plan: HierarchicalPlan) -> Tuple[HierarchicalPlan, str]:
    """Mis-account a boundary hop's transfer bytes -> L002."""
    mutated = copy.deepcopy(plan)
    mutated.stages[0].send_bytes += 12345
    return mutated, "L002"


#: name -> mutator over a HierarchicalPlan.
PLAN_MUTATIONS: Dict[
    str, Callable[[HierarchicalPlan], Tuple[HierarchicalPlan, str]]
] = {
    "truncate_stash_peaks": truncate_stash_peaks,
    "corrupt_stage_index": corrupt_stage_index,
    "corrupt_send_bytes": corrupt_send_bytes,
}
