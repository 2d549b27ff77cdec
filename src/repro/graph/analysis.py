"""Pipeline cuts: how the hierarchical planner splits a forward graph into stages."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .graph import ComputationGraph
from .ops import OpKind


@dataclass(frozen=True)
class PipelineCut:
    """A contiguous partition of a forward graph into pipeline stages.

    A pipeline cut must yield *executable* stage subgraphs: stages are
    contiguous in topological order, every parameter's consumers live in a
    single stage (so the parameter's forward use, gradient and optimizer
    update stay together once the stage is differentiated), and the tensors
    crossing each boundary are recorded for activation handoff.

    Attributes:
        stages: per-stage node names (compute nodes plus attached sources),
            in topological order.  Placeholders consumed by several stages are
            listed in each consuming stage (data is available everywhere).
        stage_of: compute/parameter node name -> stage index.
        cut_refs: per-stage names of tensors produced in that stage and
            consumed by a later stage (the activations sent downstream).
        stage_flops: total forward flops of each stage.
        consumers: consumer map of the source graph (for boundary queries).
    """

    stages: Tuple[Tuple[str, ...], ...]
    stage_of: Dict[str, int]
    cut_refs: Tuple[Tuple[str, ...], ...]
    stage_flops: Tuple[float, ...]
    consumers: Dict[str, List[str]]

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def incoming_refs(self, stage: int) -> List[str]:
        """Cut tensors produced before ``stage`` that ``stage`` consumes."""
        wanted = set(self.stages[stage])
        incoming: List[str] = []
        for earlier in range(stage):
            for ref in self.cut_refs[earlier]:
                if ref in incoming:
                    continue
                for consumer in self.consumers.get(ref, []):
                    if consumer in wanted:
                        incoming.append(ref)
                        break
        return incoming

    def crossing_refs(self, boundary: int) -> List[str]:
        """Tensors in flight across the boundary after stage ``boundary``.

        A tensor crosses the boundary when its producer lives in stage
        ``<= boundary`` and some consumer lives in a later stage — so a
        skip-connection tensor spanning several stages appears at **every**
        boundary it crosses, not just its producer's outgoing one.  This is
        what each hop of the pipeline actually has to ship (and what
        :func:`cut_transfer_bytes` charges per hop); :attr:`cut_refs` in
        contrast lists each tensor once, at its producing stage (the
        per-chunk boundary *outputs* used for differentiation and runtime
        handoff).
        """
        if not 0 <= boundary < self.num_stages - 1:
            raise ValueError(
                f"boundary must be in [0, {self.num_stages - 2}], got {boundary}"
            )
        return [
            ref
            for ref, producer, last in self._ref_spans()
            if producer <= boundary < last
        ]

    def _ref_spans(self) -> List[Tuple[str, int, int]]:
        """(ref, producer stage, last consumer stage) per cut tensor, cached.

        Computed once per cut so per-boundary queries are a range test
        instead of re-deriving every ref's consumer stages (which would be
        quadratic in the stage count for deep cuts).
        """
        cached = getattr(self, "_spans_cache", None)
        if cached is None:
            cached = []
            for producer, refs in enumerate(self.cut_refs):
                for ref in refs:
                    consumer_stages = [
                        self.stage_of[c]
                        for c in self.consumers.get(ref, [])
                        if c in self.stage_of
                    ]
                    if consumer_stages:
                        cached.append((ref, producer, max(consumer_stages)))
            object.__setattr__(self, "_spans_cache", cached)
        return cached


def _atomic_blocks(
    graph: ComputationGraph,
    compute_order: Sequence[str],
    consumers: Dict[str, List[str]],
) -> List[List[int]]:
    """Group compute-node indices into blocks that must not be split.

    A parameter consumed by several compute nodes forces the whole index range
    between its first and last consumer into one block — cutting inside would
    put the parameter's forward use and (after differentiation) its gradient
    contributions into different stages, breaking the one-update-per-parameter
    invariant.  Overlapping ranges are merged transitively.
    """
    position = {name: i for i, name in enumerate(compute_order)}
    intervals: List[Tuple[int, int]] = []
    for param in graph.parameters():
        spans = [position[c] for c in consumers.get(param.name, []) if c in position]
        if len(spans) > 1:
            intervals.append((min(spans), max(spans)))
    intervals.sort()
    merged: List[Tuple[int, int]] = []
    for lo, hi in intervals:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    blocks: List[List[int]] = []
    cursor = 0
    for lo, hi in merged:
        for i in range(cursor, lo):
            blocks.append([i])
        blocks.append(list(range(lo, hi + 1)))
        cursor = hi + 1
    for i in range(cursor, len(compute_order)):
        blocks.append([i])
    return blocks


#: Width of the window around each stage's flop target, as a fraction of the
#: total forward flops, inside which :func:`pipeline_cut` picks the boundary
#: with the fewest crossing activation bytes.
BALANCE_TOLERANCE = 0.1


def pipeline_cut(graph: ComputationGraph, stage_weights: Sequence[float]) -> PipelineCut:
    """Split a forward graph into pipeline stages balanced against group compute.

    Stages are contiguous slices of the topological order of the compute
    nodes; the boundary positions are chosen so the cumulative forward flops
    of stage ``i`` tracks ``stage_weights[i] / sum(stage_weights)`` (pass each
    machine group's aggregate flops to get compute-proportional stages on a
    heterogeneous cluster).  Like the paper's METIS segmentation objective,
    balance is traded against boundary cost: within a
    :data:`BALANCE_TOLERANCE`-of-total-flops window around each target, the
    position with the fewest activation bytes crossing the boundary wins —
    which lands cuts on the thin residual stream between layers instead of
    inside a layer's fat intermediates.  Parameter-sharing ranges are kept
    atomic, sources are attached to their consuming stages, and the tensors
    crossing each boundary are recorded.

    Returns a :class:`PipelineCut`; its actual ``num_stages`` may be lower
    than ``len(stage_weights)`` when the graph has fewer splittable blocks.
    """
    if not stage_weights:
        raise ValueError("stage_weights must be non-empty")
    num_stages = len(stage_weights)
    flops = {name: graph.node_flops(name) for name in graph.node_names}
    compute_order = [n.name for n in graph if n.kind is not OpKind.SOURCE]
    if not compute_order:
        raise ValueError("pipeline_cut needs at least one compute node")

    consumers = graph.consumers()
    blocks = _atomic_blocks(graph, compute_order, consumers)
    num_stages = min(num_stages, len(blocks))
    block_flops = [sum(flops[compute_order[i]] for i in block) for block in blocks]
    total = sum(block_flops) or float(len(blocks))
    weight_total = sum(stage_weights[:num_stages])
    targets = []
    acc_w = 0.0
    for w in stage_weights[:num_stages]:
        acc_w += w
        targets.append(total * acc_w / weight_total)

    # Activation bytes crossing a cut placed before each block: tensors whose
    # producer lies before the boundary and some consumer at or after it.
    position = {name: i for i, name in enumerate(compute_order)}
    block_of_node = [0] * len(compute_order)
    for b, block in enumerate(blocks):
        for i in block:
            block_of_node[i] = b
    crossing = [0.0] * (len(blocks) + 1)
    for name in compute_order:
        spans = [position[c] for c in consumers.get(name, []) if c in position]
        if not spans:
            continue
        first = block_of_node[position[name]] + 1
        last = block_of_node[max(spans)]
        if last >= first:
            nbytes = graph[name].spec.size_bytes
            for p in range(first, last + 1):
                crossing[p] += nbytes

    prefix = [0.0]
    for bf in block_flops:
        prefix.append(prefix[-1] + (bf if total > 0 else 1.0))

    # Pick each boundary inside the tolerance window around its flop target,
    # preferring the cheapest crossing (ties go to the better balance).
    window = BALANCE_TOLERANCE * total
    boundaries: List[int] = []
    previous = 0
    for k in range(num_stages - 1):
        lo, hi = previous + 1, len(blocks) - (num_stages - 1 - k)
        candidates = [
            p for p in range(lo, hi + 1) if abs(prefix[p] - targets[k]) <= window
        ]
        if not candidates:
            candidates = [
                min(range(lo, hi + 1), key=lambda p, t=targets[k]: abs(prefix[p] - t))
            ]
        best = min(
            candidates, key=lambda p, t=targets[k]: (crossing[p], abs(prefix[p] - t))
        )
        boundaries.append(best)
        previous = best

    stage_of_block: List[int] = []
    stage = 0
    for b in range(len(blocks)):
        while stage < len(boundaries) and b >= boundaries[stage]:
            stage += 1
        stage_of_block.append(stage)
    num_stages = stage_of_block[-1] + 1

    stage_of: Dict[str, int] = {}
    for block, s in zip(blocks, stage_of_block):
        for i in block:
            stage_of[compute_order[i]] = s

    # Attach sources: parameters go to their (single-stage) consumers,
    # placeholders/constants to every stage that consumes them.
    source_stages: Dict[str, List[int]] = {}
    for node in graph:
        if node.kind is OpKind.SOURCE:
            stages_used = sorted({stage_of[c] for c in consumers.get(node.name, []) if c in stage_of})
            if not stages_used:
                stages_used = [0]
            if node.op == "parameter" and len(stages_used) > 1:
                raise ValueError(
                    f"parameter {node.name!r} is consumed by stages {stages_used}; "
                    "pipeline_cut must keep parameter consumers in one stage"
                )
            source_stages[node.name] = stages_used
            stage_of[node.name] = stages_used[0]

    stage_nodes: List[List[str]] = [[] for _ in range(num_stages)]
    for name in graph.node_names:
        if name in source_stages:
            for s in source_stages[name]:
                stage_nodes[s].append(name)
        elif name in stage_of:
            stage_nodes[stage_of[name]].append(name)

    # Tensors produced in a stage and consumed in any later stage.
    cut_refs: List[List[str]] = [[] for _ in range(num_stages)]
    for name in compute_order:
        producer_stage = stage_of[name]
        consumer_stages = {stage_of[c] for c in consumers.get(name, []) if c in stage_of}
        if any(s > producer_stage for s in consumer_stages):
            cut_refs[producer_stage].append(name)

    stage_flops = [
        sum(flops[n] for n in names if n in flops and graph[n].kind is not OpKind.SOURCE)
        for names in stage_nodes
    ]
    return PipelineCut(
        stages=tuple(tuple(names) for names in stage_nodes),
        stage_of=stage_of,
        cut_refs=tuple(tuple(refs) for refs in cut_refs),
        stage_flops=tuple(stage_flops),
        consumers=consumers,
    )


def cut_transfer_bytes(graph: ComputationGraph, cut: PipelineCut) -> List[int]:
    """Bytes each stage's outgoing hop actually carries, per boundary.

    Entry ``i`` is the activation bytes crossing the boundary between stage
    ``i`` and ``i + 1`` — every tensor whose producer is at or before the
    boundary and whose last consumer is after it.  A skip-connection tensor
    spanning several boundaries is charged once **per hop it crosses**
    (earlier revisions charged all downstream bytes to the producing stage's
    outgoing hop only, under-pricing the interior hops it relays through).
    The final stage sends nothing, so the last entry is 0.
    """
    return [
        sum(graph[ref].spec.size_bytes for ref in cut.crossing_refs(boundary))
        for boundary in range(cut.num_stages - 1)
    ] + [0]
