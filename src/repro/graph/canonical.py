"""Name-independent graph canonicalization and repeated-block detection.

Two related capabilities power the planner's reuse layer:

1. **Content fingerprints** (:func:`graph_fingerprint`): a ``ComputationGraph``
   is reduced to a canonical, node-name-free encoding — nodes are ordered by
   an ancestry hash (a Merkle-style *down hash* over op, attributes, output
   spec and the input subtrees), and every edge is written as an index into
   that canonical order.  Two graphs with equal fingerprints are isomorphic,
   and the position-wise pairing of their canonical orders *is* the
   isomorphism, which is what lets a cached plan be stitched onto a renamed
   copy of the graph it was synthesized for
   (``dict(zip(stored_order, canonical_order(renamed)))``).
   Ties between ancestor-identical twin nodes are broken by insertion order,
   which can only cause a *missed* match between differently-built isomorphic
   graphs — never a false one (the safe direction for caching).

2. **Repeated-block detection** (:func:`find_repeated_blocks`): repeated
   contiguous runs of structurally identical nodes (transformer layers, their
   backward blocks, per-layer optimizer updates) are located in a topological
   order, and each repetition is validated into an explicit rename map from
   the first occurrence.  The synthesizer replays its per-layer search
   decisions across these occurrences instead of re-deriving them.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .graph import ComputationGraph
from .ops import OpKind


def _canon_value(value: object) -> object:
    """Canonical, deterministically ``repr``-able form of an attribute value.

    Attribute dictionaries may hold nested lists/dicts (shapes, strides);
    dictionaries are sorted by key and all sequences become tuples so the
    encoding has no container-order or container-type ambiguity.
    """
    if isinstance(value, dict):
        return ("dict", tuple((str(k), _canon_value(v)) for k, v in sorted(value.items())))
    if isinstance(value, (list, tuple)):
        return ("seq", tuple(_canon_value(v) for v in value))
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float, str, bytes)) or value is None:
        return (type(value).__name__, value)
    return ("repr", repr(value))


def _node_content(graph: ComputationGraph, name: str) -> Tuple:
    """Name-free local content of one node: op, attrs, output spec."""
    node = graph[name]
    return (
        node.op,
        _canon_value(node.attrs),
        node.spec.shape,
        node.spec.dtype.value,
    )


def _digest(payload: object) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def structural_hashes(graph: ComputationGraph) -> Dict[str, str]:
    """Ancestry (down) hash of every node.

    ``hash(n) = H(content(n), hash(input_1), ..., hash(input_k))``, computed
    in one pass over the graph's topological insertion order.  Equal hashes
    mean the nodes compute identical functions of identically-shaped inputs,
    regardless of what anything is called.
    """
    hashes: Dict[str, str] = {}
    for node in graph:
        payload = (
            _node_content(graph, node.name),
            tuple(hashes[inp] for inp in node.inputs),
        )
        hashes[node.name] = _digest(payload)
    return hashes


def canonical_order(graph: ComputationGraph) -> List[str]:
    """Deterministic name-independent topological order of the graph.

    Kahn's algorithm with a heap keyed by (down hash, insertion index):
    whenever several nodes are simultaneously ready, the one with the
    smallest ancestry hash comes first, so isomorphic graphs built in the
    same way linearise identically even when their insertion orders differ
    on independent branches with distinct content.  The insertion-index
    tie-break only fires for ancestor-identical twins.
    """
    hashes = structural_hashes(graph)
    names = graph.node_names
    position = {name: i for i, name in enumerate(names)}
    indegree = {name: len(graph[name].inputs) for name in names}
    consumers = graph.consumers()
    ready = [(hashes[n], position[n], n) for n in names if indegree[n] == 0]
    heapq.heapify(ready)
    out: List[str] = []
    while ready:
        _, _, name = heapq.heappop(ready)
        out.append(name)
        for consumer in consumers[name]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                heapq.heappush(ready, (hashes[consumer], position[consumer], consumer))
    if len(out) != len(names):  # pragma: no cover - graphs are validated DAGs
        raise ValueError("graph contains a cycle; cannot canonicalize")
    return out


def fingerprint_with_order(graph: ComputationGraph) -> Tuple[str, List[str]]:
    """Fingerprint plus the canonical order it was computed over.

    The fingerprint is the sha256 of the graph's name-free encoding: every
    node in canonical order as (op, attrs, shape, dtype, canonical input
    indices), then the outputs and the loss as canonical indices.  Equal
    encodings certify that pairing the two canonical orders position-wise is
    a graph isomorphism.  One canonicalization pass serves both cache-key construction and the
    rename map a later cache hit needs (``zip(stored_order, new_order)``).
    """
    order = canonical_order(graph)
    index = {name: i for i, name in enumerate(order)}
    nodes = tuple(
        _node_content(graph, name) + (tuple(index[i] for i in graph[name].inputs),)
        for name in order
    )
    outputs = tuple(index[o] for o in graph.outputs)
    loss = index[graph.loss] if graph.loss is not None else -1
    return _digest((nodes, outputs, loss)), order


def graph_fingerprint(graph: ComputationGraph) -> str:
    """Content-addressed fingerprint of the graph (see :func:`fingerprint_with_order`)."""
    return fingerprint_with_order(graph)[0]


# ---------------------------------------------------------------------------
# repeated-block detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockRun:
    """A maximal run of repeated, structurally identical node blocks.

    Attributes:
        start: position of the first (template) occurrence in the scanned
            topological order.
        length: number of consecutive order positions per occurrence.
        occurrence_starts: start position of every validated occurrence
            (``occurrence_starts[0] == start``).
        maps: per occurrence, the rename map from template references to this
            occurrence's references.  The map covers the block's own nodes,
            their source inputs (parameters/placeholders) and their external
            activation inputs; ``maps[0]`` is the identity.
        refs: every reference the block's rules can touch, in a fixed
            deterministic order (block nodes first, then inputs in first-use
            order) — the shared vocabulary for block-local signatures.
    """

    start: int
    length: int
    occurrence_starts: Tuple[int, ...]
    maps: Tuple[Mapping[str, str], ...]
    refs: Tuple[str, ...]

    @property
    def num_occurrences(self) -> int:
        return len(self.occurrence_starts)


def _local_symbols(graph: ComputationGraph, order: Sequence[str]) -> List[int]:
    """Per-position structural symbol (wiring-free) used to find candidates.

    The symbol covers the node's own content plus, per input, either the
    source node's content (sources are block-local by fusion) or the input's
    spec.  Exact wiring is deliberately left out — backward blocks reference
    forward activations at occurrence-dependent distances — and is checked by
    :func:`_occurrence_map` instead.
    """
    intern: Dict[Tuple, int] = {}
    symbols: List[int] = []
    for name in order:
        node = graph[name]
        inputs = []
        for inp in node.inputs:
            src = graph[inp]
            if src.kind is OpKind.SOURCE:
                inputs.append(("src",) + _node_content(graph, inp))
            else:
                inputs.append(("act", src.spec.shape, src.spec.dtype.value))
        key = _node_content(graph, name) + (tuple(inputs),)
        symbols.append(intern.setdefault(key, len(intern)))
    return symbols


def _occurrence_map(
    graph: ComputationGraph,
    order: Sequence[str],
    template_start: int,
    occ_start: int,
    length: int,
) -> Optional[Dict[str, str]]:
    """Validate one occurrence against the template; build its rename map.

    Block nodes map position-wise; every input pair must then be consistent:
    internal wiring must match exactly, and external/source inputs must map
    injectively with equal content (spec, and op/attrs for sources).  Returns
    ``None`` when no consistent map exists.
    """
    mapping: Dict[str, str] = {}
    occ_nodes = set()
    for j in range(length):
        mapping[order[template_start + j]] = order[occ_start + j]
        occ_nodes.add(order[occ_start + j])
    used = set(occ_nodes)
    for j in range(length):
        u = graph[order[template_start + j]]
        v = graph[order[occ_start + j]]
        if len(u.inputs) != len(v.inputs):
            return None
        for x, y in zip(u.inputs, v.inputs):
            bound = mapping.get(x)
            if bound is not None:
                if bound != y:
                    return None
                continue
            # External (or source) input: must pair with an external input of
            # the occurrence carrying identical content.
            if y in occ_nodes:
                return None
            if x != y and y in used:
                return None  # two template refs cannot share one target
            xn, yn = graph[x], graph[y]
            if xn.spec != yn.spec:
                return None
            x_source = xn.kind is OpKind.SOURCE
            y_source = yn.kind is OpKind.SOURCE
            if x_source != y_source:
                return None
            if x_source and _node_content(graph, x) != _node_content(graph, y):
                return None
            mapping[x] = y
            used.add(y)
    return mapping


def _block_refs(
    graph: ComputationGraph, order: Sequence[str], start: int, length: int
) -> Tuple[str, ...]:
    """All references the block's rules can touch, in deterministic order."""
    refs: List[str] = [order[start + j] for j in range(length)]
    seen = set(refs)
    for j in range(length):
        for inp in graph[order[start + j]].inputs:
            if inp not in seen:
                seen.add(inp)
                refs.append(inp)
    return tuple(refs)


def find_repeated_blocks(
    graph: ComputationGraph,
    order: Optional[Sequence[str]] = None,
    min_length: int = 2,
    min_occurrences: int = 2,
    min_saved: int = 8,
) -> List[BlockRun]:
    """Detect repeated contiguous blocks in a topological order.

    Candidate periods come from the gaps between equal structural symbols;
    for each period, maximal periodic intervals yield candidate occurrence
    windows, which are then validated individually into rename maps.
    Candidate runs are claimed greedily by descending coverage (positions
    their occurrences span), so a whole repeated layer beats the small
    repeated fragments inside it; accepted runs never overlap.

    Args:
        graph: the (training) graph the order belongs to.
        order: topological order to scan; defaults to the graph's non-source
            nodes in insertion order (the synthesizer's emulation order).
        min_length: smallest block length considered.
        min_occurrences: minimum validated occurrences for a run to count.
        min_saved: minimum number of order positions a run saves its consumer
            (``length * (occurrences - 1)``); smaller runs cost more in replay
            bookkeeping than they save and are dropped.

    Returns:
        Non-overlapping :class:`BlockRun`\\ s sorted by start position.
    """
    if order is None:
        order = [n.name for n in graph if n.kind is not OpKind.SOURCE]
    symbols = _local_symbols(graph, order)
    n = len(symbols)
    periods = sorted(
        {
            gap
            for gap in _symbol_gaps(symbols)
            if min_length <= gap <= n // max(min_occurrences, 2)
        }
    )
    # Phase 1: enumerate candidate runs for every period (no claiming yet).
    candidates: List[Tuple[List[int], int]] = []
    for period in periods:
        t = 0
        while t + period < n:
            if symbols[t] != symbols[t + period]:
                t += 1
                continue
            # Maximal periodic interval starting at t.
            end = t
            while end + period < n and symbols[end] == symbols[end + period]:
                end += 1
            count = (end - t) // period + 1
            if count >= min_occurrences:
                candidates.append(([t + k * period for k in range(count)], period))
            t = end + period
    # Phase 2: claim greedily by descending coverage, validating as we go.
    candidates.sort(key=lambda c: (-len(c[0]) * c[1], c[1], c[0][0]))
    claimed = [False] * n
    runs: List[BlockRun] = []
    for starts, period in candidates:
        if period * (len(starts) - 1) < min_saved:
            continue
        run = _validate_run(
            graph, order, claimed, starts, period, min_occurrences, min_saved
        )
        if run is not None:
            runs.append(run)
    runs.sort(key=lambda r: r.start)
    return runs


def _symbol_gaps(symbols: Sequence[int]):
    last: Dict[int, int] = {}
    for i, s in enumerate(symbols):
        if s in last:
            yield i - last[s]
        last[s] = i


def _validate_run(
    graph: ComputationGraph,
    order: Sequence[str],
    claimed: List[bool],
    starts: List[int],
    period: int,
    min_occurrences: int,
    min_saved: int,
) -> Optional[BlockRun]:
    """Validate candidate occurrences, claim their positions, build the run."""
    free = [s for s in starts if not any(claimed[s : s + period])]
    if len(free) < min_occurrences or period * (len(free) - 1) < min_saved:
        return None
    template = free[0]
    maps: List[Mapping[str, str]] = []
    occurrence_starts: List[int] = []
    for s in free:
        if s == template:
            mapping: Optional[Dict[str, str]] = {
                order[template + j]: order[template + j] for j in range(period)
            }
            refs = _block_refs(graph, order, template, period)
            assert mapping is not None
            for ref in refs:
                mapping.setdefault(ref, ref)
        else:
            mapping = _occurrence_map(graph, order, template, s, period)
        if mapping is None:
            continue
        maps.append(mapping)
        occurrence_starts.append(s)
    if (
        len(occurrence_starts) < min_occurrences
        or period * (len(occurrence_starts) - 1) < min_saved
    ):
        return None
    for s in occurrence_starts:
        for j in range(period):
            claimed[s + j] = True
    return BlockRun(
        start=template,
        length=period,
        occurrence_starts=tuple(occurrence_starts),
        maps=tuple(maps),
        refs=_block_refs(graph, order, template, period),
    )
