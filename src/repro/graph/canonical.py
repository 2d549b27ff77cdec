"""Name-independent graph canonicalization: content fingerprints.

A ``ComputationGraph`` is reduced to a canonical, node-name-free encoding
(:func:`graph_fingerprint`): nodes are ordered by an ancestry hash (a
Merkle-style *down hash* over op, attributes, output spec and the input
subtrees), and every edge is written as an index into that canonical order.
Two graphs with equal fingerprints are isomorphic, and the position-wise
pairing of their canonical orders *is* the isomorphism, which is what lets a
cached plan be stitched onto a renamed copy of the graph it was synthesized
for (``dict(zip(stored_order, canonical_order(renamed)))``).  Ties between
ancestor-identical twin nodes are broken by insertion order, which can only
cause a *missed* match between differently-built isomorphic graphs — never
a false one (the safe direction for caching).
"""

from __future__ import annotations

import hashlib
import heapq
from typing import Dict, List, Optional, Tuple

from .graph import ComputationGraph


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


def _hashes(
    graph: ComputationGraph, contents: Optional[Dict[str, Tuple]] = None
) -> Dict[str, str]:
    """Ancestry hash of every node, recording each node's content in ``contents`` if given.

    Only :func:`fingerprint_with_order` needs the contents again, so
    :func:`canonical_order` keeps none alive.
    """
    hashes: Dict[str, str] = {}
    for node in graph:
        content = _node_content(graph, node.name)
        if contents is not None:
            contents[node.name] = content
        hashes[node.name] = _digest((content, tuple(hashes[inp] for inp in node.inputs)))
    return hashes


def structural_hashes(graph: ComputationGraph) -> Dict[str, str]:
    """Ancestry (down) hash of every node.

    ``hash(n) = H(content(n), hash(input_1), ..., hash(input_k))``, computed
    in one pass over the graph's topological insertion order.  Equal hashes
    mean the nodes compute identical functions of identically-shaped inputs,
    regardless of what anything is called.
    """
    return _hashes(graph)


def _order_by_hashes(graph: ComputationGraph, hashes: Dict[str, str]) -> List[str]:
    """Kahn's algorithm over ``graph`` with ties broken by (hash, insertion index)."""
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


def canonical_order(graph: ComputationGraph) -> List[str]:
    """Deterministic name-independent topological order of the graph.

    Kahn's algorithm with a heap keyed by (down hash, insertion index):
    whenever several nodes are simultaneously ready, the one with the
    smallest ancestry hash comes first, so isomorphic graphs built in the
    same way linearise identically even when their insertion orders differ
    on independent branches with distinct content.  The insertion-index
    tie-break only fires for ancestor-identical twins.
    """
    return _order_by_hashes(graph, structural_hashes(graph))


def fingerprint_with_order(graph: ComputationGraph) -> Tuple[str, List[str]]:
    """Fingerprint plus the canonical order it was computed over.

    The fingerprint is the sha256 of the graph's name-free encoding: every
    node in canonical order as (op, attrs, shape, dtype, canonical input
    indices), then the outputs and the loss as canonical indices.  Equal
    encodings certify that pairing the two canonical orders position-wise is
    a graph isomorphism.  One canonicalization pass serves both cache-key construction and the
    rename map a later cache hit needs (``zip(stored_order, new_order)``):
    each node's content is computed once, for its hash and its encoding.
    """
    contents: Dict[str, Tuple] = {}
    order = _order_by_hashes(graph, _hashes(graph, contents))
    index = {name: i for i, name in enumerate(order)}
    nodes = tuple(
        contents[name] + (tuple(index[i] for i in graph[name].inputs),) for name in order
    )
    outputs = tuple(index[o] for o in graph.outputs)
    loss = index[graph.loss] if graph.loss is not None else -1
    return _digest((nodes, outputs, loss)), order


def graph_fingerprint(graph: ComputationGraph) -> str:
    """Content-addressed fingerprint of the graph (see :func:`fingerprint_with_order`)."""
    return fingerprint_with_order(graph)[0]
