"""Canonical fingerprints (graph/canonical.py).

The cache layer keys plans by graph fingerprints, so the fingerprint must be
*invariant* under everything that does not change the planning problem (node
names, insertion order of independent branches) and *sensitive* to everything
that does (shapes, attributes, dtypes, wiring).  A false positive would alias
two distinct problems in the cache; a false negative only costs a miss.
"""

import hashlib

import pytest

from repro.autodiff import build_training_graph
from repro.graph import (
    ComputationGraph,
    DType,
    GraphBuilder,
    canonical_order,
    fingerprint_with_order,
    graph_fingerprint,
    structural_hashes,
)
from repro.models import MODEL_NAMES, build_tiny_model

from .conftest import build_deep_transformer, build_mlp, rename_nodes

#: Fingerprint and sha256 of ``repr(canonical_order(g))`` per graph, recorded
#: before the canonicalization pass was shared: cache keys and rename maps of
#: existing entries depend on both staying bit-identical.
PINNED = {
    "mlp": (
        "b48558a51da38ca0f60f20818f1e832d8d63bda8fb0a0be79b4830b5c2f06717",
        "aa87d9e2546842f4653c502555255ff1207e73c0a0c1ee336991d0547f92c328",
    ),
    "bert_base": (
        "2c73a87f1acd8e16c1412ec899b4f7b0d2c409ef0500d6c85432137770163fe0",
        "31a1b836f2196e40aacaed4fb4edf272833ce6b222a34cc9080b205e2a57f523",
    ),
}


def _mlp_graph(names, hidden=(8, 4), shape=(16, 8), dtype=DType.FLOAT32, scale=0.5):
    """Small forward graph with externally controlled node names."""
    g = ComputationGraph("g")
    g.add_node(names["x"], "placeholder", (), {"shape": shape, "dtype": dtype})
    g.add_node(names["w1"], "parameter", (), {"shape": (shape[1], hidden[0])})
    g.add_node(names["h"], "matmul", (names["x"], names["w1"]), {})
    g.add_node(names["a"], "relu", (names["h"],), {})
    g.add_node(names["s"], "scale", (names["a"],), {"factor": scale})
    g.add_node(names["w2"], "parameter", (), {"shape": (hidden[0], hidden[1])})
    g.add_node(names["y"], "matmul", (names["s"], names["w2"]), {})
    return g


NAMES_A = {k: k for k in ("x", "w1", "h", "a", "s", "w2", "y")}
NAMES_B = {
    "x": "input",
    "w1": "weight_one",
    "h": "hidden",
    "a": "activated",
    "s": "scaled",
    "w2": "weight_two",
    "y": "logits",
}


class TestFingerprintInvariance:
    def test_invariant_under_renaming(self):
        a, b = _mlp_graph(NAMES_A), _mlp_graph(NAMES_B)
        assert graph_fingerprint(a) == graph_fingerprint(b)

    def test_rename_map_is_the_isomorphism(self):
        a, b = _mlp_graph(NAMES_A), _mlp_graph(NAMES_B)
        fp, order = fingerprint_with_order(a)
        rename = dict(zip(order, canonical_order(b)))
        for old in NAMES_A.values():
            new = rename[old]
            assert a[old].op == b[new].op
            assert a[old].spec == b[new].spec
            assert tuple(rename[i] for i in a[old].inputs) == tuple(b[new].inputs)

    def test_invariant_under_branch_insertion_order(self):
        """Independent branches with distinct content can be built in any order.

        The branches must be distinguishable from their sources up (here by
        parameter shape): ancestor-identical *twins* tie-break by insertion
        index, which is the documented — cache-safe — false-negative case.
        """

        def build(first):
            g = ComputationGraph("g")
            g.add_node("x", "placeholder", (), {"shape": (8, 4), "dtype": DType.FLOAT32})
            branches = {
                "p": [("wp", "parameter", (), {"shape": (4, 4)}),
                      ("mp", "matmul", ("x", "wp"), {}),
                      ("rp", "reduce_sum", ("mp",), {})],
                "q": [("wq", "parameter", (), {"shape": (4, 6)}),
                      ("mq", "matmul", ("x", "wq"), {}),
                      ("gq", "reduce_sum", ("mq",), {})],
            }
            for key in (("p", "q") if first == "p" else ("q", "p")):
                for name, op, inputs, attrs in branches[key]:
                    g.add_node(name, op, inputs, attrs)
            g.add_node("sum", "add", ("rp", "gq"), {})
            return g

        p, q = build("p"), build("q")
        assert graph_fingerprint(p) == graph_fingerprint(q)
        # ... and the canonical orders line up node for node.
        assert all(old == new for old, new in zip(canonical_order(p), canonical_order(q)))

    def test_twin_branches_may_miss_but_never_alias(self):
        """Ancestor-identical twin branches permuted in insertion order may
        produce different fingerprints (a cache miss) — the safe direction.
        What they must never do is alias a graph with different content."""

        def build(first, gelu_branch="q"):
            g = ComputationGraph("g")
            g.add_node("x", "placeholder", (), {"shape": (8, 4), "dtype": DType.FLOAT32})
            order = ("p", "q") if first == "p" else ("q", "p")
            for key in order:
                act = "gelu" if key == gelu_branch else "relu"
                g.add_node(f"w{key}", "parameter", (), {"shape": (4, 4)})
                g.add_node(f"m{key}", "matmul", ("x", f"w{key}"), {})
                g.add_node(f"a{key}", act, (f"m{key}",), {})
            g.add_node("sum", "add", ("ap", "aq"), {})
            return g

        # Same content, same insertion order: always equal.
        assert graph_fingerprint(build("p")) == graph_fingerprint(build("p"))
        # Different activation placement is different content: never equal.
        assert graph_fingerprint(build("p", "q")) != graph_fingerprint(build("p", "p"))

    def test_registry_style_rename(self):
        """Renaming every layer prefix of a transformer leaves the print alone."""

        def build(prefix):
            b = GraphBuilder("t")
            x = b.placeholder((4, 4, 16), name="x")
            h = b.transformer_layer(x, num_heads=2, ffn_hidden=32, prefix=prefix)
            b.loss(b.reduce_mean(h))
            return b.build()

        assert graph_fingerprint(build("layer")) == graph_fingerprint(build("enc"))


class TestFingerprintSensitivity:
    def test_sensitive_to_shape(self):
        assert graph_fingerprint(_mlp_graph(NAMES_A, shape=(16, 8))) != graph_fingerprint(
            _mlp_graph(NAMES_A, shape=(32, 8))
        )

    def test_sensitive_to_attr(self):
        assert graph_fingerprint(_mlp_graph(NAMES_A, scale=0.5)) != graph_fingerprint(
            _mlp_graph(NAMES_A, scale=0.25)
        )

    def test_sensitive_to_dtype(self):
        a = ComputationGraph("a")
        a.add_node("x", "placeholder", (), {"shape": (8,), "dtype": DType.FLOAT32})
        b = ComputationGraph("b")
        b.add_node("x", "placeholder", (), {"shape": (8,), "dtype": DType.INT64})
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_sensitive_to_wiring(self):
        def build(swap):
            g = ComputationGraph("g")
            g.add_node("x", "placeholder", (), {"shape": (4, 4), "dtype": DType.FLOAT32})
            g.add_node("y", "placeholder", (), {"shape": (4, 4), "dtype": DType.FLOAT32})
            g.add_node("r", "relu", ("x",), {})
            g.add_node("g1", "gelu", ("y",), {})
            first, second = ("g1", "r") if swap else ("r", "g1")
            g.add_node("m", "matmul", (first, second), {})
            return g

        assert graph_fingerprint(build(False)) != graph_fingerprint(build(True))

    def test_sensitive_to_depth(self):
        fingerprints = {
            graph_fingerprint(build_training_graph(build_deep_transformer(layers)).graph)
            for layers in (1, 2, 3)
        }
        assert len(fingerprints) == 3

    def test_sensitive_to_loss_marker(self):
        a, b = _mlp_graph(NAMES_A), _mlp_graph(NAMES_A)
        b_loss = b.add_node("l", "reduce_mean", ("y",), {})
        a.add_node("l", "reduce_mean", ("y",), {})
        b.mark_loss("l")
        assert graph_fingerprint(a) != graph_fingerprint(b)


class TestFingerprintWithOrder:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_one_pass_matches_the_separate_functions_and_the_pin(self, name):
        graph = build_mlp() if name == "mlp" else build_tiny_model(name)
        fingerprint, order = fingerprint_with_order(graph)
        assert (fingerprint, order) == (graph_fingerprint(graph), canonical_order(graph))
        assert (fingerprint, hashlib.sha256(repr(order).encode()).hexdigest()) == PINNED[name]


class TestStructuralHashes:
    def test_equal_subtrees_share_hashes(self):
        g = ComputationGraph("g")
        g.add_node("x", "placeholder", (), {"shape": (4, 4), "dtype": DType.FLOAT32})
        g.add_node("r1", "relu", ("x",), {})
        g.add_node("r2", "relu", ("x",), {})
        hashes = structural_hashes(g)
        assert hashes["r1"] == hashes["r2"]
        assert hashes["r1"] != hashes["x"]


class TestCanonicalOrder:
    """The order a cache hit pairs with the stored one to rename a plan."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_order_is_a_topological_permutation(self, name):
        graph = build_training_graph(build_tiny_model(name)).graph
        order = canonical_order(graph)
        assert sorted(order) == sorted(graph.node_names)
        position = {node: i for i, node in enumerate(order)}
        for node in graph:
            assert all(position[i] < position[node.name] for i in node.inputs)

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_orders_pair_renamed_registry_models(self, name):
        forward = build_tiny_model(name)
        a = build_training_graph(forward).graph
        b = build_training_graph(rename_nodes(forward)).graph
        rename = dict(zip(canonical_order(a), canonical_order(b)))
        for node in forward:
            assert rename[node.name] == "r_" + node.name
        for node in a:
            twin = b[rename[node.name]]
            assert (twin.op, twin.spec) == (node.op, node.spec)
            assert tuple(twin.inputs) == tuple(rename[i] for i in node.inputs)
        assert rename[a.loss] == b.loss

    def test_orders_pair_a_renamed_deep_stack(self):
        """Identical layers give equal-content parameters in every layer; the
        order still pairs each node with its own renamed twin."""
        forward = build_deep_transformer(layers=3)
        a = build_training_graph(forward).graph
        b = build_training_graph(rename_nodes(forward)).graph
        order = canonical_order(a)
        position = {node: i for i, node in enumerate(order)}
        for node in a:
            assert all(position[i] < position[node.name] for i in node.inputs)
        rename = dict(zip(order, canonical_order(b)))
        for node in forward:
            assert rename[node.name] == "r_" + node.name
        for node in a:
            twin = b[rename[node.name]]
            assert (twin.op, twin.spec) == (node.op, node.spec)
            assert tuple(twin.inputs) == tuple(rename[i] for i in node.inputs)
