"""Shared fixtures for the test suite.

Fixtures provide small clusters (2-4 virtual devices), tiny models that can be
executed with numpy in milliseconds, and planner configurations with small
beam widths so the whole suite stays fast.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

# Turn the static plan verifier on for every plan any test builds: the
# ``SynthesisConfig.verify_after_plan`` switch, which the hierarchical planner
# reads too, defaults to this environment variable, so the whole suite
# doubles as a positive-path verification corpus.  Must be set before any config is *instantiated*
# (the defaults are read per construction, not at import).
os.environ.setdefault("REPRO_VERIFY", "1")

from repro.autodiff import build_training_graph
from repro.cluster import ClusterSpec, Machine, NetworkSpec, device_type
from repro.core import SynthesisConfig
from repro.graph import ComputationGraph, DType, GraphBuilder


def fast_network() -> NetworkSpec:
    """A fast network so tiny models still prefer sharded strategies."""
    return NetworkSpec(bandwidth=200e9, latency=1e-6, kernel_launch_overhead=5e-7)


def make_cluster(gpus=("A100", "A100", "P100", "P100"), network=None, group=False) -> ClusterSpec:
    machines = [
        Machine(f"m{i}", device_type(name), num_gpus=1) for i, name in enumerate(gpus)
    ]
    return ClusterSpec(machines, network=network or fast_network(), group_by_machine=group)


def with_overlap(cluster: ClusterSpec, efficiency: float) -> ClusterSpec:
    """The same cluster at another communication-overlap efficiency."""
    return ClusterSpec(
        cluster.machines,
        network=cluster.network,
        group_by_machine=cluster.group_by_machine,
        name=cluster.name,
        memory_reserve_fraction=cluster.memory_reserve_fraction,
        comm_overlap_efficiency=efficiency,
    )


def blocking_cluster(cluster: ClusterSpec) -> ClusterSpec:
    """The same cluster with the fully blocking (no-overlap) model."""
    return with_overlap(cluster, 0.0)


@pytest.fixture
def two_device_cluster() -> ClusterSpec:
    return make_cluster(("A100", "P100"))


@pytest.fixture
def four_device_cluster() -> ClusterSpec:
    return make_cluster()


@pytest.fixture
def slow_network_cluster() -> ClusterSpec:
    """Cluster with the paper's 10.4 Gbps network (communication-bound)."""
    return make_cluster(network=NetworkSpec())


@pytest.fixture
def machine_cluster() -> ClusterSpec:
    """Two machine-level virtual devices with 4 GPUs each."""
    machines = [
        Machine("v1", device_type("V100"), num_gpus=4),
        Machine("p1", device_type("P100"), num_gpus=4),
    ]
    return ClusterSpec(machines, network=fast_network(), group_by_machine=True)


@pytest.fixture
def small_synthesis_config() -> SynthesisConfig:
    return SynthesisConfig(beam_width=16)


# ---------------------------------------------------------------------------
# tiny model fixtures
# ---------------------------------------------------------------------------

def build_mlp(batch=16, in_features=32, hidden=64, classes=10, name="mlp"):
    """Two-layer MLP classifier forward graph."""
    b = GraphBuilder(name)
    x = b.placeholder((batch, in_features), name="features")
    h = b.linear(x, hidden)
    h = b.relu(h)
    logits = b.linear(h, classes)
    labels = b.placeholder((batch,), dtype=DType.INT64, name="labels")
    loss = b.cross_entropy(logits, labels)
    b.loss(loss)
    return b.build()


def build_tiny_transformer(batch=16, seq=8, hidden=32, heads=4, vocab=50, classes=11):
    """One-layer transformer LM forward graph (batch-first placeholders)."""
    b = GraphBuilder("tiny_transformer")
    ids = b.placeholder((batch, seq), dtype=DType.INT64, name="input_ids")
    table = b.parameter((vocab, hidden), name="embed_table")
    x = b.embedding(ids, table)
    x = b.transformer_layer(x, num_heads=heads, ffn_hidden=hidden * 2)
    x = b.reshape(x, (batch * seq, hidden))
    logits = b.linear(x, classes)
    labels2d = b.placeholder((batch, seq), dtype=DType.INT64, name="labels")
    labels = b.reshape(labels2d, (batch * seq,))
    loss = b.cross_entropy(logits, labels)
    b.loss(loss)
    return b.build()


def build_tiny_moe(batch=8, seq=8, hidden=32, experts=4, vocab=50, classes=11):
    """Transformer block with an MoE feed-forward layer."""
    b = GraphBuilder("tiny_moe")
    ids = b.placeholder((batch, seq), dtype=DType.INT64, name="input_ids")
    table = b.parameter((vocab, hidden), name="embed_table")
    x = b.embedding(ids, table)
    x = b.moe_layer(x, num_experts=experts, ffn_hidden=hidden * 2, capacity_factor=2.0)
    x = b.reshape(x, (batch * seq, hidden))
    logits = b.linear(x, classes)
    labels2d = b.placeholder((batch, seq), dtype=DType.INT64, name="labels")
    labels = b.reshape(labels2d, (batch * seq,))
    loss = b.cross_entropy(logits, labels)
    b.loss(loss)
    return b.build()


def build_deep_transformer(layers, batch=8, seq=4, hidden=16, heads=2):
    """Multi-layer transformer LM forward graph: a stack of identical layers
    (the single-layer registry models never repeat)."""
    b = GraphBuilder("deep")
    ids = b.placeholder((batch, seq), dtype=DType.INT64, name="input_ids")
    table = b.parameter((50, hidden), name="embed_table")
    x = b.embedding(ids, table)
    for i in range(layers):
        x = b.transformer_layer(x, num_heads=heads, ffn_hidden=hidden * 2, prefix=f"layer{i}")
    x = b.reshape(x, (batch * seq, hidden))
    logits = b.linear(x, 7)
    labels2d = b.placeholder((batch, seq), dtype=DType.INT64, name="labels")
    labels = b.reshape(labels2d, (batch * seq,))
    b.loss(b.cross_entropy(logits, labels))
    return b.build()


@pytest.fixture
def mlp_forward():
    return build_mlp()


@pytest.fixture
def mlp_training(mlp_forward):
    return build_training_graph(mlp_forward)


@pytest.fixture
def transformer_forward():
    return build_tiny_transformer()


@pytest.fixture
def transformer_training(transformer_forward):
    return build_training_graph(transformer_forward)


@pytest.fixture
def moe_forward():
    return build_tiny_moe()


@pytest.fixture
def moe_training(moe_forward):
    return build_training_graph(moe_forward)


def rename_nodes(forward: ComputationGraph, prefix: str = "r_") -> ComputationGraph:
    """An isomorphic copy of ``forward`` with ``prefix`` on every node name."""
    copy = ComputationGraph(f"{prefix}{forward.name}")
    for node in forward:
        copy.add_node(
            prefix + node.name, node.op, tuple(prefix + i for i in node.inputs), dict(node.attrs)
        )
    for out in forward.outputs:
        copy.mark_output(prefix + out)
    if forward.loss is not None:
        copy.mark_loss(prefix + forward.loss)
    return copy


#: Bytes of the sha256 digest that heads every ``DiskPlanCache`` file.
ENTRY_DIGEST_BYTES = 32


def seal(payload: bytes) -> bytes:
    """``payload`` behind its sha256 digest: the bytes of a ``DiskPlanCache`` file."""
    return hashlib.sha256(payload).digest() + payload


def read_cache_entry(path: Path):
    """Unpickle one ``DiskPlanCache`` file after checking its digest header."""
    data = path.read_bytes()
    payload = data[ENTRY_DIGEST_BYTES:]
    assert seal(payload) == data, "entry fails its checksum"
    return pickle.loads(payload)


def write_cache_entry(path: Path, entry, *, reseal: bool = True) -> None:
    """Pickle ``entry`` into ``path`` behind a digest header.

    With ``reseal`` the header is the new payload's digest, as a cache
    writer would write it.  Without it the file keeps its old header, as
    accidental damage would: the checksum no longer matches.
    """
    payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
    if reseal:
        path.write_bytes(seal(payload))
    else:
        path.write_bytes(path.read_bytes()[:ENTRY_DIGEST_BYTES] + payload)


def bindings_for(graph, seed=0):
    """Deterministic parameter + batch bindings for a (training) graph."""
    from repro.data import batches_for_graph
    from repro.runtime import init_parameters

    return {**init_parameters(graph, seed=seed), **batches_for_graph(graph, seed=seed + 1)}


@pytest.fixture
def rng():
    return np.random.default_rng(0)
