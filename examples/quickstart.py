"""Quickstart: plan SPMD training for a small Transformer on a mixed cluster.

This is the reproduction's analogue of the paper's ``hap.HAP(model, device
specification)`` workflow (Sec. 6):

1. describe the single-device model as a computation graph,
2. describe the heterogeneous cluster,
3. call :func:`repro.hap.hap` to synthesize the distributed program and the
   sharding ratios,
4. execute one training iteration with the SPMD emulation runtime and check it
   matches single-device execution.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClusterSpec, Machine, NetworkSpec, device_type
from repro.core import SynthesisConfig
from repro.data import batches_for_graph
from repro.graph import DType, GraphBuilder
from repro.hap import hap
from repro.runtime import SingleDeviceExecutor, init_parameters
from repro.runtime.spmd import run_plan


def build_model(batch=64, seq=32, hidden=128, heads=8, vocab=1000):
    """A two-layer Transformer language model written for a single device."""
    b = GraphBuilder("quickstart_transformer")
    ids = b.placeholder((batch, seq), dtype=DType.INT64, name="input_ids")
    table = b.parameter((vocab, hidden), name="token_embeddings")
    x = b.embedding(ids, table)
    for layer in range(2):
        x = b.transformer_layer(x, num_heads=heads, ffn_hidden=hidden * 4, prefix=f"layer{layer}")
    x = b.reshape(x, (batch * seq, hidden))
    logits = b.linear(x, vocab, prefix="lm_head")
    labels2d = b.placeholder((batch, seq), dtype=DType.INT64, name="labels")
    labels = b.reshape(labels2d, (batch * seq,))
    loss = b.cross_entropy(logits, labels)
    b.loss(loss)
    return b.build()


def build_cluster():
    """Two A100 GPUs and two P100 GPUs connected by a 100 Gbps network."""
    machines = [
        Machine("a1", device_type("A100"), num_gpus=1),
        Machine("a2", device_type("A100"), num_gpus=1),
        Machine("p1", device_type("P100"), num_gpus=1),
        Machine("p2", device_type("P100"), num_gpus=1),
    ]
    network = NetworkSpec(bandwidth=100e9 / 8, latency=20e-6)
    return ClusterSpec(machines, network=network, group_by_machine=False, name="quickstart")


def main() -> None:
    forward = build_model()
    cluster = build_cluster()
    print(cluster.describe())
    print()

    plan = hap(forward, cluster, SynthesisConfig(beam_width=16))
    print(plan.describe())
    print()
    print("First stages of the synthesized distributed program:")
    for line in plan.program.describe().splitlines()[:25]:
        print(" ", line)
    print("  ...")

    # Execute one iteration with the SPMD emulation runtime and compare
    # against single-device execution of the same training graph.
    bindings = {**init_parameters(plan.program.graph, seed=0), **batches_for_graph(plan.program.graph, seed=1)}
    reference = SingleDeviceExecutor(plan.program.graph).run(bindings)
    distributed = run_plan(plan, bindings)
    ref_loss = float(reference[plan.program.graph.loss])
    print()
    print(f"single-device loss : {ref_loss:.6f}")
    print(f"SPMD emulated loss : {distributed.loss:.6f}")
    max_err = max(
        float(np.max(np.abs(reference[name] - distributed.outputs[name])))
        for name in reference
        if name in distributed.outputs
    )
    print(f"max |difference| over updated parameters: {max_err:.2e}")
    assert abs(ref_loss - distributed.loss) < 1e-2
    print("OK: the distributed program is semantically equivalent.")


if __name__ == "__main__":
    main()
