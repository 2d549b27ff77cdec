"""Uneven expert placement for Mixture-of-Experts models (Fig. 17 style).

Trains a small BERT-MoE with an expert count that does not divide the device
count on a 2x A100 + 2x P100 cluster.  DeepSpeed-style expert parallelism must
pad the expert count to a multiple of four; HAP shards the expert dimension
unevenly and gives more experts to the faster A100 GPUs.

Run with:  python examples/moe_uneven_experts.py [--experts 6]
"""

from __future__ import annotations

import argparse

from repro.autodiff import build_training_graph
from repro.baselines import plan_baseline
from repro.cluster import a100_p100_pair
from repro.core import SynthesisConfig
from repro.graph import shard_sizes
from repro.hap import hap
from repro.models import BERTMoEConfig, build_bert_moe
from repro.simulator import ExecutionSimulator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experts", type=int, default=6, help="number of experts (try one not divisible by 4)")
    parser.add_argument("--beam", type=int, default=8)
    args = parser.parse_args()

    cluster = a100_p100_pair()
    print(cluster.describe())
    print()

    def build(num_experts: int):
        config = BERTMoEConfig(
            batch_size=max(1, 32 * num_experts // 16),
            seq_len=32,
            hidden_size=128,
            num_layers=2,
            num_heads=4,
            vocab_size=4096,
            num_experts=num_experts,
        )
        return build_training_graph(build_bert_moe(config)).graph

    planner = SynthesisConfig(beam_width=args.beam)
    simulator = ExecutionSimulator(cluster, seed=0)

    hap_plan = hap(build(args.experts), cluster, planner)
    hap_time = simulator.simulate(hap_plan.program, hap_plan.flat_ratios, iterations=2).total

    padded = ((args.experts + 3) // 4) * 4
    ds_plan = plan_baseline("DeepSpeed", build(padded), cluster, planner)
    ds_time = simulator.simulate(ds_plan.program, ds_plan.flat_ratios, iterations=2).total

    print(f"experts requested: {args.experts}   (DeepSpeed pads to {padded})")
    print(f"HAP        per-iteration time: {hap_time * 1e3:8.2f} ms")
    print(f"DeepSpeed  per-iteration time: {ds_time * 1e3:8.2f} ms")
    print(f"HAP speed-up: {ds_time / hap_time:.2f}x")
    print()

    ratios = hap_plan.flat_ratios
    sharded_expert_params = [
        name for name, dim in hap_plan.program.parameter_shardings().items() if dim == 0
    ]
    if sharded_expert_params:
        placement = shard_sizes(args.experts, ratios)
        print("HAP expert placement (experts per device):")
        for device, count in zip(cluster.virtual_devices, placement):
            print(f"  {device.name:16s} ratio={ratios[device.index]:.3f}  experts={count}")
        print(f"(derived from the sharded expert parameter {sharded_expert_params[0]!r})")
    else:
        print("HAP kept the expert parameters replicated for this configuration;")
        print(f"per-device sharding ratios: {[round(r, 3) for r in ratios]}")
        print("(try a larger --beam or more experts to see uneven expert placement)")


if __name__ == "__main__":
    main()
