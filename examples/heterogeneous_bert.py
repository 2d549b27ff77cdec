"""Train BERT on the paper's heterogeneous V100+P100 testbed (Fig. 13 style).

Plans BERT-Base (reduced depth so the example runs in about a minute) on the
2x8 V100 + 6x8 P100 cluster and compares HAP against the DP-EV / DP-CP /
DeepSpeed baselines on the execution simulator.

Run with:  python examples/heterogeneous_bert.py [--gpus 32] [--layers 3]
"""

from __future__ import annotations

import argparse

from repro.cluster import heterogeneous_testbed
from repro.core import SynthesisConfig
from repro.experiments import compare_systems, format_comparison
from repro.models import BenchmarkScale


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gpus", type=int, default=32, help="total number of GPUs (multiple of 8)")
    parser.add_argument("--layers", type=int, default=3, help="number of BERT encoder layers")
    parser.add_argument("--beam", type=int, default=8, help="synthesizer beam width")
    args = parser.parse_args()

    cluster = heterogeneous_testbed(args.gpus)
    print(cluster.describe())
    print()

    scale = BenchmarkScale("example", layer_fraction=args.layers / 12.0, batch_per_device=64)
    planner = SynthesisConfig(beam_width=args.beam)

    comparison = compare_systems(
        "bert_base",
        cluster,
        num_gpus=args.gpus,
        systems=["HAP", "DP-EV", "DP-CP", "DeepSpeed"],
        scale=scale,
        planner_config=planner,
    )
    print(format_comparison(comparison))
    hap = comparison.results["HAP"]
    print()
    print(f"HAP plan uses collectives: {hap.comm_kinds}")
    print(f"planning time: {hap.planning_seconds:.1f}s")


if __name__ == "__main__":
    main()
