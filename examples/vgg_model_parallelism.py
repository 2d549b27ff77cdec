"""VGG19 on a heterogeneous cluster: where model parallelism beats DP.

VGG19's convolutional layers are compute-heavy while its 4096-wide
fully-connected classifier is communication-heavy under data parallelism
(hundreds of megabytes of gradients per iteration over a 10.4 Gbps network).
This example shows the per-layer decisions HAP makes — data parallelism for
the convolutions, sharded parameters / sufficient factors for the classifier —
and the resulting speed-up over DP-EV, mirroring the largest gains reported in
Fig. 13.

Run with:  python examples/vgg_model_parallelism.py [--gpus 16]
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro.autodiff import build_training_graph
from repro.baselines import plan_baseline
from repro.cluster import heterogeneous_testbed
from repro.core import SynthesisConfig
from repro.hap import hap
from repro.models import VGGConfig, build_vgg19
from repro.simulator import ExecutionSimulator


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--gpus", type=int, default=16)
    parser.add_argument("--image-size", type=int, default=64, help="input resolution (224 = paper scale)")
    parser.add_argument("--beam", type=int, default=8)
    args = parser.parse_args()

    cluster = heterogeneous_testbed(args.gpus)
    graph = build_training_graph(
        build_vgg19(VGGConfig(batch_size=64 * args.gpus, image_size=args.image_size))
    ).graph
    print(f"VGG19 training graph: {len(graph)} nodes, "
          f"{graph.parameter_count() / 1e6:.1f} M parameters")
    print(cluster.describe())
    print()

    planner = SynthesisConfig(beam_width=args.beam)
    simulator = ExecutionSimulator(cluster, seed=0)

    plans = {"HAP": hap(graph, cluster, planner)}
    for system in ("DP-EV", "DP-CP"):
        plans[system] = plan_baseline(system, graph, cluster, planner)

    results = {}
    for system, plan in plans.items():
        time = simulator.simulate(plan.program, plan.flat_ratios, iterations=2).total
        results[system] = (plan, time)
        print(f"{system:8s}: {time * 1e3:8.1f} ms/iteration   collectives={plan.program.communication_kinds()}")

    hap_plan, hap_time = results["HAP"]
    best_dp = min(results["DP-EV"][1], results["DP-CP"][1])
    print(f"\nHAP speed-up over the best DP baseline: {best_dp / hap_time:.2f}x")

    shardings = hap_plan.program.parameter_shardings()
    fc_params = [n for n in shardings if n.startswith(("fc1", "fc2", "classifier"))]
    conv_params = [n for n in shardings if n not in fc_params]
    print("\nHAP parameter shardings:")
    print("  convolution parameters:", Counter(
        "replicated" if shardings[n] is None else f"sharded(dim {shardings[n]})" for n in conv_params
    ))
    print("  classifier parameters: ", Counter(
        "replicated" if shardings[n] is None else f"sharded(dim {shardings[n]})" for n in fc_params
    ))


if __name__ == "__main__":
    main()
