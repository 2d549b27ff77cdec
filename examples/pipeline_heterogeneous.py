"""Hierarchical planning demo: pipeline-over-SPMD on a whimpy hetero cluster.

Plans BERT on the paper's heterogeneous testbed (V100 + P100 machines joined
by a ~10.4 Gbps network) under the assumption that links *inside* each
machine group are fast (100 Gbps rack-local) while the flat network is the
slow inter-group bottleneck.  Flat HAP must synchronise every gradient over
the slow link each iteration; the hierarchical planner pipelines SPMD stages
across the machine groups so gradients stay inside the fast groups and only
thin boundary activations cross the slow link.

Run with:  PYTHONPATH=src python examples/pipeline_heterogeneous.py
"""

from repro.cluster import NetworkSpec, heterogeneous_testbed
from repro.core import HierarchicalConfig, SynthesisConfig
from repro.hap import hap, hap_pipeline
from repro.models.bert import BERTConfig, build_bert
from repro.simulator import simulate_hierarchical, simulate_plan


def main() -> None:
    cluster = heterogeneous_testbed(num_gpus=32, gpus_per_machine=8)
    print(cluster.describe())
    print()

    forward = build_bert(BERTConfig(batch_size=64, num_layers=4))
    synthesis = SynthesisConfig(beam_width=8)

    config = HierarchicalConfig(
        synthesis=synthesis,
        # Machine groups are rack-local islands with fast internal links;
        # the cluster's flat 10.4 Gbps network is the inter-group link.
        intra_group_network=NetworkSpec(bandwidth=100e9 / 8),
    )
    plan = hap_pipeline(forward, cluster, config)
    print(plan.describe())
    print()
    # Each stage runs on its own machine group; the cluster's flat network
    # is the link between the groups.
    print(f"inter-group link: {cluster.network.bandwidth * 8 / 1e9:.1f} Gbps")
    for stage in plan.stages:
        group = stage.subcluster
        gpus = ", ".join(f"{m.num_gpus}x{m.gpu.name}" for m in group.machines)
        share = group.total_flops() / cluster.total_flops()
        print(
            f"  {group.name}: {len(group.machines)} machines ({gpus}), "
            f"{share:.0%} of cluster compute"
        )
    print()

    recompute = "on" if plan.recompute else "off"
    print(f"chosen schedule:        {plan.schedule_name}")
    print(f"microbatches:           {plan.num_microbatches}")
    print(f"activation recompute:   {recompute}")
    for stage, stash in zip(plan.stages, plan.schedule.peak_stash):
        # The worst device under the per-device model the planner judged by.
        peak, cap = max(
            zip(stage.peak_device_memory(stash), stage.subcluster.device_memory()),
            key=lambda pair: pair[0] / pair[1],
        )
        print(
            f"stage {stage.index} worst device:    {peak / 1e9:6.2f} GB "
            f"of {cap / 1e9:.0f} GB on {stage.subcluster.name} "
            f"(in-flight microbatches: {plan.schedule.peak_inflight[stage.index]})"
        )
    print()

    flat = hap(forward, cluster, synthesis)
    pipeline_time = simulate_hierarchical(plan, iterations=3, seed=0).total
    flat_time = simulate_plan(flat, cluster, iterations=3, seed=0).total
    print(f"simulated iteration time, flat HAP:      {flat_time * 1e3:8.1f} ms")
    print(f"simulated iteration time, HAP-Pipeline:  {pipeline_time * 1e3:8.1f} ms")
    print(f"pipeline speed-up over flat SPMD:        {flat_time / pipeline_time:8.2f}x")


if __name__ == "__main__":
    main()
