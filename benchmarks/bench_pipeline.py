"""Pipeline-schedule planning benchmark harness.

Times hierarchical (pipeline-over-SPMD) planning — whose candidate space is
now a (stage count x schedule x microbatch count x recomputation) grid — on
four representative testbeds, and records the chosen plan so schedule-search
cost regressions and plan-quality drifts are both visible:

* ``hetero-bandwidth``: the whimpy heterogeneous cluster (fast rack-local
  links, slow 10.4 Gbps inter-group network) where pipelining wins big;
* ``memory-constrained``: 1 GB devices where GPipe's linear activation
  footprint is infeasible and the planner must fall back to 1F1B-family
  schedules at high microbatch counts;
* ``homogeneous-fast``: a homogeneous cluster with a fast flat network,
  the control case where neither bandwidth nor memory forces pipelining;
  it records the stage count the search picks without asserting one (a
  ``--fast`` run picks 2-stage GPipe with 16 microbatches);
* ``interleaved-chunked``: the bandwidth-constrained cluster again, with the
  search forced onto ``interleaved-1f1b`` so planning must cut ``s * v`` real
  model chunks and run flat HAP per chunk — the per-chunk planning cost that
  the ``--max-planning-seconds`` guard keeps in check.

The ``hetero-bandwidth`` entry doubles as the **overlap testbed**: the chosen
plan's measured stage profiles are re-simulated per schedule with blocking
(``overlap=0``) and with the cluster's default overlap efficiency, recording
exposed-vs-hidden boundary-transfer seconds into the report (``overlap`` key)
so drifts in how much communication the dual-stream schedules hide are
visible next to the planning-cost numbers.

Usage::

    PYTHONPATH=src python -m benchmarks.bench_pipeline            # default
    PYTHONPATH=src python -m benchmarks.bench_pipeline --fast     # CI-sized
    PYTHONPATH=src python -m benchmarks.bench_pipeline --max-planning-seconds 120

Every testbed's chosen plan is additionally run through the static plan
verifier (:func:`repro.verify.verify_plan`) and the performance linter
(:func:`repro.verify.lint_plan`), with the wall-clocks recorded as
``verify_seconds`` and ``lint_seconds`` next to ``planning_seconds`` (plus
``lint_warnings`` / ``lint_warning_codes`` counts) — both are priced
separately and deliberately outside the ``--max-planning-seconds`` budget; an
unverifiable plan aborts the benchmark.

A **warm-cache** section re-plans the hetero testbed through an in-memory
plan cache and records the cold/warm speedup (``warm_cache`` key); the
``--min-cache-speedup`` guard enforces that a warm hit stays O(lookup).

Writes ``benchmarks/results/BENCH_pipeline.json`` (a git-ignored directory,
so bench runs never dirty the tree).  With ``--max-planning-seconds`` the
harness exits non-zero when any testbed's planner wall-clock exceeds the
budget — the CI guard against schedule-search blow-ups.  This file
deliberately does not match ``test_*.py`` so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.cluster import ClusterSpec, Machine, NetworkSpec, heterogeneous_testbed, homogeneous_testbed
from repro.cluster.device import DeviceType
from repro.core import HierarchicalConfig, InMemoryPlanCache
from repro.hap import hap_pipeline
from repro.models import BenchmarkScale, build_model
from repro.simulator import simulate_hierarchical, simulate_pipeline
from repro.verify import lint_plan, verify_plan

from .conftest import bench_planner


def _overlap_record(plan) -> Dict[str, object]:
    """Exposed-vs-hidden boundary transfer per schedule for one plan.

    Re-simulates the plan's measured stage profiles under every
    single-chunk schedule, blocking vs the plan's overlap efficiency.  The
    blocking baseline is profiled with ``overlap=0`` end to end — chunk
    collectives *and* boundary transfers serialized — so the recorded gap
    is the full dual-stream win, not just the boundary-transfer part.
    """
    blocking_profiles = simulate_hierarchical(plan, iterations=1, overlap=0.0).stage_times
    overlap_profiles = simulate_hierarchical(plan, iterations=1).stage_times
    network = plan.partition.inter_group_network
    schedules: Dict[str, object] = {}
    for name in ("gpipe", "1f1b"):
        kwargs = dict(
            num_microbatches=plan.num_microbatches,
            inter_group_bandwidth=network.bandwidth,
            inter_group_latency=network.latency,
            microbatch_overhead=plan.microbatch_overhead,
            schedule=name,
            num_model_chunks=1,
        )
        try:
            blocking = simulate_pipeline(blocking_profiles, overlap=0.0, **kwargs)
            overlapped = simulate_pipeline(
                overlap_profiles, overlap=plan.overlap, **kwargs
            )
        except ValueError:
            continue  # schedule cannot run this configuration
        schedules[name] = {
            "blocking_ms": blocking.total * 1e3,
            "overlapped_ms": overlapped.total * 1e3,
            "transfer_ms": overlapped.transfer * 1e3,
            "exposed_transfer_ms": overlapped.exposed_transfer * 1e3,
            "hidden_transfer_ms": overlapped.hidden_transfer * 1e3,
            "hidden_fraction": (
                overlapped.hidden_transfer / overlapped.transfer
                if overlapped.transfer
                else 0.0
            ),
        }
    return {"efficiency": plan.overlap, "schedules": schedules}


def _memory_constrained_cluster(num_machines: int = 4) -> ClusterSpec:
    small = DeviceType("SmallGPU", peak_tflops=15.0, memory_bytes=1 * 1024 ** 3)
    machines = [
        Machine(f"m{i}", small, num_gpus=1, intra_bandwidth=100e9)
        for i in range(num_machines)
    ]
    return ClusterSpec(
        machines,
        network=NetworkSpec(bandwidth=100e9 / 8, latency=5e-6),
        group_by_machine=True,
        name="mem-constrained",
    )


def _homogeneous_fast() -> ClusterSpec:
    base = homogeneous_testbed()
    return ClusterSpec(
        base.machines,
        network=NetworkSpec(bandwidth=200e9, latency=1e-6),
        group_by_machine=base.group_by_machine,
        name="homog-fast",
    )


def _testbeds(fast: bool) -> List[Dict[str, object]]:
    """(name, cluster, per-testbed overrides) per benchmarked setup."""
    intra = NetworkSpec(bandwidth=100e9 / 8)
    # The memory-constrained testbed needs a batch large enough that GPipe's
    # linear activation stash bursts the 1 GB devices while 1F1B's
    # depth-bounded stash fits — otherwise the schedule-selection path the
    # benchmark documents would go unexercised.
    memory_scale = BenchmarkScale(
        "bench-mem", layer_fraction=0.17 if fast else 0.34, batch_per_device=16
    )
    return [
        {
            "name": "hetero-bandwidth",
            "cluster": heterogeneous_testbed(num_gpus=16 if fast else 32, gpus_per_machine=8),
            "intra_group_network": intra,
            "scale": None,
        },
        {
            "name": "memory-constrained",
            "cluster": _memory_constrained_cluster(),
            "intra_group_network": None,
            "scale": memory_scale,
        },
        {
            "name": "homogeneous-fast",
            "cluster": _homogeneous_fast(),
            "intra_group_network": None,
            "scale": None,
        },
        {
            "name": "interleaved-chunked",
            "cluster": heterogeneous_testbed(num_gpus=16 if fast else 32, gpus_per_machine=8),
            "intra_group_network": intra,
            "scale": None,
            "schedules": ["interleaved-1f1b"],
            "num_model_chunks": 2,
        },
    ]


def bench_warm_cache(fast: bool, beam: int, rounds: int) -> Dict[str, object]:
    """Cold-vs-warm planning of the hetero testbed through the plan cache.

    The cold pass plans from scratch and populates an
    :class:`~repro.core.InMemoryPlanCache`; the warm pass re-plans the exact
    same (graph, cluster, config) problem and must be served by the
    content-addressed whole-plan entry — the planner-as-a-service scenario
    where repeated plan requests are O(lookup).
    """
    cluster = heterogeneous_testbed(num_gpus=16 if fast else 32, gpus_per_machine=8)
    scale = BenchmarkScale(
        "bench", layer_fraction=0.17 if fast else 0.34, batch_per_device=4 if fast else 8
    )
    forward = build_model("bert_base", num_gpus=cluster.num_gpus, scale=scale)
    cache = InMemoryPlanCache()
    config = HierarchicalConfig(
        planner=bench_planner(beam=beam, rounds=rounds),
        intra_group_network=NetworkSpec(bandwidth=100e9 / 8),
        plan_cache=cache,
    )
    t0 = time.perf_counter()
    cold = hap_pipeline(forward, cluster, config)
    cold_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = hap_pipeline(forward, cluster, config)
    warm_seconds = time.perf_counter() - t0
    record = {
        "testbed": "hetero-bandwidth",
        "num_gpus": cluster.num_gpus,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "cache_speedup": cold_seconds / warm_seconds,
        "whole_plan_hit": warm.reuse_stats.get("whole_plan_hit", 0),
        "identical": (
            warm.estimated_time == cold.estimated_time
            and warm.schedule_name == cold.schedule_name
            and warm.num_stages == cold.num_stages
        ),
        "cold_reuse_stats": cold.reuse_stats,
        "cache_entries": len(cache),
    }
    print(
        f"{'warm-cache':>20s}: cold {cold_seconds:6.2f}s -> warm "
        f"{warm_seconds * 1e3:6.1f} ms ({record['cache_speedup']:.0f}x, "
        f"hit={record['whole_plan_hit']}, identical={record['identical']})"
    )
    return record


def run_benchmark(fast: bool, beam: int, rounds: int) -> Dict[str, object]:
    # The reduced batch exercises BenchmarkScale.batch_per_device end to end:
    # the global batch genuinely shrinks with the scale now.
    default_scale = BenchmarkScale(
        "bench", layer_fraction=0.17 if fast else 0.34, batch_per_device=4 if fast else 8
    )
    results: List[Dict[str, object]] = []
    for testbed in _testbeds(fast):
        cluster: ClusterSpec = testbed["cluster"]  # type: ignore[assignment]
        scale: BenchmarkScale = testbed["scale"] or default_scale  # type: ignore[assignment]
        forward = build_model("bert_base", num_gpus=cluster.num_gpus, scale=scale)
        config = HierarchicalConfig(
            planner=bench_planner(beam=beam, rounds=rounds),
            intra_group_network=testbed["intra_group_network"],  # type: ignore[arg-type]
            schedules=testbed.get("schedules"),  # type: ignore[arg-type]
            num_model_chunks=testbed.get("num_model_chunks", 2),  # type: ignore[arg-type]
        )
        start = time.perf_counter()
        plan = hap_pipeline(forward, cluster, config)
        planning_seconds = time.perf_counter() - start
        # Price the static plan verifier separately from planning so the
        # --max-planning-seconds guard stays a pure planner budget.
        start = time.perf_counter()
        verification = verify_plan(plan, forward, lint=False)
        verify_seconds = time.perf_counter() - start
        # The W-code performance lints are priced on their own line too.
        start = time.perf_counter()
        lint_report = lint_plan(plan)
        lint_seconds = time.perf_counter() - start
        overlap_record = None
        if testbed["name"] == "hetero-bandwidth" and plan.num_stages > 1:
            overlap_record = _overlap_record(plan)
        results.append(
            {
                "testbed": testbed["name"],
                "overlap": overlap_record,
                "num_gpus": cluster.num_gpus,
                "batch_per_device": scale.batch_per_device,
                "planning_seconds": planning_seconds,
                "verify_seconds": verify_seconds,
                "verified_ok": verification.ok,
                "lint_seconds": lint_seconds,
                "lint_warnings": len(lint_report.warnings),
                "lint_warning_codes": sorted(d.code for d in lint_report.warnings),
                "num_stages": plan.num_stages,
                "schedule": plan.schedule_name,
                "num_microbatches": plan.num_microbatches,
                "num_model_chunks": plan.num_model_chunks,
                "num_chunk_programs": len(plan.chunk_sequence()),
                "recompute": plan.recompute,
                "fits_memory": plan.fits_memory,
                "estimated_ms": plan.estimated_time * 1e3,
                "bubble_fraction": plan.schedule.bubble_fraction,
                "candidates_evaluated": len(plan.schedule_candidate_times),
                "peak_memory_gb": [p / 1e9 for p in plan.peak_memory],
            }
        )
        print(
            f"{testbed['name']:>20s}: planned in {planning_seconds:6.1f}s -> "
            f"{plan.num_stages} stage(s), {plan.schedule_name} x{plan.num_microbatches} mb, "
            f"est {plan.estimated_time * 1e3:.1f} ms "
            f"({len(plan.schedule_candidate_times)} candidates), "
            f"verified in {verify_seconds * 1e3:.0f} ms, "
            f"linted in {lint_seconds * 1e3:.1f} ms "
            f"({len(lint_report.warnings)} warning(s))"
        )
        if not verification.ok:
            print(verification.describe(), file=sys.stderr)
            raise SystemExit(f"planner emitted an unverifiable plan on {testbed['name']}")
        if overlap_record:
            for name, rec in overlap_record["schedules"].items():
                print(
                    f"{'':>20s}  overlap[{name}]: {rec['blocking_ms']:.1f} -> "
                    f"{rec['overlapped_ms']:.1f} ms, hides "
                    f"{rec['hidden_fraction'] * 100:.0f}% of transfer"
                )
    return {
        "benchmark": "pipeline-schedule planning",
        "mode": "fast" if fast else "default",
        "scale": {
            "layer_fraction": default_scale.layer_fraction,
            "batch_per_device": default_scale.batch_per_device,
        },
        "beam_width": beam,
        "max_rounds": rounds,
        "python": platform.python_version(),
        "results": results,
        "warm_cache": bench_warm_cache(fast, beam, rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="CI-sized sweep")
    parser.add_argument("--beam", type=int, default=8, help="per-stage synthesis beam width")
    parser.add_argument("--rounds", type=int, default=1, help="per-stage (Q, B) rounds")
    parser.add_argument(
        "--output",
        default="benchmarks/results/BENCH_pipeline.json",
        help="where to write the JSON report (the default lives under the "
        "git-ignored benchmarks/results/ so runs never dirty the tree)",
    )
    parser.add_argument(
        "--max-planning-seconds",
        type=float,
        default=None,
        help="fail when any testbed's planner wall-clock exceeds this budget",
    )
    parser.add_argument(
        "--min-cache-speedup",
        type=float,
        default=None,
        help="fail when the warm plan-cache re-plan of the hetero testbed is "
        "not at least this much faster than the cold plan",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.fast, args.beam, args.rounds)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    warm = report["warm_cache"]  # type: ignore[index]
    if not warm["identical"] or not warm["whole_plan_hit"]:
        print("FAIL: warm re-plan was not a cache hit for the identical plan", file=sys.stderr)
        return 1
    if args.min_cache_speedup is not None and warm["cache_speedup"] < args.min_cache_speedup:
        print(
            f"FAIL: warm-cache speedup {warm['cache_speedup']:.1f}x is below "
            f"the --min-cache-speedup guard of {args.min_cache_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    if args.max_planning_seconds is not None:
        slow = [
            r
            for r in report["results"]  # type: ignore[union-attr]
            if r["planning_seconds"] > args.max_planning_seconds
        ]
        if slow:
            names = ", ".join(
                f"{r['testbed']} ({r['planning_seconds']:.1f}s)" for r in slow
            )
            print(
                f"FAIL: planning exceeded {args.max_planning_seconds:.0f}s on: {names}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
