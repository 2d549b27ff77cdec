"""One measured process: set up, run the timed planning requests, check them.

Started by ``run.py`` as ``python -m benchmarks.e2e.child '<task json>'``;
prints one JSON result line.  Set-up (importing ``repro`` and building the
models) is timed from the first statement of :func:`main`, so each child
measures a genuinely cold start.  A :class:`~.timing.HostProbe` samples host
speed for the child's whole life; each timed region is reported raw and
normalized by the probe ticks near it.  Task kinds:

* ``cold``: plan one request from scratch (``hetero-pipeline``,
  ``flat-deep``, ``moe-memory``; the warm workloads use it to fill the cache);
* ``requests``: serve a sequence of ``warm-hit`` or ``warm-replan``
  requests, each through a fresh :class:`~repro.core.DiskPlanCache` view of
  the shared directory.

Verification, digests and simulation run outside the timed regions.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from typing import Dict, List

from .timing import HostProbe, Region


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(probe: HostProbe, start: float) -> Region:
    """The region from the child's first statement to now."""
    end = time.perf_counter()
    return Region(start, end, end - start - probe.spent)


def run_cold(task: Dict, probe: HostProbe, start: float) -> Dict:
    from . import workloads

    workload = task["workload"]
    cluster = workloads.build_cluster(workload)
    forward = workloads.build_forward(workload, cluster.num_gpus, task["prefix"])
    cache = None
    if task.get("cache_dir"):
        cache = workloads.DiskPlanCache(task["cache_dir"])
    setup = _setup(probe, start)
    recorder = _recorder(task)

    def request():
        return workloads.plan(workload, forward, cluster, cache)

    plan, region = probe.timed(request if recorder is None else lambda: recorder.request(request))
    rss = _rss_mb()
    if recorder is not None:
        recorder.uninstall()
    return {
        "regions": [setup, region],
        "rss_mb": rss,
        "errors": workloads.check(plan, forward, cluster),
        "digest": workloads.digest(plan),
        "iter_ms": workloads.iteration_ms(plan, cluster),
        "spans": recorder.spans if recorder is not None else None,
    }


def run_requests(task: Dict, probe: HostProbe, start: float) -> Dict:
    from . import workloads

    workload = task["workload"]
    cluster = workloads.build_cluster(workload)
    models = [workloads.build_forward(workload, cluster.num_gpus, p) for p in task["prefixes"]]
    rng = random.Random(task["sequence_seed"])
    sets = workloads.request_sets(workload, rng, len(models), task["last_set"])
    setup = _setup(probe, start)
    recorder = _recorder(task)
    regions: List[Region] = []
    hits = failed = 0
    errors: List[str] = []
    first = None
    loop_start = time.perf_counter()
    for i, name_set in enumerate(sets):
        forward = models[name_set]

        def request(forward=forward):
            cache = workloads.DiskPlanCache(task["cache_dir"])
            return workloads.plan(workload, forward, cluster, cache)

        plan, region = probe.timed(
            request if recorder is None else lambda request=request: recorder.request(request)
        )
        regions.append(region)
        hits += plan.reuse_stats.get("whole_plan_hit", 0)
        problems = workloads.check(plan, forward, cluster)
        if workloads.digest(plan) != task["expected_digest"]:
            problems.append("served plan differs from the cold plan")
        failed += bool(problems)
        errors += [f"request {i}: {p}" for p in problems]
        if first is None:
            first = plan
        if i + 1 >= task["min_requests"] and time.perf_counter() - loop_start >= task["deadline_s"]:
            break
    rss = _rss_mb()
    if recorder is not None:
        recorder.uninstall()
    return {
        "regions": [setup] + regions,
        "whole_plan_hits": hits,
        "last_set": name_set,
        "iter_ms": workloads.iteration_ms(first, cluster),
        "rss_mb": rss,
        "failed": failed,
        "errors": errors,
        "spans": recorder.spans if recorder is not None else None,
    }


def _recorder(task: Dict):
    if not task.get("trace"):
        return None
    from .trace import Recorder

    recorder = Recorder()
    recorder.install()
    return recorder


def main(argv: List[str]) -> int:
    start = time.perf_counter()
    task = json.loads(argv[0])
    runner = run_cold if task["kind"] == "cold" else run_requests
    with HostProbe() as probe:
        result = runner(task, probe, start)
    setup, *requests = result.pop("regions")
    result["setup_raw"] = setup.net
    result["setup_s"] = probe.normalize(setup)
    result["request_raw"] = [r.net for r in requests]
    result["request_wall"] = [r.end - r.start for r in requests]
    result["request_s"] = [probe.normalize(r) for r in requests]
    result["probe"] = [s for _, s in probe.samples]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
