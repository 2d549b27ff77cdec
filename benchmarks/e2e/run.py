"""End-to-end planner benchmark: one workload per invocation.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload hetero-pipeline --seed 0 --seconds 20 --trace 0

Every planning sample runs in a fresh child process (``child.py``), one at a
time, with one BLAS/OpenMP thread.  Timed regions are host-normalized by the
host probe of ``timing.py``.  The run prints each metric with its unit
and sample count, writes a JSON report (plus a Chrome trace with
``--trace 1``) under ``benchmarks/results/e2e/``, and prints as its last
line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics, or the per-layer metrics of a traced run.  It exits non-zero when a
plan fails verification or the digests disagree.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
if not __package__:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e.timing import REF_NOMINAL_S  # noqa: E402
from benchmarks.e2e.trace import (  # noqa: E402
    PER_LAYER_UNITS,
    chrome_trace,
    layer_metrics,
    self_times,
)

#: Workload -> why it is in the benchmark (``BENCHMARK.json`` repeats these).
WORKLOADS: Dict[str, str] = {
    "hetero-pipeline": "the paper's setting: hap_pipeline of BERT on the 32-GPU hetero testbed runs the full candidate grid",
    "flat-deep": "one large training graph: one theory and one long synthesis over repeated layers, no hierarchy or cache",
    "moe-memory": "MoE all-to-all rules and the memory-bound schedule search on 1 GiB devices",
    "warm-hit": "the hetero plan served whole from a disk plan cache: load, verify and fingerprint, no planning",
    "warm-replan": "the hetero problem renamed on every request: replans from cached chunks and rewrites the whole-plan entry",
}
COLD = ("hetero-pipeline", "flat-deep", "moe-memory")

#: Every end-to-end metric with its unit; ``BENCHMARK.json`` lists the same.
E2E_UNITS: Dict[str, str] = {
    "plan_s": "s",
    "iter_ms": "sim_ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: A cold run measures at least this many samples, even past ``--seconds``.
MIN_COLD_SAMPLES = 5
#: A traced cold run measures at least this many untraced/traced pairs.
MIN_TRACE_PAIRS = 3
#: Request-serving children of a warm run (a traced run: one untraced, one
#: traced), and the requests each serves at least.
WARM_CHILDREN = 3
MIN_WARM_REQUESTS = 10
#: Node-name sets a warm run's requests choose from.
NAME_SETS = 4
#: Percentiles a report's tail latency may use, highest first; it uses the
#: first with at least :data:`TAIL_BEYOND` samples above it.
TAIL_PERCENTILES = (99, 90, 75)
TAIL_BEYOND = 10
#: Children are killed when the whole run would exceed this.
RUN_LIMIT_S = 170.0
RESULTS = ROOT / "benchmarks" / "results" / "e2e"


class ChildFailed(RuntimeError):
    """A child process crashed or ran out of time."""


class Run:
    """State of one invocation: its clock, seeded choices and children."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(seed)
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def name_prefix(self) -> str:
        return f"n{self.rng.randrange(16 ** 6):06x}_"

    def child(self, task: Dict) -> Dict:
        env = dict(os.environ)
        env.update({var: "1" for var in THREAD_VARS})
        env["REPRO_VERIFY"] = "0"  # the library default: no verification inside planning
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "benchmarks.e2e.child", json.dumps(task)],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"child exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
        if proc.returncode != 0:
            raise ChildFailed(f"child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["wall_s"] = time.perf_counter() - started
        result["traced"] = bool(task.get("trace"))
        return result


def measure_cold(run: Run) -> Dict:
    """Cold samples back to back until ``--seconds`` (traced: untraced/traced pairs)."""
    samples: List[Dict] = []
    unit = 2 if run.trace else 1
    minimum = 2 * MIN_TRACE_PAIRS if run.trace else MIN_COLD_SAMPLES
    while True:
        if len(samples) >= minimum and len(samples) % unit == 0:
            typical = statistics.median(s["wall_s"] for s in samples)
            if run.elapsed() + unit * typical > run.seconds:
                break
        task = {
            "kind": "cold",
            "workload": run.workload,
            "prefix": run.name_prefix(),
            "trace": run.trace and len(samples) % 2 == 1,
        }
        samples.append(run.child(task))
    failed = 0
    for s in samples:
        if s["digest"] != samples[0]["digest"]:
            s["errors"].append("plan digest differs from the first sample's")
        failed += bool(s["errors"])
    measured = [s for s in samples if not s["traced"]]
    overhead = None
    if run.trace:
        pairs = zip(samples[0::2], samples[1::2])
        overhead = [t["request_s"][0] / u["request_s"][0] for u, t in pairs]
    return {
        "samples": samples,
        "measured": measured,
        "attempted": len(samples),
        "failed": failed,
        "digest": samples[0]["digest"],
        "times": [s["request_s"][0] for s in measured],
        "setup": [s["setup_s"] for s in measured],
        "rss": [s["rss_mb"] for s in measured],
        "iter_ms": [s["iter_ms"] for s in measured],
        "trace_overhead": overhead,
    }


def measure_warm(run: Run) -> Dict:
    """Fill a disk cache with one cold plan, then serve requests from it."""
    cache_dir = RESULTS / f"cache-{os.getpid()}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    try:
        prefixes = [run.name_prefix() for _ in range(NAME_SETS)]
        fill = run.child(
            {"kind": "cold", "workload": run.workload, "prefix": prefixes[0],
             "cache_dir": str(cache_dir)}
        )
        # A child's start-up and checks, beside its request loop.
        startup = fill["wall_s"] - fill["request_raw"][0]
        traced = [False, True] if run.trace else [False] * WARM_CHILDREN
        children: List[Dict] = []
        last_set = 0  # the fill wrote the whole-plan entry under name set 0
        for i, trace_child in enumerate(traced):
            budget = (run.seconds - run.elapsed()) / (len(traced) - i)
            task = {
                "kind": "requests",
                "workload": run.workload,
                "prefixes": prefixes,
                "cache_dir": str(cache_dir),
                "sequence_seed": run.rng.randrange(2 ** 32),
                "last_set": last_set,
                "min_requests": MIN_WARM_REQUESTS,
                "deadline_s": max(0.0, budget - startup),
                "expected_digest": fill["digest"],
                "trace": trace_child,
            }
            children.append(run.child(task))
            last_set = children[-1]["last_set"]
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    measured = [c for c in children if not c["traced"]]
    fill_s = fill["setup_s"] + fill["request_s"][0]
    requests = sum(len(c["request_raw"]) for c in children)
    overhead = None
    if run.trace:
        untraced, traced_child = (statistics.median(c["request_s"]) for c in children)
        overhead = [traced_child / untraced]
    return {
        "samples": [fill] + children,
        "measured": measured,
        "attempted": 1 + requests,
        "failed": bool(fill["errors"]) + sum(c["failed"] for c in children),
        "digest": fill["digest"],
        "times": [t for c in measured for t in c["request_s"]],
        "setup": [fill_s + c["setup_s"] for c in measured],
        "rss": [c["rss_mb"] for c in measured],
        "iter_ms": [fill["iter_ms"]] + [c["iter_ms"] for c in children],
        "whole_plan_hit_ratio": sum(c["whole_plan_hits"] for c in children) / requests,
        "trace_overhead": overhead,
    }


def end_to_end(result: Dict) -> Dict[str, Dict]:
    """Medians over the run's samples; memory is the peak over its children.

    A child's peak RSS on ``moe-memory`` is one of two values 13 MB apart
    for the same plan, so a median of five flips between them.
    """
    samples = {
        "plan_s": result["times"],
        "iter_ms": result["iter_ms"],
        "setup_s": result["setup"],
        "peak_rss_mb": result["rss"],
    }
    return {
        k: {
            "value": max(v) if k == "peak_rss_mb" else statistics.median(v),
            "unit": E2E_UNITS[k],
            "n": len(v),
        }
        for k, v in samples.items()
    }


def tail(times: List[float]) -> Optional[Dict]:
    """The highest supported percentile of ``times``, or None when none is."""
    for q in TAIL_PERCENTILES:
        if len(times) * (100 - q) / 100 >= TAIL_BEYOND:
            value = statistics.quantiles(times, n=100, method="inclusive")[q - 1]
            return {"percentile": q, "value": value, "n": len(times)}
    return None


def per_layer(result: Dict) -> Dict[str, Dict]:
    """Per-request layer metrics averaged over the traced samples."""
    traced = [s for s in result["samples"] if s["traced"]]
    per_sample = [layer_metrics(s["spans"], s["request_wall"], s["request_s"]) for s in traced]
    requests = sum(len(s["request_wall"]) for s in traced)
    return {
        k: {"value": statistics.mean(m[k] for m in per_sample), "unit": u, "n": requests}
        for k, u in PER_LAYER_UNITS.items()
    }


def self_time_coverage(result: Dict) -> float:
    """Sum of the traced spans' self times over the requests' wall time."""
    traced = [s for s in result["samples"] if s["traced"]]
    covered = sum(sum(self_times(s["spans"])) for s in traced)
    return covered / sum(sum(s["request_wall"]) for s in traced)


def _version(dist: str) -> Optional[str]:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git(*args: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(load_start: List[float], result: Dict) -> Dict:
    """Where and how the numbers were produced."""
    in_repo = _git("rev-parse", "--show-toplevel") == str(ROOT)
    probes = [t for s in result["samples"] for t in s["probe"]]
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(_git("status", "--porcelain")) if in_repo else None,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "child_thread_env": {var: "1" for var in THREAD_VARS},
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "ref_median_s": statistics.median(probes),
        "ref_nominal_s": REF_NOMINAL_S,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for source in ("src/repro/hap.py", "benchmarks/bench_pipeline.py"):
        if not (ROOT / source).is_file():
            print(f"error: {ROOT / source} is missing", file=sys.stderr)
            return 2
    load_start = list(os.getloadavg())
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    measure = measure_cold if args.workload in COLD else measure_warm
    try:
        result = measure(run)
    except ChildFailed as exc:  # no metrics to report
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = per_layer(result) if run.trace else end_to_end(result)
    errors = [e for s in result["samples"] for e in s["errors"]]
    report = {
        "workload": run.workload,
        "why": WORKLOADS[run.workload],
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "metrics": metrics,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "errors": errors,
        "digest": result["digest"],
        "plan_s_tail": tail(result["times"]),
        "whole_plan_hit_ratio": result.get("whole_plan_hit_ratio"),
        "wall_s": run.elapsed(),
        "samples": [
            {k: v for k, v in s.items() if k not in ("spans", "probe")}
            | {"probe_median_s": statistics.median(s["probe"]), "probe_n": len(s["probe"])}
            for s in result["samples"]
        ],
        "provenance": provenance(load_start, result),
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{run.workload}-seed{run.seed}" + ("-trace" if run.trace else "")
    if run.trace:
        # Traced over untraced request time: per pair of cold samples, or
        # of the two warm children's medians.
        ratios = result["trace_overhead"]
        report["trace_overhead"] = {"value": statistics.median(ratios), "ratios": ratios}
        report["self_time_coverage"] = self_time_coverage(result)
        if abs(report["self_time_coverage"] - 1.0) > 0.05:
            errors.append(f"self times cover {report['self_time_coverage']:.3f} of request time")
        spans = [s["spans"] for s in result["samples"] if s["traced"]]
        (RESULTS / f"{run.workload}-seed{run.seed}.trace.json").write_text(
            json.dumps(chrome_trace(spans))
        )
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"{run.workload} seed={run.seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed, digest {result['digest'][:16]}, {run.elapsed():.1f} s")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} n={m['n']}")
    if report["plan_s_tail"] and not run.trace:
        t = report["plan_s_tail"]
        print(f"  {'plan_s.p' + str(t['percentile']):40s} {t['value']:14.6g} {'s':6s} n={t['n']}")
    if run.trace:
        overhead = report["trace_overhead"]
        print(f"  {'trace_overhead':40s} {overhead['value']:14.6g} {'ratio':6s} "
              f"n={len(overhead['ratios'])}")
    for error in errors[:20]:
        print(f"  ERROR {error}", file=sys.stderr)
    correct = not errors and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
