"""Self-test of the end-to-end benchmark's own arithmetic and checks."""

from __future__ import annotations

import itertools
import json
import random
import time

import pytest

from repro.cluster import a100_p100_pair, homogeneous_testbed
from repro.core import pipeline as core_pipeline
from repro.hap import hap, hap_pipeline
from repro.models import build_tiny_model

from . import run, trace, workloads
from .timing import REF_NOMINAL_S, HostProbe, Region, normalize


def test_self_times_subtract_only_direct_children():
    spans = [
        ["request", "other", 0.0, 10.0, -1, {}],
        ["a", "x", 1.0, 4.0, 0, {}],
        ["a.inner", "y", 2.0, 3.0, 1, {}],
        ["b", "x", 5.0, 9.0, 0, {}],
    ]
    assert trace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(trace.self_times(spans)) == 10.0


def test_layer_metrics_are_per_request_and_scaled():
    spans = [
        ["request", "other", 0.0, 4.0, -1, {}],
        ["DiskPlanCache.get", "core.plancache", 0.0, 1.0, 0, {"hit": 1}],
        ["DiskPlanCache.get", "core.plancache", 1.0, 2.0, 0, {"hit": 0}],
        ["HierarchicalPlanner.plan", "core.hierarchical", 2.0, 4.0, 0,
         {"subplans_planned": 3.0, "subplans_deduped": 1.0, "whole_plan_hit": 0.0}],
        ["request", "other", 4.0, 6.0, -1, {}],
    ]
    # The first request's span times are scaled by 1/2, the second's by 1/4.
    m = trace.layer_metrics(spans, wall=[4.0, 2.0], normalized=[2.0, 0.5])
    assert m["core.plancache.get_s"] == pytest.approx(0.5)  # 2 s * 0.5 / 2 requests
    assert m["core.plancache.hits"] == 0.5 and m["core.plancache.misses"] == 0.5
    assert m["core.hierarchical.dedupe_ratio"] == 0.25
    assert m["core.hierarchical.self_s"] == pytest.approx(2.0 * 0.5 / 2)
    assert m["other.self_s"] == pytest.approx((0.0 * 0.5 + 2.0 * 0.25) / 2)
    assert set(m) == set(trace.PER_LAYER_UNITS)
    with pytest.raises(ValueError):
        trace.layer_metrics(spans, wall=[4.0], normalized=[2.0])


def test_normalization_uses_the_probe_ticks_near_the_region():
    slow, fast = 2 * REF_NOMINAL_S, REF_NOMINAL_S
    # Ticks every 0.1 s: a slow host for the first 10 s, a fast one after.
    samples = [(t / 10, slow if t < 100 else fast) for t in range(200)]
    assert normalize(Region(2.0, 3.0, 1.0), samples) == pytest.approx(0.5)
    assert normalize(Region(15.0, 15.2, 0.2), samples) == pytest.approx(0.2)
    # Ticks half slow, half fast: the host did 3/4 of the nominal work rate.
    assert normalize(Region(9.5, 10.5, 1.0), samples) == pytest.approx(0.75, rel=0.1)
    # A region with too few ticks near it uses every tick of the process.
    assert normalize(Region(50.0, 51.0, 1.0), samples) == pytest.approx(0.75)
    with HostProbe() as probe:  # probe time is taken out of the region's time
        _, region = probe.timed(lambda: time.sleep(0.35))
    assert len(probe.samples) >= 2 and probe.spent > 0
    assert region.net == pytest.approx(0.35, abs=0.03)
    assert region.end - region.start >= region.net


def test_request_sets_hit_or_replan_on_every_request():
    def first(workload, seed, last_set=0, n=200):
        return list(itertools.islice(
            workloads.request_sets(workload, random.Random(seed), 4, last_set), n))

    assert first("warm-hit", 0) == [0] * 200
    for seed in (0, 1, 2):
        sets = first("warm-replan", seed)
        assert sets == first("warm-replan", seed)
        assert sets[0] != 0 and all(a != b for a, b in zip(sets, sets[1:]))
        assert set(sets) == set(range(4))
    assert first("warm-replan", 0, last_set=2, n=1) != [2]


def test_digest_is_name_independent_and_plan_sensitive():
    forward = build_tiny_model("bert_base")
    cluster = a100_p100_pair(gpus_per_machine=1)
    x, y = workloads.rename(forward, "x_"), workloads.rename(forward, "y_")
    assert workloads.digest(hap(x, cluster)) == workloads.digest(hap(y, cluster))
    a, b = hap_pipeline(x, cluster), hap_pipeline(y, cluster)
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.check(a, x, cluster) == []
    other = homogeneous_testbed(num_gpus=2, gpus_per_machine=1, gpu="V100")
    assert workloads.digest(hap(x, other)) != workloads.digest(hap(x, cluster))


def test_recorder_spans_cover_the_request_and_restore_bindings():
    forward = build_tiny_model("bert_base")
    cluster = a100_p100_pair(gpus_per_machine=1)
    original = core_pipeline.build_theory
    recorder = trace.Recorder()
    recorder.install()
    try:
        recorder.request(lambda: hap(forward, cluster))
    finally:
        recorder.uninstall()
    assert core_pipeline.build_theory is original
    layers = {span[1] for span in recorder.spans}
    assert {"other", "autodiff", "core.rules", "core.synthesizer", "core.pipeline"} <= layers
    root = recorder.spans[0]
    assert sum(trace.self_times(recorder.spans)) == pytest.approx(root[3] - root[2])
    m = trace.layer_metrics(recorder.spans, wall=[root[3] - root[2]], normalized=[root[3] - root[2]])
    assert m["core.rules.rules"] > 0 and m["core.synthesizer.expanded_states"] > 0
    events = trace.chrome_trace([recorder.spans])["traceEvents"]
    assert len(events) == len(recorder.spans) and {e["ph"] for e in events} == {"X"}


def _fake_result() -> dict:
    def sample(traced: bool) -> dict:
        return {"traced": traced, "request_wall": [1.0, 2.0], "request_s": [0.5, 1.0],
                "spans": [["request", "other", 0.0, 1.0, -1, {}],
                          ["request", "other", 1.0, 3.0, -1, {}]]}

    samples = [sample(False), sample(True)]
    return {"samples": samples, "measured": samples[:1], "times": [1.0, 2.0, 3.0],
            "setup": [0.5], "rss": [100.0], "iter_ms": [80.0]}


def test_reports_carry_every_benchmark_metric_with_unit_and_n():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == trace.PER_LAYER_UNITS
    result = _fake_result()
    for metrics, listed in (
        (run.end_to_end(result), spec["end_to_end"]),
        (run.per_layer(result), spec["per_layer"]),
    ):
        for entry in listed:
            reported = metrics[entry["name"]]
            assert reported["unit"] == entry["unit"]
            assert reported["n"] >= 1 and isinstance(reported["value"], float)
    assert run.end_to_end(result)["plan_s"] == {"value": 2.0, "unit": "s", "n": 3}
    assert run.tail([1.0] * 19) is None
    assert run.tail([float(i) for i in range(40)])["percentile"] == 75
    assert run.tail([float(i) for i in range(100)]) == {"percentile": 90, "value": 89.1, "n": 100}
    assert run.per_layer(result)["other.self_s"]["value"] == pytest.approx(0.75)
