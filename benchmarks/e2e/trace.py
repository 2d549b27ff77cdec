"""Outside-in layer trace: spans recorded around the planner's own bindings.

The benchmark does not edit the planner.  :meth:`Recorder.install` replaces
the module attributes and class methods the planner looks up at call time
with wrappers that record one span per call (name, layer, start, end,
parent) and counters read from the call's public return value.  A layer's
self time is its spans' durations minus the time their child spans cover.
Spans stay in memory and are exported once, as Chrome-trace JSON
(``ph: "X"`` events, counters in ``args``) that Perfetto opens.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A span as exported by a child: [name, layer, start_s, end_s, parent, args].
Span = list

Counters = Optional[Callable[[object], Dict[str, float]]]


def _reuse_counters(plan) -> Dict[str, float]:
    return {k: float(v) for k, v in plan.reuse_stats.items()}


#: (module[:class], attribute, layer, counters read from the return value).
BINDINGS: Tuple[Tuple[str, str, str, Counters], ...] = (
    ("repro.core.pipeline", "build_theory", "core.rules", lambda t: {"rules": len(t)}),
    ("repro.core.synthesizer:ProgramSynthesizer", "__init__", "core.synthesizer", None),
    (
        "repro.core.synthesizer:ProgramSynthesizer",
        "synthesize",
        "core.synthesizer",
        lambda r: {"expanded_states": r.expanded_states, "generated_states": r.generated_states},
    ),
    ("repro.core.load_balancer:LoadBalancer", "optimize", "core.load_balancer", None),
    ("repro.core.costmodel:CostModel", "evaluate", "core.costmodel", None),
    ("repro.core.costmodel:CostModel", "evaluate_many", "core.costmodel", None),
    ("repro.core.costmodel:CostModel", "phase_profile", "core.costmodel", None),
    ("repro.core.pipeline:HAPPlanner", "plan", "core.pipeline", lambda p: {"rounds": len(p.rounds)}),
    ("repro.core.hierarchical:HierarchicalPlanner", "plan", "core.hierarchical", _reuse_counters),
    ("repro.hap", "build_training_graph", "autodiff", None),
    ("repro.core.hierarchical", "build_stage_training_graph", "autodiff", None),
    ("repro.core.hierarchical", "interleaved_pipeline_cut", "graph.analysis", None),
    ("repro.core.hierarchical", "fingerprint_with_order", "graph.canonical", None),
    ("repro.core.hierarchical", "graph_fingerprint", "graph.canonical", None),
    ("repro.core.hierarchical", "simulate_pipeline", "simulator.schedule", None),
    ("repro.core.hierarchical", "remap_plan", "core.plancache", None),
    ("repro.core.plancache:InMemoryPlanCache", "get", "core.plancache", lambda e: {"hit": int(e is not None)}),
    ("repro.core.plancache:InMemoryPlanCache", "put", "core.plancache", None),
    ("repro.core.plancache:DiskPlanCache", "get", "core.plancache", lambda e: {"hit": int(e is not None)}),
    ("repro.core.plancache:DiskPlanCache", "put", "core.plancache", None),
    ("repro.verify.plan", "verify_plan", "verify", None),
    ("repro.verify.program", "verify_program", "verify", None),
)

#: Layer of the benchmark's own per-request root span: request time that no
#: wrapped binding covers.
ROOT_LAYER = "other"

#: Every per-layer metric with its unit; ``BENCHMARK.json`` lists the same.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.synthesizer.self_s": "s",
    "core.synthesizer.init_s": "s",
    "core.synthesizer.calls": "count",
    "core.synthesizer.expanded_states": "count",
    "core.synthesizer.generated_states": "count",
    "core.rules.self_s": "s",
    "core.rules.calls": "count",
    "core.rules.rules": "count",
    "core.load_balancer.self_s": "s",
    "core.load_balancer.calls": "count",
    "core.pipeline.self_s": "s",
    "core.pipeline.rounds": "count",
    "core.hierarchical.self_s": "s",
    "core.hierarchical.subplans_planned": "count",
    "core.hierarchical.subplans_deduped": "count",
    "core.hierarchical.dedupe_ratio": "ratio",
    "simulator.schedule.self_s": "s",
    "simulator.schedule.calls": "count",
    "core.costmodel.self_s": "s",
    "core.costmodel.calls": "count",
    "autodiff.self_s": "s",
    "autodiff.calls": "count",
    "graph.analysis.self_s": "s",
    "graph.analysis.calls": "count",
    "graph.canonical.self_s": "s",
    "graph.canonical.calls": "count",
    "verify.self_s": "s",
    "verify.calls": "count",
    "core.plancache.get_s": "s",
    "core.plancache.put_s": "s",
    "core.plancache.remap_s": "s",
    "core.plancache.hits": "count",
    "core.plancache.misses": "count",
    "core.plancache.whole_plan_hit_ratio": "ratio",
    "other.self_s": "s",
}


class Recorder:
    """Collects spans in one process; install wrappers, run requests, export."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(
        self, fn: Callable, name: str, layer: str, counters: Counters, root: bool = False
    ) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack and not root:  # outside a request: not recorded
                return fn(*args, **kwargs)
            record: Span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if counters is not None:
                record[5] = counters(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding in :data:`BINDINGS`."""
        for owner_path, attr, layer, counters in BINDINGS:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
                name = f"{class_name}.{attr}"
            else:
                original = getattr(owner, attr)
                name = attr
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, layer, counters))

    def uninstall(self) -> None:
        """Put the original bindings back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def request(self, fn: Callable[[], object]) -> object:
        """Run one request under a root span of layer :data:`ROOT_LAYER`.

        Wrapped bindings record spans only inside a request, so checks run
        between requests leave no spans.
        """
        return self._wrap(fn, "request", ROOT_LAYER, None, root=True)()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[4] >= 0:
            covered[span[4]] += span[3] - span[2]
    return [span[3] - span[2] - c for span, c in zip(spans, covered)]


def layer_metrics(
    spans: Sequence[Span], wall: Sequence[float], normalized: Sequence[float]
) -> Dict[str, float]:
    """Per-request layer metrics of :data:`PER_LAYER_UNITS`.

    ``spans`` hold one root span per request; request ``i`` took ``wall[i]``
    seconds of wall time, probe ticks included, and ``normalized[i]`` after
    taking the ticks out and host normalization.  Its spans' times are
    scaled by ``normalized[i] / wall[i]``, so the layers' self times add up
    to the normalized request time.  Every value is divided by the number
    of requests.
    """
    layer_self: Dict[str, float] = defaultdict(float)
    name_self: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    totals: Dict[str, float] = defaultdict(float)
    request = [0] * len(spans)  # index of each span's root span among the roots
    roots = 0
    for i, span in enumerate(spans):
        if span[4] < 0:
            request[i], roots = roots, roots + 1
        else:
            request[i] = request[span[4]]
    if not roots == len(wall) == len(normalized):
        raise ValueError(f"{roots} root spans for {len(wall)} requests")
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        name, layer = span[0], span[1]
        own *= normalized[request[i]] / wall[request[i]]
        layer_self[layer] += own
        name_self[name] += own
        calls[layer] += 1
        calls[name] += 1
        for key, value in span[5].items():
            totals[key] += value
    gets = calls["InMemoryPlanCache.get"] + calls["DiskPlanCache.get"]
    planned, deduped = totals["subplans_planned"], totals["subplans_deduped"]
    values = {
        "core.synthesizer.self_s": layer_self["core.synthesizer"],
        "core.synthesizer.init_s": name_self["ProgramSynthesizer.__init__"],
        "core.synthesizer.calls": calls["ProgramSynthesizer.synthesize"],
        "core.synthesizer.expanded_states": totals["expanded_states"],
        "core.synthesizer.generated_states": totals["generated_states"],
        "core.rules.self_s": layer_self["core.rules"],
        "core.rules.calls": calls["core.rules"],
        "core.rules.rules": totals["rules"],
        "core.load_balancer.self_s": layer_self["core.load_balancer"],
        "core.load_balancer.calls": calls["core.load_balancer"],
        "core.pipeline.self_s": layer_self["core.pipeline"],
        "core.pipeline.rounds": totals["rounds"],
        "core.hierarchical.self_s": layer_self["core.hierarchical"],
        "core.hierarchical.subplans_planned": planned,
        "core.hierarchical.subplans_deduped": deduped,
        "simulator.schedule.self_s": layer_self["simulator.schedule"],
        "simulator.schedule.calls": calls["simulator.schedule"],
        "core.costmodel.self_s": layer_self["core.costmodel"],
        "core.costmodel.calls": calls["core.costmodel"],
        "autodiff.self_s": layer_self["autodiff"],
        "autodiff.calls": calls["autodiff"],
        "graph.analysis.self_s": layer_self["graph.analysis"],
        "graph.analysis.calls": calls["graph.analysis"],
        "graph.canonical.self_s": layer_self["graph.canonical"],
        "graph.canonical.calls": calls["graph.canonical"],
        "verify.self_s": layer_self["verify"],
        "verify.calls": calls["verify"],
        "core.plancache.get_s": name_self["InMemoryPlanCache.get"] + name_self["DiskPlanCache.get"],
        "core.plancache.put_s": name_self["InMemoryPlanCache.put"] + name_self["DiskPlanCache.put"],
        "core.plancache.remap_s": name_self["remap_plan"],
        "core.plancache.hits": totals["hit"],
        "core.plancache.misses": gets - totals["hit"],
        "core.plancache.whole_plan_hit_ratio": totals["whole_plan_hit"],
        "other.self_s": layer_self[ROOT_LAYER],
    }
    metrics = {key: float(value) / roots for key, value in values.items()}
    metrics["core.hierarchical.dedupe_ratio"] = (
        deduped / (planned + deduped) if planned + deduped else 0.0
    )
    return metrics


def chrome_trace(processes: Sequence[Sequence[Span]]) -> Dict[str, object]:
    """Chrome-trace JSON of each traced process's spans (one ``pid`` each)."""
    events = []
    for pid, spans in enumerate(processes):
        origin = min((s[2] for s in spans), default=0.0)
        for span in spans:
            events.append(
                {
                    "name": span[0],
                    "cat": span[1],
                    "ph": "X",
                    "ts": (span[2] - origin) * 1e6,
                    "dur": (span[3] - span[2]) * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": span[5],
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
