"""Golden synthesized programs of the tiny test models.

Each case synthesizes one training graph on one cluster under one search
configuration and records

* the program's instructions, sorted, with node names replaced by canonical
  positions (``benchmarks.e2e.workloads._program_encoding``), so the record
  is free of node names and of the interpreter's hash seed;
* the synthesizer's cost estimate as ``float.hex`` (bit-exact);
* the ``expanded_states`` / ``generated_states`` counters, which pin what
  the search explored, not only what it returned.

The models are the ``mlp`` / ``tiny_transformer`` / ``tiny_moe`` fixtures of
``tests/conftest.py`` plus a three-layer ``build_deep_transformer``.  The
clusters are the 4-device cluster of ``tests/test_optimization_parity.py``
and an 8-device A100/P100 cluster.  The exact A* search, the beam search's oracle,
runs on ``mlp`` and ``tiny_moe`` only: on the transformers it does not
finish in reasonable time and memory.

The four baselines (DP-EV, DP-CP, DeepSpeed, TAG) on ``tiny_transformer``
and ``tiny_moe`` at beam width 8 record their program, their fixed ratios
and their cost-model estimate, the last two as ``float.hex``.  DeepSpeed
has no program for ``tiny_moe`` on eight devices (four experts do not shard
over eight devices without the padding the experiment harness adds), so that
record holds the synthesis error instead.

Two deep beam cases, an 8-layer transformer training graph and the
12-layer ``bert_base`` forward graph at beam width 16, are pinned by the
sha256 of their program encoding and their cost only, so the file stays
small.

Refactors of the theory or the synthesizer must leave every record unchanged
under any ``PYTHONHASHSEED``.

Regenerate ``tests/golden/programs.json`` (only when a change is meant to
alter synthesized programs, and say so in the change description) with::

    PYTHONPATH=src python -m tests.test_golden_programs --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

from benchmarks.e2e.workloads import _program_encoding
from repro.autodiff import build_training_graph
from repro.baselines import BASELINE_NAMES, plan_baseline
from repro.core import ProgramSynthesizer, SynthesisConfig, SynthesisError
from repro.models import BenchmarkScale, build_model

from .conftest import (
    build_deep_transformer,
    build_mlp,
    build_tiny_moe,
    build_tiny_transformer,
    make_cluster,
)

GOLDEN = Path(__file__).with_name("golden") / "programs.json"


MODELS = {
    "mlp": build_mlp,
    "tiny_transformer": build_tiny_transformer,
    "tiny_moe": build_tiny_moe,
    "three_layer": lambda: build_deep_transformer(layers=3),
}

CLUSTERS = {
    "parity4": ("A100", "A100", "P100", "P100"),
    "mixed8": ("A100",) * 4 + ("P100",) * 4,
}

#: Search name -> the ProgramSynthesizer method that runs it (beam width 8).
SEARCHES = {
    "beam": ProgramSynthesizer.synthesize,
    "astar": ProgramSynthesizer.astar,
}

#: The models the exact A* search finishes on in well under a second.
ORACLE_MODELS = ("mlp", "tiny_moe")


def _case_ids():
    for model in MODELS:
        for cluster in CLUSTERS:
            for search in SEARCHES:
                if search == "astar" and model not in ORACLE_MODELS:
                    continue
                yield f"{model}/{cluster}/{search}"


CASES = tuple(_case_ids())


def _bert12_forward():
    """The 12-layer ``bert_base`` forward graph for 8 devices."""
    scale = BenchmarkScale("deep", layer_fraction=1.0, batch_per_device=32)
    return build_model("bert_base", num_gpus=8, scale=scale)


#: Baseline cases: model/cluster/baseline.
BASELINE_CASES = tuple(
    f"{model}/{cluster}/{name}"
    for model in ("tiny_transformer", "tiny_moe")
    for cluster in CLUSTERS
    for name in BASELINE_NAMES
)


#: Deep graphs, pinned by digest so ``programs.json`` stays small: case ->
#: (graph builder, cluster devices, beam width).
DEEP_CASES = {
    "deep8/parity4/beam": (
        lambda: build_training_graph(build_deep_transformer(layers=8)).graph,
        CLUSTERS["parity4"],
        8,
    ),
    "bert12_forward/alternating8/beam16": (_bert12_forward, ("A100", "P100") * 4, 16),
}


@lru_cache(maxsize=None)
def _training_graph(model: str):
    return build_training_graph(MODELS[model]()).graph


def _parse(case: str) -> Tuple[str, str, str]:
    model, cluster, search = case.split("/")
    return model, cluster, search


def program_record(case: str) -> Dict[str, Any]:
    """Synthesize ``case`` and return its record (JSON-ready)."""
    model, cluster_name, search = _parse(case)
    config = SynthesisConfig(beam_width=8)
    cluster = make_cluster(CLUSTERS[cluster_name])
    result = SEARCHES[search](ProgramSynthesizer(_training_graph(model), cluster, config))
    return {
        "program": list(_program_encoding(result.program)),
        "cost": result.cost.hex(),
        "expanded_states": result.expanded_states,
        "generated_states": result.generated_states,
    }


def baseline_record(case: str) -> Dict[str, Any]:
    """Plan the baseline of ``case`` and return its record (JSON-ready)."""
    model, cluster_name, name = _parse(case)
    cluster = make_cluster(CLUSTERS[cluster_name])
    try:
        plan = plan_baseline(name, _training_graph(model), cluster, SynthesisConfig(beam_width=8))
    except SynthesisError as exc:
        return {"error": str(exc)}
    return {
        "program": list(_program_encoding(plan.program)),
        "ratios": [r.hex() for r in plan.flat_ratios],
        "estimate": plan.estimated_time.total.hex(),
    }


def deep_record(case: str) -> Dict[str, str]:
    """Synthesize a deep ``case``: the sha256 of its program encoding and its cost."""
    build, devices, beam_width = DEEP_CASES[case]
    config = SynthesisConfig(beam_width=beam_width)
    result = ProgramSynthesizer(build(), make_cluster(devices), config).synthesize()
    encoding = repr(_program_encoding(result.program)).encode()
    return {"program_sha256": hashlib.sha256(encoding).hexdigest(), "cost": result.cost.hex()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES + BASELINE_CASES + tuple(DEEP_CASES))


@pytest.mark.parametrize("case", CASES)
def test_program_matches_golden(case, golden):
    assert program_record(case) == golden[case]


@pytest.mark.parametrize("case", BASELINE_CASES)
def test_baseline_matches_golden(case, golden):
    assert baseline_record(case) == golden[case]


@pytest.mark.parametrize("case", DEEP_CASES)
def test_deep_program_matches_golden(case, golden):
    assert deep_record(case) == golden[case]


@pytest.mark.parametrize(
    "case", [case.rsplit("/", 1)[0] for case in CASES if case.endswith("/astar")]
)
def test_oracle_is_a_lower_bound_on_the_beam(case, golden):
    """The exact A* optimum costs no more than the beam's program."""
    beam = float.fromhex(golden[f"{case}/beam"]["cost"])
    astar = float.fromhex(golden[f"{case}/astar"]["cost"])
    assert beam >= astar


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.test_golden_programs --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {case: program_record(case) for case in CASES}
    records.update({case: baseline_record(case) for case in BASELINE_CASES})
    records.update({case: deep_record(case) for case in DEEP_CASES})
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
