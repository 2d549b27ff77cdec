"""Golden synthesized programs of the tiny test models.

Each case synthesizes one training graph on one cluster under one search
configuration and records

* the program's instructions, sorted, with node names replaced by canonical
  positions (``benchmarks.e2e.workloads._program_encoding``), so the record
  is free of node names and of the interpreter's hash seed;
* the synthesizer's cost estimate as ``float.hex`` (bit-exact);
* the ``expanded_states`` / ``generated_states`` counters, which pin what
  the search explored, not only what it returned, and with block reuse on
  the synthesizer's ``reuse_stats`` (which occurrences were replayed).

The models are the ``mlp`` / ``tiny_transformer`` / ``tiny_moe`` fixtures of
``tests/conftest.py`` plus a three-layer transformer whose repeated layers
give block reuse something to replay.  The clusters are the 4-device cluster of
``tests/test_optimization_parity.py`` and an 8-device A100/P100 cluster.
Refactors of the theory or the synthesizer must leave every record unchanged
under any ``PYTHONHASHSEED``.

Regenerate ``tests/golden/programs.json`` (only when a change is meant to
alter synthesized programs, and say so in the change description) with::

    PYTHONPATH=src python -m tests.test_golden_programs --regenerate
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Tuple

import pytest

from benchmarks.e2e.workloads import _program_encoding
from repro.autodiff import build_training_graph
from repro.core import ProgramSynthesizer, SynthesisConfig
from repro.graph import DType, GraphBuilder

from .conftest import build_mlp, build_tiny_moe, build_tiny_transformer, make_cluster

GOLDEN = Path(__file__).with_name("golden") / "programs.json"


def build_three_layer_transformer():
    """Three identical transformer layers: repeated blocks for block reuse."""
    b = GraphBuilder("three_layer")
    ids = b.placeholder((8, 4), dtype=DType.INT64, name="input_ids")
    table = b.parameter((50, 16), name="embed_table")
    x = b.embedding(ids, table)
    for i in range(3):
        x = b.transformer_layer(x, num_heads=2, ffn_hidden=32, prefix=f"layer{i}")
    x = b.reshape(x, (32, 16))
    logits = b.linear(x, 7)
    labels2d = b.placeholder((8, 4), dtype=DType.INT64, name="labels")
    labels = b.reshape(labels2d, (32,))
    b.loss(b.cross_entropy(logits, labels))
    return b.build()


MODELS = {
    "mlp": build_mlp,
    "tiny_transformer": build_tiny_transformer,
    "tiny_moe": build_tiny_moe,
    "three_layer": build_three_layer_transformer,
}

CLUSTERS = {
    "parity4": ("A100", "A100", "P100", "P100"),
    "mixed8": ("A100",) * 4 + ("P100",) * 4,
}

#: Search configuration name -> SynthesisConfig overrides (beam width 8).
SEARCHES: Dict[str, Dict[str, Any]] = {
    "beam": {},
    "beam-reuse": {"enable_block_reuse": True},
    "astar": {"search_strategy": "astar"},
    "astar-unordered": {"search_strategy": "astar", "follow_topological_order": False},
}


def _case_ids():
    for model in MODELS:
        for cluster in CLUSTERS:
            for search in SEARCHES:
                if search == "astar-unordered" and model == "three_layer":
                    continue  # the unordered search is for the small graphs
                yield f"{model}/{cluster}/{search}"


CASES = tuple(_case_ids())


@lru_cache(maxsize=None)
def _training_graph(model: str):
    return build_training_graph(MODELS[model]()).graph


def _parse(case: str) -> Tuple[str, str, str]:
    model, cluster, search = case.split("/")
    return model, cluster, search


def program_record(case: str) -> Dict[str, Any]:
    """Synthesize ``case`` and return its record (JSON-ready)."""
    model, cluster_name, search = _parse(case)
    config = SynthesisConfig(beam_width=8, **SEARCHES[search])
    cluster = make_cluster(CLUSTERS[cluster_name])
    synthesizer = ProgramSynthesizer(_training_graph(model), cluster, config)
    result = synthesizer.synthesize()
    record = {
        "program": list(_program_encoding(result.program)),
        "cost": result.cost.hex(),
        "expanded_states": result.expanded_states,
        "generated_states": result.generated_states,
    }
    if config.enable_block_reuse:
        record["reuse_stats"] = dict(synthesizer.reuse_stats)
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_program_matches_golden(case, golden):
    assert program_record(case) == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.test_golden_programs --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {case: program_record(case) for case in CASES}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
