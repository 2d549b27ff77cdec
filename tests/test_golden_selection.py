"""Golden selection records of two pipeline-planning problems.

A selection record is everything ``hap_pipeline`` weighed when it chose a
plan: the estimated time of every stage count (``candidate_times``) and of
every (stage count, schedule, microbatches, recompute) combination
(``schedule_candidate_times``), both as ``float.hex`` so the comparison is
bit-exact, plus the winner's schedule name, stage and microbatch counts,
machines per stage and memory verdict, and the winner's simulated iteration
time (``simulate_hierarchical(plan, seed=0).total``, also ``float.hex``).
Refactors of the theory, the synthesizer, the schedule search or the
simulator must leave these records unchanged.

The two problems are the end-to-end benchmark's (``benchmarks/e2e``):

* ``hetero``: ``bert_base`` (layer fraction 0.09, batch 8 per GPU) on
  ``heterogeneous_testbed(32, 8)`` with a 100 Gbps intra-group network;
* ``moe-memory``: ``bert_moe`` (layer fraction 0.09, batch 16 per GPU) on
  ``repro.cluster.memory_constrained_testbed()``.

Regenerate ``tests/golden/selection.json`` (only when a change is meant to
alter plan selection, and say so in the change description) with::

    PYTHONPATH=src python -m tests.test_golden_selection --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict

import pytest

from benchmarks.e2e import workloads
from repro.cluster import memory_constrained_testbed
from repro.core import cluster_signature
from repro.simulator import simulate_hierarchical

GOLDEN = Path(__file__).with_name("golden") / "selection.json"

#: Golden problem name -> the benchmark workload that defines it.
PROBLEMS = {"hetero": "hetero-pipeline", "moe-memory": "moe-memory"}


def selection_record(problem: str) -> Dict[str, Any]:
    """Plan ``problem`` cold and return its selection record (JSON-ready)."""
    workload = PROBLEMS[problem]
    cluster = workloads.build_cluster(workload)
    forward = workloads.build_forward(workload, cluster.num_gpus, prefix="")
    plan = workloads.plan(workload, forward, cluster)
    return {
        "candidate_times": {
            str(stages): t.hex() for stages, t in sorted(plan.candidate_times.items())
        },
        "schedule_candidate_times": {
            f"{s}/{name}/{m}/{int(rc)}": t.hex()
            for (s, name, m, rc), t in sorted(plan.schedule_candidate_times.items())
        },
        "schedule_name": plan.schedule_name,
        "num_stages": plan.num_stages,
        "stage_machines": [len(stage.subcluster.machines) for stage in plan.stages],
        "num_microbatches": plan.num_microbatches,
        "fits_memory": plan.fits_memory,
        "simulated_total": simulate_hierarchical(plan, seed=0).total.hex(),
    }


def test_moe_memory_plans_the_library_testbed():
    """The benchmark's ``moe-memory`` cluster is the library testbed, so the
    golden ``moe-memory`` record keeps meaning that testbed."""
    bench = workloads.build_cluster("moe-memory")
    assert cluster_signature(bench) == cluster_signature(memory_constrained_testbed())


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_selection_record_matches_golden(problem):
    golden = json.loads(GOLDEN.read_text())[problem]
    assert selection_record(problem) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.test_golden_selection --regenerate")
    GOLDEN.parent.mkdir(exist_ok=True)
    records = {problem: selection_record(problem) for problem in sorted(PROBLEMS)}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
