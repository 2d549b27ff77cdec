"""Plans must not depend on the interpreter's string-hash seed.

The theory and the synthesizer enumerate rules, fused source instructions and
candidate collectives in structural orders (instruction input order, graph
order, a fixed state order), never in set-iteration order, which follows
``PYTHONHASHSEED`` and, before Python 3.12, object addresses too (a
replicated or partial state hashes ``None``, whose hash is its address).  This
test plans one small hierarchical problem in fresh interpreters under three
hash seeds and requires the identical *unsorted* instruction sequence of
every chunk program and the identical simulated iteration time.

A plan pickled by a :class:`~repro.core.plancache.DiskPlanCache` under one
hash seed must also be usable under another: properties, states and
instructions do not carry their writer's cached hashes across, and a state
loads as the reader's interned instance.  A renamed request read under
another seed must still be a whole-plan hit: the hit pairs each stored chunk
graph with the rebuilt one by position, which relies on autodiff adding
nodes in an order that no hash seed changes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PLAN_AND_PRINT = """
import json
from repro.cluster import NetworkSpec, heterogeneous_testbed
from repro.core import HierarchicalConfig, SynthesisConfig
from repro.hap import hap_pipeline
from repro.models import build_tiny_model
from repro.simulator import simulate_hierarchical

config = HierarchicalConfig(
    synthesis=SynthesisConfig(beam_width=8),
    intra_group_network=NetworkSpec(bandwidth=100e9 / 8),
)
plan = hap_pipeline(
    build_tiny_model("bert_moe"), heterogeneous_testbed(num_gpus=16, gpus_per_machine=4), config
)
print(json.dumps({
    "chunks": [
        [chunk.index, [repr(instr) for instr in chunk.program.instructions]]
        for chunk in plan.stages
    ],
    "total": simulate_hierarchical(plan, seed=0).total.hex(),
}))
"""


def _plan_under_seed(seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", PLAN_AND_PRINT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout


def test_plan_is_identical_under_every_hash_seed():
    reference = _plan_under_seed(0)
    for seed in (1, 2):
        assert _plan_under_seed(seed) == reference, f"PYTHONHASHSEED={seed} changed the plan"


WRITE_PLAN = """
import sys
from repro.cluster import heterogeneous_testbed
from repro.core import DiskPlanCache, HierarchicalConfig, SynthesisConfig
from repro.hap import hap_pipeline
from repro.models import build_tiny_model

config = HierarchicalConfig(
    synthesis=SynthesisConfig(beam_width=4),
    plan_cache=DiskPlanCache(sys.argv[1]),
)
hap_pipeline(
    build_tiny_model("bert_base"), heterogeneous_testbed(num_gpus=8, gpus_per_machine=4), config
)
"""

READ_PLAN = """
import json, pathlib, sys
from repro.core import DiskPlanCache
from repro.core.instructions import CommInstruction, CompInstruction
from repro.core.properties import DistState, Property

(path,) = pathlib.Path(sys.argv[1]).glob("*.plan")
plan = DiskPlanCache(sys.argv[1]).get(path.stem).plan


def interned(state):
    if state.is_sharded:
        return DistState.sharded(state.dim)
    return DistState.replicated() if state.is_replicated else DistState.partial()


def fresh(instr):
    if isinstance(instr, CommInstruction):
        return CommInstruction(instr.kind, instr.input, instr.output, instr.dim, instr.dim2)
    return CompInstruction(instr.node, instr.op, instr.inputs, instr.output, instr.flops_sharded)


props = [p for stage in plan.stages for p in stage.program.properties]
instrs = [i for stage in plan.stages for i in stage.program.instructions]
print(json.dumps({
    "properties": len(props),
    "found": sum(Property(p.ref, p.state) in stage.program.properties
                 for stage in plan.stages for p in stage.program.properties),
    "interned": sum(p.state is interned(p.state) for p in props),
    "instructions": len(instrs),
    "rehashed": sum(hash(i) == hash(fresh(i)) for i in instrs),
}))
"""


def _run(script: str, seed: int, *args: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout


def test_disk_cached_plan_hashes_under_another_seed(tmp_path):
    import json

    _run(WRITE_PLAN, 1, str(tmp_path))
    counts = json.loads(_run(READ_PLAN, 2, str(tmp_path)))
    assert counts["properties"] > 0 and counts["instructions"] > 0
    assert counts["found"] == counts["interned"] == counts["properties"]
    assert counts["rehashed"] == counts["instructions"]


RENAMED_REQUEST = """
import json, sys
from repro.cluster import heterogeneous_testbed
from repro.core import DiskPlanCache, HierarchicalConfig, SynthesisConfig
from repro.graph import ComputationGraph
from repro.hap import hap_pipeline
from repro.models import build_tiny_model

forward = build_tiny_model("bert_base")
renamed = ComputationGraph("r_" + forward.name)
for node in forward:
    renamed.add_node("r_" + node.name, node.op, tuple("r_" + i for i in node.inputs), node.attrs)
renamed.mark_loss("r_" + forward.loss)
cache = DiskPlanCache(sys.argv[1])
config = HierarchicalConfig(synthesis=SynthesisConfig(beam_width=4), plan_cache=cache)
plan = hap_pipeline(renamed, heterogeneous_testbed(num_gpus=8, gpus_per_machine=4), config)
print(json.dumps({**plan.reuse_stats, "reject": cache.last_reject}))
"""


def test_renamed_request_hits_an_entry_written_under_another_seed(tmp_path):
    import json

    _run(WRITE_PLAN, 1, str(tmp_path))
    stats = json.loads(_run(RENAMED_REQUEST, 2, str(tmp_path)))
    assert stats == {
        "whole_plan_hit": 1,
        "cache_rejects": 0,
        "subplans_planned": 0,
        "reject": None,
    }
