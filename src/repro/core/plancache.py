"""Content-addressed plan cache: never synthesize the same problem twice.

Planning a (training graph, machine group) pair is a pure function of three
ingredients — the graph's *content* (ops, shapes, attributes, wiring), the
group's hardware model, and the planner configuration.  Node names are not an
ingredient: flat HAP plans for two isomorphic chunk graphs differ only by a
reference renaming.  This module turns that observation into a cache:

* :func:`plan_key` hashes the three ingredients into a stable content address
  (graph via :func:`repro.graph.canonical.graph_fingerprint`, cluster via
  :func:`cluster_signature`, configuration via :func:`config_signature`);
* :class:`CachedPlan` stores a :class:`~repro.core.pipeline.HAPPlan` together
  with the canonical node order it was keyed under, so a hit can be
  re-expressed in the requesting graph's own node names
  (:func:`remap_plan` + :func:`repro.graph.canonical.canonical_rename_map`).
  The hierarchical planner's whole-plan entries are name-free the same way:
  they store the forward graph's canonical order and each chosen chunk
  graph's, and a hit is renamed onto the request
  (:meth:`repro.core.hierarchical.HierarchicalPlanner.plan`);
* :class:`InMemoryPlanCache` and :class:`DiskPlanCache` provide the two
  obvious backends; the disk backend writes atomically and keeps a
  write-through in-memory layer, which makes it safe to share one directory
  between repeated planner invocations (the first brick of
  planner-as-a-service).

**Concurrency guarantee.**  One :class:`DiskPlanCache` directory may be
shared by any number of *processes* reading and writing concurrently, e.g.
several planner invocations pointed at one cache directory.  Every ``put`` pickles into a process-private temporary file in
the cache directory and publishes it with :func:`os.replace`, which is atomic
on POSIX and on NTFS: a concurrent ``get`` observes either the complete old
entry, the complete new entry, or no file — never a torn pickle.  Racing
writers of the *same* key are last-writer-wins, which is harmless because
keys are content addresses: every writer of a key is storing an equivalent
plan for the same planning problem.  A corrupt or unreadable entry (e.g. a
file truncated by the surrounding filesystem, not by this module, or one
pickled against a module or class that no longer exists) is treated as a miss
and re-written on the next ``put``.  The in-memory write-through
layer is per-process and never shared, so no locks are needed anywhere;
``tests/test_plancache.py`` stress-tests the same-key multi-writer race.  :class:`InMemoryPlanCache` itself is process-local and makes no
cross-process claims.

Invalidation is purely structural: any change to the graph content, device
specs, network model, or any configuration field changes the key, and
:data:`CACHE_VERSION` is baked into every key so cache entries from older
layouts of the planner can never be replayed.  Two configuration fields are
deliberately *excluded* from keys: ``plan_cache`` (the cache never keys on
itself) and ``verify_after_plan`` (verification never changes the plan, so
verified and unverified runs share entries).  Every other field keys, so a
knob that does not change the plan does not belong in a configuration.
Former knobs that are now module constants (``MIN_SHARD_DIM_SIZE``,
``MAX_SEARCH_STEPS``, ``CONVERGENCE_TOLERANCE``, ``MICROBATCH_CANDIDATES``,
``MICROBATCH_OVERHEAD``) do not key, so changing one of them needs a
:data:`CACHE_VERSION` bump.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..cluster.spec import ClusterSpec
from ..graph.canonical import canonical_rename_map
from ..graph.graph import ComputationGraph
from .instructions import CommInstruction, CompInstruction, Instruction
from .pipeline import HAPPlan
from .program import DistributedProgram
from .properties import Property

#: Bump when the plan layout or the key ingredients change: old entries are
#: then unreachable (their keys embed the old version) instead of replayed.
#: v2: ``ChunkPlan`` gained ``content_key`` and configs gained the
#: vectorized-cost flags.
#: v3: the worker-count, A/B-optimisation, dedupe and subsumption fields left
#: the configs.
#: v4: ten never-set fields left the configs (their defaults are now module
#: constants) and hierarchical plans price at the cluster's overlap.
#: v5: ``ChunkPlan.info`` is a ``TrainingGraphInfo`` (the separate
#: ``StageTrainingInfo`` class was folded into it).
#: v6: whole hierarchical plans are name-free: ``node_names`` is the forward
#: graph's canonical order and ``extra["chunk_orders"]`` holds each chosen
#: chunk graph's, so a hit is renamed onto any isomorphic request (v5 entries
#: were replayed only under the exact node names they were planned with).
#: v7: a plan has one sharding-ratio vector: ``HAPPlan`` lost its node ->
#: segment map and ``LoadBalancerConfig`` its segment count, so the plan
#: layout and the config signature both changed.
CACHE_VERSION = 7

#: Configuration fields excluded from cache keys: the cache itself and the
#: static-verifier flag (verification never changes the plan).
_NON_KEY_FIELDS = frozenset({"plan_cache", "verify_after_plan"})


# -- key construction ---------------------------------------------------------------
def _canon(value) -> object:
    """Deterministic, content-only encoding of configuration-ish values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = []
        for f in dataclasses.fields(value):
            if f.name in _NON_KEY_FIELDS:
                continue
            fields.append((f.name, _canon(getattr(value, f.name))))
        return (type(value).__name__, tuple(fields))
    if isinstance(value, Enum):
        return (type(value).__name__, value.value)
    if isinstance(value, dict):
        return tuple(sorted((_canon(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot build a cache signature from {type(value).__name__}")


def cluster_signature(cluster: ClusterSpec) -> Tuple:
    """Everything about a cluster that influences planning, name-free.

    Two clusters with the same signature produce identical cost models and
    identical memory checks, so their plans are interchangeable; the cluster
    *name* is deliberately excluded.
    """
    devices = tuple(
        (
            d.machine.gpu.peak_tflops,
            d.machine.gpu.memory_bytes,
            d.machine.gpu.sustained_fraction,
            d.num_gpus,
            d.machine.intra_bandwidth,
            d.machine.intra_latency,
        )
        for d in cluster.virtual_devices
    )
    network = (
        cluster.network.bandwidth,
        cluster.network.latency,
        cluster.network.kernel_launch_overhead,
    )
    return (
        devices,
        network,
        cluster.group_by_machine,
        cluster.memory_reserve_fraction,
        cluster.comm_overlap_efficiency,
    )


def config_signature(config) -> Tuple:
    """Content signature of a (nested) configuration dataclass.

    Recurses through dataclass fields so *every* knob — synthesis flags,
    load-balancer memory constraints, schedule lists, intra-group networks —
    lands in the key; the ``plan_cache`` field itself is excluded.
    """
    return _canon(config)  # type: ignore[return-value]


def plan_key(fingerprint: str, cluster: ClusterSpec, config) -> str:
    """Stable content address of one planning problem."""
    payload = repr((CACHE_VERSION, fingerprint, cluster_signature(cluster), _canon(config)))
    return hashlib.sha256(payload.encode()).hexdigest()


# -- plan renaming -------------------------------------------------------------------
def _rename_property(prop: Property, rename: Dict[str, str]) -> Property:
    return Property(rename[prop.ref], prop.state)


def _rename_instruction(instr: Instruction, rename: Dict[str, str]) -> Instruction:
    if isinstance(instr, CompInstruction):
        return CompInstruction(
            node=rename[instr.node],
            op=instr.op,
            inputs=tuple(_rename_property(p, rename) for p in instr.inputs),
            output=_rename_property(instr.output, rename),
            flops_sharded=instr.flops_sharded,
        )
    return CommInstruction(
        kind=instr.kind,
        input=_rename_property(instr.input, rename),
        output=_rename_property(instr.output, rename),
        dim=instr.dim,
        dim2=instr.dim2,
    )


def remap_program(
    program: DistributedProgram, rename: Dict[str, str], target: ComputationGraph
) -> DistributedProgram:
    """Re-express a program over an isomorphic graph's node names."""
    return DistributedProgram(
        graph=target,
        instructions=[_rename_instruction(i, rename) for i in program.instructions],
        properties=frozenset(_rename_property(p, rename) for p in program.properties),
        num_devices=program.num_devices,
    )


def remap_plan(plan: HAPPlan, source_names: List[str], target: ComputationGraph) -> HAPPlan:
    """Re-express a cached :class:`HAPPlan` over ``target``'s node names.

    ``source_names`` is the canonical node order the plan was stored under;
    matching it positionally against ``target``'s canonical order yields the
    rename map (the graphs are isomorphic by construction — they share a
    fingerprint).  Costs, ratios and round history carry over untouched:
    the cost model only sees shapes and states, never names.
    """
    rename = canonical_rename_map(source_names, target)
    if all(old == new for old, new in rename.items()):
        return plan
    program = remap_program(plan.program, rename, target)
    return HAPPlan(
        program=program,
        ratios=[list(r) for r in plan.ratios],
        estimated_time=plan.estimated_time,
        rounds=list(plan.rounds),
        synthesis=replace(plan.synthesis, program=program),
    )


# -- cache backends ------------------------------------------------------------------
@dataclass
class CachedPlan:
    """One cache entry: a plan plus the canonical node order it is keyed under.

    ``node_names`` lets a hit be renamed onto the requesting graph; ``extra``
    carries small planner-specific payloads (the hierarchical planner's
    whole-plan entries store the canonical order of each chosen chunk graph
    under ``"chunk_orders"``, in virtual-stage order, so every chunk program
    can be renamed too).
    """

    key: str
    node_names: List[str]
    plan: object
    extra: Dict[str, object] = field(default_factory=dict)


class InMemoryPlanCache:
    """Process-local plan cache (no persistence)."""

    def __init__(self) -> None:
        self._entries: Dict[str, CachedPlan] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[CachedPlan]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, entry: CachedPlan) -> None:
        self._entries[entry.key] = entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def clear(self) -> None:
        self._entries.clear()


class DiskPlanCache(InMemoryPlanCache):
    """Persistent plan cache: one pickle per key under ``directory``.

    Writes go through a temporary file and :func:`os.replace`, so a reader
    never observes a torn entry and concurrent writers of the same key are
    last-writer-wins.  Reads are write-through cached in memory.  An entry
    that fails to unpickle for any reason — missing, truncated, or pickled
    against code that is gone — is treated as a miss (and re-written on
    ``put``).
    Safe to share one directory between concurrent processes — see the
    module docstring for the exact guarantee.
    """

    def __init__(self, directory: str) -> None:
        super().__init__()
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.plan")

    def get(self, key: str) -> Optional[CachedPlan]:
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            return entry
        try:
            with open(self._path(key), "rb") as fh:
                entry = pickle.load(fh)
        except Exception:  # missing, truncated, or pickled against gone code
            self.misses += 1
            return None
        if not isinstance(entry, CachedPlan) or entry.key != key:
            self.misses += 1
            return None
        self._entries[key] = entry
        self.hits += 1
        return entry

    def put(self, entry: CachedPlan) -> None:
        super().put(entry)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(entry.key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
