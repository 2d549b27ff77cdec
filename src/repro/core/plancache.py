"""Content-addressed plan cache: never plan the same problem twice.

Planning a (training graph, cluster) pair is a pure function of three
ingredients — the graph's *content* (ops, shapes, attributes, wiring), the
cluster's hardware model, and the planner configuration.  Node names are not
an ingredient: plans for two isomorphic graphs differ only by a reference
renaming.  This module turns that observation into a cache of whole
hierarchical plans:

* :func:`plan_key` hashes the three ingredients into a stable content address
  (graph via :func:`repro.graph.canonical.graph_fingerprint`, cluster via
  :func:`cluster_signature`, configuration via :func:`config_signature`);
* :class:`CachedPlan` stores a whole
  :class:`~repro.core.hierarchical.HierarchicalPlan` with the forward
  graph's canonical node order, so a hit is renamed onto the requesting
  graph's own node names
  (:meth:`repro.core.hierarchical.HierarchicalPlanner.plan`);
  :func:`remap_plan` renames one chunk's flat plan onto the chunk training
  graph rebuilt for the request, pairing the two graphs' nodes by position
  and checking in one pass that the pairing is an isomorphism;
* :class:`InMemoryPlanCache` and :class:`DiskPlanCache` provide the two
  obvious backends; the disk backend writes atomically and keeps a
  write-through in-memory layer, which makes it safe to share one directory
  between repeated planner invocations (the first brick of
  planner-as-a-service).

**Concurrency guarantee.**  One :class:`DiskPlanCache` directory may be
shared by any number of *processes* reading and writing concurrently, e.g.
several planner invocations pointed at one cache directory.  Every ``put``
writes into a process-private temporary file in the cache directory and
publishes it with :func:`os.replace`, which is atomic on POSIX and on NTFS:
a concurrent ``get`` observes either the complete old entry, the complete
new entry, or no file — never a torn one.  Racing writers of the *same* key
are last-writer-wins, which is harmless because keys are content addresses:
every writer of a key is storing an equivalent plan for the same planning
problem.  The in-memory write-through layer is per-process and never
shared, so no locks are needed anywhere; ``tests/test_plancache.py``
stress-tests the same-key multi-writer race.  :class:`InMemoryPlanCache`
itself is process-local and makes no cross-process claims.

**Trust model.**  A disk entry is the 32-byte sha256 digest of its pickled
payload followed by the payload.  ``get`` compares the digest before it
unpickles, so an entry damaged anywhere — truncated by the surrounding
filesystem, or with a flipped byte that would still unpickle cleanly, say
inside a float — is a *rejected* miss (counted in ``rejects`` and
re-written on the next ``put``), as is one that no longer unpickles (pickled
against a module or class that is gone) or that is stored under another
key.  The checksum does not defend against a malicious writer, and nothing
could: loading a pickle runs code, so the cache directory was always
trusted.  What a read-time check can guard against is accidental damage,
and the checksum covers every byte of it.  That is why the planner checks a
plan once, when it stores it (:meth:`repro.core.hierarchical.HierarchicalPlanner.plan`
stores only a plan that passes the structural
:func:`repro.verify.verify_plan`), and serves an intact entry under its own
node names without checking it again.  A hit renamed onto other node names
is not verified again either: the forward fingerprint certifies the forward
rename and :func:`remap_plan` proves each chunk rename an isomorphism, so
the served plan is the isomorphic image of a verified plan.  A chunk graph
that does not pair is a diagnosed miss (``last_reject`` names the node).

Invalidation is purely structural: any change to the graph content, device
specs, network model, or any configuration field changes the key, and
:data:`CACHE_VERSION` is baked into every key so cache entries from older
layouts of the planner can never be replayed.  Two configuration fields are
deliberately *excluded* from keys: ``plan_cache`` (the cache never keys on
itself) and ``verify_after_plan`` (verification never changes the plan, so
verified and unverified runs share entries).  Every other field keys, so a
knob that does not change the plan does not belong in a configuration.
Former knobs that are now module constants (``MIN_SHARD_DIM_SIZE``,
``MAX_SEARCH_STEPS``, ``MICROBATCH_CANDIDATES``, ``MICROBATCH_OVERHEAD``) do
not key, so changing one of them needs a
:data:`CACHE_VERSION` bump.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..cluster.spec import ClusterSpec
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
#: segment map and the load-balancer config its segment count, so the plan
#: layout and the config signature both changed.
#: v8: the load-balancer config (with its memory-row switch) and the
#: hierarchical recompute policy, ZeRO optimizer-state switch and learning
#: rate left the configs, and ``HierarchicalPlan`` lost its ZeRO flag.
#: v9: the cache holds whole plans only: per-chunk entries are gone, the
#: whole-plan key lost its ``"hierarchical:"`` prefix and ``CachedPlan``'s
#: ``extra["chunk_orders"]`` became the typed ``chunk_orders`` field.
#: v10: ``HierarchicalPlan.overlap`` is derived from the plan's cluster
#: instead of stored, and partition groups are plain ``ClusterSpec`` objects
#: without parent links, so the pickled plan layout changed.
#: v11: each stage count's machine split is sized to its cut instead of
#: split by equal flops, so a v10 entry may hold a plan on a split the
#: planner no longer picks.
#: v12: the interleaved schedule is gone: ``HierarchicalConfig`` lost
#: ``num_model_chunks`` and ``ChunkPlan`` was folded into ``StagePlan`` (one
#: chunk per stage), so the pickled plan and config layouts changed.
#: v13: ``HierarchicalConfig`` lost ``schedules`` (the planner always
#: searches every schedule), so the config signature changed.
#: v14: ``HierarchicalPlan`` lost its stored ``peak_memory``,
#: ``stage_memory_capacity`` and ``stage_memory_utilization``,
#: ``ScheduleResult`` its ``peak_memory``, and the flat planner's config its
#: ``enable_load_balancer``, so the pickled plan layout and the config
#: signature changed.
#: v15: ``HierarchicalPlan`` lost ``partition`` (each stage's ``subcluster``
#: is its machine group) and its stored copies of the schedule
#: (``num_microbatches``, ``estimated_time``, ``schedule_name``,
#: ``recompute``, ``microbatch_overhead``), so the pickled plan layout
#: changed.
#: v16: ``HAPPlan`` lost ``synthesis`` (its program is ``program``), so the
#: pickled plan layout changed.
#: v17: ``HierarchicalPlan`` lost its stored ``fits_memory`` (a property
#: derived from the stages and the schedule's stash peaks), so the pickled
#: plan layout changed.
#: v18: ``StagePlan`` lost ``content_key`` (the within-call chunk dedupe and
#: the profile memo it keyed are gone), so the pickled plan layout changed.
#: Hash-cached properties, states and instructions also stopped pickling
#: their process-local hashes.
#: v19: the flat planner runs one round and takes a bare ``SynthesisConfig``
#: (``HierarchicalConfig.planner``, which wrapped one with a round count,
#: became ``synthesis``) and ``OptimizationRound`` lost ``round_index``, so
#: the config signature and the pickled plan layout changed.
#: v20: ``SynthesisConfig`` lost its search-strategy switch (A* is the
#: synthesizer's ``astar`` method) and ``Machine`` its intra-machine latency
#: (no cost read it), so the config and cluster signatures both changed.
#: v21: a disk entry starts with the sha256 digest of its pickled payload,
#: and only structurally verified plans are stored.
#: v22: ``CachedPlan`` lost ``chunk_orders``: a renamed hit pairs each stored
#: chunk graph with the rebuilt one by position, so the pickled entry layout
#: changed.
CACHE_VERSION = 22

#: Bytes of the sha256 digest at the head of every disk entry.
_DIGEST_BYTES = 32

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
    the load-balancer switch, schedule lists, intra-group networks — lands
    in the key; ``plan_cache`` and ``verify_after_plan`` are excluded.
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


def remap_plan(plan: HAPPlan, target: ComputationGraph) -> HAPPlan:
    """Re-express a cached :class:`HAPPlan` over ``target``'s node names.

    ``target`` is built the way ``plan.program.graph`` was, so the two
    graphs list their nodes in the same order.  Pairing them by position
    gives the rename, and one pass proves it an isomorphism: each pair has
    equal ``op``, ``attrs`` and ``spec``, the renamed inputs equal the
    target node's inputs in order, and the outputs and loss map onto each
    other.  Any mismatch raises ``ValueError`` naming the stored node.
    Costs, ratios and round history carry over untouched: the cost model
    only sees shapes and states, never names.  A plan remapped onto its own
    graph is returned as is.
    """
    source = plan.program.graph
    if target is source:
        return plan
    if len(source) != len(target):
        raise ValueError(
            f"cannot remap: {len(source)} cached nodes vs {len(target)} target nodes"
        )
    rename: Dict[str, str] = {}
    for old, new in zip(source, target):
        if (
            old.op != new.op
            or old.attrs != new.attrs
            or old.spec != new.spec
            or tuple(rename.get(i) for i in old.inputs) != new.inputs
        ):
            raise ValueError(f"cannot remap: node {old.name!r} does not pair with {new.name!r}")
        rename[old.name] = new.name
    if [rename[o] for o in source.outputs] != target.outputs or (
        (source.loss and rename[source.loss]) != target.loss
    ):
        raise ValueError("cannot remap: the outputs or the loss do not pair")
    return HAPPlan(
        program=remap_program(plan.program, rename, target),
        ratios=[list(r) for r in plan.ratios],
        estimated_time=plan.estimated_time,
        rounds=list(plan.rounds),
    )


# -- cache backends ------------------------------------------------------------------
@dataclass
class CachedPlan:
    """One cache entry: a whole plan plus the canonical order it is keyed under.

    ``node_names`` is the forward graph's canonical order; a hit renames
    the pipeline cut by it, and every chunk program onto the chunk graph
    rebuilt from the renamed cut (:func:`remap_plan` pairs it with the
    stored ``stage.plan.program.graph`` by position).
    """

    key: str
    node_names: List[str]
    plan: object


class InMemoryPlanCache:
    """Process-local plan cache (no persistence).

    ``hits`` and ``misses`` count ``get`` calls; ``rejects`` counts the
    misses that found a damaged entry, which an in-memory entry never is.
    ``last_reject`` says why the last entry was refused, by the cache or
    by the planner (a stored chunk graph that does not pair with the
    request's).
    """

    def __init__(self) -> None:
        self._entries: Dict[str, CachedPlan] = {}
        self.hits = 0
        self.misses = 0
        self.rejects = 0
        self.last_reject: Optional[str] = None

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


def _seal_entry(entry: CachedPlan) -> bytes:
    """The bytes of one disk entry: the payload's sha256 digest, then the payload."""
    payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(payload).digest() + payload


def _open_entry(data: bytes, key: str) -> CachedPlan:
    """The entry sealed in ``data`` under ``key``; ``ValueError`` says why not.

    The digest is compared before anything is unpickled, so damage that
    would still unpickle (a flipped byte inside a float) is caught too.
    """
    digest, payload = data[:_DIGEST_BYTES], data[_DIGEST_BYTES:]
    if hashlib.sha256(payload).digest() != digest:
        raise ValueError("checksum mismatch (damaged or truncated entry)")
    try:
        entry = pickle.loads(payload)
    except Exception as exc:  # pickled against code that is gone
        raise ValueError(f"cannot unpickle: {exc!r}") from exc
    if not isinstance(entry, CachedPlan) or entry.key != key:
        raise ValueError("entry is stored under another key")
    return entry


class DiskPlanCache(InMemoryPlanCache):
    """Persistent plan cache: one checksummed pickle per key under ``directory``.

    Each file is the sha256 digest of the pickled entry, then the pickle.
    Writes go through a temporary file and :func:`os.replace`, so a reader
    never observes a torn entry and concurrent writers of the same key are
    last-writer-wins.  Reads are write-through cached in memory.  A missing
    file is a plain miss; a file that fails the checks — damaged,
    truncated, pickled against code that is gone, or holding another key —
    is a miss counted in ``rejects``, its reason kept in ``last_reject``,
    and is re-written on the next ``put``.  Safe to share one directory
    between concurrent processes — see the module docstring for the exact
    guarantee and the trust model.
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
                entry = _open_entry(fh.read(), key)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError) as exc:
            self.misses += 1
            self.rejects += 1
            self.last_reject = f"{self._path(key)}: {exc}"
            return None
        self._entries[key] = entry
        self.hits += 1
        return entry

    def put(self, entry: CachedPlan) -> None:
        super().put(entry)
        data = _seal_entry(entry)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, self._path(entry.key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
