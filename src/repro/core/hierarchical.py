"""Hierarchical planning: pipeline parallelism over per-group SPMD programs.

Flat HAP synthesizes one SPMD program spanning every device, which makes the
slow inter-machine link carry the full gradient traffic on heterogeneous,
bandwidth-constrained clusters.  The hierarchical planner instead

1. partitions the cluster into contiguous machine groups
   (:meth:`~repro.cluster.spec.ClusterSpec.partition`),
2. cuts the model into contiguous chunks balanced against each group's
   aggregate compute (:func:`~repro.graph.analysis.interleaved_pipeline_cut`
   — one chunk per stage normally, ``s * v`` round-robin chunks for the
   interleaved schedule),
3. differentiates each chunk in isolation
   (:func:`~repro.autodiff.build_stage_training_graph`), and
4. runs the *existing* flat :class:`~repro.core.pipeline.HAPPlanner` on every
   (chunk graph, machine group) pair, so all of HAP's program synthesis and
   load balancing is reused unchanged inside each chunk.

For every stage count the planner then searches jointly over the pipeline
**schedule** (GPipe, 1F1B, interleaved 1F1B — :mod:`repro.simulator.schedule`),
the **microbatch count** (snapped to divisors of the global batch) and the
**activation-recomputation** knob, rejecting combinations whose per-device
peak memory — in-flight microbatch activations plus resident
parameter/gradient/optimizer state (optionally ZeRO-sharded via
``shard_optimizer_state``) — exceeds the machine group's capacity
from the :class:`~repro.cluster.device.DeviceType` specs.  Candidates are
priced with the dual-stream overlap model
(:class:`~repro.cluster.spec.CommOverlapModel`): per-stage collectives and
boundary transfers count only their **exposed** (non-hidden) part, so on
slow networks overlap-friendly combinations can win.  The cheapest
memory-feasible candidate wins.  One stage is always a candidate and
reproduces flat HAP exactly, so flat planning is the degenerate case of
hierarchical planning rather than a parallel code path.  This follows
HetPipe's pipelining across heterogeneous machine groups, PipeDream/Megatron
1F1B scheduling and Hetu's hierarchical heterogeneous SPMD annotations (see
PAPERS.md).
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..autodiff.backward import TrainingGraphInfo, build_stage_training_graph
from ..cluster.spec import ClusterPartition, ClusterSpec, NetworkSpec
from ..graph.analysis import PipelineCut, interleaved_pipeline_cut
# ``graph_fingerprint`` is not called here (``fingerprint_with_order`` yields
# the same fingerprint); it stays a module attribute because the e2e
# benchmark's tracer wraps it on this module by name.
from ..graph.canonical import (
    canonical_order,
    fingerprint_with_order,
    graph_fingerprint,  # noqa: F401
)
from ..graph.graph import ComputationGraph, GraphError
from ..graph.ops import OpKind
from ..simulator.schedule import (
    SCHEDULE_NAMES,
    ScheduleResult,
    StageTimes,
    get_schedule,
    profile_stages,
    simulate_pipeline,
)
from .config import PlannerConfig, verify_default
from .costmodel import CostModel
from .pipeline import HAPPlan, HAPPlanner
from .plancache import CachedPlan, InMemoryPlanCache, plan_key, remap_plan
from .program import DistributedProgram

#: Resident bytes per parameter byte: the parameter itself plus its gradient.
PARAM_GRAD_FACTOR = 2.0
#: Resident bytes per parameter byte held by the optimizer (one SGD moment).
#: Under ZeRO-style optimizer-state sharding this part — and only this part —
#: is partitioned across the data-parallel group.
OPTIMIZER_MOMENT_FACTOR = 1.0
#: Multiplier turning parameter bytes into resident state: the parameter, its
#: gradient, and one optimizer moment (the same convention as
#: :func:`repro.baselines.planners.estimate_memory_per_device`).
OPTIMIZER_STATE_FACTOR = PARAM_GRAD_FACTOR + OPTIMIZER_MOMENT_FACTOR
#: Microbatch counts tried per (stage count, schedule); each is snapped to the
#: nearest divisor of the global batch (and to a multiple of the stage count
#: for the interleaved schedule, which also tries ``s`` and ``2s``).
MICROBATCH_CANDIDATES = (2, 4, 8, 16, 32)
#: Fixed per-microbatch launch/scheduling cost (seconds) of a multi-stage
#: pipeline; it does not shrink with the microbatch size.
MICROBATCH_OVERHEAD = 50e-6


@dataclass
class HierarchicalConfig:
    """Knobs of the hierarchical (pipeline-over-SPMD) planner.

    Candidates are priced with the cluster's ``comm_overlap_efficiency``
    (the schedule search ranks combinations by their *exposed*
    boundary-transfer and collective time); the same efficiency prices the
    synthesis of every chunk, since partitions copy it to every group.  Use a
    cluster with ``comm_overlap_efficiency=0.0`` for the fully blocking
    model.  Microbatch counts come from :data:`MICROBATCH_CANDIDATES`.

    Attributes:
        max_stages: stage counts ``1..min(max_stages, num_machines)`` are
            evaluated.  1 is flat HAP.
        schedules: pipeline schedules searched; ``None`` (the default)
            searches all of :data:`repro.simulator.schedule.SCHEDULE_NAMES`.
            An empty sequence is rejected.
        num_model_chunks: model chunks per stage for ``interleaved-1f1b``.
            The planner cuts ``num_stages * num_model_chunks`` real chunks,
            plans each with flat HAP and simulates the schedule with the
            per-chunk profiles; when the graph has too few splittable blocks
            for that many chunks the interleaved schedule is skipped at that
            stage count (never approximated with synthetic equal chunks).
        recompute: activation recomputation policy — ``"never"``,
            ``"always"``, or ``"auto"`` (try without; a recomputing variant
            only wins when plain stashing exceeds device memory, since it
            costs one extra forward per microbatch).
        intra_group_network: network model inside each machine group; defaults
            to the cluster's own network.  Pass the fast rack-local network
            when the cluster's flat network is the slow inter-rack bottleneck.
        shard_optimizer_state: ZeRO-style optimizer-state sharding in the
            memory model: the optimizer-moment bytes of replicated parameters
            are divided by the data-parallel group size in the per-device
            peak-memory check (the paper's activation/parameter bytes are
            untouched — only the resident optimizer state shrinks).
        planner: configuration of the flat HAP planner run per stage.
        lr: learning rate stored on the stage graphs' ``sgd_update`` nodes.
        plan_cache: a :class:`~repro.core.plancache.InMemoryPlanCache` /
            :class:`~repro.core.plancache.DiskPlanCache` consulted for every
            chunk plan and for the final whole plan, keyed by content
            fingerprints (see :mod:`repro.core.plancache`).  ``None`` (the
            default) disables cross-call caching.  Within one :meth:`plan`
            call each distinct (chunk-graph content, machine group, planner
            config) problem is planned once either way, and the plan is
            renamed onto every isomorphic chunk — repeated transformer layers
            produce isomorphic chunk graphs across the (stage x schedule x
            microbatch) grid.
        verify_after_plan: run the static plan verifier
            (:func:`repro.verify.verify_plan` — partition, boundary,
            round-robin, memory, per-chunk program and schedule checks) on
            the winning plan before :meth:`~HierarchicalPlanner.plan`
            returns, raising
            :class:`~repro.verify.base.PlanVerificationError` on any
            error-severity diagnostic.  Defaults to the ``REPRO_VERIFY``
            environment variable (on in tests).  Independent of this flag,
            every plan-cache hit is *always* structurally verified before it
            is returned — a corrupt or stale entry becomes a diagnosed miss
            (``reuse_stats["cache_rejects"]``) and planning falls through to
            fresh synthesis.  Excluded from plan-cache keys (verification
            never changes the plan).
    """

    max_stages: int = 4
    schedules: Optional[Sequence[str]] = None
    num_model_chunks: int = 2
    recompute: str = "auto"
    intra_group_network: Optional[NetworkSpec] = None
    shard_optimizer_state: bool = False
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    lr: float = 0.01
    plan_cache: Optional[InMemoryPlanCache] = None
    verify_after_plan: bool = field(default_factory=verify_default)

    def __post_init__(self) -> None:
        for name in ("max_stages", "num_model_chunks"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.recompute not in ("never", "always", "auto"):
            raise ValueError(
                f"recompute must be 'never', 'always' or 'auto', got {self.recompute!r}"
            )
        if self.schedules is not None:
            if not self.schedules:
                raise ValueError(
                    "schedules must be None (search every schedule) or name at "
                    "least one schedule, got an empty sequence"
                )
            for name in self.schedules:
                get_schedule(name)  # fail fast on typos


@dataclass
class ChunkPlan:
    """One model chunk: a flat HAP plan for one chunk graph on one group.

    A plan's pipeline is a sequence of ``s * v`` *virtual stages* (``v`` model
    chunks round-robin over ``s`` physical stages); virtual stage
    ``k = chunk * s + stage_index`` runs this chunk's program.  With ``v == 1``
    a chunk is exactly a whole pipeline stage.

    Attributes:
        chunk: model-chunk index ``c`` in ``0..v-1``.
        stage_index: physical stage (machine group) hosting the chunk.
        virtual_index: position ``k = chunk * s + stage_index`` in the
            virtual-stage order.
        subcluster: the machine group this chunk runs on.
        plan: the flat HAP plan for the chunk's training graph.
        info: chunk-graph book-keeping (boundary refs, gradient seeds,
            per-parameter updates) used by the hierarchical runtime.
        send_bytes: full-mini-batch activation bytes handed to later virtual
            stages — for a chunk on the last physical stage that is the
            wrap-around hop back to physical stage 0.
        activation_bytes: full-mini-batch forward activation bytes the chunk
            stashes for its backward pass.
        sharded_param_bytes: parameter bytes the chunk program shards across
            its group (each device holds its ratio's worth).
        replicated_param_bytes: parameter bytes replicated on every device.
        content_key: content address of the (chunk graph, group, planner
            config) planning problem (see :func:`repro.core.plancache.plan_key`);
            the planner sets it on every chunk.  Two chunks with the same
            key have bit-identical cost profiles (the cost model never looks
            at node names), so the planner and simulator profile each
            distinct key once.
    """

    chunk: int
    stage_index: int
    virtual_index: int
    subcluster: ClusterSpec
    plan: HAPPlan
    info: TrainingGraphInfo
    send_bytes: int
    activation_bytes: int = 0
    sharded_param_bytes: int = 0
    replicated_param_bytes: int = 0
    content_key: Optional[str] = None

    @property
    def program(self) -> DistributedProgram:
        return self.plan.program

    @property
    def ratios(self) -> List[float]:
        return self.plan.flat_ratios

    @property
    def forward_nodes(self) -> Set[str]:
        return set(self.info.forward_nodes)

    def weight_bytes_total(self) -> float:
        """Group-aggregate resident parameter/gradient/optimizer bytes."""
        n = self.subcluster.num_devices
        return OPTIMIZER_STATE_FACTOR * (
            self.replicated_param_bytes * n + self.sharded_param_bytes
        )


@dataclass
class StagePlan:
    """One physical pipeline stage: the model chunks resident on one group.

    With a non-interleaved schedule a stage hosts exactly one chunk;
    interleaved stages host ``num_model_chunks`` chunk programs.

    Attributes:
        index: stage position in the pipeline.
        subcluster: the machine group this stage runs on.
        chunks: the stage's :class:`ChunkPlan`\\ s, in model-chunk order.
    """

    index: int
    subcluster: ClusterSpec
    chunks: List[ChunkPlan]

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)

    @property
    def send_bytes(self) -> int:
        """Full-mini-batch bytes this stage ships downstream (all chunks)."""
        return sum(c.send_bytes for c in self.chunks)

    @property
    def activation_bytes(self) -> int:
        return sum(c.activation_bytes for c in self.chunks)

    def weight_bytes_total(self) -> float:
        """Group-aggregate resident parameter/gradient/optimizer bytes."""
        return sum(c.weight_bytes_total() for c in self.chunks)

    def peak_device_memory(
        self, peak_stash: float, shard_optimizer_state: bool = False
    ) -> List[float]:
        """Per-device peak bytes given the schedule's aggregate stash.

        ``peak_stash`` is the stage's group-aggregate activation-stash peak
        from :class:`~repro.simulator.schedule.ScheduleResult`.  Activations
        are batch-sharded, so each device holds its sharding-ratio share of
        the stash — chunks may be balanced differently, so the device's worst
        chunk ratio bounds its share — on top of its resident parameter
        state.

        With ``shard_optimizer_state`` (ZeRO-1 style) the optimizer-moment
        bytes of *replicated* parameters are divided by the data-parallel
        group size: each device keeps the full parameter and gradient but
        only its ``1/n`` slice of the optimizer state.  Sharded parameters
        already hold a ratio's worth of all three, so they are unchanged.
        """
        n = self.subcluster.num_devices
        moment = (
            OPTIMIZER_MOMENT_FACTOR / n if shard_optimizer_state else OPTIMIZER_MOMENT_FACTOR
        )
        peaks: List[float] = []
        for j in range(n):
            weight = sum(
                (PARAM_GRAD_FACTOR + moment) * c.replicated_param_bytes
                + OPTIMIZER_STATE_FACTOR * c.sharded_param_bytes * c.ratios[j]
                for c in self.chunks
            )
            share = max(c.ratios[j] for c in self.chunks)
            peaks.append(weight + peak_stash * share)
        return peaks


@dataclass
class HierarchicalPlan:
    """A pipeline of per-group SPMD plans (flat HAP when ``num_stages == 1``).

    Attributes:
        cluster: the full target cluster.
        partition: the machine-group partition the stages run on.
        stages: per-stage plans, in pipeline order.
        cut: the layer cut that produced the stage graphs.
        num_microbatches: microbatch count of the schedule.
        estimated_time: planner estimate of the pipelined iteration time.
        schedule: the schedule estimate behind ``estimated_time``.
        schedule_name: winning schedule (``gpipe``/``1f1b``/…).
        num_model_chunks: model chunks per stage (interleaved only).
        recompute: whether the plan recomputes activations in the backward.
        fits_memory: True when every stage's per-device peak memory fits its
            group's device capacity.
        peak_memory: per-stage group-aggregate peak bytes of the schedule.
        stage_memory_capacity: per-stage group-aggregate memory capacity.
        stage_memory_utilization: per-stage worst-device fraction of device
            capacity at the schedule's in-flight peak — the number behind the
            ``fits_memory`` verdict (>1 means some device does not fit even
            if the group aggregates look comfortable).
        candidate_times: estimated time of every stage count evaluated.
        schedule_candidate_times: estimated time of every
            (stage count, schedule, microbatches, recompute) combination.
        batch_size: global mini-batch size (for runtime ratio snapping).
        overlap: communication overlap efficiency the plan was priced with
            (boundary transfers and per-stage collectives expose only their
            non-hidden part).
        shard_optimizer_state: whether the memory feasibility checks sharded
            replicated parameters' optimizer moments ZeRO-style.
        reuse_stats: how much flat-HAP planning the reuse machinery avoided:
            ``subplans_planned`` chunk plans were actually synthesized,
            ``subplans_deduped`` were renamed from an isomorphic chunk planned
            earlier in the same call, ``cache_hits`` came from the configured
            plan cache, and ``whole_plan_hit`` is 1 when the entire plan was
            served from the cache.
    """

    cluster: ClusterSpec
    partition: ClusterPartition
    stages: List[StagePlan]
    cut: PipelineCut
    num_microbatches: int
    estimated_time: float
    schedule: ScheduleResult
    schedule_name: str = "gpipe"
    num_model_chunks: int = 1
    recompute: bool = False
    fits_memory: bool = True
    overlap: float = 0.0
    shard_optimizer_state: bool = False
    peak_memory: List[float] = field(default_factory=list)
    stage_memory_capacity: List[float] = field(default_factory=list)
    stage_memory_utilization: List[float] = field(default_factory=list)
    candidate_times: Dict[int, float] = field(default_factory=dict)
    schedule_candidate_times: Dict[Tuple[int, str, int, bool], float] = field(
        default_factory=dict
    )
    batch_size: Optional[int] = None
    microbatch_overhead: float = 0.0
    reuse_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def is_flat(self) -> bool:
        """True when planning degenerated to a single flat SPMD program."""
        return self.num_stages == 1

    def chunk_sequence(self) -> List[ChunkPlan]:
        """All chunk plans in virtual-stage order (``k = chunk * s + stage``).

        The order activations flow through the pipeline: chunk 0 of every
        stage front to back, then chunk 1 front to back (entered via the
        wrap hop), and so on.  With ``num_model_chunks == 1`` this is simply
        the stages in pipeline order.
        """
        v = max(stage.num_chunks for stage in self.stages)
        return [stage.chunks[c] for c in range(v) for stage in self.stages]

    @property
    def num_communications(self) -> int:
        return sum(c.program.num_communications for c in self.chunk_sequence())

    def communication_kinds(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for chunk in self.chunk_sequence():
            for kind, count in chunk.program.communication_kinds().items():
                hist[kind] = hist.get(kind, 0) + count
        return hist

    def describe(self) -> str:
        """Readable plan summary (stages, groups, schedule estimate, memory)."""
        recompute = ", recompute" if self.recompute else ""
        zero = ", ZeRO opt-state" if self.shard_optimizer_state else ""
        chunks = (
            f" x{self.num_model_chunks} chunks" if self.num_model_chunks > 1 else ""
        )
        overlap_note = ""
        if self.overlap > 0 and self.schedule.transfer > 0:
            hidden_pct = 100.0 * self.schedule.hidden_transfer / self.schedule.transfer
            overlap_note = (
                f", overlap {self.overlap:.0%} hides {hidden_pct:.0f}% of transfers"
            )
        lines = [
            f"Hierarchical plan on {self.cluster.name!r}: {self.num_stages} stage(s), "
            f"{self.schedule_name}{chunks} schedule, {self.num_microbatches} microbatches"
            f"{recompute}{zero}, estimated {self.estimated_time * 1e3:.2f} ms/iteration "
            f"(bubble {self.schedule.bubble_fraction * 100:.0f}%{overlap_note})"
        ]
        if not self.fits_memory:
            lines.append("  WARNING: no memory-feasible candidate; best infeasible plan kept")
        for stage in self.stages:
            group = stage.subcluster
            peak = (
                self.peak_memory[stage.index] if stage.index < len(self.peak_memory) else 0.0
            )
            cap = (
                self.stage_memory_capacity[stage.index]
                if stage.index < len(self.stage_memory_capacity)
                else 0.0
            )
            util = (
                f", worst device {self.stage_memory_utilization[stage.index] * 100:.0f}%"
                if stage.index < len(self.stage_memory_utilization)
                else ""
            )
            mem = f", peak mem {peak / 1e9:.2f}/{cap / 1e9:.0f} GB{util}" if cap else ""
            nodes = sum(len(c.info.graph) for c in stage.chunks)
            est = sum(c.plan.estimated_time.total for c in stage.chunks)
            chunk_note = (
                f" in {stage.num_chunks} chunk programs" if stage.num_chunks > 1 else ""
            )
            lines.append(
                f"  stage {stage.index}: {nodes} nodes{chunk_note} on "
                f"{group.name} ({group.num_gpus} GPUs), "
                f"est {est * 1e3:.2f} ms flat, "
                f"sends {stage.send_bytes / 1e6:.2f} MB downstream{mem}"
            )
        if self.candidate_times:
            ranked = ", ".join(
                f"{s}->{t * 1e3:.1f}ms" for s, t in sorted(self.candidate_times.items())
            )
            lines.append(f"  candidates: {ranked}")
        if self.reuse_stats:
            planned = self.reuse_stats.get("subplans_planned", 0)
            deduped = self.reuse_stats.get("subplans_deduped", 0)
            cached = self.reuse_stats.get("cache_hits", 0)
            note = " (whole plan from cache)" if self.reuse_stats.get("whole_plan_hit") else ""
            lines.append(
                f"  reuse: {planned} chunk plan(s) synthesized, "
                f"{deduped} deduped, {cached} cache hit(s){note}"
            )
        return "\n".join(lines)


def stage_forward_graph(
    forward: ComputationGraph, cut: PipelineCut, stage: int
) -> ComputationGraph:
    """Build the forward subgraph of one pipeline stage.

    Incoming activations become placeholder nodes carrying the *original*
    node names, so downstream bindings and activation handoff need no
    renaming; the stage's own nodes are copied verbatim in topological order.
    Attribute values are deep-copied: shape lists and nested dicts must not
    be shared between the original graph and the per-stage copies, or a
    mutation through one stage graph would corrupt every other stage.
    """
    graph = ComputationGraph(f"{forward.name}_p{stage}")
    for ref in cut.incoming_refs(stage):
        spec = forward[ref].spec
        graph.add_node(ref, "placeholder", (), {"shape": spec.shape, "dtype": spec.dtype})
    for name in cut.stages[stage]:
        node = forward[name]
        graph.add_node(name, node.op, node.inputs, copy.deepcopy(dict(node.attrs)))
    if forward.loss is not None and forward.loss in graph:
        graph.mark_loss(forward.loss)
    return graph


def _divisors(n: int) -> List[int]:
    """All divisors of ``n``, ascending, enumerated in O(sqrt(n)) pairs."""
    small: List[int] = []
    large: List[int] = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _nearest_divisor(n: int, target: int) -> int:
    """The divisor of ``n`` closest to ``target`` (ties prefer the larger).

    Enumerates divisor pairs in O(sqrt(n)) — this runs inside the planner's
    schedule-search loop, where a linear scan over production batch sizes
    was a hidden O(batch) cost per candidate.
    """
    target = max(1, min(target, n))
    return min(_divisors(n), key=lambda d: (abs(d - target), -d))


class HierarchicalPlanner:
    """Searches (stage count x schedule x microbatches), flat HAP per stage."""

    def __init__(
        self,
        forward: ComputationGraph,
        cluster: ClusterSpec,
        config: Optional[HierarchicalConfig] = None,
    ) -> None:
        if any(node.kind is OpKind.OPTIMIZER for node in forward):
            raise GraphError(
                "HierarchicalPlanner needs the forward graph (with a marked loss): "
                "stages are differentiated individually"
            )
        if forward.loss is None:
            raise GraphError("HierarchicalPlanner needs a forward graph with a marked loss")
        self.forward = forward
        self.cluster = cluster
        self.config = config or HierarchicalConfig()
        if self.config.verify_after_plan:
            # Pre-planning IR check of the forward graph; the per-chunk
            # training graphs are checked again by each HAPPlanner.
            from ..verify.base import PlanVerificationError
            from ..verify.graph import verify_graph

            graph_report = verify_graph(forward)
            if not graph_report.ok:
                raise PlanVerificationError(graph_report)
        self.batch_size = self._batch_size()
        self.overlap = cluster.comm_overlap_efficiency
        # Within-call sub-plan dedupe table and reuse counters; reset per plan().
        self._local_plans: Dict[str, CachedPlan] = {}
        # content_key -> phase_profile buckets: each distinct (chunk graph,
        # group, planner config) problem is profiled once per plan() call.
        self._profile_memo: Dict[str, Dict[str, float]] = {}
        self.reuse_stats: Dict[str, int] = {
            "subplans_planned": 0,
            "subplans_deduped": 0,
            "cache_hits": 0,
            "cache_rejects": 0,
            "whole_plan_hit": 0,
        }

    def _batch_size(self) -> Optional[int]:
        leading = {
            p.spec.shape[0] for p in self.forward.placeholders() if p.spec.rank > 0
        }
        return leading.pop() if len(leading) == 1 else None

    def _candidates(self) -> range:
        # 1 stage (flat HAP) is always a candidate.
        return range(1, min(self.config.max_stages, len(self.cluster.machines)) + 1)

    def _microbatch_candidates(self, num_stages: int, schedule_name: str) -> List[int]:
        """Microbatch counts to try, snapped to divisors of the global batch.

        A microbatch count above the batch size would produce empty
        microbatches and one that does not divide the batch would produce
        ragged ones, so candidates are clamped and snapped to the nearest
        batch divisor whenever the batch size is known (graphs with mixed
        leading dimensions fall back to the raw candidate list).  The
        interleaved schedule additionally requires multiples of the stage
        count, so non-conforming candidates are dropped and ``s``/``2s`` are
        offered instead.
        """
        base = list(MICROBATCH_CANDIDATES)
        if schedule_name == "interleaved-1f1b":
            base += [num_stages, 2 * num_stages]
        out: Set[int] = set()
        if schedule_name == "interleaved-1f1b" and self.batch_size is not None:
            # The interleaved schedule needs m to divide the batch *and* be a
            # multiple of the stage count.  Snap every candidate to the
            # nearest such divisor — the candidate list stays bounded by
            # MICROBATCH_CANDIDATES instead of enumerating every multiple
            # of the stage count up to the batch (an O(batch) blow-up at
            # production batch sizes).  An empty ``valid`` means the schedule
            # is genuinely infeasible at this stage count.
            valid = [d for d in _divisors(self.batch_size) if d % num_stages == 0]
            if not valid:
                return []
            for m in base:
                out.add(min(valid, key=lambda d, m=m: (abs(d - m), -d)))
            return sorted(out)
        for m in base:
            if self.batch_size is not None:
                m = _nearest_divisor(self.batch_size, m)
            if schedule_name == "interleaved-1f1b" and m % num_stages != 0:
                continue
            out.add(m)
        return sorted(out)

    # -- per-candidate construction -------------------------------------------------
    def _plan_chunk(self, graph: ComputationGraph, group: ClusterSpec) -> Tuple[HAPPlan, str]:
        """Flat-HAP plan for one chunk graph, reusing isomorphic work.

        Lookup order: the within-call dedupe table (isomorphic chunks planned
        earlier in this :meth:`plan` call — repeated layers, or the same cut
        re-planned for another schedule variant), then the configured
        persistent cache.  Both key on content only — chunk-graph fingerprint
        x machine-group signature x planner config — and a hit is renamed
        onto this chunk's node names, so the result is identical to planning
        from scratch.  Returns the plan and its content key.
        """
        fingerprint, order = fingerprint_with_order(graph)
        key = plan_key(fingerprint, group, self.config.planner)
        entry = self._local_plans.get(key)
        if entry is not None:
            self.reuse_stats["subplans_deduped"] += 1
            return remap_plan(entry.plan, entry.node_names, graph), key
        if self.config.plan_cache is not None:
            entry = self.config.plan_cache.get(key)
            if entry is not None:
                # Trust-but-verify: a cached chunk plan crossed a process or
                # filesystem boundary, so its program is structurally checked
                # (cheap, O(instructions)) before it is accepted.  A corrupt
                # or stale entry becomes a diagnosed miss and the chunk is
                # re-synthesized (overwriting the bad entry below).
                from ..verify.program import verify_program

                try:
                    remapped = remap_plan(entry.plan, entry.node_names, graph)
                    accept = verify_program(remapped.program, check_cost=False).ok
                except Exception:  # unreadable entry == failed verification
                    accept = False
                if accept:
                    self.reuse_stats["cache_hits"] += 1
                    self._local_plans[key] = entry
                    return remapped, key
                self.reuse_stats["cache_rejects"] += 1
        plan = HAPPlanner(graph, group, self.config.planner).plan()
        self.reuse_stats["subplans_planned"] += 1
        entry = CachedPlan(key=key, node_names=order, plan=plan)
        self._local_plans[key] = entry
        if self.config.plan_cache is not None:
            self.config.plan_cache.put(entry)
        return plan, key

    def _chunk_training_graph(self, cut: PipelineCut, k: int) -> TrainingGraphInfo:
        """Training graph of virtual stage ``k`` of ``cut``, differentiated alone."""
        return build_stage_training_graph(
            stage_forward_graph(self.forward, cut, k),
            boundary_inputs=tuple(cut.incoming_refs(k)),
            boundary_outputs=cut.cut_refs[k],
            lr=self.config.lr,
        )

    def _build_stages(
        self, partition: ClusterPartition, num_chunks: int
    ) -> Optional[Tuple[PipelineCut, List[StagePlan]]]:
        """Cut ``s * num_chunks`` real chunks and plan each with flat HAP.

        Returns ``None`` when the graph has too few splittable layer blocks
        for that many contiguous pieces — the caller then drops the chunked
        (or multi-stage) variant rather than falling back to a synthetic
        equal-chunk model.
        """
        s = partition.num_groups
        cut = interleaved_pipeline_cut(
            self.forward, partition.compute_ratios(), num_chunks
        )
        if cut.num_stages != s * num_chunks:
            return None
        chunk_plans: List[ChunkPlan] = []
        for k in range(cut.num_stages):
            stage_idx = k % s
            info = self._chunk_training_graph(cut, k)
            plan, content_key = self._plan_chunk(info.graph, partition.groups[stage_idx])
            # Bytes the chunk's *outgoing hop* actually ships: every tensor in
            # flight across virtual boundary k, including skip-connection
            # tensors produced by earlier chunks that this hop merely relays
            # (charging those only at their producer's hop under-priced every
            # interior hop they cross).  The final virtual stage sends nothing.
            send_bytes = (
                sum(self.forward[ref].spec.size_bytes for ref in cut.crossing_refs(k))
                if k < cut.num_stages - 1
                else 0
            )
            activation_bytes = sum(
                info.graph[name].spec.size_bytes
                for name in info.forward_nodes
                if info.graph[name].kind is not OpKind.SOURCE
            )
            shardings = plan.program.parameter_shardings()
            sharded = sum(
                p.spec.size_bytes
                for p in info.graph.parameters()
                if shardings.get(p.name) is not None
            )
            replicated = sum(
                p.spec.size_bytes
                for p in info.graph.parameters()
                if shardings.get(p.name) is None
            )
            chunk_plans.append(
                ChunkPlan(
                    chunk=k // s,
                    stage_index=stage_idx,
                    virtual_index=k,
                    subcluster=partition.groups[stage_idx],
                    plan=plan,
                    info=info,
                    send_bytes=send_bytes,
                    activation_bytes=activation_bytes,
                    sharded_param_bytes=sharded,
                    replicated_param_bytes=replicated,
                    content_key=content_key,
                )
            )
        stages = [
            StagePlan(
                index=i,
                subcluster=partition.groups[i],
                chunks=[c for c in chunk_plans if c.stage_index == i],
            )
            for i in range(s)
        ]
        return cut, stages

    def _candidate_partition(self, num_stages: int) -> ClusterPartition:
        # The intra-group network only applies to proper partitions: a single
        # group is the whole cluster and still spans the slow flat network.
        intra = self.config.intra_group_network if num_stages > 1 else None
        return self.cluster.partition(num_stages, intra_group_network=intra)

    def _candidate_variants(self, num_stages: int) -> List[int]:
        """Model-chunk counts some (schedule, microbatch) combo will consume.

        Flat-HAP planning per chunk is the expensive part of a candidate, so
        an interleaved-only search skips the 1-chunk cut and a schedule with
        no valid microbatch count (e.g. no batch divisor is a multiple of the
        stage count) never triggers the ``s * v`` cut whose results the
        search would discard.
        """
        v = self.config.num_model_chunks
        needed: Set[int] = set()
        if num_stages == 1:
            needed.add(1)
        else:
            for name in list(self.config.schedules or SCHEDULE_NAMES):
                chunks = v if (name == "interleaved-1f1b" and v > 1) else 1
                if self._microbatch_candidates(num_stages, name):
                    needed.add(chunks)
        return sorted(needed)

    def build_candidate(self, num_stages: int) -> Optional[HierarchicalPlan]:
        """Best plan at one stage count, or ``None`` when none exists.

        Cuts, plans and profiles every model-chunk variant the stage count
        needs (the expensive part), then searches schedules, microbatch
        counts and recomputation over the profiles.
        """
        partition = self._candidate_partition(num_stages)
        # variant key = model chunks per stage -> (cut, stages, times).
        variants: Dict[int, Tuple[PipelineCut, List[StagePlan], List[StageTimes]]] = {}
        for chunks in self._candidate_variants(num_stages):
            built = self._build_stages(partition, chunks)
            if built is not None:
                times = profile_stages(built[1], self._profile_chunk, self._profile_memo)
                variants[chunks] = (built[0], built[1], times)
        if not variants:
            return None  # the graph has fewer splittable layer blocks
        best = self._search_schedules(partition, variants)
        if best is None:
            return None  # no (schedule, microbatch) combination at this stage count
        schedule, schedule_name, recompute, fits, combo_times, win_chunks = best
        cut, stages, _times = variants[win_chunks]
        utilization: List[float] = []
        for stage, stash in zip(stages, schedule.peak_stash):
            peaks = stage.peak_device_memory(
                stash, shard_optimizer_state=self.config.shard_optimizer_state
            )
            utilization.append(
                max(
                    peak / cap
                    for peak, cap in zip(peaks, stage.subcluster.device_memory())
                )
            )
        return HierarchicalPlan(
            cluster=self.cluster,
            partition=partition,
            stages=stages,
            cut=cut,
            num_microbatches=schedule.num_microbatches,
            estimated_time=schedule.total,
            schedule=schedule,
            schedule_name=schedule_name,
            num_model_chunks=schedule.num_model_chunks,
            recompute=recompute,
            fits_memory=fits,
            overlap=self.overlap,
            shard_optimizer_state=self.config.shard_optimizer_state,
            peak_memory=list(schedule.peak_memory),
            stage_memory_capacity=[float(s.subcluster.total_memory()) for s in stages],
            stage_memory_utilization=utilization,
            schedule_candidate_times=combo_times,
            batch_size=self.batch_size,
            microbatch_overhead=0.0 if num_stages == 1 else MICROBATCH_OVERHEAD,
        )

    def _profile_chunk(self, chunk: ChunkPlan) -> Dict[str, float]:
        """Cost-model phase buckets of one chunk program on its group."""
        cost_model = CostModel(chunk.program.graph, chunk.subcluster)
        return cost_model.phase_profile(chunk.program, chunk.ratios, chunk.forward_nodes)

    def _fits_memory(
        self, stages: Sequence[StagePlan], result: ScheduleResult
    ) -> bool:
        """True when every device of every stage group fits its peak bytes."""
        for stage, stash in zip(stages, result.peak_stash):
            capacities = stage.subcluster.device_memory()
            peaks = stage.peak_device_memory(
                stash, shard_optimizer_state=self.config.shard_optimizer_state
            )
            if any(peak > cap for peak, cap in zip(peaks, capacities)):
                return False
        return True

    def _search_schedules(
        self,
        partition: ClusterPartition,
        variants: Dict[int, Tuple[PipelineCut, List[StagePlan], List[StageTimes]]],
    ) -> Optional[
        Tuple[ScheduleResult, str, bool, bool, Dict[Tuple[int, str, int, bool], float], int]
    ]:
        """Best (schedule, microbatch count, recompute) across chunk variants.

        ``variants`` maps a model-chunk count to its real per-chunk plans and
        profiles: non-interleaved schedules evaluate the 1-chunk variant,
        ``interleaved-1f1b`` evaluates the ``num_model_chunks`` variant and is
        skipped entirely when that cut is infeasible — an interleaved plan is
        only ever built from real chunk programs it can execute.

        Combinations are ranked memory-feasible first, then by estimated
        time; activation recomputation trades one extra forward per
        microbatch for an O(1) activation stash, so it can never beat a
        memory-feasible plain run — under the default ``"auto"`` policy the
        recomputing variant is only simulated when plain stashing exceeds
        device memory.  Returns ``None`` when no (schedule, microbatch)
        combination exists for this stage count (e.g. an interleaved-only
        search whose batch has no divisor that is a multiple of the stage
        count) — the flat 1-stage candidate always exists.
        """
        network = partition.inter_group_network
        num_stages = partition.num_groups
        combo_times: Dict[Tuple[int, str, int, bool], float] = {}
        # A single stage is flat SPMD: the whole batch runs at once, so no
        # microbatching (and no per-microbatch overhead) applies.
        if num_stages == 1:
            combos: List[Tuple[str, int, int]] = [("gpipe", 1, 1)]
        else:
            schedules = list(self.config.schedules or SCHEDULE_NAMES)
            combos = []
            for name in schedules:
                chunks = 1
                if name == "interleaved-1f1b" and self.config.num_model_chunks > 1:
                    chunks = self.config.num_model_chunks
                if chunks not in variants:
                    continue  # no real cut at this chunk count: not executable
                combos.extend(
                    (name, m, chunks)
                    for m in self._microbatch_candidates(num_stages, name)
                )
        if not combos:
            return None
        first_recompute = self.config.recompute == "always" and num_stages > 1
        best: Optional[
            Tuple[Tuple[int, float, int], ScheduleResult, str, bool, bool, int]
        ] = None
        for order, (name, m, chunks) in enumerate(combos):
            _cut, stages, times = variants[chunks]
            attempts = [first_recompute]
            for rc in attempts:
                result = simulate_pipeline(
                    times,
                    num_microbatches=m,
                    inter_group_bandwidth=network.bandwidth,
                    inter_group_latency=network.latency,
                    microbatch_overhead=0.0 if num_stages == 1 else MICROBATCH_OVERHEAD,
                    schedule=name,
                    num_model_chunks=chunks,
                    recompute=rc,
                    overlap=self.overlap,
                )
                fits = self._fits_memory(stages, result)
                combo_times[(num_stages, name, m, rc)] = result.total
                key = (0 if fits else 1, result.total, order)
                if best is None or key < best[0]:
                    best = (key, result, name, rc, fits, chunks)
                if (
                    not rc
                    and not fits
                    and self.config.recompute == "auto"
                    and num_stages > 1
                ):
                    attempts.append(True)  # retry with recomputation
        assert best is not None  # combos is non-empty
        _, result, name, rc, fits, chunks = best
        return result, name, rc, fits, combo_times, chunks

    def _remap_whole(self, entry: CachedPlan, order: List[str]) -> HierarchicalPlan:
        """Re-express a cached whole plan over this request's node names.

        ``entry.node_names`` is the canonical forward order the plan was
        stored under and ``order`` is the request's; pairing them renames the
        cut.  Each chunk's training graph is rebuilt from the renamed cut the
        way :meth:`_build_stages` builds it, and the chunk's program is renamed
        onto it against the chunk's canonical order stored in
        ``entry.extra["chunk_orders"]``.  Sizes, costs and the schedule carry
        over untouched: they never depend on names.  The identity rename
        returns the cached plan itself.  A malformed entry raises.
        """
        plan = entry.plan
        if len(entry.node_names) != len(order):
            raise ValueError(
                f"cached plan has {len(entry.node_names)} forward nodes, "
                f"the request {len(order)}"
            )
        if entry.node_names == order:
            return plan
        rename = dict(zip(entry.node_names, order))
        chunks = plan.chunk_sequence()
        chunk_orders = entry.extra["chunk_orders"]
        if len(chunk_orders) != len(chunks):
            raise ValueError(
                f"cached plan has {len(chunks)} chunks but {len(chunk_orders)} chunk orders"
            )
        cached_cut = plan.cut
        cut = PipelineCut(
            stages=tuple(tuple(rename[n] for n in stage) for stage in cached_cut.stages),
            stage_of={rename[n]: k for n, k in cached_cut.stage_of.items()},
            cut_refs=tuple(tuple(rename[r] for r in refs) for refs in cached_cut.cut_refs),
            stage_flops=cached_cut.stage_flops,
            consumers=self.forward.consumers(),
        )
        renamed: Dict[int, ChunkPlan] = {}
        for chunk, chunk_order in zip(chunks, chunk_orders):
            info = self._chunk_training_graph(cut, chunk.virtual_index)
            renamed[chunk.virtual_index] = dataclasses.replace(
                chunk, plan=remap_plan(chunk.plan, chunk_order, info.graph), info=info
            )
        stages = [
            dataclasses.replace(
                stage, chunks=[renamed[c.virtual_index] for c in stage.chunks]
            )
            for stage in plan.stages
        ]
        return dataclasses.replace(plan, cut=cut, stages=stages)

    # -- main entry point -----------------------------------------------------------
    def plan(self) -> HierarchicalPlan:
        """Evaluate every candidate and return the cheapest feasible plan.

        With a configured ``plan_cache`` the finished plan is stored under the
        (forward-graph fingerprint, cluster signature, config signature) key,
        together with the canonical orders of the forward graph and of each
        chosen chunk graph.  A later request for the same problem — under any
        node names — is served whole: the cached plan is renamed onto the
        request (:meth:`_remap_whole`) and structurally verified.  A request
        that misses the whole plan still takes every chunk plan it shares
        with earlier requests from the chunk-level entries.
        """
        self._local_plans = {}
        self._profile_memo = {}
        self.reuse_stats = {
            "subplans_planned": 0,
            "subplans_deduped": 0,
            "cache_hits": 0,
            "cache_rejects": 0,
            "whole_plan_hit": 0,
        }
        cache = self.config.plan_cache
        whole_key = None
        order: List[str] = []
        if cache is not None:
            fingerprint, order = fingerprint_with_order(self.forward)
            whole_key = plan_key("hierarchical:" + fingerprint, self.cluster, self.config)
            entry = cache.get(whole_key)
            if entry is not None:
                # A whole plan from the cache is verified structurally (no
                # cost re-derivation, keeping warm hits O(plan size)) before
                # it is replayed; a corrupt entry is a diagnosed miss and
                # planning falls through to the fresh path below.
                from ..verify.plan import verify_plan

                try:
                    hit = self._remap_whole(entry, order)
                    accept = verify_plan(hit, self.forward, check_cost=False).ok
                except Exception:  # unreadable entry == failed verification
                    accept = False
                if accept:
                    self.reuse_stats["whole_plan_hit"] = 1
                    # Shallow copy: the cached entry keeps its own stats and
                    # stays immutable from the caller's point of view.
                    return dataclasses.replace(hit, reuse_stats=dict(self.reuse_stats))
                self.reuse_stats["cache_rejects"] += 1
        best: Optional[HierarchicalPlan] = None
        candidate_times: Dict[int, float] = {}
        combo_times: Dict[Tuple[int, str, int, bool], float] = {}
        for num_stages in self._candidates():
            candidate = self.build_candidate(num_stages)
            if candidate is None:
                continue
            candidate_times[num_stages] = candidate.estimated_time
            combo_times.update(candidate.schedule_candidate_times)
            if best is None or (
                (not candidate.fits_memory, candidate.estimated_time)
                < (not best.fits_memory, best.estimated_time)
            ):
                best = candidate
        assert best is not None  # num_stages == 1 always builds
        best.candidate_times = candidate_times
        best.schedule_candidate_times = combo_times
        best.reuse_stats = dict(self.reuse_stats)
        if cache is not None and whole_key is not None:
            chunk_orders = [canonical_order(c.info.graph) for c in best.chunk_sequence()]
            cache.put(
                CachedPlan(
                    key=whole_key,
                    node_names=order,
                    plan=best,
                    extra={"chunk_orders": chunk_orders},
                )
            )
        if self.config.verify_after_plan:
            # Imported lazily: repro.verify depends on this module.
            from ..verify.base import PlanVerificationError
            from ..verify.plan import verify_plan

            report = verify_plan(best, self.forward)
            if not report.ok:
                raise PlanVerificationError(report)
        return best
