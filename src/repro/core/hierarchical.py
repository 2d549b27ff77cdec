"""Hierarchical planning: pipeline parallelism over per-group SPMD programs.

Flat HAP synthesizes one SPMD program spanning every device, which makes the
slow inter-machine link carry the full gradient traffic on heterogeneous,
bandwidth-constrained clusters.  The hierarchical planner instead

1. splits the cluster into contiguous machine groups sized to the cut
   (:meth:`HierarchicalPlanner._candidate_partition`): it starts at equal
   group flops (:func:`_balanced_boundaries`), cuts the graph, moves to the
   contiguous split (:meth:`~repro.cluster.spec.ClusterSpec.split`) that
   minimises ``max_i stage_flops_i / group_flops_i`` and cuts again until a
   split repeats, keeping the visited split with the lowest bottleneck — no
   synthesis runs until the split is fixed; each stage keeps its group as
   its ``subcluster``,
2. cuts the model into one contiguous chunk per stage, balanced against
   each group's aggregate compute (:func:`~repro.graph.analysis.pipeline_cut`);
   a cut with a stage that has no forward flops drops that stage count like
   a cut with too few blocks,
3. differentiates each chunk in isolation
   (:func:`~repro.autodiff.build_stage_training_graph`), and
4. runs the *existing* flat :class:`~repro.core.pipeline.HAPPlanner` on every
   (chunk graph, machine group) pair, so all of HAP's program synthesis and
   load balancing is reused unchanged inside each chunk.  Each chunk is
   planned and profiled once; a group that is one virtual device (one
   machine running data parallelism inside it) costs no search, because the
   flat planner builds its one program in closed form.

For every stage count the planner then searches jointly over the pipeline
**schedule** (GPipe or 1F1B — :mod:`repro.simulator.schedule`),
the **microbatch count** (snapped to divisors of the global batch) and
**activation recomputation** (tried only for a multi-stage combination whose
plain run does not fit), rejecting combinations whose per-device
peak memory — in-flight microbatch activations plus resident
parameter/gradient/optimizer state — exceeds the machine group's capacity
from the :class:`~repro.cluster.device.DeviceType` specs.  Candidates are
priced with the dual-stream overlap model at the cluster's
``comm_overlap_efficiency`` (every machine group carries the same value):
per-stage collectives and boundary transfers count only their **exposed**
(non-hidden) part, so on slow networks overlap-friendly combinations can
win.  The cheapest memory-feasible candidate wins.  One stage is always a
candidate and reproduces flat HAP exactly, so flat planning is the
degenerate case of hierarchical planning rather than a parallel code path.
This follows
HetPipe's pipelining across heterogeneous machine groups, PipeDream/Megatron
1F1B scheduling and Hetu's hierarchical heterogeneous SPMD annotations (see
PAPERS.md).
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..autodiff.backward import TrainingGraphInfo, build_stage_training_graph
from ..cluster.spec import ClusterSpec, NetworkSpec
from ..graph.analysis import PipelineCut, cut_transfer_bytes, pipeline_cut
# ``graph_fingerprint`` is not called here (``fingerprint_with_order`` yields
# the same fingerprint); it stays a module attribute because the e2e
# benchmark's tracer wraps it on this module by name.
from ..graph.canonical import fingerprint_with_order, graph_fingerprint  # noqa: F401
from ..graph.graph import ComputationGraph, GraphError
from ..graph.ops import OpKind
from ..simulator.schedule import (
    SCHEDULE_NAMES,
    ScheduleResult,
    StageTimes,
    profile_stages,
    simulate_pipeline,
)
from .config import SynthesisConfig
from .costmodel import CostModel
from .pipeline import HAPPlan, HAPPlanner
from .plancache import CachedPlan, InMemoryPlanCache, plan_key, remap_plan
from .program import DistributedProgram

# The e2e benchmark's tracer wraps the cut under this name (ROADMAP item "One
# tracer, in the library").
interleaved_pipeline_cut = pipeline_cut

#: Multiplier turning parameter bytes into resident state: the parameter, its
#: gradient, and one optimizer moment (read only by :func:`device_peak_memory`).
OPTIMIZER_STATE_FACTOR = 3.0
#: Microbatch counts tried per (stage count, schedule); each is snapped to the
#: nearest divisor of the global batch.
MICROBATCH_CANDIDATES = (2, 4, 8, 16, 32)
#: Fixed per-microbatch launch/scheduling cost (seconds) of a multi-stage
#: pipeline; it does not shrink with the microbatch size.
MICROBATCH_OVERHEAD = 50e-6


def _microbatch_overhead(num_stages: int) -> float:
    """Per-microbatch launch cost of a ``num_stages``-stage pipeline.

    A single stage is flat SPMD: the whole batch runs at once, so no
    microbatching (and no per-microbatch overhead) applies.
    """
    return 0.0 if num_stages == 1 else MICROBATCH_OVERHEAD


def parameter_bytes_split(program: DistributedProgram) -> Tuple[int, int]:
    """``(sharded, replicated)`` parameter bytes of ``program``.

    A parameter with a sharding dimension is split across the devices by
    their ratios; one without is replicated on every device.
    """
    shardings = program.parameter_shardings()
    sharded = replicated = 0
    for p in program.graph.parameters():
        if shardings.get(p.name) is None:
            replicated += p.spec.size_bytes
        else:
            sharded += p.spec.size_bytes
    return sharded, replicated


def device_peak_memory(
    sharded_param_bytes: float,
    replicated_param_bytes: float,
    stash: float,
    ratios: Sequence[float],
) -> List[float]:
    """Peak bytes of every device of one SPMD program: the one memory model.

    Device ``j`` holds the resident state of every replicated parameter and
    its ratio ``r_j`` of the sharded ones (each times
    :data:`OPTIMIZER_STATE_FACTOR`), plus ``r_j`` of the activation
    ``stash``, which is batch-sharded like the program.  A pipeline stage's
    stash is its schedule's in-flight peak; a flat plan's is its whole
    forward pass, the one-stage case.
    """
    return [
        OPTIMIZER_STATE_FACTOR * replicated_param_bytes
        + OPTIMIZER_STATE_FACTOR * sharded_param_bytes * r
        + stash * r
        for r in ratios
    ]


@dataclass
class HierarchicalConfig:
    """Knobs of the hierarchical (pipeline-over-SPMD) planner.

    Candidates are priced with the cluster's ``comm_overlap_efficiency``
    (the schedule search ranks combinations by their *exposed*
    boundary-transfer and collective time); the same efficiency prices the
    synthesis of every chunk, because every machine group is a
    :class:`~repro.cluster.spec.ClusterSpec` carrying it.  Use a
    cluster with ``comm_overlap_efficiency=0.0`` for the fully blocking
    model.  Every schedule of :data:`repro.simulator.schedule.SCHEDULE_NAMES`
    is searched, over the microbatch counts of :data:`MICROBATCH_CANDIDATES`.
    Activation recomputation is not a knob: every combination is tried plain
    first, and a multi-stage combination is retried with recomputation only
    when its plain run does not fit device memory (recomputation costs one
    extra forward per microbatch, so it never beats a plain run that fits).
    Stage graphs store the default learning rate of
    :func:`~repro.autodiff.build_stage_training_graph` on their update nodes.
    The static verifier runs under ``synthesis.verify_after_plan``:
    with it on, the planner checks the forward graph before planning and
    the winning plan (:func:`repro.verify.verify_plan`) before
    :meth:`~HierarchicalPlanner.plan` returns, raising
    :class:`~repro.verify.base.PlanVerificationError` on any error-severity
    diagnostic.  Either way a plan is structurally verified once before the
    whole-plan cache stores it (a plan that fails is returned, not stored),
    so a hit is served without a check: under the stored node names as is,
    under other names through a checked positional rename.  A damaged disk
    entry (its checksum fails) or a stored chunk graph that does not pair
    with the request's becomes a diagnosed miss
    (``reuse_stats["cache_rejects"]``) and planning falls through to fresh
    synthesis.

    Attributes:
        max_stages: stage counts ``1..min(max_stages, num_machines)`` are
            evaluated.  1 is flat HAP.
        intra_group_network: network model inside each machine group; defaults
            to the cluster's own network.  Pass the fast rack-local network
            when the cluster's flat network is the slow inter-rack bottleneck.
        synthesis: configuration of the flat HAP planner run on every
            chunk (one synthesis and one LP per chunk).
        plan_cache: a :class:`~repro.core.plancache.InMemoryPlanCache` /
            :class:`~repro.core.plancache.DiskPlanCache` holding whole plans,
            keyed by the forward graph's content fingerprint, the cluster and
            this configuration (see :mod:`repro.core.plancache`).  ``None``
            (the default) disables cross-call caching.
    """

    max_stages: int = 4
    intra_group_network: Optional[NetworkSpec] = None
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    plan_cache: Optional[InMemoryPlanCache] = None

    def __post_init__(self) -> None:
        if self.max_stages < 1:
            raise ValueError(f"max_stages must be >= 1, got {self.max_stages}")


@dataclass
class StagePlan:
    """One pipeline stage: a flat HAP plan for its chunk graph on one group.

    Attributes:
        index: stage position in the pipeline, which is also the chunk's
            position in the cut.
        subcluster: the machine group this stage runs on.
        plan: the flat HAP plan for the stage's chunk training graph.
        info: chunk-graph book-keeping (boundary refs, gradient seeds,
            per-parameter updates) used by the hierarchical runtime.
        send_bytes: full-mini-batch activation bytes handed to the next
            stage (0 on the last stage).
        activation_bytes: full-mini-batch forward activation bytes the stage
            stashes for its backward pass.
        sharded_param_bytes: parameter bytes the stage program shards across
            its group (each device holds its ratio's worth).
        replicated_param_bytes: parameter bytes replicated on every device.
    """

    index: int
    subcluster: ClusterSpec
    plan: HAPPlan
    info: TrainingGraphInfo
    send_bytes: int
    activation_bytes: int = 0
    sharded_param_bytes: int = 0
    replicated_param_bytes: int = 0

    @property
    def stage_index(self) -> int:
        """The e2e plan digest's name for :attr:`index` (ROADMAP item "One
        tracer, in the library")."""
        return self.index

    @property
    def virtual_index(self) -> int:
        """The e2e plan digest's name for :attr:`index` (ROADMAP item "One
        tracer, in the library")."""
        return self.index

    @property
    def program(self) -> DistributedProgram:
        return self.plan.program

    @property
    def ratios(self) -> List[float]:
        return self.plan.flat_ratios

    @property
    def forward_nodes(self) -> Set[str]:
        return set(self.info.forward_nodes)

    def peak_device_memory(self, peak_stash: float) -> List[float]:
        """Per-device peak bytes given the schedule's stash peak.

        ``peak_stash`` is the stage's activation-stash peak from
        :class:`~repro.simulator.schedule.ScheduleResult`; see
        :func:`device_peak_memory`.
        """
        return device_peak_memory(
            self.sharded_param_bytes, self.replicated_param_bytes, peak_stash, self.ratios
        )


def memory_verdict(
    stages: Sequence[StagePlan], peak_stash: Sequence[float]
) -> Tuple[bool, List[float]]:
    """``(fits, utilization)`` of stages under their schedule's stash peaks.

    ``fits`` is True when every device of every stage holds its peak bytes;
    ``utilization`` is each stage's worst-device fraction of capacity.
    Raises ``ValueError`` unless there is one stash peak per stage.
    """
    if len(stages) != len(peak_stash):
        raise ValueError(f"{len(peak_stash)} stash peaks for {len(stages)} stages")
    fits = True
    utilization: List[float] = []
    for stage, stash in zip(stages, peak_stash):
        peaks = stage.peak_device_memory(stash)
        capacities = stage.subcluster.device_memory()
        fits = fits and all(peak <= cap for peak, cap in zip(peaks, capacities))
        utilization.append(max(peak / cap for peak, cap in zip(peaks, capacities)))
    return fits, utilization


@dataclass
class HierarchicalPlan:
    """A pipeline of per-group SPMD plans (flat HAP when ``num_stages == 1``).

    A plan stores decisions, not verdicts derived from them.  The schedule
    choice lives in :attr:`schedule` alone, and each stage's machine group
    in its ``subcluster``: :attr:`schedule_name`, :attr:`num_microbatches`,
    :attr:`recompute` and :attr:`estimated_time` read the schedule,
    :attr:`fits_memory` and :attr:`stage_memory_utilization` judge the
    stages under the schedule's stash peaks (:func:`memory_verdict`), and
    the inter-group link is the cluster's own network.

    Attributes:
        cluster: the full target cluster; its network is the inter-group
            link between adjacent stages.
        stages: per-stage plans, in pipeline order.
        cut: the layer cut that produced the stage graphs.
        schedule: the winning schedule estimate (schedule name, microbatch
            count, recomputation and the iteration time).
        candidate_times: estimated time of every stage count evaluated.
        schedule_candidate_times: estimated time of every
            (stage count, schedule, microbatches, recompute) combination.
        batch_size: global mini-batch size (for runtime ratio snapping).
        reuse_stats: how much flat-HAP planning the plan cache avoided:
            ``subplans_planned`` chunk plans were built (one per stage of
            every stage count whose cut builds), ``cache_rejects`` counts
            refused whole-plan cache entries (a damaged disk entry, or one
            whose stored chunk graph does not pair with the request's), and
            ``whole_plan_hit`` is 1 when the entire plan was served from the
            cache.
    """

    cluster: ClusterSpec
    stages: List[StagePlan]
    cut: PipelineCut
    schedule: ScheduleResult
    candidate_times: Dict[int, float] = field(default_factory=dict)
    schedule_candidate_times: Dict[Tuple[int, str, int, bool], float] = field(
        default_factory=dict
    )
    batch_size: Optional[int] = None
    reuse_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def schedule_name(self) -> str:
        """Winning schedule (``gpipe`` or ``1f1b``)."""
        return self.schedule.schedule

    @property
    def num_microbatches(self) -> int:
        """Microbatch count of the schedule."""
        return self.schedule.num_microbatches

    @property
    def recompute(self) -> bool:
        """Whether the plan recomputes activations in the backward."""
        return self.schedule.recompute

    @property
    def estimated_time(self) -> float:
        """Planner estimate of the pipelined iteration time."""
        return self.schedule.total

    @property
    def microbatch_overhead(self) -> float:
        """Fixed per-microbatch launch cost the schedule was priced with."""
        return _microbatch_overhead(self.num_stages)

    @property
    def overlap(self) -> float:
        """Communication overlap efficiency the plan was priced with.

        The cluster's ``comm_overlap_efficiency``: boundary transfers and
        per-stage collectives expose only their non-hidden part.
        """
        return self.cluster.comm_overlap_efficiency

    @property
    def fits_memory(self) -> bool:
        """True when every stage's per-device peak memory fits its group's
        device capacity at the schedule's stash peaks."""
        return memory_verdict(self.stages, self.schedule.peak_stash)[0]

    @property
    def stage_memory_utilization(self) -> List[float]:
        """Per-stage worst-device fraction of device capacity at the
        schedule's stash peak (>1: some device does not fit)."""
        return memory_verdict(self.stages, self.schedule.peak_stash)[1]

    @property
    def num_model_chunks(self) -> int:
        """Model chunks per stage: always 1.  The e2e plan digest reads this
        name (ROADMAP item "One tracer, in the library")."""
        return 1

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def is_flat(self) -> bool:
        """True when planning degenerated to a single flat SPMD program."""
        return self.num_stages == 1

    def chunk_sequence(self) -> List[StagePlan]:
        """:attr:`stages` under the name the e2e plan digest reads (ROADMAP
        item "One tracer, in the library")."""
        return list(self.stages)

    @property
    def num_communications(self) -> int:
        return sum(stage.program.num_communications for stage in self.stages)

    def communication_kinds(self) -> Dict[str, int]:
        hist: Dict[str, int] = {}
        for stage in self.stages:
            for kind, count in stage.program.communication_kinds().items():
                hist[kind] = hist.get(kind, 0) + count
        return hist

    def describe(self) -> str:
        """Readable plan summary (stages, groups, schedule estimate, memory)."""
        recompute = ", recompute" if self.recompute else ""
        overlap_note = ""
        if self.overlap > 0 and self.schedule.transfer > 0:
            hidden_pct = 100.0 * self.schedule.hidden_transfer / self.schedule.transfer
            overlap_note = (
                f", overlap {self.overlap:.0%} hides {hidden_pct:.0f}% of transfers"
            )
        lines = [
            f"Hierarchical plan on {self.cluster.name!r}: {self.num_stages} stage(s), "
            f"{self.schedule_name} schedule, {self.num_microbatches} microbatches"
            f"{recompute}, estimated {self.estimated_time * 1e3:.2f} ms/iteration "
            f"(bubble {self.schedule.bubble_fraction * 100:.0f}%{overlap_note})"
        ]
        if not self.fits_memory:
            lines.append("  WARNING: no memory-feasible candidate; best infeasible plan kept")
        for stage, util in zip(self.stages, self.stage_memory_utilization):
            group = stage.subcluster
            lines.append(
                f"  stage {stage.index}: {len(stage.info.graph)} nodes on "
                f"{group.name} ({group.num_gpus} GPUs), "
                f"est {stage.plan.estimated_time.total * 1e3:.2f} ms flat, "
                f"sends {stage.send_bytes / 1e6:.2f} MB downstream, "
                f"worst device at {util * 100:.0f}% of memory"
            )
        if self.candidate_times:
            ranked = ", ".join(
                f"{s}->{t * 1e3:.1f}ms" for s, t in sorted(self.candidate_times.items())
            )
            lines.append(f"  candidates: {ranked}")
        if self.reuse_stats:
            planned = self.reuse_stats.get("subplans_planned", 0)
            note = " (whole plan from cache)" if self.reuse_stats.get("whole_plan_hit") else ""
            lines.append(f"  reuse: {planned} chunk plan(s) built{note}")
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


def _is_shortfall(cut: PipelineCut, pieces: int) -> bool:
    """True when ``cut`` cannot host ``pieces`` pipeline pieces.

    Either the graph had too few splittable blocks for that many pieces, or
    a piece of a multi-piece cut has no forward flops.  One piece is the
    whole graph and always builds.
    """
    if cut.num_stages != pieces:
        return True
    return pieces > 1 and min(cut.stage_flops) <= 0


def _bottleneck(
    stage_flops: Sequence[float], machine_flops: Sequence[float], boundaries: Sequence[int]
) -> float:
    """``max_i stage_flops_i / group_flops_i`` of the split ending at ``boundaries``."""
    worst = 0.0
    start = 0
    for flops, end in zip(stage_flops, boundaries):
        worst = max(worst, flops / sum(machine_flops[start:end]))
        start = end
    return worst


def _balanced_boundaries(weights: Sequence[float], num_groups: int) -> List[int]:
    """End indices of a contiguous split of ``weights`` into balanced groups.

    Greedy cumulative split against equal-weight targets, constrained so every
    group keeps at least one element and no elements are left over.  Exact for
    the small machine counts clusters have.
    """
    n = len(weights)
    total = sum(weights) or float(n)
    boundaries: List[int] = []
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w if total > 0 else 1.0
        remaining_groups = num_groups - len(boundaries)
        remaining_items = n - (i + 1)
        if len(boundaries) < num_groups - 1 and (
            acc >= total * (len(boundaries) + 1) / num_groups
            or remaining_items <= remaining_groups - 1
        ):
            boundaries.append(i + 1)
    boundaries.append(n)
    return boundaries


def _compute_ratios(groups: Sequence[ClusterSpec]) -> List[float]:
    """Fraction of the groups' summed compute held by each group."""
    flops = [g.total_flops() for g in groups]
    total = sum(flops)
    return [f / total for f in flops]


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
        if self.config.synthesis.verify_after_plan:
            # Pre-planning IR check of the forward graph; the per-chunk
            # training graphs are checked again by each HAPPlanner.
            from ..verify.base import PlanVerificationError
            from ..verify.graph import verify_graph

            graph_report = verify_graph(forward)
            if not graph_report.ok:
                raise PlanVerificationError(graph_report)
        self.batch_size = self._batch_size()
        self.overlap = cluster.comm_overlap_efficiency
        self._reset()

    def _reset(self) -> None:
        """Start a fresh :meth:`plan` call: zero reuse counters."""
        self.reuse_stats: Dict[str, int] = dict.fromkeys(
            ("subplans_planned", "cache_rejects", "whole_plan_hit"), 0
        )

    def _batch_size(self) -> Optional[int]:
        leading = {
            p.spec.shape[0] for p in self.forward.placeholders() if p.spec.rank > 0
        }
        return leading.pop() if len(leading) == 1 else None

    def _candidates(self) -> range:
        # 1 stage (flat HAP) is always a candidate.
        return range(1, min(self.config.max_stages, len(self.cluster.machines)) + 1)

    def _microbatch_candidates(self) -> List[int]:
        """Microbatch counts to try, snapped to divisors of the global batch.

        A microbatch count above the batch size would produce empty
        microbatches and one that does not divide the batch would produce
        ragged ones, so candidates are clamped and snapped to the nearest
        batch divisor whenever the batch size is known (graphs with mixed
        leading dimensions fall back to the raw candidate list).
        """
        if self.batch_size is None:
            return list(MICROBATCH_CANDIDATES)
        return sorted({_nearest_divisor(self.batch_size, m) for m in MICROBATCH_CANDIDATES})

    # -- per-candidate construction -------------------------------------------------
    def _plan_chunk(self, graph: ComputationGraph, group: ClusterSpec) -> HAPPlan:
        """Flat-HAP plan for one chunk graph on its machine group.

        Every chunk is planned afresh, with no within-call dedupe of
        isomorphic chunks.  On the registry models and paper testbeds only
        one-device chunks (a one-machine group with machines grouped)
        recurred, and :class:`~repro.core.pipeline.HAPPlanner` builds those
        in closed form.
        """
        self.reuse_stats["subplans_planned"] += 1
        return HAPPlanner(graph, group, self.config.synthesis).plan()

    def _chunk_training_graph(self, cut: PipelineCut, k: int) -> TrainingGraphInfo:
        """Training graph of stage ``k`` of ``cut``, differentiated alone."""
        return build_stage_training_graph(
            stage_forward_graph(self.forward, cut, k),
            boundary_inputs=tuple(cut.incoming_refs(k)),
            boundary_outputs=cut.cut_refs[k],
        )

    def _build_stages(
        self, groups: Sequence[ClusterSpec], cut: PipelineCut
    ) -> List[StagePlan]:
        """Plan each chunk of ``cut`` with flat HAP on its machine group."""
        # Bytes each stage's outgoing hop ships, relayed skip connections
        # included; the final stage sends nothing.
        hop_bytes = cut_transfer_bytes(self.forward, cut)
        stages: List[StagePlan] = []
        for k, group in enumerate(groups):
            info = self._chunk_training_graph(cut, k)
            plan = self._plan_chunk(info.graph, group)
            activation_bytes = sum(
                info.graph[name].spec.size_bytes
                for name in info.forward_nodes
                if info.graph[name].kind is not OpKind.SOURCE
            )
            sharded, replicated = parameter_bytes_split(plan.program)
            stages.append(
                StagePlan(
                    index=k,
                    subcluster=group,
                    plan=plan,
                    info=info,
                    send_bytes=hop_bytes[k],
                    activation_bytes=activation_bytes,
                    sharded_param_bytes=sharded,
                    replicated_param_bytes=replicated,
                )
            )
        return stages

    def _candidate_partition(
        self, num_stages: int
    ) -> Optional[Tuple[List[ClusterSpec], PipelineCut]]:
        """The contiguous machine groups of one stage count, sized to its cut.

        Returns one :class:`~repro.cluster.spec.ClusterSpec` per stage, which
        becomes that stage's ``subcluster``, and the cut of the graph against
        them.  One stage is one group of the whole cluster, which still spans
        the slow flat network (the intra-group network applies to proper
        splits only).  For ``s >= 2`` the split starts at equal group flops
        (:func:`_balanced_boundaries`) and alternates without synthesis: cut
        the graph against the split's compute ratios, then move to the
        contiguous split that minimises the cut's bottleneck ``max_i
        stage_flops_i / group_flops_i``, ties going to the lexicographically
        smallest boundaries.  It stops when a split repeats and returns the
        visited split whose own cut has the lowest bottleneck, with that
        cut: each split is cut once.

        Returns ``None``, before any synthesis, when every visited cut falls
        short (:func:`_is_shortfall`, an infinite bottleneck): the graph has
        too few splittable layer blocks for that many contiguous pieces, or
        a piece computes nothing and would cost a pipeline hop and a machine
        group for no work.  The caller then drops the stage count.
        """
        n = len(self.cluster.machines)
        if num_stages == 1:
            groups = self.cluster.split([n])
            cut = interleaved_pipeline_cut(self.forward, _compute_ratios(groups))
            return None if _is_shortfall(cut, 1) else (groups, cut)
        intra = self.config.intra_group_network
        machine_flops = [m.total_flops for m in self.cluster.machines]
        splits = [(*b, n) for b in combinations(range(1, n), num_stages - 1)]
        boundaries = tuple(_balanced_boundaries(machine_flops, num_stages))
        # split -> (bottleneck of its own cut, groups, cut), in visiting order.
        visited: Dict[Tuple[int, ...], Tuple[float, List[ClusterSpec], PipelineCut]] = {}
        while boundaries not in visited:
            groups = self.cluster.split(boundaries, intra)
            cut = interleaved_pipeline_cut(self.forward, _compute_ratios(groups))
            if _is_shortfall(cut, num_stages):
                visited[boundaries] = (float("inf"), groups, cut)
                if cut.num_stages != num_stages:
                    break  # too few blocks: no split can help
            else:
                bottleneck = _bottleneck(cut.stage_flops, machine_flops, boundaries)
                visited[boundaries] = (bottleneck, groups, cut)
            boundaries = min(
                splits, key=lambda b, f=cut.stage_flops: _bottleneck(f, machine_flops, b)
            )
        bottleneck, groups, cut = min(visited.values(), key=lambda entry: entry[0])
        return None if bottleneck == float("inf") else (groups, cut)

    def build_candidate(self, num_stages: int) -> Optional[HierarchicalPlan]:
        """Best plan at one stage count, or ``None`` when its cut falls short.

        Plans and profiles one chunk per stage of the partition's cut (the
        expensive part), then searches schedules, microbatch counts and
        recomputation over the profiles.
        """
        partition = self._candidate_partition(num_stages)
        if partition is None:
            return None  # the graph has fewer splittable layer blocks
        groups, cut = partition
        stages = self._build_stages(groups, cut)
        times = profile_stages(stages, self._profile_chunk)
        schedule, combo_times = self._search_schedules(stages, times)
        return HierarchicalPlan(
            cluster=self.cluster,
            stages=stages,
            cut=cut,
            schedule=schedule,
            schedule_candidate_times=combo_times,
            batch_size=self.batch_size,
        )

    def _profile_chunk(self, stage: StagePlan) -> Dict[str, float]:
        """Cost-model phase buckets of one stage program on its group."""
        cost_model = CostModel(stage.program.graph, stage.subcluster)
        return cost_model.phase_profile(stage.program, stage.ratios, stage.forward_nodes)

    def _search_schedules(
        self, stages: Sequence[StagePlan], times: Sequence[StageTimes]
    ) -> Tuple[ScheduleResult, Dict[Tuple[int, str, int, bool], float]]:
        """Best (schedule, microbatch count, recompute) over the stage profiles.

        Combinations are ranked memory-feasible first, then by estimated
        time; activation recomputation trades one extra forward per
        microbatch for an O(1) activation stash, so it can never beat a
        memory-feasible plain run — the recomputing variant of a multi-stage
        combination is only simulated when plain stashing exceeds device
        memory.
        """
        network = self.cluster.network
        num_stages = len(stages)
        combo_times: Dict[Tuple[int, str, int, bool], float] = {}
        # A single stage is flat SPMD: the whole batch runs at once.
        if num_stages == 1:
            combos: List[Tuple[str, int]] = [("gpipe", 1)]
        else:
            counts = self._microbatch_candidates()
            combos = [(name, m) for name in SCHEDULE_NAMES for m in counts]
        best: Optional[Tuple[Tuple[int, float, int], ScheduleResult]] = None
        for order, (name, m) in enumerate(combos):
            for rc in (False, True):
                result = simulate_pipeline(
                    times,
                    num_microbatches=m,
                    inter_group_bandwidth=network.bandwidth,
                    inter_group_latency=network.latency,
                    microbatch_overhead=_microbatch_overhead(num_stages),
                    schedule=name,
                    recompute=rc,
                    overlap=self.overlap,
                )
                fits, _ = memory_verdict(stages, result.peak_stash)
                combo_times[(num_stages, name, m, rc)] = result.total
                key = (0 if fits else 1, result.total, order)
                if best is None or key < best[0]:
                    best = (key, result)
                if fits or num_stages == 1:
                    break  # only a multi-stage run that does not fit retries
        assert best is not None  # combos is non-empty
        return best[1], combo_times

    def _remap_whole(self, entry: CachedPlan, order: List[str]) -> HierarchicalPlan:
        """Re-express a cached whole plan over this request's node names.

        ``entry.node_names`` is the canonical forward order the plan was
        stored under and ``order`` is the request's; pairing them renames the
        cut.  Each chunk's training graph is rebuilt from the renamed cut the
        way :meth:`_build_stages` builds it, in the stored cut's node order,
        and :func:`~repro.core.plancache.remap_plan` renames the chunk's
        program onto it by pairing it with the stored chunk graph position
        by position.  Sizes, costs and the schedule carry over untouched:
        they never depend on names.  The identity rename returns the cached
        plan itself.  An entry that does not pair raises ``ValueError``
        naming the chunk and the node.

        The result needs no verification.  The forward fingerprint
        certifies the forward rename, ``remap_plan`` proves each chunk
        rename an isomorphism, and the stored plan was structurally verified
        before it was stored, so the result is the isomorphic image of a
        verified plan.
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
        cached_cut = plan.cut
        cut = PipelineCut(
            stages=tuple(tuple(rename[n] for n in stage) for stage in cached_cut.stages),
            stage_of={rename[n]: k for n, k in cached_cut.stage_of.items()},
            cut_refs=tuple(tuple(rename[r] for r in refs) for refs in cached_cut.cut_refs),
            stage_flops=cached_cut.stage_flops,
            consumers=self.forward.consumers(),
        )
        stages: List[StagePlan] = []
        for stage in plan.stages:
            info = self._chunk_training_graph(cut, stage.index)
            try:
                chunk_plan = remap_plan(stage.plan, info.graph)
            except ValueError as exc:
                raise ValueError(f"chunk {stage.index}: {exc}") from exc
            stages.append(dataclasses.replace(stage, plan=chunk_plan, info=info))
        return dataclasses.replace(plan, cut=cut, stages=stages)

    # -- main entry point -----------------------------------------------------------
    def plan(self) -> HierarchicalPlan:
        """Evaluate every candidate and return the cheapest feasible plan.

        With a configured ``plan_cache`` the finished plan is structurally
        verified and, if sound, stored under the (forward-graph fingerprint,
        cluster signature, config signature) key, together with the forward
        graph's canonical order.  A later request for the same problem —
        under any node names — is served whole and unchecked: under the
        stored names the cached plan itself; under other names a copy
        renamed onto the request through a checked positional rename
        (:meth:`_remap_whole`).  An entry whose stored chunk graph does not
        pair with the request's is a diagnosed miss (``last_reject`` on the
        cache says why).  The cache holds whole plans only: a request that
        misses (another configuration, or a rejected entry) plans from
        scratch.
        """
        self._reset()
        cache = self.config.plan_cache
        key: Optional[str] = None
        order: List[str] = []
        if cache is not None:
            fingerprint, order = fingerprint_with_order(self.forward)
            key = plan_key(fingerprint, self.cluster, self.config)
            rejects = cache.rejects
            entry = cache.get(key)
            # A damaged disk entry is a miss the cache itself rejected.
            self.reuse_stats["cache_rejects"] += cache.rejects - rejects
            if entry is not None:
                # Only structurally verified plans are stored, and a disk
                # entry's checksum proves it intact, so the stored plan is
                # served as is, or as its checked rename onto the request.
                # An entry that does not pair is a diagnosed miss that falls
                # through to fresh planning.
                try:
                    hit = self._remap_whole(entry, order)
                except ValueError as exc:
                    cache.last_reject = f"{key}: cannot remap: {exc}"
                    self.reuse_stats["cache_rejects"] += 1
                else:
                    self.reuse_stats["whole_plan_hit"] = 1
                    # Shallow copy: the cached entry keeps its own stats and
                    # stays immutable from the caller's point of view.
                    return dataclasses.replace(hit, reuse_stats=dict(self.reuse_stats))
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
        verified = self.config.synthesis.verify_after_plan
        if verified:
            # Imported lazily: repro.verify depends on this module.
            from ..verify.base import PlanVerificationError
            from ..verify.plan import verify_plan

            report = verify_plan(best, self.forward)
            if not report.ok:
                raise PlanVerificationError(report)
        # A stored plan is served under its own names unchecked, so only a
        # plan that passes the structural check (which the full check above
        # includes) is stored; one that fails is still returned.
        if cache is not None and key is not None and (
            verified or self._structurally_sound(best)
        ):
            cache.put(CachedPlan(key=key, node_names=order, plan=best))
        return best

    def _structurally_sound(self, plan: HierarchicalPlan) -> bool:
        """Whether ``plan`` passes :func:`repro.verify.verify_plan` without its cost check."""
        from ..verify.plan import verify_plan  # lazily: repro.verify imports this module

        return verify_plan(plan, self.forward, check_cost=False).ok
