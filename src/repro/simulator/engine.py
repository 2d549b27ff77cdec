"""Discrete (stage-level) execution simulator.

The paper measures per-iteration wall-clock time on a real cluster; this
reproduction replaces the cluster with a simulator that replays a distributed
program stage by stage on the cluster model.  The simulator is intentionally
*richer* than the planner's cost model (Sec. 3.2): it adds kernel-launch
overheads, memory-bandwidth limits for element-wise operators, an intra-machine
synchronisation penalty and multiplicative run-to-run noise.  As a result the
planner's estimates systematically *under-estimate* the simulated time while
remaining strongly linearly correlated with it — exactly the relationship the
paper reports for its cost model in Fig. 18.

Timing is **event-driven and dual-stream**: devices have a compute stream and
a communication stream.  The replay runs two timelines — the fully serialized
one (every sync stage costs ``comm + comp``) and the ideal dual-stream one,
where each collective enters the communication stream as soon as its input
tensor has been produced and only the compute that (transitively) consumes a
collective's output waits for it.  On real synthesized programs this is what
hides the gradient all-reduce tail behind the tail of the backward pass and
the parameter updates behind later collectives.  The cluster's
``comm_overlap_efficiency`` interpolates between the two timelines: 0
reproduces the additive model bit-for-bit, 1 is the perfect dual-stream
execution; results report busy/idle/exposed-communication breakdowns per
stream either way.  A simulator replays at the efficiency of the cluster it
was built for; to replay at another efficiency, build it on a cluster that
carries that efficiency.  (The planner's cost model keeps the
LP-expressible per-stage window approximation of the same idea — the
simulator, as everywhere else, is the richer of the two.)

numpy is imported only where the run-to-run noise is drawn and averaged, so
importing the simulator (as the planner does) does not import it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..cluster.spec import ClusterSpec
from ..core.costmodel import CostModel
from ..core.instructions import CommInstruction, CompInstruction
from ..core.program import DistributedProgram
from ..graph.ops import OpKind
from .schedule import ScheduleResult, StageTimes, profile_stages, simulate_pipeline


#: Secondary effects the simulator prices and the cost model does not
#: (:class:`_SimulatedCostModel`): host-side launch latency per computation
#: instruction, in s.
KERNEL_LAUNCH = 6e-6
#: Extra launch latency per collective call, in s.
COLLECTIVE_LAUNCH = 18e-6
#: Per-GPU HBM bandwidth, in bytes/s, bounding element-wise operators that
#: perform almost no arithmetic.
MEMORY_BANDWIDTH = 600e9
#: Framework/synchronisation overhead per synchronisation stage, in s.
FRAMEWORK_PER_STAGE = 30e-6
#: Multiplier on collective times (shared-network slowdown).
CONGESTION = 1.12


@dataclass(frozen=True)
class OverheadModel:
    """The simulator's run-to-run noise, the one secondary effect that is set.

    The other secondary effects are the module constants above.

    Attributes:
        noise: standard deviation of the multiplicative run-to-run noise.
    """

    noise: float = 0.02


@dataclass
class SimulationResult:
    """Per-iteration time observed on the simulated cluster.

    Attributes:
        total: per-iteration wall-clock time,
            ``computation + exposed_communication + overhead``.
        communication: raw collective seconds (communication-stream busy).
        computation: per-stage bottleneck compute seconds (compute stream).
        overhead: per-stage framework/synchronisation overhead.
        exposed_communication: collective seconds left on the critical path
            after hiding behind independent compute; equals
            ``communication`` when the overlap efficiency is 0.
        hidden_communication: collective seconds overlapped with compute
            (``communication - exposed_communication``).
        stage_times: per-sync-stage wall-clock times of the last iteration.
        per_device_busy: per-device compute-stream busy seconds.
        per_device_comm_busy: per-device communication-stream busy seconds
            (collectives involve every device for their full duration).
        per_device_idle: per-device compute-stream idle seconds
            (``total - busy``, floored at 0).
    """

    total: float
    communication: float
    computation: float
    overhead: float
    stage_times: List[float] = field(default_factory=list)
    per_device_busy: List[float] = field(default_factory=list)
    exposed_communication: float = 0.0
    hidden_communication: float = 0.0
    per_device_comm_busy: List[float] = field(default_factory=list)
    per_device_idle: List[float] = field(default_factory=list)


class _SimulatedCostModel(CostModel):
    """The simulator's per-instruction prices: the cost model's plus overheads.

    Computation adds a memory-bandwidth bound for element-wise operators and
    a kernel launch per instruction; collectives are slowed by congestion
    and pay a launch; every synchronisation stage pays the framework's
    :attr:`per_stage_overhead`.  Both :meth:`ExecutionSimulator.simulate`'s
    replay and :func:`simulate_hierarchical`'s stage profiles price through
    this one model.
    """

    #: framework/synchronisation overhead of every synchronisation stage.
    per_stage_overhead = FRAMEWORK_PER_STAGE

    def comp_times(self, instr: CompInstruction, ratios: Sequence[float]) -> List[float]:
        return [self._comp_time(instr, j, ratios[j]) for j in range(self.num_devices)]

    def _comp_time(self, instr: CompInstruction, device_idx: int, ratio: float) -> float:
        node = self.graph[instr.node]
        share = ratio if instr.flops_sharded else 1.0
        flops = self.node_flops(instr.node) * share
        device = self.devices[device_idx]
        compute_bound = flops / device.flops if flops else 0.0
        # Element-wise / data-movement operators are bound by memory bandwidth.
        bytes_touched = 3.0 * node.spec.size_bytes * share
        memory_bound = bytes_touched / (MEMORY_BANDWIDTH * device.num_gpus)
        kind = node.kind
        if kind in (OpKind.MATMUL, OpKind.CONV, OpKind.CONV_GRAD_INPUT, OpKind.CONV_GRAD_WEIGHT):
            base = compute_bound
        elif kind is OpKind.SOURCE:
            base = 0.0
        else:
            base = max(compute_bound, memory_bound)
        base += self._intra_sync_time(instr, device_idx, share)
        if kind is not OpKind.SOURCE:
            base += KERNEL_LAUNCH
        return base

    def comm_time(self, instr: CommInstruction, ratios: Sequence[float]) -> float:
        base = super().comm_time(instr, ratios)
        return base * CONGESTION + COLLECTIVE_LAUNCH


class ExecutionSimulator:
    """Replays distributed programs on the modelled cluster.

    Args:
        cluster: the cluster model to replay on.
        overheads: the run-to-run noise model.
        seed: RNG seed for the run-to-run noise.

    The replay's overlap efficiency (:attr:`overlap`) is the cluster's
    ``comm_overlap_efficiency``.
    """

    def __init__(
        self,
        cluster: ClusterSpec,
        overheads: Optional[OverheadModel] = None,
        seed: int = 0,
    ) -> None:
        self.cluster = cluster
        self.overheads = overheads or OverheadModel()
        import numpy as np

        self.rng = np.random.default_rng(seed)
        self.overlap = cluster.comm_overlap_efficiency

    # -- per-program replay (simulate()'s deterministic core) -----------------------------
    def _replay_stages(
        self,
        cost_model: _SimulatedCostModel,
        program: DistributedProgram,
        ratios: Sequence[float],
    ):
        """Yield ``(stage, comm_time, per_device_comp, per_comp_times)``.

        This is the deterministic core of :meth:`simulate`: every secondary
        effect (kernel launches, memory-bandwidth bounds, congestion) is
        applied, but run-to-run noise is left to the caller, which draws it
        per stage.  (:func:`simulate_hierarchical` does not replay: it prices
        the same :class:`_SimulatedCostModel` through
        :meth:`~repro.core.costmodel.CostModel.phase_profile`.)
        ``per_comp_times`` aligns with
        ``stage.comps`` and holds each computation's per-device times
        (``None`` for zero-cost local slice pseudo-collectives), so the
        dual-stream event timeline can replay individual instructions
        without re-pricing them.
        """
        m = self.cluster.num_devices
        for stage in program.stages():
            comm = 0.0
            if stage.comm is not None:
                comm = cost_model.comm_time(stage.comm, ratios)
            device_time = [0.0] * m
            per_comp: List[Optional[List[float]]] = []
            for comp in stage.comps:
                if isinstance(comp, CommInstruction):
                    per_comp.append(None)  # local slice pseudo-collective
                    continue
                times = cost_model.comp_times(comp, ratios)
                per_comp.append(times)
                for j, t in enumerate(times):
                    device_time[j] += t
            yield stage, comm, device_time, per_comp

    # -- main entry point --------------------------------------------------------------
    def simulate(
        self,
        program: DistributedProgram,
        ratios: Sequence[float],
        iterations: int = 1,
    ) -> SimulationResult:
        """Simulate ``iterations`` training iterations and return the mean time.

        Args:
            program: the distributed program to replay.
            ratios: sharding ratios used for data/parameter partitioning.
            iterations: number of iterations to average over (noise reduction).

        Raises:
            ValueError: when the program or ``ratios`` is sized for a
                different device count than the simulator's cluster.
        """
        import numpy as np

        m = self.cluster.num_devices
        for what, n in (("program", program.num_devices), ("ratio vector", len(ratios))):
            if n != m:
                raise ValueError(
                    f"{what} is for {n} device(s) but cluster {self.cluster.name!r} has {m}"
                )
        cost_model = _SimulatedCostModel(program.graph, self.cluster)
        e = self.overlap
        totals = []
        comm_total = comp_total = overhead_total = exposed_total = 0.0
        stage_times: List[float] = []
        busy = [0.0] * self.cluster.num_devices
        for _ in range(max(1, iterations)):
            iter_comm = iter_comp = iter_overhead = 0.0
            replay = []
            for stage, comm, device_time, per_comp in self._replay_stages(
                cost_model, program, ratios
            ):
                for j, t in enumerate(device_time):
                    busy[j] += t
                noise = float(self.rng.normal(1.0, self.overheads.noise))
                factor = max(noise, 0.5)
                comp = max(device_time) * factor
                replay.append((stage, comm, device_time, per_comp, factor, comp))
                iter_comm += comm
                iter_comp += comp
                iter_overhead += cost_model.per_stage_overhead
            if e == 0.0:
                iter_exposed = iter_comm
            else:
                hidden = iter_comp + iter_comm - self._ideal_dual_stream_time(replay)
                iter_exposed = iter_comm - e * max(min(hidden, iter_comm), 0.0)
            # Serialized stage walls, with the iteration's hidden seconds
            # attributed to each stage's collective pro rata (the event
            # timeline has no per-stage walls to report).
            scale = iter_exposed / iter_comm if iter_comm > 0 else 1.0
            iter_stages = [
                comp + comm * scale + cost_model.per_stage_overhead
                for _stage, comm, _dt, _pc, _f, comp in replay
            ]
            totals.append(iter_comp + iter_exposed + iter_overhead)
            comm_total += iter_comm
            comp_total += iter_comp
            exposed_total += iter_exposed
            overhead_total += iter_overhead
            stage_times = iter_stages
        n = max(1, iterations)
        total = float(np.mean(totals))
        return SimulationResult(
            total=total,
            communication=comm_total / n,
            computation=comp_total / n,
            overhead=overhead_total / n,
            stage_times=stage_times,
            per_device_busy=[b / n for b in busy],
            exposed_communication=exposed_total / n,
            hidden_communication=(comm_total - exposed_total) / n,
            per_device_comm_busy=[comm_total / n] * self.cluster.num_devices,
            per_device_idle=[max(total - b / n, 0.0) for b in busy],
        )

    def _ideal_dual_stream_time(self, replay) -> float:
        """Length of the perfectly overlapped (dual-stream) event timeline.

        Replays the program once with the compute stream and the
        communication stream decoupled: a collective starts when the stream
        is free and its input tensor has been produced; a computation starts
        when the stream is free and every input it consumes — collective
        outputs included — is available.  Everything runs on the critical
        device of its stage (so the compute stream's busy time equals the
        serialized replay's compute time exactly), reusing the per-comp
        times and noise factors the serialized replay already produced; the
        difference between the serialized total and this timeline is the
        communication the dual-stream execution hides — gradient
        all-reduces start mid-backward as their gradients appear, and
        parameter updates run under later collectives.
        """
        t_comp = 0.0
        t_comm = 0.0
        finish: Dict[str, float] = {}
        for stage, comm, device_time, per_comp, factor, _comp in replay:
            crit = max(range(len(device_time)), key=device_time.__getitem__)
            if stage.comm is not None:
                ready = finish.get(stage.comm.input.ref, 0.0)
                end_c = max(t_comm, ready) + comm
                t_comm = end_c
                finish[stage.comm.output.ref] = end_c
            for comp_instr, times in zip(stage.comps, per_comp):
                if times is None:
                    # Local slice pseudo-collective: free, but its output
                    # availability still follows its input's.
                    finish[comp_instr.output.ref] = max(
                        t_comp, finish.get(comp_instr.input.ref, 0.0)
                    )
                    continue
                ready = max(
                    (finish.get(p.ref, 0.0) for p in comp_instr.inputs), default=0.0
                )
                t_comp = max(t_comp, ready) + times[crit] * factor
                finish[comp_instr.output.ref] = t_comp
        return max(t_comp, t_comm)


def simulate_plan(plan, cluster: ClusterSpec, iterations: int = 3, seed: int = 0) -> SimulationResult:
    """Simulate an :class:`~repro.core.pipeline.HAPPlan` on a cluster."""
    sim = ExecutionSimulator(cluster, seed=seed)
    return sim.simulate(plan.program, plan.flat_ratios, iterations=iterations)


@dataclass
class HierarchicalSimulationResult:
    """Simulated per-iteration time of a pipelined (hierarchical) plan.

    Attributes:
        total: mean pipelined iteration time across the simulated iterations.
        schedule: the noise-free schedule behind the mean.
        stage_times: per-stage measured profiles fed to the schedule.
        samples: per-iteration noisy totals.
    """

    total: float
    schedule: ScheduleResult
    stage_times: List[StageTimes] = field(default_factory=list)
    samples: List[float] = field(default_factory=list)


def simulate_hierarchical(
    plan,
    iterations: int = 3,
    seed: int = 0,
) -> HierarchicalSimulationResult:
    """Simulate a :class:`~repro.core.hierarchical.HierarchicalPlan`.

    Every stage's chunk program is profiled on its machine group, noise-free,
    at the simulator's overhead-rich prices (the
    :meth:`~repro.core.costmodel.CostModel.phase_profile` of a
    :class:`_SimulatedCostModel`, whose phases carry exposed communication),
    the plan's pipeline schedule (GPipe or 1F1B, with
    the plan's microbatch count and recomputation choice) combines the
    stages over the inter-group link (the plan cluster's own network) with
    the plan's communication-overlap efficiency (boundary transfers expose
    only their non-hidden part), and the
    run-to-run noise the flat simulator applies per stage is applied to the
    pipelined iteration total.  A 1-stage plan runs its single program on
    the whole batch with no transfers, but is *not* bit-equal to
    :func:`simulate_plan` of that program: this path sums noise-free phase
    profiles and draws noise once on the total, while the flat path replays
    events and draws noise per stage.  On the e2e ``flat-deep`` program
    :func:`simulate_plan` gives 564.694 ms and this function 569.435 ms
    (+0.84%); ROADMAP item 3 ("One simulated iteration") merges the two
    timing paths.
    """
    import numpy as np

    def profile(stage) -> Dict[str, float]:
        cost_model = _SimulatedCostModel(stage.program.graph, stage.subcluster)
        return cost_model.phase_profile(stage.program, stage.ratios, stage.forward_nodes)

    stage_times = profile_stages(plan.stages, profile)
    network = plan.cluster.network
    schedule = simulate_pipeline(
        stage_times,
        num_microbatches=plan.num_microbatches,
        inter_group_bandwidth=network.bandwidth,
        inter_group_latency=network.latency,
        microbatch_overhead=plan.microbatch_overhead,
        schedule=plan.schedule_name,
        recompute=plan.recompute,
        overlap=plan.overlap,
    )
    rng = np.random.default_rng(seed)
    samples = [
        schedule.total * max(float(rng.normal(1.0, OverheadModel().noise)), 0.5)
        for _ in range(max(1, iterations))
    ]
    return HierarchicalSimulationResult(
        total=float(np.mean(samples)),
        schedule=schedule,
        stage_times=stage_times,
        samples=samples,
    )
