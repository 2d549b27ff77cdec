"""Linear cost model for distributed programs (Sec. 3.2 of the paper).

A program is split into synchronisation stages; stage ``i`` costs
``comm_i(B) + max_j comp_ij(B_j)`` when collectives and compute serialize.
Per-device computation time is linear in the device's sharding ratio;
communication time is linear in the *largest* ratio (padded collectives are
bottlenecked by the largest shard).  The same model serves three purposes:

* scoring candidate programs during A* synthesis,
* evaluating ``t(Q, B)`` in the outer iterative optimisation, and
* producing the linear coefficients consumed by the LP load balancer.

Real stacks do not serialize: collectives run on a dedicated communication
stream and hide behind the compute that does not consume their result
(:class:`~repro.cluster.spec.CommOverlapModel`).  The dual-stream stage time
is

    ``max_j [ comp_j + comm - e * min(comm, indep_j) ]``

where ``indep_j`` is device ``j``'s compute in the stage that does *not*
(transitively) depend on the stage's collective output
(:meth:`~repro.core.program.Stage.dependent_mask`) and ``e`` is the overlap
efficiency.  ``e = 0`` reduces to the serialized sum bit-for-bit.  The model
is still piecewise linear in the ratios, so the LP load balancer optimises
the same overlapped objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.spec import ClusterSpec, CommOverlapModel
from ..collectives.cost import CollectiveCostModel
from ..graph.graph import ComputationGraph
from .instructions import CommInstruction, CompInstruction
from .program import DistributedProgram


@dataclass
class StageCoefficients:
    """Linear description of one stage, used by the LP load balancer.

    Serialized stage time ``= comm_const + comm_slope * max_j(B_j)
    + max_j (comp_slope[j] * B_j + comp_const[j])``; the dual-stream time
    subtracts the hidden fraction of the communication (see :meth:`time`).
    ``B`` is the program's one ratio vector: every stage is priced against
    the same ratios.

    Attributes:
        comm_const: communication time independent of the sharding ratios.
        comm_slope: communication time per unit of the largest ratio.
        comp_slope: per-device computation seconds per unit sharding ratio.
        comp_const: per-device computation seconds independent of the ratio.
        indep_slope: per-device seconds-per-ratio of the compute that does
            not depend on the stage's collective (the overlap window).
        indep_const: ratio-independent part of the overlap window.
    """

    comm_const: float
    comm_slope: float
    comp_slope: List[float]
    comp_const: List[float]
    indep_slope: List[float] = field(default_factory=list)
    indep_const: List[float] = field(default_factory=list)

    def comm_time(self, ratios: Sequence[float]) -> float:
        return self.comm_const + self.comm_slope * max(ratios)

    def comp_time(self, ratios: Sequence[float]) -> float:
        return max(
            s * r + c for s, r, c in zip(self.comp_slope, ratios, self.comp_const)
        )

    def exposed_comm(
        self, ratios: Sequence[float], overlap: float, comm: float, comp: float
    ) -> float:
        """Exposed collective seconds given precomputed ``comm``/``comp``.

        With ``overlap == 0`` the whole collective serializes; otherwise the
        stage wall is ``max_j(comp_j + comm - overlap * min(comm, indep_j))``
        and the exposure is whatever it adds on top of the compute wall.
        """
        if overlap == 0.0:
            return comm  # serialized: bit-for-bit the pre-overlap model
        indep_slope = self.indep_slope or [0.0] * len(self.comp_slope)
        indep_const = self.indep_const or [0.0] * len(self.comp_const)
        stage = max(
            s * r + c + comm - overlap * min(comm, max(i_s * r + i_c, 0.0))
            for s, r, c, i_s, i_c in zip(
                self.comp_slope, ratios, self.comp_const, indep_slope, indep_const
            )
        )
        return stage - comp

    def time(self, ratios: Sequence[float], overlap: float = 0.0) -> float:
        """Stage time for concrete sharding ratios and overlap efficiency."""
        comm = self.comm_time(ratios)
        comp = self.comp_time(ratios)
        return comp + self.exposed_comm(ratios, overlap, comm, comp)


@dataclass
class CostBreakdown:
    """Estimated per-iteration time of a program, with per-stage detail.

    ``communication`` is the raw collective seconds;
    ``exposed_communication`` is the part left on the critical path after
    overlapping with independent compute (equal to ``communication`` when
    the overlap efficiency is 0), and ``total = computation +
    exposed_communication``.
    """

    total: float
    communication: float
    computation: float
    stage_times: List[float] = field(default_factory=list)
    exposed_communication: float = 0.0
    hidden_communication: float = 0.0

    def __float__(self) -> float:  # pragma: no cover - convenience
        return self.total


class CostModel:
    """Estimates ``t(Q, B)`` for distributed programs on a cluster.

    A program is priced one way: :meth:`stage_coefficients` linearises it
    once per program (cached, so one planner round's pricing and its LP
    share the linearisation), and :meth:`evaluate` /
    :meth:`evaluate_many` walk those stage lines with scalar arithmetic.
    :meth:`phase_profile` prices the same stages per instruction and splits
    them into pipeline phases.

    Args:
        graph: the single-device training graph being distributed.
        cluster: the target cluster.
        overlap: communication/computation overlap efficiency used by
            :meth:`evaluate` and :meth:`phase_profile`; defaults to the
            cluster's ``comm_overlap_efficiency``.  Pass 0.0 for the fully
            serialized (blocking) model.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        cluster: ClusterSpec,
        overlap: Optional[float] = None,
    ) -> None:
        self.graph = graph
        self.cluster = cluster
        self.overlap_model = (
            CommOverlapModel.from_cluster(cluster)
            if overlap is None
            else CommOverlapModel(efficiency=overlap)
        )
        self.overlap = self.overlap_model.efficiency
        self.devices = cluster.virtual_devices
        self.num_devices = cluster.num_devices
        self.collectives = CollectiveCostModel(cluster)
        self._flops_cache: Dict[str, float] = {}
        self._bytes_cache: Dict[str, int] = {}
        self._device_flops = cluster.device_flops()
        # Per-program coefficient cache.  Keys are object ids; the values
        # keep a strong reference to the keyed program so an id can never be
        # recycled while its entry is alive.  Programs are immutable once
        # synthesized, so the cached lists stay valid.
        self._coeff_memo: Dict[
            int, Tuple[DistributedProgram, List[StageCoefficients]]
        ] = {}

    # -- per-node cached quantities ------------------------------------------
    def node_flops(self, name: str) -> float:
        if name not in self._flops_cache:
            self._flops_cache[name] = self.graph.node_flops(name)
        return self._flops_cache[name]

    def ref_bytes(self, name: str) -> int:
        if name not in self._bytes_cache:
            self._bytes_cache[name] = self.graph[name].spec.size_bytes
        return self._bytes_cache[name]

    # -- per-instruction costs --------------------------------------------------
    def comp_times(self, instr: CompInstruction, ratios: Sequence[float]) -> List[float]:
        """Per-device execution time of one computation instruction."""
        flops = self.node_flops(instr.node)
        times: List[float] = []
        for j in range(len(self.devices)):
            share = ratios[j] if instr.flops_sharded else 1.0
            t = flops * share / self._device_flops[j]
            t += self._intra_sync_time(instr, j, share)
            times.append(t)
        return times

    def _intra_sync_time(self, instr: CompInstruction, device_idx: int, share: float) -> float:
        """Intra-machine gradient synchronisation for machine-level devices.

        When a virtual device is a whole machine, data parallelism runs inside
        it and the gradients consumed by parameter updates must be all-reduced
        over the machine's GPUs (Sec. 3.2 / Sec. 6).
        """
        device = self.devices[device_idx]
        if device.num_gpus <= 1 or instr.op != "sgd_update":
            return 0.0
        grad_bytes = self.ref_bytes(instr.node) * share
        g = device.num_gpus
        return 2.0 * (g - 1) / g * grad_bytes / device.intra_bandwidth

    def comm_time(self, instr: CommInstruction, ratios: Sequence[float]) -> float:
        """Execution time of one collective instruction."""
        nbytes = float(self.ref_bytes(instr.input.ref))
        time = self.collectives.collective_time(instr.kind, nbytes, ratios)
        time += self._intra_collective_overhead(nbytes, ratios)
        return time

    def _intra_collective_overhead(self, nbytes: float, ratios: Sequence[float]) -> float:
        """Gather/scatter step inside machine-level virtual devices (Sec. 6)."""
        overhead = 0.0
        largest = nbytes * max(ratios)
        for device in self.devices:
            if device.num_gpus > 1:
                g = device.num_gpus
                overhead = max(
                    overhead, 2.0 * (g - 1) / g * largest / device.intra_bandwidth
                )
        return overhead

    # -- whole-program evaluation -------------------------------------------------
    def evaluate(
        self,
        program: DistributedProgram,
        ratios: Sequence[float],
        overlap: Optional[float] = None,
    ) -> CostBreakdown:
        """Estimated per-iteration time ``t(Q, B)`` on the dual-stream model.

        Args:
            program: the distributed program.
            ratios: sharding ratios (one entry per virtual device).
            overlap: overlap efficiency overriding the model's default
                (``self.overlap``); 0.0 gives the serialized estimate.
        """
        e = self.overlap if overlap is None else overlap
        return _price(self.stage_coefficients(program), ratios, e)

    def evaluate_many(
        self,
        program: DistributedProgram,
        ratio_sets: Sequence[Sequence[float]],
        overlap: Optional[float] = None,
    ) -> List[CostBreakdown]:
        """:meth:`evaluate` for ``K`` ratio vectors of one program.

        Each breakdown is exactly what :meth:`evaluate` returns for that
        vector.
        """
        e = self.overlap if overlap is None else overlap
        coeffs = self.stage_coefficients(program)
        return [_price(coeffs, ratios, e) for ratios in ratio_sets]

    def phase_profile(
        self,
        program: DistributedProgram,
        ratios: Sequence[float],
        forward_nodes,
        comp_times_fn=None,
        comm_time_fn=None,
        per_stage_overhead: float = 0.0,
        overlap: Optional[float] = None,
    ) -> Dict[str, float]:
        """Split a program's estimated time into pipeline phases.

        Walks the synchronisation stages exactly like :meth:`evaluate`
        (``comm + max_j comp_j`` per stage) but attributes every instruction
        to its pipeline phase (see
        :meth:`~repro.core.program.DistributedProgram.instruction_phases`):
        per-stage communication goes to the collective's phase, and the
        per-device computation vectors are accumulated — and maxed — per
        phase.  The execution simulator injects its richer per-instruction
        models through ``comp_times_fn`` / ``comm_time_fn`` so planner
        estimates and simulator measurements share one decomposition.

        With a non-zero overlap efficiency the part of each stage's
        collective that hides behind the stage's own *independent* compute
        (:meth:`~repro.core.program.Stage.dependent_mask`) is subtracted
        from the collective's phase bucket, so downstream consumers (the
        pipeline-schedule search, :func:`simulate_hierarchical`) price
        stages by their **exposed** communication.  The overlap window is
        additionally scoped to compute of the **collective's own phase**:
        in a pipelined iteration the forward/backward buckets are split
        across microbatches and replayed in a different temporal region
        than the once-per-iteration sync collectives, so a gradient
        all-reduce may only hide behind other sync work (parameter updates,
        independent collectives' consumers), never behind the full-batch
        backward window it would overstate by the microbatch count.
        ``overlap=0`` leaves every bucket exactly as the serialized model
        computed it.

        Returns:
            ``{"forward": s, "backward": s, "sync": s}`` in seconds.
        """
        comp_times_fn = comp_times_fn or self.comp_times
        comm_time_fn = comm_time_fn or self.comm_time
        e = self.overlap if overlap is None else overlap
        phases = program.instruction_phases(forward_nodes)
        phase_of = {id(instr): p for instr, p in zip(program.instructions, phases)}
        buckets: Dict[str, float] = {"forward": 0.0, "backward": 0.0, "sync": 0.0}
        m = self.num_devices
        for stage in program.stages():
            stage_phase = None
            comm_t = 0.0
            if stage.comm is not None:
                stage_phase = phase_of[id(stage.comm)]
                comm_t = comm_time_fn(stage.comm, ratios)
                buckets[stage_phase] += comm_t
            vectors: Dict[str, List[float]] = {}
            comm_phase = stage_phase
            indep = [0.0] * m
            dependent = stage.dependent_mask() if (e > 0.0 and comm_t > 0.0) else None
            for idx, comp in enumerate(stage.comps):
                if isinstance(comp, CommInstruction):
                    continue  # local slice pseudo-collective: no cost
                phase = phase_of[id(comp)]
                if stage_phase is None:
                    stage_phase = phase
                vec = vectors.setdefault(phase, [0.0] * m)
                times = comp_times_fn(comp, ratios)
                for j, t in enumerate(times):
                    vec[j] += t
                if (
                    dependent is not None
                    and not dependent[idx]
                    and phase == comm_phase
                ):
                    for j, t in enumerate(times):
                        indep[j] += t
            for phase, vec in vectors.items():
                buckets[phase] += max(vec)
            if dependent is not None and comm_phase is not None:
                # Hidden seconds on the critical path, computed like
                # :meth:`evaluate` (serialized wall minus the per-device
                # dual-stream wall) but against the collective's own phase
                # bucket only — the window actually co-resident with it in a
                # pipelined iteration.
                window = vectors.get(comm_phase, [0.0] * m)
                dual = max(
                    d + comm_t - e * min(comm_t, i)
                    for d, i in zip(window, indep)
                )
                hidden = max(window) + comm_t - dual
                buckets[comm_phase] -= max(hidden, 0.0)
            buckets[stage_phase or "forward"] += per_stage_overhead
        return buckets

    # -- LP-facing linearisation ---------------------------------------------------
    def comm_linear(self, instr: CommInstruction) -> Tuple[float, float]:
        """(const, slope) of a collective's time as a function of max ratio.

        The collective cost model is piecewise linear in the largest sharding
        ratio; we recover the line exactly by evaluating it at the even ratio
        (``1/m``) and at ``1`` (all data on one device).
        """
        n = self.num_devices
        even = [1.0 / n] * n
        skew = [1.0] + [0.0] * (n - 1)
        t_even = self.comm_time(instr, even)
        t_skew = self.comm_time(instr, skew)
        if n == 1:
            return t_even, 0.0
        slope = (t_skew - t_even) / (1.0 - 1.0 / n)
        const = t_even - slope / n
        return const, slope

    def comp_linear(self, instr: CompInstruction) -> Tuple[List[float], List[float]]:
        """Per-device (slope, const) of a computation instruction's time."""
        flops = self.node_flops(instr.node)
        slopes: List[float] = []
        consts: List[float] = []
        for j in range(len(self.devices)):
            base = flops / self._device_flops[j]
            intra = self._intra_sync_time(instr, j, 1.0)
            if instr.flops_sharded:
                slopes.append(base + intra)
                consts.append(0.0)
            else:
                slopes.append(0.0)
                consts.append(base + intra)
        return slopes, consts

    def stage_coefficients(self, program: DistributedProgram) -> List[StageCoefficients]:
        """Linear coefficients of every stage of a program.

        Cached per program: one planner round prices the same program
        through :meth:`evaluate_many` and the LP load balancer, and the
        linearisation (two collective-model calls per stage plus a
        per-instruction sweep) is by far the most expensive part of each.
        """
        hit = self._coeff_memo.get(id(program))
        if hit is not None and hit[0] is program:
            return hit[1]
        coeffs = self._stage_coefficients(program)
        self._coeff_memo[id(program)] = (program, coeffs)
        return coeffs

    def _stage_coefficients(self, program: DistributedProgram) -> List[StageCoefficients]:
        coeffs: List[StageCoefficients] = []
        m = self.num_devices
        for stage in program.stages():
            comm_const, comm_slope = 0.0, 0.0
            if stage.comm is not None:
                comm_const, comm_slope = self.comm_linear(stage.comm)
            comp_slope = [0.0] * m
            comp_const = [0.0] * m
            indep_slope = [0.0] * m
            indep_const = [0.0] * m
            dependent = stage.dependent_mask()
            for idx, comp in enumerate(stage.comps):
                if isinstance(comp, CommInstruction):
                    continue  # local slice pseudo-collectives cost ~nothing
                slopes, consts = self.comp_linear(comp)
                for j in range(m):
                    comp_slope[j] += slopes[j]
                    comp_const[j] += consts[j]
                    if not dependent[idx]:
                        indep_slope[j] += slopes[j]
                        indep_const[j] += consts[j]
            coeffs.append(
                StageCoefficients(
                    comm_const=comm_const,
                    comm_slope=comm_slope,
                    comp_slope=comp_slope,
                    comp_const=comp_const,
                    indep_slope=indep_slope,
                    indep_const=indep_const,
                )
            )
        return coeffs

    # -- search-support quantities ---------------------------------------------------
    def ideal_node_time(self, name: str) -> float:
        """Lower bound on a node's contribution assuming perfect balance.

        Used as the admissible heuristic ``ecost`` of the A* search: the
        node's flops spread over the aggregate flops of the whole cluster,
        with infinite bandwidth.
        """
        return self.node_flops(name) / self.cluster.total_flops()


def _price(
    coeffs: Sequence[StageCoefficients],
    ratios: Sequence[float],
    overlap: float,
) -> CostBreakdown:
    """Sum one ratio vector's stage times over linearised stages."""
    total_comm = 0.0
    total_comp = 0.0
    total_exposed = 0.0
    stage_times: List[float] = []
    for coeff in coeffs:
        comm = coeff.comm_time(ratios)
        comp = coeff.comp_time(ratios)
        exposed = coeff.exposed_comm(ratios, overlap, comm, comp)
        total_comm += comm
        total_comp += comp
        total_exposed += exposed
        stage_times.append(comp + exposed)
    return CostBreakdown(
        total=total_comp + total_exposed,
        communication=total_comm,
        computation=total_comp,
        stage_times=stage_times,
        exposed_communication=total_exposed,
        hidden_communication=total_comm - total_exposed,
    )


# -- beam-ranking order ------------------------------------------------------------
def beam_rank_order(
    vectors: Sequence[Tuple[float, ...]],
    stage_comps: Sequence[Tuple[float, ...]],
) -> List[int]:
    """Deterministic ranking permutation of one beam level's merged children.

    ``vectors[i]`` is candidate *i*'s per-device ``closed + stage_comp``
    vector and ``stage_comps[i]`` its open-stage computation vector.  The
    primary key is the cost accumulated so far, ``max(vectors[i])`` — which
    equals ``closed + max(stage_comp)`` bit-exactly, because adding one
    constant to every element moves the maximum by that constant in IEEE
    arithmetic — and the tie-breaker is total device work,
    ``sum(stage_comps[i])`` accumulated left to right.  The sort is stable,
    so candidates with equal ``(cost, work)`` keys keep their input order.

    Returns the list of input indexes in surviving order (best first).
    """
    count = len(vectors)
    if count <= 1:
        return list(range(count))
    final = np.asarray(vectors).max(axis=1)
    stage = np.asarray(stage_comps)
    work = np.zeros(count)
    for j in range(stage.shape[1]):
        work += stage[:, j]
    return [int(i) for i in np.lexsort((work, final))]
