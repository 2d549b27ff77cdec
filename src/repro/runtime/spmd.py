"""SPMD emulation runtime: execute a distributed program on simulated ranks.

The paper executes the synthesized program ``Q`` on every worker with the
PyTorch runtime and NCCL collectives.  This reproduction emulates the same
execution inside one process: every virtual device is a *rank* holding numpy
arrays, computation instructions run the operator's numpy kernel
(:mod:`repro.runtime.kernels`) on each rank's local operands, and collective
instructions call the functional implementations in
:mod:`repro.collectives.functional`.

The runtime is the semantic ground truth used by the test suite: for any
synthesized program, the loss and the updated parameters it produces must
match the single-device execution of the original training graph (up to
floating-point reduction-order noise).

:class:`HierarchicalExecutor` runs a pipeline plan the same way: one
:class:`SPMDExecutor` per stage, microbatch tasks in exactly the order the
plan's own schedule names (:func:`~repro.simulator.schedule.task_orders`
at the plan's microbatch count), and boundary activations and gradients
handed from task to task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..collectives import functional
from ..collectives.cost import CollectiveKind
from ..core.instructions import CommInstruction, CompInstruction
from ..core.program import DistributedProgram
from ..core.properties import DistState, Property
from ..graph.graph import ComputationGraph, GraphError
from ..graph.tensor import shard_sizes
from ..simulator.schedule import task_orders
from .kernels import KERNELS


@dataclass
class SPMDResult:
    """Result of one emulated training iteration.

    Attributes:
        loss: the global scalar loss (partial losses summed across ranks when
            the loss is held in a partial state).
        outputs: per-output global tensors, reassembled from the ranks.
    """

    loss: Optional[float]
    outputs: Dict[str, np.ndarray]


class SPMDExecutor:
    """Executes a :class:`DistributedProgram` on ``m`` emulated ranks."""

    def __init__(
        self,
        program: DistributedProgram,
        ratios: Sequence[float],
        batch_hint: Optional[int] = None,
        batch_scale: int = 1,
    ) -> None:
        self.program = program
        self.graph: ComputationGraph = program.graph
        self.world = program.num_devices
        if len(list(ratios)) != self.world:
            raise ValueError(
                f"expected {self.world} ratios, got {len(list(ratios))}"
            )
        #: Explicit batch size for ratio snapping.  Pipeline-stage graphs mix
        #: placeholders whose leading dimension is the batch (data, incoming
        #: activations) with flattened ``batch*seq`` activations and gradient
        #: seeds, so the batch cannot always be inferred from the graph alone.
        self._batch_hint = batch_hint
        #: Microbatch execution: the program's node specs describe the *full*
        #: mini-batch, but bindings arrive with every batch-derived leading
        #: dimension divided by ``batch_scale``.  Placeholder shape checks
        #: and shape-bearing attributes (reshape targets, conv input shapes,
        #: broadcast targets) are rescaled accordingly; all operator kernels
        #: already compute from the actual operand sizes.
        if batch_scale < 1:
            raise ValueError("batch_scale must be >= 1")
        self._batch_scale = batch_scale
        self.ratios = self._snap_to_batch(list(ratios))
        # (ref, state) -> list of per-rank local arrays
        self._env: Dict[Tuple[str, DistState], List[np.ndarray]] = {}
        # Registry of uneven per-rank sizes along MoE capacity dimensions,
        # keyed by the total concatenated size; used to undo an All-To-All.
        self._uneven_splits: Dict[int, List[int]] = {}

    def _snap_to_batch(self, ratios: List[float]) -> List[float]:
        """Quantise ratios to the batch-dimension granularity.

        All data placeholders share the batch size ``B`` (a model-zoo
        convention).  Using exact multiples of ``1/B`` as ratios guarantees
        that every tensor whose leading dimension is a multiple of the batch
        (e.g. the flattened ``B*seq`` token dimension) is split into local
        sizes consistent with the locally derived shards, even under heavily
        skewed ratios.  The planner's fractional ratios are rounded to the
        nearest feasible integer partition of the batch, exactly as the
        paper's runtime loads "a mini-batch of input data according to their
        sharding ratios" (Sec. 6).
        """
        if self._batch_hint is not None:
            batch = self._batch_hint
        else:
            placeholders = self.graph.placeholders()
            batch_sizes = {p.spec.shape[0] for p in placeholders if p.spec.rank > 0}
            if len(batch_sizes) != 1:
                return ratios
            batch = batch_sizes.pop()
        sizes = shard_sizes(batch, ratios)
        return [s / batch for s in sizes]

    # -- public API ---------------------------------------------------------------
    def run(
        self,
        bindings: Mapping[str, np.ndarray],
        stop_after: Optional[Sequence[str]] = None,
    ) -> SPMDResult:
        """Execute the program for one iteration.

        Args:
            bindings: *global* values for every placeholder and parameter of
                the single-device graph (each rank receives its shard/replica
                according to the program's source instructions).
            stop_after: optional reference-tensor names; execution stops as
                soon as all of them have been produced (in any distribution
                state).  Used by the hierarchical runtime's forward sweep to
                harvest boundary activations without paying for the stage's
                backward pass.

        Returns:
            The global loss and reassembled output tensors (of whatever was
            produced before stopping).
        """
        self._env.clear()
        self._uneven_splits.clear()
        remaining = set(stop_after) if stop_after else None
        for instr in self.program.instructions:
            if isinstance(instr, CommInstruction):
                self._run_comm(instr)
            else:
                self._run_comp(instr, bindings)
            if remaining is not None:
                remaining.discard(instr.output.ref)
                if not remaining:
                    break
        return self._collect_results()

    # -- result assembly -------------------------------------------------------------
    def _collect_results(self) -> SPMDResult:
        outputs: Dict[str, np.ndarray] = {}
        loss_value: Optional[float] = None
        for name in self.graph.outputs:
            value = self._gather_ref(name)
            if value is not None:
                outputs[name] = value
        if self.graph.loss is not None:
            loss = self._gather_ref(self.graph.loss)
            if loss is not None:
                loss_value = float(loss)
        return SPMDResult(loss=loss_value, outputs=outputs)

    def _gather_ref(self, ref: str) -> Optional[np.ndarray]:
        """Reassemble the global value of a reference tensor from any state.

        Not limited to the graph's marked outputs: the hierarchical runtime
        harvests raw per-parameter gradients with it.
        """
        for (name, state), arrays in self._env.items():
            if name != ref:
                continue
            if state.is_replicated:
                return arrays[0]
            if state.is_partial:
                return np.sum(np.stack(arrays, axis=0), axis=0)
            if state.is_sharded:
                parts = [a for a in arrays if a.size > 0]
                return np.concatenate(parts, axis=state.dim)
        return None

    # -- computation instructions -------------------------------------------------------
    def _run_comp(self, instr: CompInstruction, bindings: Mapping[str, np.ndarray]) -> None:
        if instr.op in ("placeholder", "parameter", "constant"):
            self._run_source(instr, bindings)
            return
        kernel = KERNELS[instr.op]
        node = self.graph[instr.node]
        locals_per_rank: List[np.ndarray] = []
        inputs_per_rank = [
            self._lookup(prop) for prop in instr.inputs
        ]  # list over operands of list over ranks
        batch_scaled = self._input_is_batch_scaled(instr, inputs_per_rank)
        for rank in range(self.world):
            args = [operand[rank] for operand in inputs_per_rank]
            attrs = self._local_attrs(instr, node.attrs, args, rank, batch_scaled)
            locals_per_rank.append(np.asarray(kernel(args, attrs)))
        self._store(instr.output, locals_per_rank)

    def _input_is_batch_scaled(
        self, instr: CompInstruction, inputs_per_rank: Sequence[List[np.ndarray]]
    ) -> bool:
        """True when operand 0 runs at ``1/batch_scale`` of its spec size.

        Microbatched execution shrinks batch-derived tensors but leaves
        batch-independent ones (positional embeddings, parameters) at spec
        size; comparing the operand's actual global numel against its spec is
        exact evidence either way, unlike leading-dim divisibility.
        """
        if self._batch_scale == 1 or not inputs_per_rank:
            return False
        arrays = inputs_per_rank[0]
        state = instr.inputs[0].state
        global_numel = sum(a.size for a in arrays) if state.is_sharded else arrays[0].size
        return global_numel * self._batch_scale == self.graph[instr.inputs[0].ref].spec.numel

    def _scaled_shape(self, shape: Tuple[int, ...]) -> Tuple[int, ...]:
        """Shape with the batch-derived leading dimension divided by the scale.

        Batch-derived leading dimensions are the batch or a ``batch*seq``
        flattening — always a multiple of the full batch size, which is how
        they are recognised when the batch hint is available (so a seq- or
        hidden-sized leading dimension is never falsely rescaled).  Without a
        hint, divisibility by the scale is the fallback guard.
        """
        scale = self._batch_scale
        if scale == 1 or not shape:
            return shape
        full_batch = self._batch_hint * scale if self._batch_hint else None
        if full_batch is not None:
            if shape[0] % full_batch != 0:
                return shape
        elif shape[0] % scale != 0:
            return shape
        return (shape[0] // scale,) + tuple(shape[1:])

    def _run_source(self, instr: CompInstruction, bindings: Mapping[str, np.ndarray]) -> None:
        node = self.graph[instr.node]
        expected = node.spec.shape
        if instr.op == "constant":
            value = np.broadcast_to(
                np.asarray(node.attrs.get("value", 0.0), dtype=np.float32), expected
            ).astype(np.float32)
        else:
            if instr.node not in bindings:
                raise GraphError(f"missing binding for {instr.op} {instr.node!r}")
            value = np.asarray(bindings[instr.node])
            if instr.op == "placeholder" and self._batch_scale > 1:
                # Microbatched bindings shrink in batch-derived dimensions —
                # including MoE capacity dimensions that are not leading — so
                # only the rank is checked; every kernel computes from the
                # actual operand sizes.
                if value.ndim != len(node.spec.shape):
                    raise GraphError(
                        f"binding for {instr.node!r} has rank {value.ndim}, "
                        f"expected {len(node.spec.shape)}"
                    )
            elif tuple(value.shape) != expected:
                raise GraphError(
                    f"binding for {instr.node!r} has shape {value.shape}, expected {expected}"
                )
        state = instr.output.state
        if state.is_replicated:
            arrays = [value.copy() for _ in range(self.world)]
        elif state.is_sharded:
            arrays = functional.split(
                value, state.dim, shard_sizes(value.shape[state.dim], self.ratios)
            )
        else:
            raise GraphError(f"source {instr.node!r} cannot be created in a partial state")
        self._store(instr.output, arrays)

    def _local_attrs(
        self,
        instr: CompInstruction,
        attrs: Mapping[str, object],
        args: Sequence[np.ndarray],
        rank: int,
        batch_scaled: bool = False,
    ) -> Dict[str, object]:
        """Adjust shape-bearing attributes for the rank-local operand sizes."""
        local = dict(attrs)
        out_state = instr.output.state
        if instr.op in ("reshape",) and out_state.is_sharded:
            shape = [int(d) for d in local["shape"]]
            if batch_scaled and shape[0] % self._batch_scale == 0:
                # Rescale the batch-derived leading dimension first, so a
                # shard dimension other than 0 is not made to absorb the
                # microbatch scaling.  Guarded by actual operand-size
                # evidence, so batch-independent reshapes are never touched.
                shape[0] //= self._batch_scale
            other = 1
            for i, d in enumerate(shape):
                if i != out_state.dim:
                    other *= d
            local_numel = int(args[0].size)
            shape[out_state.dim] = max(local_numel // max(other, 1), 0)
            local["shape"] = tuple(shape)
        elif instr.op in ("reshape",) and batch_scaled:
            # Microbatched replicated reshape: the attribute's leading
            # dimension carries the full-batch size; recover it from the
            # actual operand numel.
            shape = [int(d) for d in local["shape"]]
            other = 1
            for d in shape[1:]:
                other *= d
            shape[0] = max(int(args[0].size) // max(other, 1), 0)
            local["shape"] = tuple(shape)
        elif instr.op == "broadcast_to" and out_state.is_sharded:
            raise GraphError("broadcast_to cannot produce a sharded tensor")
        elif instr.op == "broadcast_to" and self._batch_scale > 1:
            local["shape"] = self._scaled_shape(tuple(int(d) for d in local["shape"]))
        elif instr.op == "conv2d_grad_input" and (
            out_state.is_sharded or self._batch_scale > 1
        ):
            shape = [int(d) for d in local["input_shape"]]
            shape[0] = int(args[0].shape[0])
            local["input_shape"] = tuple(shape)
        elif instr.op == "cross_entropy_grad":
            pass  # shapes follow the operands
        elif instr.op == "moe_combine_grad" and (
            out_state.is_sharded or self._batch_scale > 1
        ):
            # Local capacity must match the local forward dispatch: recompute
            # it from the local token count with the layer's capacity factor.
            gates = args[1]
            num_experts = gates.shape[1]
            factor = float(local.get("capacity_factor", 1.25))
            local_tokens = int(gates.shape[0])
            local["capacity"] = max(1, int(math.ceil(local_tokens / num_experts * factor)))
        return local

    # -- communication instructions ---------------------------------------------------------
    def _run_comm(self, instr: CommInstruction) -> None:
        arrays = self._lookup(instr.input)
        kind = instr.kind
        if kind is CollectiveKind.ALL_REDUCE:
            out = functional.all_reduce(arrays)
        elif kind in (CollectiveKind.ALL_GATHER, CollectiveKind.ALL_GATHER_GROUPED):
            out = functional.all_gather(arrays, instr.input.state.dim)
        elif kind is CollectiveKind.REDUCE_SCATTER:
            dim = instr.output.state.dim
            # The actual operand size, not the spec's: under microbatched
            # execution batch-derived dimensions run at 1/batch_scale.
            sizes = shard_sizes(arrays[0].shape[dim], self.ratios)
            out = functional.reduce_scatter(arrays, dim, sizes)
        elif kind is CollectiveKind.ALL_TO_ALL:
            out = self._run_all_to_all(instr, arrays)
        elif kind is CollectiveKind.SLICE:
            dim = instr.output.state.dim
            sizes = shard_sizes(arrays[0].shape[dim], self.ratios)
            out = [
                functional.split(arrays[rank], dim, sizes)[rank]
                for rank in range(self.world)
            ]
        elif kind is CollectiveKind.BROADCAST:
            out = functional.broadcast(arrays[0], self.world)
        else:  # pragma: no cover - defensive
            raise GraphError(f"unsupported collective {kind!r}")
        self._store(instr.output, out)

    def _run_all_to_all(
        self, instr: CommInstruction, arrays: Sequence[np.ndarray]
    ) -> List[np.ndarray]:
        src_dim = instr.input.state.dim
        dst_dim = instr.output.state.dim
        src_sizes = [a.shape[src_dim] for a in arrays]
        concat_total = sum(src_sizes)
        dst_total = arrays[0].shape[dst_dim]
        # Remember how the source dimension was split so the inverse
        # All-To-All (e.g. MoE backward) can restore exactly the same layout.
        self._uneven_splits[concat_total] = src_sizes
        if dst_total in self._uneven_splits and len(self._uneven_splits[dst_total]) == self.world:
            dst_sizes = self._uneven_splits[dst_total]
        else:
            dst_sizes = shard_sizes(dst_total, self.ratios)
        return functional.all_to_all(arrays, src_dim, dst_dim, dst_sizes)

    # -- environment helpers --------------------------------------------------------------
    def _lookup(self, prop: Property) -> List[np.ndarray]:
        key = (prop.ref, prop.state)
        if key not in self._env:
            raise GraphError(
                f"distributed tensor {prop.ref!r} in state {prop.state} has not been produced"
            )
        return self._env[key]

    def _store(self, prop: Property, arrays: List[np.ndarray]) -> None:
        self._env[(prop.ref, prop.state)] = arrays


def run_plan(
    plan,
    bindings: Mapping[str, np.ndarray],
) -> SPMDResult:
    """Execute a :class:`~repro.core.pipeline.HAPPlan` for one iteration."""
    executor = SPMDExecutor(plan.program, plan.flat_ratios)
    return executor.run(bindings)


# ---------------------------------------------------------------------------
# Hierarchical (pipeline-over-SPMD) execution
# ---------------------------------------------------------------------------

@dataclass
class HierarchicalResult:
    """Result of one emulated iteration of a hierarchical plan.

    Attributes:
        loss: the global scalar loss (computed by the last stage).
        updated_parameters: parameter name -> updated global value, unified
            across stages (stage graphs generate their own update-node names,
            so results are keyed by the original parameter).
        outputs: the updated parameters keyed by their chunk's update-node
            name, plus the loss under the loss-node name.  Boundary
            activations and gradients are not reassembled.
    """

    loss: Optional[float]
    updated_parameters: Dict[str, np.ndarray]
    outputs: Dict[str, np.ndarray]


class HierarchicalExecutor:
    """Executes a :class:`~repro.core.hierarchical.HierarchicalPlan`.

    Every stage's chunk program is an independent :class:`SPMDExecutor` over
    the stage's machine group.  Execution chains the stages in pipeline
    order through explicit activation/gradient handoff on **every stage
    boundary** — the emulation analogue of the point-to-point sends of a
    real pipeline schedule:

    1. a *forward task* of stage ``k`` runs its chunk program only
       until its boundary-output activations are produced (the backward
       instructions never execute; gradient seeds are bound to zeros purely
       as a fallback), and hands the activations downstream;
    2. a *backward task* re-runs the chunk program with the gradient seeds
       bound to the (summed) gradients received from its downstream
       consumers, producing the chunk's parameter updates and the gradients
       it sends upstream.

    The mini-batch is split into the plan's ``m`` microbatches along the
    leading dimension (``m`` falls back to 1 when the plan's batch size is
    unknown or not divisible by ``m``, as a plan read from a disk cache may
    be; one microbatch is the whole batch, run through the same loop)
    and the tasks execute **in the plan's schedule order**
    (:func:`~repro.simulator.schedule.task_orders`), resolved one task at a
    time through the same dependency rules as the schedule simulator.  Each
    microbatch's handoffs live in that microbatch's activation and gradient
    dicts until the consuming task runs.  The task order only affects
    timing, not numerics: per-parameter gradients are accumulated across
    microbatches (per stage the backward tasks run in microbatch order, so
    the accumulation order matches a sequential sweep) and the SGD update is
    applied exactly once per iteration, mirroring the once-per-iteration
    gradient synchronisation of the simulated schedules.
    Because the IR's loss reductions are sums over the batch, the summed
    microbatch gradients and losses match the full-batch run bit-for-bit up
    to floating-point reduction order.

    The re-execution of the forward part during a backward task is exactly
    activation recomputation (gradient checkpointing); with deterministic
    kernels the recomputed activations are identical, so the chained result
    matches single-device training up to floating-point reduction order.
    """

    def __init__(self, plan) -> None:
        self.plan = plan
        self.chunks = list(plan.stages)
        self.num_stages = len(self.chunks)
        m = plan.num_microbatches
        batch = plan.batch_size
        if m > 1 and (batch is None or batch % m != 0):
            m = 1  # cannot split evenly: run the whole batch at once
        self.num_microbatches = m
        hint = batch // m if (batch is not None and m > 1) else batch
        self.executors = [
            SPMDExecutor(chunk.program, chunk.ratios, batch_hint=hint, batch_scale=m)
            for chunk in self.chunks
        ]

    def _chunk_bindings(
        self,
        chunk,
        bindings: Mapping[str, np.ndarray],
        activations: Mapping[str, np.ndarray],
        grads: Optional[Mapping[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        """Bindings for one chunk run: data, params, activations, grad seeds."""
        info = chunk.info
        scale = self.num_microbatches
        seed_ref = {seed: ref for ref, seed in info.grad_input_of.items()}
        out: Dict[str, np.ndarray] = {}
        for node in info.graph:
            if node.op not in ("placeholder", "parameter"):
                continue
            name = node.name
            if name in seed_ref:
                ref = seed_ref[name]
                if grads is not None and ref in grads:
                    out[name] = grads[ref]
                else:
                    shape = list(node.spec.shape)
                    batch = self.plan.batch_size
                    if scale > 1 and shape and batch and shape[0] % batch == 0:
                        shape[0] //= scale
                    out[name] = np.zeros(tuple(shape), dtype=np.float32)
            elif name in activations:
                out[name] = activations[name]
            elif name in bindings:
                out[name] = np.asarray(bindings[name])
            else:
                raise GraphError(
                    f"stage {chunk.index}: no binding or "
                    f"upstream activation for {name!r}"
                )
        return out

    def _data_placeholders(self) -> set:
        """Original-graph placeholders fed from user bindings (not handoffs)."""
        seeds: set = set()
        incoming: set = set()
        for chunk in self.chunks:
            seeds.update(chunk.info.grad_input_of.values())
            incoming.update(chunk.info.boundary_outputs)
        names: set = set()
        for chunk in self.chunks:
            for node in chunk.info.graph:
                if (
                    node.op == "placeholder"
                    and node.name not in seeds
                    and node.name not in incoming
                ):
                    names.add(node.name)
        return names

    def _forward_task(
        self,
        k: int,
        j: int,
        micro_bindings: Sequence[Mapping[str, np.ndarray]],
        activations: Sequence[Dict[str, np.ndarray]],
    ) -> None:
        """Task ``("F", j)`` of stage ``k``: run the stage's forward for
        microbatch ``j`` up to its boundary and hand the activations on."""
        chunk = self.chunks[k]
        if not chunk.info.boundary_outputs:
            return  # final stage: its forward is folded into the backward task
        result = self.executors[k].run(
            self._chunk_bindings(chunk, micro_bindings[j], activations[j], None),
            stop_after=chunk.info.boundary_outputs,
        )
        for ref in chunk.info.boundary_outputs:
            activations[j][ref] = result.outputs[ref]

    def _backward_task(
        self,
        k: int,
        j: int,
        micro_bindings: Sequence[Mapping[str, np.ndarray]],
        activations: Sequence[Dict[str, np.ndarray]],
        grads: Sequence[Dict[str, np.ndarray]],
        gradients: Dict[str, np.ndarray],
    ) -> Optional[float]:
        """Task ``("B", j)`` of stage ``k``: a full run of the stage for
        microbatch ``j`` with the downstream gradient seeds bound.

        Accumulates per-parameter gradients into ``gradients``, adds the
        upstream boundary gradients into ``grads[j]`` and frees the chunk's
        own handoffs — once its backward ran, every downstream consumer of
        this microbatch is already done.
        """
        chunk = self.chunks[k]
        executor = self.executors[k]
        mb_acts, mb_grads = activations[j], grads[j]
        result = executor.run(
            self._chunk_bindings(chunk, micro_bindings[j], mb_acts, mb_grads)
        )
        for param, grad_node in chunk.info.gradients.items():
            value = executor._gather_ref(grad_node)
            if value is not None:
                gradients[param] = (
                    value if param not in gradients else gradients[param] + value
                )
        for ref, grad_node in chunk.info.grad_output_of.items():
            value = result.outputs[grad_node]
            mb_grads[ref] = mb_grads[ref] + value if ref in mb_grads else value
        for ref in chunk.info.boundary_outputs:
            mb_acts.pop(ref, None)
            mb_grads.pop(ref, None)
        return result.loss if chunk.info.loss is not None else None

    def run(self, bindings: Mapping[str, np.ndarray]) -> HierarchicalResult:
        """Execute one training iteration across all pipeline stages.

        Tasks are executed one at a time in the schedule's task order; a
        stage's head task runs as soon as its dependencies are met (forward:
        upstream forward done; backward: own forward and downstream backward
        done) — the same rules the schedule simulator times, minus the
        clock.  A stage therefore proceeds to its next task while the
        handoff of its previous one still waits for its consumer, which is
        the asynchronous-transfer order the schedule simulator prices.

        Args:
            bindings: global values for every placeholder and parameter of
                the *original* single-device graph (chunk graphs reuse the
                original node names, so one bindings dict serves all chunks).
        """
        m = self.num_microbatches
        s = self.num_stages
        # One microbatch is the whole batch: bindings pass through unsliced,
        # so a plan without a known batch size still runs.
        micro_bindings: List[Mapping[str, np.ndarray]] = [bindings]
        if m > 1:
            batch = self.plan.batch_size
            micro = batch // m
            data_names = self._data_placeholders()
            micro_bindings = []
            for j in range(m):
                mb: Dict[str, np.ndarray] = {}
                for name, value in bindings.items():
                    arr = np.asarray(value)
                    if name in data_names and arr.ndim > 0 and arr.shape[0] == batch:
                        mb[name] = arr[j * micro : (j + 1) * micro]
                    else:
                        mb[name] = arr
                micro_bindings.append(mb)
        orders = task_orders(self.plan.schedule_name, s, m)
        activations: List[Dict[str, np.ndarray]] = [{} for _ in range(m)]
        grads: List[Dict[str, np.ndarray]] = [{} for _ in range(m)]
        done_f: set = set()
        done_b: set = set()
        heads = [0] * s
        remaining = sum(len(order) for order in orders)
        grad_sums: Dict[str, np.ndarray] = {}
        loss_total: Optional[float] = None
        while remaining:
            progressed = False
            for i in range(s):
                while heads[i] < len(orders[i]):
                    kind, j = orders[i][heads[i]]
                    if kind == "F":
                        if i > 0 and (i - 1, j) not in done_f:
                            break
                        self._forward_task(i, j, micro_bindings, activations)
                        done_f.add((i, j))
                    else:
                        if (i, j) not in done_f or (
                            i != s - 1 and (i + 1, j) not in done_b
                        ):
                            break
                        loss = self._backward_task(
                            i, j, micro_bindings, activations, grads, grad_sums
                        )
                        if loss is not None:
                            loss_total = loss if loss_total is None else loss_total + loss
                        done_b.add((i, j))
                    heads[i] += 1
                    remaining -= 1
                    progressed = True
            if not progressed:  # pragma: no cover - defensive (orders are valid)
                raise GraphError(
                    f"pipeline task order deadlocked with {remaining} tasks left"
                )

        updated = self._apply_updates(bindings, grad_sums)
        # Per-iteration outputs: the updated parameters under their
        # update-node names and the loss.  Raw per-microbatch
        # activations/gradients are not reassembled.
        outputs: Dict[str, np.ndarray] = {}
        for chunk in self.chunks:
            for param, update_node in chunk.info.updates.items():
                outputs[update_node] = updated[param]
            if chunk.info.loss is not None and loss_total is not None:
                outputs[chunk.info.loss] = np.asarray(loss_total, dtype=np.float32)
        return HierarchicalResult(loss=loss_total, updated_parameters=updated, outputs=outputs)

    def _apply_updates(
        self, bindings: Mapping[str, np.ndarray], gradients: Mapping[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Once-per-iteration SGD step from the microbatch-accumulated gradients.

        The chunk graphs' ``sgd_update`` nodes see one microbatch's gradient
        only, so the iteration's step is applied here in closed form
        (``param - lr * sum(grads)``) for every microbatch count, one
        included.  The runtime parity tests
        compare this against the graph-executed single-device update every
        run, so a drift in ``sgd_update`` semantics would fail loudly; the
        ``lr`` attribute is read strictly for the same reason.
        """
        updated: Dict[str, np.ndarray] = {}
        for chunk in self.chunks:
            for param, update_node in chunk.info.updates.items():
                lr = float(chunk.info.graph[update_node].attrs["lr"])
                base = np.asarray(bindings[param], dtype=np.float32)
                grad = gradients.get(param)
                updated[param] = base.copy() if grad is None else base - lr * grad
        return updated


def run_hierarchical_plan(plan, bindings: Mapping[str, np.ndarray]) -> HierarchicalResult:
    """Execute a :class:`~repro.core.hierarchical.HierarchicalPlan` once."""
    return HierarchicalExecutor(plan).run(bindings)
