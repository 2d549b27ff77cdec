"""Pipeline-schedule subsystem: time *and* stash of pipelined SPMD stages.

Flat HAP executes one SPMD program on the whole cluster; the hierarchical
planner instead runs one SPMD program per machine group and pipelines
microbatches through them.  This module simulates such an iteration.  A
schedule is nothing but its per-stage task order, :func:`task_orders`; one
dependency engine, :func:`simulate_pipeline`, times any order.  The
schedules are named in :data:`SCHEDULE_NAMES`:

* ``gpipe`` — all microbatch forwards fill the pipeline front to back, all
  backwards drain it in reverse microbatch order.  Simple, but every stage
  stashes the activations of all ``m`` in-flight microbatches, so the
  activation footprint grows linearly with the microbatch count.
* ``1f1b`` — PipeDream-style one-forward-one-backward: stage ``i`` warms up
  with ``min(s - 1 - i, m)`` forwards and then alternates one forward with
  one backward, so at most ``min(s - i, m)`` microbatches are ever in flight.
  On balanced stages with negligible transfers it matches GPipe's fill/drain
  critical path exactly (with heavy transfers or skewed stages the strict
  alternation can serialise slightly differently, in either direction); its
  real win is that the activation footprint is bounded by the pipeline depth
  ``s`` instead of ``m`` — which is what makes large microbatch counts
  feasible at all.

Each stage hosts one model chunk, profiled from the hierarchical planner's
per-chunk flat-HAP program, and every boundary hop carries the true bytes of
its cut.  Every schedule reports each stage's **peak activation stash**:
the peak bytes of in-flight activations observed during the dependency
simulation (the planner's per-device memory model,
:func:`repro.core.hierarchical.device_peak_memory`, adds the resident
parameter state and splits the stash by sharding ratio).  An optional
activation-recomputation mode re-runs the forward before each backward (one
extra forward per microbatch), shrinking the per-task stash to the stage's
boundary input.

Boundary transfers are modelled as **asynchronous events on the sender's
communication stream**: a stage's compute stream is free the moment a task
ends — its next task runs while the previous microbatch's output is still in
flight — and an ``overlap`` efficiency lets each send stream out during the
tail of its producing task, shrinking the exposed latency on the dependency
edge to ``xfer - overlap * min(xfer, producer_time)``.  ``overlap = 0``
reproduces the fully blocking results exactly; results report exposed vs
hidden transfer seconds and per-stage communication-stream load.

This module is deliberately free of imports from the rest of the package: it
consumes plain per-stage timings (:class:`StageTimes`) that either the cost
model (planning estimates) or the execution simulator (measurements) can
produce, so the planner and the simulator share one schedule implementation
and one stage-profile assembly (:func:`profile_stages`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class StageTimes:
    """Timing and stash inputs of one pipeline stage, for the *full* mini-batch.

    Attributes:
        forward: forward time of the stage program for the whole mini-batch
            (scaled by ``1/num_microbatches`` per microbatch).
        backward: backward (gradient) time for the whole mini-batch.
        sync: once-per-iteration work — parameter collectives, gradient
            all-reduce and optimizer updates — paid after the stage drains.
        send_bytes: activation bytes this stage sends to the next stage for
            the whole mini-batch (the backward pass returns gradients of the
            same size).
        activation_bytes: forward activation bytes the stage must stash for
            its backward pass, for the whole mini-batch (each in-flight
            microbatch holds its share of this).
    """

    forward: float
    backward: float
    sync: float = 0.0
    send_bytes: float = 0.0
    activation_bytes: float = 0.0

    @property
    def total(self) -> float:
        return self.forward + self.backward + self.sync


def profile_stages(
    stages: Sequence[Any], profile: Callable[[Any], Dict[str, float]]
) -> List[StageTimes]:
    """Per-stage :class:`StageTimes` of a pipeline's stages.

    ``stages`` are :class:`~repro.core.hierarchical.StagePlan` objects (read
    duck-typed: ``send_bytes`` and ``activation_bytes``).  ``profile(stage)``
    returns the stage's chunk program's ``{"forward", "backward", "sync"}``
    seconds — the planner passes the cost model's phase profile, the
    simulator its measured one — and runs once per stage.
    """
    times: List[StageTimes] = []
    for stage in stages:
        buckets = profile(stage)
        times.append(
            StageTimes(
                forward=buckets["forward"],
                backward=buckets["backward"],
                sync=buckets["sync"],
                send_bytes=float(stage.send_bytes),
                activation_bytes=float(stage.activation_bytes),
            )
        )
    return times


@dataclass
class ScheduleResult:
    """Outcome of one pipelined iteration.

    Attributes:
        total: per-iteration wall-clock time.
        num_microbatches: microbatch count the schedule ran with.
        schedule: name of the schedule that produced this result.
        stage_finish: per-stage time at which the stage (including its
            gradient sync) finished.
        stage_busy: per-stage busy seconds (compute + sync, excluding idle).
        bubble: mean per-stage idle time within the iteration, in seconds.
        bubble_fraction: ``bubble / total`` (0 for a single stage).
        transfer: total activation+gradient transfer seconds on the critical
            path accounting (sum over boundaries and microbatches).
        peak_inflight: per-stage maximum number of in-flight microbatches
            (forwards without a matching backward yet) observed during the
            simulated iteration.
        peak_stash: per-stage peak bytes of the activation stash alone —
            every in-flight microbatch contributes the stage's per-microbatch
            activation bytes (or boundary-input bytes under recomputation,
            plus the microbatch being rematerialised during its backward).
        recompute: whether activation recomputation was modelled.
        overlap: communication/computation overlap efficiency the schedule
            ran with (0 = fully blocking boundary transfers).
        exposed_transfer: transfer seconds left on the dependency edges after
            overlapping each send with the tail of its producing task.
        hidden_transfer: transfer seconds hidden behind producing compute
            (``exposed_transfer + hidden_transfer == transfer``).
        comm_busy: per-stage seconds the stage's communication
            stream spends sending activations/gradients downstream/upstream.
    """

    total: float
    num_microbatches: int
    schedule: str = "gpipe"
    stage_finish: List[float] = field(default_factory=list)
    stage_busy: List[float] = field(default_factory=list)
    bubble: float = 0.0
    bubble_fraction: float = 0.0
    transfer: float = 0.0
    peak_inflight: List[int] = field(default_factory=list)
    peak_stash: List[float] = field(default_factory=list)
    recompute: bool = False
    overlap: float = 0.0
    exposed_transfer: float = 0.0
    hidden_transfer: float = 0.0
    comm_busy: List[float] = field(default_factory=list)


#: A task is (kind, microbatch); kind is "F" or "B".
_Task = Tuple[str, int]


def _validate_inputs(
    stages: Sequence[StageTimes], num_microbatches: int, inter_group_bandwidth: float
) -> None:
    if num_microbatches < 1:
        raise ValueError("num_microbatches must be >= 1")
    if not stages:
        raise ValueError("stages must be non-empty")
    if len(stages) > 1 and inter_group_bandwidth <= 0:
        raise ValueError(
            "inter_group_bandwidth must be > 0 for multi-stage pipelines "
            f"(got {inter_group_bandwidth!r}); activations cannot cross a "
            "zero-bandwidth inter-group link"
        )


#: The schedules the planner searches over.
SCHEDULE_NAMES = ["gpipe", "1f1b"]


def task_orders(schedule: str, num_stages: int, num_microbatches: int) -> List[List[_Task]]:
    """Every stage's forward/backward tasks in ``schedule``'s execution order.

    ``gpipe`` fills with all forwards and drains with all backwards in
    reverse microbatch order; ``1f1b`` (PipeDream-flush / Megatron) warms
    stage ``i`` up with ``min(s - 1 - i, m)`` forwards, then alternates one
    forward with one backward.

    Raises:
        KeyError: ``schedule`` is not in :data:`SCHEDULE_NAMES`.
    """
    s, m = num_stages, num_microbatches
    if schedule == "gpipe":
        return [
            [("F", j) for j in range(m)] + [("B", j) for j in reversed(range(m))]
            for _ in range(s)
        ]
    if schedule == "1f1b":
        orders: List[List[_Task]] = []
        for i in range(s):
            warmup = min(s - 1 - i, m)
            order: List[_Task] = [("F", j) for j in range(warmup)]
            for j in range(m - warmup):
                order.append(("F", warmup + j))
                order.append(("B", j))
            order.extend(("B", j) for j in range(m - warmup, m))
            orders.append(order)
        return orders
    raise KeyError(f"unknown pipeline schedule {schedule!r}; known: {SCHEDULE_NAMES}")


def simulate_pipeline(
    stages: Sequence[StageTimes],
    num_microbatches: int,
    inter_group_bandwidth: float,
    inter_group_latency: float = 0.0,
    microbatch_overhead: float = 0.0,
    schedule: str = "gpipe",
    recompute: bool = False,
    overlap: float = 0.0,
) -> ScheduleResult:
    """Simulate one pipelined iteration under ``schedule`` (GPipe by default).

    Per-microbatch forward/backward times of stage ``k`` are its full-batch
    times divided by ``num_microbatches`` plus a fixed ``microbatch_overhead``
    (kernel-launch / scheduling cost that does not shrink with the
    microbatch).  A transfer of the producing stage's ``send_bytes /
    num_microbatches`` over the inter-group link separates adjacent stages in
    both directions.  With one stage and one microbatch the schedule
    degenerates to ``forward + backward + sync`` — the flat SPMD time.

    Each stage runs its :func:`task_orders` in order; a task starts once its
    stage is free and its dependencies finished (forward: the upstream
    forward of the same microbatch; backward: its own forward and the
    downstream backward).  Boundary transfers are asynchronous events on the
    sender's communication stream: the sender's compute stream is free as
    soon as the producing task ends (its next task runs while the output is
    in flight), and with ``overlap > 0`` the send additionally streams out
    during the tail of the producing task itself, so only ``xfer - overlap *
    min(xfer, producer_time)`` separates the producer from its consumer on
    the dependency edge.  ``overlap = 0`` reduces exactly to the blocking
    model (the consumer waits the full transfer after the producer
    finishes).

    Args:
        stages: per-stage full-batch timings and stash inputs.
        num_microbatches: microbatches per iteration.
        inter_group_bandwidth: point-to-point bytes/s between adjacent stages;
            must be positive when there is more than one stage.
        inter_group_latency: per-transfer latency in seconds.
        microbatch_overhead: fixed per-microbatch launch cost.
        schedule: schedule name (see :data:`SCHEDULE_NAMES`).
        recompute: model activation recomputation (one extra forward per
            microbatch, O(1) activation stash per in-flight microbatch).
        overlap: communication/computation overlap efficiency in ``[0, 1]``;
            each boundary transfer streams out during the tail of its
            producing task, exposing only ``xfer - overlap * min(xfer,
            producer_time)`` on the dependency edge.  0 (the default here;
            the hierarchical planner passes the cluster's efficiency) is the
            blocking model.

    Returns:
        The :class:`ScheduleResult`; ``total`` is the iteration time.

    Raises:
        KeyError: ``schedule`` is not in :data:`SCHEDULE_NAMES`.
    """
    _validate_inputs(stages, num_microbatches, inter_group_bandwidth)
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap must be in [0, 1], got {overlap!r}")
    s = len(stages)
    m = num_microbatches

    fwd = [st.forward / m + microbatch_overhead for st in stages]
    bwd = [st.backward / m + microbatch_overhead for st in stages]
    if recompute:
        # Gradient checkpointing: re-run the stage forward before each
        # backward so only the boundary input has to stay resident.
        bwd = [b + f for b, f in zip(bwd, fwd)]

    # Per-microbatch transfer time after stage k (k -> k+1), carrying the
    # producing stage's boundary bytes.
    xfer = [
        inter_group_latency + (stages[k].send_bytes / m) / inter_group_bandwidth
        for k in range(s - 1)
    ]
    # Exposed per-microbatch transfer on each dependency edge: the part of
    # hop k's send that cannot stream out during its producing task.  The
    # forward producer of hop k is stage k; the backward producer is
    # stage k+1's backward.
    hidden_f = [overlap * min(xfer[k], fwd[k]) for k in range(s - 1)]
    hidden_b = [overlap * min(xfer[k], bwd[k + 1]) for k in range(s - 1)]
    exposed_f = [x - h for x, h in zip(xfer, hidden_f)]
    exposed_b = [x - h for x, h in zip(xfer, hidden_b)]

    # Per-task stash bytes: without recomputation an in-flight microbatch
    # holds the stage's activations; with recomputation only its boundary
    # input (the previous stage's send) stays, and the activations are
    # transiently rematerialised in its backward.
    act_task = [st.activation_bytes / m for st in stages]
    recv_task = [0.0] + [st.send_bytes / m for st in stages[:-1]]
    stash_task = recv_task if recompute else act_task

    orders = task_orders(schedule, s, m)
    finish_f: Dict[Tuple[int, int], float] = {}
    finish_b: Dict[Tuple[int, int], float] = {}
    heads = [0] * s
    busy = [0.0] * s
    inflight = [0] * s
    peak_inflight = [1 if m > 0 else 0 for _ in range(s)]
    stash = [0.0] * s
    peak_stash = [0.0] * s
    remaining = sum(len(o) for o in orders)

    def _ready_time(k: int, task: _Task) -> Optional[float]:
        kind, j = task
        if kind == "F":
            if k == 0:
                return 0.0
            dep = finish_f.get((k - 1, j))
            return None if dep is None else dep + exposed_f[k - 1]
        own = finish_f.get((k, j))
        if own is None:
            return None
        if k == s - 1:
            return own
        dep = finish_b.get((k + 1, j))
        return None if dep is None else max(own, dep + exposed_b[k])

    while remaining:
        best: Optional[Tuple[float, int, _Task]] = None
        for i in range(s):
            if heads[i] >= len(orders[i]):
                continue
            task = orders[i][heads[i]]
            ready = _ready_time(i, task)
            if ready is None:
                continue
            start = max(ready, busy[i])
            if best is None or start < best[0]:
                best = (start, i, task)
        if best is None:  # pragma: no cover - defensive (orders are valid)
            raise RuntimeError(
                f"pipeline schedule {schedule!r} deadlocked with "
                f"{remaining} tasks left (s={s}, m={m})"
            )
        start, k, (kind, j) = best
        if kind == "F":
            end = start + fwd[k]
            finish_f[(k, j)] = end
            inflight[k] += 1
            peak_inflight[k] = max(peak_inflight[k], inflight[k])
            stash[k] += stash_task[k]
            peak_stash[k] = max(peak_stash[k], stash[k])
        else:
            end = start + bwd[k]
            finish_b[(k, j)] = end
            inflight[k] -= 1
            if recompute:
                # The stage's activations live again while its backward
                # rematerialises them on top of the boundary stashes.
                peak_stash[k] = max(peak_stash[k], stash[k] + act_task[k])
            stash[k] -= stash_task[k]
        busy[k] = end
        heads[k] += 1
        remaining -= 1

    stage_finish = [busy[i] + stages[i].sync for i in range(s)]
    total = max(stage_finish)
    stage_busy = [m * (fwd[i] + bwd[i]) + stages[i].sync for i in range(s)]
    bubble = sum(max(total - b, 0.0) for b in stage_busy) / s
    transfer = 2.0 * m * sum(xfer) if s > 1 else 0.0
    hidden = m * (sum(hidden_f) + sum(hidden_b)) if s > 1 else 0.0
    # Sender-side communication-stream load: stage k ships its forward
    # output over hop k, and stage k + 1 ships hop k's backward gradient.
    comm_busy = [0.0] * s
    for k in range(s - 1):
        comm_busy[k] += m * xfer[k]  # forward sends of hop k
        comm_busy[k + 1] += m * xfer[k]  # gradient sends of hop k

    return ScheduleResult(
        total=total,
        num_microbatches=m,
        schedule=schedule,
        stage_finish=stage_finish,
        stage_busy=stage_busy,
        bubble=bubble,
        bubble_fraction=bubble / total if total > 0 else 0.0,
        transfer=transfer,
        peak_inflight=peak_inflight,
        peak_stash=list(peak_stash),
        recompute=recompute,
        overlap=overlap,
        exposed_transfer=transfer - hidden,
        hidden_transfer=hidden,
        comm_busy=comm_busy,
    )
