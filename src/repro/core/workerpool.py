"""Shared fork-based worker pool for the planner's parallel subsystems.

Both parallel features of the planner draw from the single pool managed here:

* ``SynthesisConfig.synthesis_workers`` — parallel beam expansion shards the
  entering states of each beam level across workers
  (:meth:`~repro.core.synthesizer.ProgramSynthesizer.synthesize`);
* ``HierarchicalConfig.planner_workers`` — the candidate grid of
  :meth:`~repro.core.hierarchical.HierarchicalPlanner.plan` dispatches one
  task per (num_stages, chunks) cell.

The pool exists because both callers have the same shape of problem: a large
read-only context (graph, theory, rule indexes) and
many small tasks against it.  Fork copy-on-write ships the context for free —
workers are forked from the parent *after* the context exists, so tasks only
carry compact argument tuples over a pipe, never the context itself.  That is
also why the pool is fork-only: under ``spawn`` the context would have to be
pickled per worker, which is exactly the cost this module exists to avoid.
Callers check :func:`fork_available` and fall back to serial execution.

Lifecycle
---------
The process-wide pool is created lazily by :func:`shared_pool` on first use
and *reused* across beam levels, synthesis calls, and ``plan()`` calls —
PR 7's per-plan ``ProcessPoolExecutor`` spin-up/teardown is gone.  Workers are
re-forked only when they would be stale: the pool grew, a payload object was
(re)registered after the last fork, or a worker crashed.  ``WorkerPool`` is a
context manager; :func:`close_shared_pool` (also registered ``atexit``) tears
the shared instance down explicitly.

Payloads
--------
A worker task is ``handler(payload, args)``.  The payload is the large
read-only context: the parent calls :func:`register_payload` *before*
dispatching, and the pool re-forks if the registered object changed since the
workers were forked, so the fork snapshot always contains the object the
handler will look up.  Handlers are module-level functions pickled by
qualified name; ``args`` must be picklable and should stay compact.

Budgeting
---------
Nested parallelism (``planner_workers`` × ``synthesis_workers``) must not
oversubscribe the machine.  :func:`set_process_budget` caps the workers this
*process* may fork; grid workers receive ``budget // planner_workers`` so the
synthesis pools inside them shrink (usually to serial) instead of multiplying.

This module is the substrate the planner-as-a-service layer (ROADMAP) is
scoped to reuse for request-level parallelism.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import traceback
from multiprocessing.connection import Connection, wait as _wait_ready
from multiprocessing.process import BaseProcess
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "WorkerCrash",
    "WorkerPool",
    "close_shared_pool",
    "effective_workers",
    "fork_available",
    "pool_spawn_count",
    "process_budget",
    "register_payload",
    "set_process_budget",
    "shared_pool",
]


class WorkerCrash(RuntimeError):
    """A worker task raised or a worker process died mid-task.

    The message carries the worker-side traceback (when one was received).
    After a crash the pool marks itself broken and re-forks on next use, so a
    poisoned task cannot wedge later dispatches.
    """


# A task handler: module-level function of (payload, args) -> result.  It is
# pickled by qualified name, so monkeypatching the name a caller dispatches
# resolves to the patched object inside the worker as well.
TaskHandler = Callable[[Any, Any], Any]

# ---------------------------------------------------------------------------
# Payload registry (parent side; snapshotted into workers by fork)
# ---------------------------------------------------------------------------

_PAYLOADS: Dict[str, Any] = {}
_PAYLOAD_VERSIONS: Dict[str, int] = {}
_registry_version = 0


def register_payload(key: str, obj: Any) -> None:
    """Expose ``obj`` to workers under ``key``.

    Re-registering the *same* object (by identity) is free; a different
    object bumps the registry version so pools forked before this call
    re-fork lazily and snapshot the new object.
    """
    global _registry_version
    if _PAYLOADS.get(key) is obj:
        return
    _PAYLOADS[key] = obj
    _registry_version += 1
    _PAYLOAD_VERSIONS[key] = _registry_version


# ---------------------------------------------------------------------------
# Process budget
# ---------------------------------------------------------------------------

_budget: Optional[int] = None


def process_budget() -> int:
    """Worker processes this process may fork.

    Defaults to ``os.cpu_count()`` until :func:`set_process_budget` installs
    an explicit cap (which grid workers receive from their parent).
    """
    if _budget is not None:
        return _budget
    return os.cpu_count() or 1


def set_process_budget(budget: int) -> None:
    """Install an explicit worker cap (used inside nested grid workers)."""
    global _budget
    _budget = max(1, int(budget))


def effective_workers(requested: int) -> int:
    """Clamp a requested worker count to any explicitly installed budget.

    A top-level request is honored as-is — like ``planner_workers`` always
    has, the caller may deliberately oversubscribe a small machine (the CI
    speedup guards simply need enough usable cores).  Only processes whose
    parent installed a budget via :func:`set_process_budget` (nested
    ``planner_workers`` × ``synthesis_workers`` grids) are clamped, so the
    two flags compose without multiplying.
    """
    requested = max(1, int(requested))
    if _budget is not None:
        return min(requested, _budget)
    return requested


def fork_available() -> bool:
    """Whether the fork start method exists on this platform."""
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return False
    return True


# ---------------------------------------------------------------------------
# Worker loop
# ---------------------------------------------------------------------------


def _worker_main(conn: Connection) -> None:
    """Serve ``(handler, payload_key, args)`` requests until told to exit."""
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent closed its end or died
            return
        if message is None:  # orderly shutdown
            return
        handler, payload_key, args = message
        try:
            payload = _PAYLOADS[payload_key] if payload_key is not None else None
            reply = ("ok", handler(payload, args))
        except BaseException:
            reply = ("err", traceback.format_exc())
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # parent went away mid-task
            return


# ---------------------------------------------------------------------------
# Pool
# ---------------------------------------------------------------------------

_spawn_count = 0


def pool_spawn_count() -> int:
    """Process-wide count of pool (re-)forks — lets tests assert pool reuse."""
    return _spawn_count


class WorkerPool:
    """A persistent set of forked workers, one duplex pipe each.

    Two dispatch shapes:

    * :meth:`run_sharded` — one pre-cut task per worker, results gathered in
      task order.  Used by beam levels, where the parent shards the entering
      states itself and the reassembly order is a correctness contract.
    * :meth:`run_tasks` — more tasks than workers, dispatched dynamically as
      workers free up; results still returned in task order.  Used by the
      candidate grid, whose cells have very uneven runtimes.
    """

    def __init__(self, workers: int) -> None:
        self._requested = effective_workers(workers)
        self._procs: List[BaseProcess] = []
        self._conns: List[Connection] = []
        self._forked_version = -1  # registry version snapshotted at fork
        self._owner_pid = os.getpid()
        self._broken = False

    # -- introspection ------------------------------------------------------

    @property
    def size(self) -> int:
        """Workers this pool forks (the clamp of the largest request so far)."""
        return self._requested

    @property
    def alive(self) -> bool:
        return bool(self._procs) and not self._broken

    # -- lifecycle ----------------------------------------------------------

    def grow(self, workers: int) -> None:
        """Raise the pool size; takes effect at the next (lazy) re-fork."""
        workers = effective_workers(workers)
        if workers > self._requested:
            self._requested = workers
            if self._procs:
                self._teardown()

    def _spawn(self) -> None:
        global _spawn_count
        self._teardown()
        context = multiprocessing.get_context("fork")
        for _ in range(self._requested):
            parent_end, child_end = context.Pipe(duplex=True)
            # Not daemonic: grid-cell workers must be able to fork their own
            # (budgeted) nested synthesis pools, which daemonic processes are
            # forbidden to do.  Orderly exit is guaranteed anyway — workers
            # return on the shutdown sentinel or on EOF when the parent dies,
            # and close_shared_pool() is registered atexit.
            proc = context.Process(target=_worker_main, args=(child_end,))
            proc.start()
            child_end.close()
            self._procs.append(proc)
            self._conns.append(parent_end)
        self._forked_version = _registry_version
        self._broken = False
        _spawn_count += 1

    def _ensure(self, payload_key: Optional[str]) -> None:
        """Fork (or re-fork) so live workers hold a current payload snapshot."""
        if self._owner_pid != os.getpid():
            # Pool object inherited into a forked child: its pipes belong to
            # the parent.  Abandon (never terminate the parent's workers) and
            # fork our own.
            self._procs, self._conns = [], []
            self._owner_pid = os.getpid()
            self._broken = False
        stale = (
            not self._procs
            or self._broken
            or (
                payload_key is not None
                and _PAYLOAD_VERSIONS.get(payload_key, 0) > self._forked_version
            )
        )
        if stale:
            self._spawn()

    def _teardown(self) -> None:
        if self._owner_pid != os.getpid():  # never touch a parent's workers
            self._procs, self._conns = [], []
            return
        for conn in self._conns:
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)
        self._procs, self._conns = [], []

    def close(self) -> None:
        """Shut workers down.  The pool re-forks lazily if used again."""
        self._teardown()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- dispatch -----------------------------------------------------------

    def run_sharded(
        self,
        handler: TaskHandler,
        payload_key: Optional[str],
        tasks: Sequence[Any],
    ) -> List[Any]:
        """Run one task per worker; return results in task order.

        ``len(tasks)`` must not exceed :attr:`size`; a smaller batch uses a
        subset of the workers.
        """
        if len(tasks) > self._requested:
            raise ValueError(
                f"run_sharded got {len(tasks)} tasks for {self._requested} workers"
            )
        self._ensure(payload_key)
        for conn, args in zip(self._conns, tasks):
            conn.send((handler, payload_key, args))
        results: List[Any] = []
        for conn in self._conns[: len(tasks)]:
            results.append(self._receive(conn))
        return results

    def run_tasks(
        self,
        handler: TaskHandler,
        payload_key: Optional[str],
        tasks: Sequence[Any],
    ) -> List[Any]:
        """Run arbitrarily many tasks, refilling workers as they finish.

        Results are indexed by task position regardless of completion order.
        """
        self._ensure(payload_key)
        results: List[Any] = [None] * len(tasks)
        pending: Dict[Connection, int] = {}
        idle = list(self._conns)
        cursor = 0
        while cursor < len(tasks) or pending:
            while idle and cursor < len(tasks):
                conn = idle.pop()
                conn.send((handler, payload_key, tasks[cursor]))
                pending[conn] = cursor
                cursor += 1
            if not pending:
                break
            for ready in _wait_ready(list(pending)):
                index = pending.pop(ready)  # type: ignore[arg-type]
                results[index] = self._receive(ready)  # type: ignore[arg-type]
                idle.append(ready)  # type: ignore[arg-type]
        return results

    def _receive(self, conn: Connection) -> Any:
        try:
            status, value = conn.recv()
        except (EOFError, OSError) as exc:
            self._broken = True
            raise WorkerCrash(
                "worker process died without reporting a result"
            ) from exc
        if status == "err":
            # Workers that still hold queued tasks would desynchronise later
            # dispatches; mark broken so the next use re-forks a clean pool.
            self._broken = True
            raise WorkerCrash(f"worker task failed:\n{value}")
        return value


# ---------------------------------------------------------------------------
# Shared process-wide pool
# ---------------------------------------------------------------------------

_shared: Optional[WorkerPool] = None


def shared_pool(workers: int) -> WorkerPool:
    """Return the process-wide pool, growing it to at least ``workers``.

    The pool is created lazily (no processes fork until the first dispatch)
    and shared by every caller in this process, so consecutive ``plan()``
    calls and the beam levels inside them reuse one set of workers.
    """
    global _shared
    if _shared is not None and _shared._owner_pid != os.getpid():
        _shared = None  # inherited via fork; the workers are the parent's
    if _shared is None:
        _shared = WorkerPool(workers)
    else:
        _shared.grow(workers)
    return _shared


def close_shared_pool() -> None:
    """Tear down the shared pool (it re-forks lazily on next use)."""
    global _shared
    if _shared is not None:
        _shared.close()
    _shared = None


atexit.register(close_shared_pool)
