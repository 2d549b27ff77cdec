"""Host normalization: a reference kernel sampled while the planner runs.

On a shared VM (measured: a 2-core x86-64 guest) effective speed swings by
more than 2x over minutes and by 10-25% within seconds, so raw wall times of
the same cold plan differ between runs by far more than any regression
worth catching.
A :class:`HostProbe` therefore runs a fixed, stdlib-only reference kernel
from a ``SIGALRM`` handler every :data:`PROBE_INTERVAL_S` seconds for the
whole life of a measured child process: each tick runs the kernel twice and
keeps the second (cache-warm) timing, so the sample reflects how fast the
host executes Python right then, not how much cache the planner evicted.
A region's time is reported as ``net * REF_NOMINAL_S / harmonic_mean(near)``
where ``net`` excludes the time spent in the probe itself and ``near`` are
the probe samples taken during the region or within :data:`WINDOW_S` of it:
the time the region would have taken on a host where the kernel takes
exactly :data:`REF_NOMINAL_S`.

The harmonic mean, because the work a region gets done is its host speed
integrated over wall time, ticks sample wall time evenly, and a tick's
duration is inversely proportional to the speed: the mean of the inverse
durations is the region's mean speed.  Measured on that VM, tick durations
are bimodal (a fast and a slow state, switching within a second); a median
jumps between the two modes, and an arithmetic mean follows the rare very
slow tick.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import statistics
import time
from typing import Callable, List, NamedTuple, Sequence, Tuple

#: Median probe sample of the host that recorded ``baseline.json`` (a 2-core
#: x86-64 VM) at its fastest; normalized times are on that host's scale.
REF_NOMINAL_S = 0.00037

#: Seconds between two probe ticks: dense enough that a 3 s plan holds
#: about a hundred, so the host's fast/slow mixture is measured, not guessed.
PROBE_INTERVAL_S = 0.025

#: A region is normalized by the probe samples taken no further than this
#: from it, and by all samples of the process when fewer than
#: :data:`MIN_NEAR` are that close.
WINDOW_S = 0.25
MIN_NEAR = 5

_rng = random.Random(20240415)
_SUCC = [[(_rng.randrange(400), _rng.random()) for _ in range(4)] for _ in range(400)]
_TAGS = [frozenset(_rng.sample(range(32), 3)) for _ in range(400)]
_EXPANSIONS = 60


def reference_kernel() -> int:
    """Seeded best-first search over (node, tag-set) states; returns a checksum.

    Dict lookups, frozenset building and hashing and heap operations: the
    kind of work the planner does.  The graph and the expansion budget are
    fixed, so every call does the same operations.
    """
    best = {}
    heap: List[Tuple[float, int, int, frozenset]] = [(0.0, 0, 0, frozenset())]
    pushed = 1
    expanded = 0
    checksum = 0
    while heap and expanded < _EXPANSIONS:
        cost, _, node, props = heapq.heappop(heap)
        key = (node, props)
        if best.get(key, float("inf")) <= cost:
            continue
        best[key] = cost
        expanded += 1
        checksum = (checksum * 31 + node + len(props)) % 1_000_000_007
        for nxt, weight in _SUCC[node]:
            merged = props | _TAGS[nxt]
            if len(merged) > 5:
                merged = frozenset(sorted(merged)[:5])
            heapq.heappush(heap, (cost + weight, pushed, nxt, merged))
            pushed += 1
    return checksum


class Region(NamedTuple):
    """A timed region: its wall-clock bounds and its time net of probe ticks."""

    start: float
    end: float
    net: float


class HostProbe:
    """Samples host speed with the reference kernel while a process works.

    Use as a context manager around everything the process measures, time
    regions with :meth:`timed`, which subtracts the probe's own time, and
    scale them afterwards with :meth:`normalize`.
    """

    def __init__(self) -> None:
        #: (time the tick started, cache-warm kernel seconds) per tick.
        self.samples: List[Tuple[float, float]] = []
        self.spent = 0.0
        self._previous = None

    def __enter__(self) -> HostProbe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        # The cyclic collector is paused meanwhile: its cost depends on what
        # the planner has allocated, not on the host.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_kernel()
        mid = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((start, end - mid))
        self.spent += end - start

    def timed(self, region: Callable[[], object]) -> Tuple[object, Region]:
        """Run ``region``; return its result and its :class:`Region`."""
        spent = self.spent
        start = time.perf_counter()
        result = region()
        end = time.perf_counter()
        return result, Region(start, end, end - start - (self.spent - spent))

    def normalize(self, region: Region) -> float:
        """``region``'s net time on the nominal host's scale."""
        return normalize(region, self.samples)


def near_samples(region: Region, samples: Sequence[Tuple[float, float]]) -> List[float]:
    """Kernel times of the ticks within :data:`WINDOW_S` of ``region``."""
    near = [s for t, s in samples if region.start - WINDOW_S <= t <= region.end + WINDOW_S]
    return near if len(near) >= MIN_NEAR else [s for _, s in samples]


def normalize(region: Region, samples: Sequence[Tuple[float, float]]) -> float:
    """``region.net`` scaled by ``REF_NOMINAL_S`` over the nearby ticks' harmonic mean."""
    return region.net * REF_NOMINAL_S / statistics.harmonic_mean(near_samples(region, samples))
