"""Pareto-front store for the synthesizer's dominance tables.

The A* search of Fig. 10 keeps, for every distinct search-state key, the set
of per-device accumulated cost vectors that are not dominated by any other
known partial program with the same state.  The seed implementation stored a
flat list per key and scanned it in full for every generated child.  This
module provides :class:`ParetoFront`, an equivalent store that keeps the
vectors sorted by their coordinate sum and uses two observations to cut the
scans short:

* a vector ``e`` can only dominate ``v`` (``e_i <= v_i + eps`` for all ``i``)
  if ``sum(e) <= sum(v) + m * eps``, so the dominance scan stops at the first
  stored vector whose sum exceeds that bound;
* symmetrically, ``v`` can only dominate stored vectors whose sum is at least
  ``sum(v) - m * eps``, so the pruning pass skips the cheap prefix entirely.

The dominance predicate itself — including the tolerance — is exactly the
predicate of the flat-list implementation, so the accept/reject decisions (and
therefore the synthesized program) are identical; only the work per decision
shrinks from ``O(front)`` comparisons to ``O(log front + candidates)``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import List, Tuple

Vector = Tuple[float, ...]


class ParetoFront:
    """Mutable set of mutually undominated cost vectors of equal length."""

    __slots__ = ("eps", "_entries")

    def __init__(self, eps: float = 1e-12) -> None:
        self.eps = eps
        #: (sum, vector) pairs sorted by sum (ties keep insertion order).
        self._entries: List[Tuple[float, Vector]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def vectors(self) -> List[Vector]:
        """The current undominated vectors (sorted by coordinate sum)."""
        return [vec for _, vec in self._entries]

    def insert(self, vector: Vector) -> bool:
        """Add ``vector`` unless dominated; prune what it dominates.

        Returns:
            False if an existing vector dominates ``vector`` (the store is
            unchanged), True if ``vector`` was inserted (dominated incumbents
            are removed).
        """
        entries = self._entries
        eps = self.eps
        vsum = sum(vector)
        slack = eps * len(vector)
        # 1. is the new vector dominated?  Only entries with sum <= vsum+slack
        # can dominate it.  (Manual loops: this is the synthesizer's innermost
        # hot spot, and generator-based all() costs ~3x as much.)
        bound = vsum + slack
        for esum, evec in entries:
            if esum > bound:
                break
            for x, y in zip(evec, vector):
                if x > y + eps:
                    break
            else:
                return False
        # 2. prune entries dominated by the new vector.  Only entries with
        # sum >= vsum - slack can be dominated by it.
        lo = bisect_left(entries, (vsum - slack,))
        if lo < len(entries):
            keep = entries[:lo]
            for entry in entries[lo:]:
                evec = entry[1]
                for x, y in zip(vector, evec):
                    if x > y + eps:
                        keep.append(entry)
                        break
            entries = keep
            self._entries = entries
        insort(entries, (vsum, vector))
        return True

