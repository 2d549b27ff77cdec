"""Distributed-tensor properties (the vocabulary of the background theory).

Following Sec. 4.2 of the paper, the semantics of a distributed program are a
set of *properties* of the form ``e | I``: executing instruction ``I`` on the
distributed tensor recovers the reference tensor ``e`` of the single-device
graph on every device.  Exactly three property shapes arise:

* ``e | Identity``      — every device holds a full replica of ``e``;
* ``e | All-Gather(d)`` — every device holds a shard of ``e`` along dim ``d``;
* ``e | All-Reduce``    — every device holds a partial value whose sum is ``e``.

We encode them as a :class:`DistState` (replicated / sharded(d) / partial)
attached to a reference-tensor name, the pair being a :class:`Property`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional, Tuple


class StateKind(Enum):
    """How a distributed tensor relates to its reference tensor."""

    REPLICATED = "replicated"  # e | Identity
    SHARDED = "sharded"        # e | All-Gather(dim)
    PARTIAL = "partial"        # e | All-Reduce


class CachedHash:
    """Mixin of the frozen dataclasses that cache their hash in ``_hash``.

    A subclass's ``__post_init__`` sets ``_hash`` to ``None`` and its
    ``__hash__`` computes the hash on first use.  ``hash()`` of a string or
    an enum member depends on the process's hash seed, so the pickled state
    carries ``None`` in its place: an unpickled object, too, computes its
    hash on first use, and loading does no per-object work.
    """

    __slots__ = ()

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_hash"] = None
        return state


@dataclass(frozen=True)
class DistState:
    """Distribution state of one tensor (kind + optional shard dimension)."""

    kind: StateKind
    dim: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind is StateKind.SHARDED and (self.dim is None or self.dim < 0):
            raise ValueError("sharded state requires a non-negative dimension")
        if self.kind is not StateKind.SHARDED and self.dim is not None:
            raise ValueError(f"{self.kind.value} state must not carry a dimension")
        # States are hashed millions of times by the synthesizer's dominance
        # tables; precompute the (immutable) hash once.
        object.__setattr__(self, "_hash", hash((self.kind, self.dim)))

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self):
        # Unpickle to this process's interned state, whose hash is this
        # process's: a pickled hash is only valid under the writer's hash seed.
        return (_interned_state, (self.kind, self.dim))

    # -- convenience constructors ------------------------------------------
    @staticmethod
    def replicated() -> DistState:
        return _REPLICATED

    @staticmethod
    def partial() -> DistState:
        return _PARTIAL

    @staticmethod
    def sharded(dim: int) -> DistState:
        state = _SHARDED.get(dim)
        if state is None:
            state = _SHARDED[dim] = DistState(StateKind.SHARDED, dim)
        return state

    @property
    def sort_key(self) -> Tuple[int, int]:
        """Name- and hash-seed-free order: kind (declaration order), then dim."""
        return (_KIND_RANK[self.kind], -1 if self.dim is None else self.dim)

    # -- predicates ----------------------------------------------------------
    @property
    def is_replicated(self) -> bool:
        return self.kind is StateKind.REPLICATED

    @property
    def is_sharded(self) -> bool:
        return self.kind is StateKind.SHARDED

    @property
    def is_partial(self) -> bool:
        return self.kind is StateKind.PARTIAL

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_sharded:
            return f"all-gather({self.dim})"
        if self.is_partial:
            return "all-reduce"
        return "identity"


_KIND_RANK = {kind: rank for rank, kind in enumerate(StateKind)}
_REPLICATED = DistState(StateKind.REPLICATED)
_PARTIAL = DistState(StateKind.PARTIAL)
#: one ``sharded(dim)`` state per dim, so the convenience constructors return
#: one object per value and states may be compared with ``is``
_SHARDED: Dict[int, DistState] = {}


def _interned_state(kind: StateKind, dim: Optional[int]) -> DistState:
    """The interned state of ``(kind, dim)`` (how a pickled state loads)."""
    if kind is StateKind.SHARDED:
        return DistState.sharded(dim)  # type: ignore[arg-type]
    return _REPLICATED if kind is StateKind.REPLICATED else _PARTIAL


@dataclass(frozen=True)
class Property(CachedHash):
    """``ref | state``: a reference tensor held in a particular distribution."""

    ref: str
    state: DistState

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", None)

    def __hash__(self) -> int:
        value = self._hash  # type: ignore[attr-defined]
        if value is None:  # first use (see CachedHash)
            value = hash((self.ref, self.state))
            object.__setattr__(self, "_hash", value)
        return value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.ref} | {self.state}"


def replicated(ref: str) -> Property:
    """Property ``ref | Identity``."""
    return Property(ref, DistState.replicated())


def partial(ref: str) -> Property:
    """Property ``ref | All-Reduce``."""
    return Property(ref, DistState.partial())


def sharded(ref: str, dim: int) -> Property:
    """Property ``ref | All-Gather(dim)``."""
    return Property(ref, DistState.sharded(dim))


PropertySet = frozenset
