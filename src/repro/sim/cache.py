"""Set-associative LRU cache model.

The building block for every level of the simulated hierarchy and for the
Dinero-like associativity study.  Addresses are handled at cache-line
granularity: callers pass *line numbers* (byte address >> log2(line)).

Every cache replaces its least recently used line, the paper's
assumption throughout: the Mattson stack that RapidMRC builds its curves
on models LRU (Section 3.2).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["CacheConfig", "SetAssociativeCache"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a single cache.

    Args:
        size_bytes: total capacity.
        line_size: bytes per line.
        associativity: ways per set; use ``fully_associative`` for one set.
    """

    size_bytes: int
    line_size: int
    associativity: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_size <= 0 or self.associativity <= 0:
            raise ValueError("cache dimensions must be positive")
        if self.size_bytes % (self.line_size * self.associativity) != 0:
            raise ValueError(
                f"size {self.size_bytes} does not divide into "
                f"{self.associativity}-way sets of {self.line_size}B lines"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    @classmethod
    def fully_associative(cls, size_bytes: int, line_size: int) -> "CacheConfig":
        return cls(
            size_bytes=size_bytes,
            line_size=line_size,
            associativity=size_bytes // line_size,
        )


class SetAssociativeCache:
    """A set-associative cache over line numbers.

    Each set is an :class:`collections.OrderedDict` from line number to
    ``None``; ordering encodes recency (last = most recent).  Lookups,
    promotions and evictions are all O(1).

    The sets are built on first use (:meth:`__getattr__`): the native
    engine adopts a cache Python never touched as zero arrays, so most
    machines never build them at all.
    """

    _sets: List["OrderedDict[int, None]"]

    def __init__(self, config: CacheConfig):
        self.config = config

    def __getattr__(self, name: str):
        # Called only while the attribute is missing, so a built set
        # list is a plain instance attribute from then on.
        if name != "_sets":
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self._sets = [OrderedDict() for _ in range(self.config.num_sets)]
        return self._sets

    @property
    def touched(self) -> bool:
        """Whether the sets were ever built (an untouched cache is empty)."""
        return "_sets" in self.__dict__

    # -- mapping ---------------------------------------------------------------

    def set_index(self, line: int) -> int:
        return line % self.config.num_sets

    # -- operations --------------------------------------------------------------

    def probe(self, line: int) -> bool:
        """Check residency without updating recency."""
        return line in self._sets[self.set_index(line)]

    def access(self, line: int) -> Tuple[bool, Optional[int]]:
        """Look up ``line``, promoting it on a hit and filling it on a
        miss -- the one operation demand accesses, store forwards,
        prefetch installs and victim insertions all make.

        Returns:
            ``(hit, victim_line)`` -- ``victim_line`` is the line evicted
            to make room, or ``None`` when the access hit or the set had
            a free way.
        """
        bucket = self._sets[self.set_index(line)]
        if line in bucket:
            bucket.move_to_end(line)
            return True, None
        victim = None
        if len(bucket) >= self.config.associativity:
            victim = next(iter(bucket))
            del bucket[victim]
        bucket[line] = None
        return False, victim

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if present.  Returns True if it was resident."""
        bucket = self._sets[self.set_index(line)]
        if line in bucket:
            del bucket[line]
            return True
        return False

    # -- introspection ----------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def set_occupancy(self, set_index: int) -> int:
        return len(self._sets[set_index])
