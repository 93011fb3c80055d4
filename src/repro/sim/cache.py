"""Set-associative cache model.

The building block for every level of the simulated hierarchy and for the
Dinero-like associativity study.  Addresses are handled at cache-line
granularity: callers pass *line numbers* (byte address >> log2(line)).

Replacement policies: LRU (the paper's assumption throughout), FIFO,
MRU and RANDOM are provided -- the paper notes (Section 2.1) that an MRC
is policy-dependent, and the extra policies let tests and ablations
demonstrate exactly that.

Partitioning support: a cache can be restricted to a subset of its sets
via ``allowed_sets`` masks per requestor, which is how page-coloring
partitions materialize at the cache (see :mod:`repro.sim.coloring`).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["CacheConfig", "SetAssociativeCache", "REPLACEMENT_POLICIES"]

REPLACEMENT_POLICIES = ("lru", "fifo", "mru", "random")


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of a single cache.

    Args:
        size_bytes: total capacity.
        line_size: bytes per line.
        associativity: ways per set; use ``fully_associative`` for one set.
        replacement: one of :data:`REPLACEMENT_POLICIES`.
    """

    size_bytes: int
    line_size: int
    associativity: int
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_size <= 0 or self.associativity <= 0:
            raise ValueError("cache dimensions must be positive")
        if self.size_bytes % (self.line_size * self.associativity) != 0:
            raise ValueError(
                f"size {self.size_bytes} does not divide into "
                f"{self.associativity}-way sets of {self.line_size}B lines"
            )
        if self.replacement not in REPLACEMENT_POLICIES:
            raise ValueError(
                f"unknown replacement {self.replacement!r}; "
                f"options: {REPLACEMENT_POLICIES}"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity

    @classmethod
    def fully_associative(
        cls, size_bytes: int, line_size: int, replacement: str = "lru"
    ) -> "CacheConfig":
        return cls(
            size_bytes=size_bytes,
            line_size=line_size,
            associativity=size_bytes // line_size,
            replacement=replacement,
        )


class SetAssociativeCache:
    """A set-associative cache over line numbers.

    Each set is an :class:`collections.OrderedDict` from line number to
    ``None``; ordering encodes recency (last = most recent) or insertion
    order (FIFO).  Lookups, promotions and evictions are all O(1).

    The sets and the RANDOM policy's RNG are built on first use
    (:meth:`__getattr__`): the native engine adopts a cache Python never
    touched as zero arrays, so most machines never build them at all.
    """

    _sets: List["OrderedDict[int, None]"]
    _rng: random.Random

    def __init__(self, config: CacheConfig, seed: int = 0):
        self.config = config
        self._seed = seed

    def __getattr__(self, name: str):
        # Called only while the attribute is missing, so a built set
        # list or RNG is a plain instance attribute from then on.
        if name == "_sets":
            value = [OrderedDict() for _ in range(self.config.num_sets)]
        elif name == "_rng":
            value = random.Random(self._seed)
        else:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        setattr(self, name, value)
        return value

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
            self._promote(bucket, line)
            return True, None
        return False, self._fill(bucket, line)

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if present.  Returns True if it was resident."""
        bucket = self._sets[self.set_index(line)]
        if line in bucket:
            del bucket[line]
            return True
        return False

    # -- internals -----------------------------------------------------------

    def _promote(self, bucket: "OrderedDict[int, None]", line: int) -> None:
        if self.config.replacement in ("lru", "mru"):
            bucket.move_to_end(line)
        # FIFO and RANDOM do not reorder on hit.

    def _fill(self, bucket: "OrderedDict[int, None]", line: int) -> Optional[int]:
        victim = None
        if len(bucket) >= self.config.associativity:
            victim = self._choose_victim(bucket)
            del bucket[victim]
        bucket[line] = None
        return victim

    def _choose_victim(self, bucket: "OrderedDict[int, None]") -> int:
        policy = self.config.replacement
        if policy in ("lru", "fifo"):
            return next(iter(bucket))
        if policy == "mru":
            return next(reversed(bucket))
        # random
        keys = list(bucket)
        return keys[self._rng.randrange(len(keys))]

    # -- introspection ----------------------------------------------------------

    @property
    def occupancy(self) -> int:
        return sum(len(bucket) for bucket in self._sets)

    def set_occupancy(self, set_index: int) -> int:
        return len(self._sets[set_index])
