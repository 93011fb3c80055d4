"""Off-chip L3 victim cache (paper Table 1 / Section 5.3).

The POWER5 L3 is a *victim* cache: it is filled by lines evicted from the
L2, not by demand fetches, and an L3 hit moves the line back up into the
L2.  Its 256-byte lines are twice the L2's 128-byte lines, so two
adjacent L2 lines share one L3 line; the model converts line numbers
accordingly.

Section 5.3 disables the L3 entirely for two of the three partitioning
workloads (its 36 MB swallowed the working sets); a ``VictimCache`` built
from a zero-size config reports that it is disabled and ignores traffic.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.cache import CacheConfig, SetAssociativeCache

__all__ = ["VictimCache"]


class VictimCache:
    """L3 victim cache over *L2-granularity* line numbers.

    Args:
        size_bytes: capacity; 0 disables the cache.
        line_size: L3 line size in bytes (256 on POWER5).
        associativity: ways per set.
        l2_line_size: the upstream L2 line size, used to convert between
            L2 and L3 line numbering.
    """

    def __init__(
        self,
        size_bytes: int,
        line_size: int,
        associativity: int,
        l2_line_size: int,
    ):
        self.enabled = size_bytes > 0
        if line_size % l2_line_size != 0:
            raise ValueError("L3 line size must be a multiple of the L2's")
        self._ratio = line_size // l2_line_size
        self._cache: Optional[SetAssociativeCache] = None
        if self.enabled:
            self._cache = SetAssociativeCache(
                CacheConfig(
                    size_bytes=size_bytes,
                    line_size=line_size,
                    associativity=associativity,
                )
            )

    def _l3_line(self, l2_line: int) -> int:
        return l2_line // self._ratio

    def lookup(self, l2_line: int) -> bool:
        """Probe for an L2 miss.  On a hit the line is *consumed* (victim
        caches hand the line back to the L2)."""
        if not self.enabled or self._cache is None:
            return False
        return self._cache.invalidate(self._l3_line(l2_line))

    def insert_victim(self, l2_line: int) -> None:
        """Accept a line evicted from the L2."""
        if not self.enabled or self._cache is None:
            return
        self._cache.access(self._l3_line(l2_line))

    @property
    def occupancy(self) -> int:
        return 0 if self._cache is None else self._cache.occupancy
