"""Simulated commodity-machine substrate (POWER5-like).

The paper's measurements come from an IBM POWER5: private L1 I/D caches,
a shared 10-way 1.875 MB L2, an off-chip 36 MB victim L3, hardware stream
prefetchers, and a software page-coloring cache-partitioning mechanism.
This package reproduces that substrate as a trace-driven simulator:

- :mod:`repro.sim.machine` -- machine geometry (Table 1) and scaling.
- :mod:`repro.sim.cache` -- set-associative LRU caches.
- :mod:`repro.sim.victim` -- the L3 victim cache.
- :mod:`repro.sim.prefetcher` -- sequential stream prefetcher.
- :mod:`repro.sim.hierarchy` -- the composed L1/L2/L3 hierarchy.
- :mod:`repro.sim.memory` / :mod:`repro.sim.coloring` -- physical page
  allocation and page-color cache partitioning.
- :mod:`repro.sim.cpu` -- issue modes and their cycle-cost parameters.
"""

from repro.sim.cache import CacheConfig, SetAssociativeCache
from repro.sim.coloring import ColorMapper
from repro.sim.cpu import IssueMode
from repro.sim.hierarchy import AccessResult, MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator

__all__ = [
    "CacheConfig",
    "SetAssociativeCache",
    "ColorMapper",
    "IssueMode",
    "AccessResult",
    "MemoryHierarchy",
    "MachineConfig",
    "PageAllocator",
]
