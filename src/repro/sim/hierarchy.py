"""The composed memory hierarchy: per-core L1Ds, shared L2, victim L3.

This is the machine the experiments run on.  Each core has a private
write-through L1 data cache; the cores share one L2 and one off-chip L3
victim cache (paper Table 1).  Only the data stream is simulated:
RapidMRC samples L1D misses, and no workload issues instruction fetches.
Accesses are *physical* line numbers -- translation and page coloring
happen upstream in :class:`repro.sim.memory.PageAllocator`, so
partitioning needs no special support here: a colored process simply
never touches sets outside its colors.

Hardware prefetching is driven from the core side
(:class:`repro.runner.driver.Process` owns the stream prefetcher and
feeds it the access stream); the hierarchy only exposes
:meth:`MemoryHierarchy.prefetch_fill` for installing prefetched lines.
Keeping the prefetcher on the virtual access stream ensures prefetches
respect the process's page colors, as real per-page streams do.

Every access returns an :class:`AccessResult` describing what happened at
each level; the PMU model (:mod:`repro.pmu`) and the runners consume
these events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.obs import get_telemetry
from repro.sim.cache import CacheConfig, SetAssociativeCache
from repro.sim.machine import MachineConfig
from repro.sim.victim import VictimCache

__all__ = ["AccessResult", "CoreCounters", "MemoryHierarchy"]


@dataclass
class AccessResult:
    """What one demand access did at each level of the hierarchy.

    ``prefetched_lines`` lists the line numbers the core's prefetcher
    fetched as a side effect of this access (empty for most accesses).
    """

    core: int
    line: int
    is_store: bool = False
    l1_hit: bool = False
    l2_hit: bool = False
    l3_hit: bool = False
    memory_access: bool = False
    prefetched_lines: List[int] = field(default_factory=list)

    @property
    def l1_miss(self) -> bool:
        return not self.l1_hit

    @property
    def l2_miss(self) -> bool:
        """Demand L2 miss (only meaningful when the L1 missed)."""
        return self.l1_miss and not self.l2_hit


@dataclass
class CoreCounters:
    """Per-core event counters (what the PMU's PMCs would count)."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    l1d_misses: int = 0
    l2_demand_accesses: int = 0
    l2_demand_misses: int = 0
    l3_hits: int = 0
    memory_accesses: int = 0

    def mpki(self) -> float:
        """L2 demand misses per kilo-instruction over the counted window."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.l2_demand_misses / self.instructions

    def reset(self) -> None:
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.l1d_misses = 0
        self.l2_demand_accesses = 0
        self.l2_demand_misses = 0
        self.l3_hits = 0
        self.memory_accesses = 0

    def snapshot(self) -> "CoreCounters":
        return CoreCounters(
            instructions=self.instructions,
            loads=self.loads,
            stores=self.stores,
            l1d_misses=self.l1d_misses,
            l2_demand_accesses=self.l2_demand_accesses,
            l2_demand_misses=self.l2_demand_misses,
            l3_hits=self.l3_hits,
            memory_accesses=self.memory_accesses,
        )


class MemoryHierarchy:
    """L1Ds + shared L2 + victim L3.

    Args:
        machine: machine geometry.
        num_cores: cores sharing the L2 (2 per POWER5 chip).
    """

    def __init__(
        self,
        machine: MachineConfig,
        num_cores: int = 1,
    ):
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.machine = machine
        self.num_cores = num_cores

        def l1d() -> SetAssociativeCache:
            return SetAssociativeCache(
                CacheConfig(
                    size_bytes=machine.l1d_size,
                    line_size=machine.line_size,
                    associativity=machine.l1d_assoc,
                )
            )

        self.l1d = [l1d() for _ in range(num_cores)]
        self.l2 = SetAssociativeCache(
            CacheConfig(
                size_bytes=machine.l2_size,
                line_size=machine.line_size,
                associativity=machine.l2_assoc,
            )
        )
        self.l3 = VictimCache(
            size_bytes=machine.l3_size,
            line_size=machine.l3_line_size,
            associativity=machine.l3_assoc,
            l2_line_size=machine.line_size,
        )
        self.counters = [CoreCounters() for _ in range(num_cores)]
        # The native engine's session while it holds this machine's cache
        # sets (repro.sim.native.NativeSession); every method below that
        # touches them hands them back first.
        self._native = None

    # -- counters ------------------------------------------------------------

    def reset_counters(self) -> None:
        for counter in self.counters:
            counter.reset()

    def _publish_core(self, registry, core: int, counters: CoreCounters) -> None:
        for name, value in (
            ("sim.instructions", counters.instructions),
            ("sim.loads", counters.loads),
            ("sim.stores", counters.stores),
            ("sim.l1d_misses", counters.l1d_misses),
            ("sim.l2_demand_accesses", counters.l2_demand_accesses),
            ("sim.l2_demand_misses", counters.l2_demand_misses),
            ("sim.l3_hits", counters.l3_hits),
            ("sim.memory_accesses", counters.memory_accesses),
        ):
            if value:
                registry.counter(name, core=core).inc(value)
        registry.gauge("sim.mpki", core=core).set(counters.mpki())

    def publish_telemetry(self) -> None:
        """Publish every core's accumulated counters to the registry.

        One-shot batched publication (never per access): counter values
        become ``sim.*`` counter increments and each core's MPKI a
        ``sim.mpki`` gauge.  No-op under the null telemetry.
        """
        telemetry = get_telemetry()
        if not telemetry.enabled:
            return
        for core, counters in enumerate(self.counters):
            self._publish_core(telemetry.registry, core, counters)

    def harvest_interval(self, core: int) -> float:
        """Read one core's interval MPKI, publish its counters, reset.

        The dynamic manager's measurement loop: equivalent to
        ``counters[core].mpki()`` followed by ``counters[core].reset()``,
        but also feeds the telemetry registry (batched ``sim.*`` counter
        deltas and the live ``sim.mpki`` gauge) along the way.
        """
        counters = self.counters[core]
        mpki = counters.mpki()
        telemetry = get_telemetry()
        if telemetry.enabled:
            self._publish_core(telemetry.registry, core, counters)
        counters.reset()
        return mpki

    # -- the access path ---------------------------------------------------------

    def access(self, core: int, line: int, is_store: bool = False) -> AccessResult:
        """Perform one demand data access to physical ``line`` from ``core``."""
        if self._native is not None:
            self._native.materialize("access")
        counters = self.counters[core]
        result = AccessResult(core=core, line=line, is_store=is_store)

        if is_store:
            counters.stores += 1
        else:
            counters.loads += 1

        l1 = self.l1d[core]
        hit, _ = l1.access(line)
        if hit:
            result.l1_hit = True
            if is_store:
                # Write-through: the store is forwarded to the L2; the line
                # is normally resident there (inclusive fill on miss path).
                self.l2.access(line)
            return result

        # L1D miss -> the access the PMU can observe.
        counters.l1d_misses += 1
        self._fetch_into_l2(core, line, result)
        return result

    def _fetch_into_l2(self, core: int, line: int, result: AccessResult) -> None:
        counters = self.counters[core]
        counters.l2_demand_accesses += 1
        l2_hit, victim = self.l2.access(line)
        if l2_hit:
            result.l2_hit = True
        else:
            counters.l2_demand_misses += 1
            if victim is not None:
                self.l3.insert_victim(victim)
            if self.l3.lookup(line):
                result.l3_hit = True
                counters.l3_hits += 1
            else:
                result.memory_access = True
                counters.memory_accesses += 1

    def prefetch_fill(self, core: int, line: int, install_l1: bool = True) -> None:
        """Install a prefetched line into the L2 (and optionally the
        core's L1D).  An L2-only install hides the would-be L2 miss but
        leaves the later demand L1 miss visible to the PMU."""
        if self._native is not None:
            self._native.materialize("prefetch_fill")
        if not self.l2.probe(line):
            _, victim = self.l2.access(line)
            if victim is not None:
                self.l3.insert_victim(victim)
            # Victim L3: a prefetch that finds its line in L3 consumes it.
            self.l3.lookup(line)
        if install_l1:
            self.l1d[core].access(line)
