"""The process abstraction: a workload executing on the simulated machine.

A :class:`Process` owns a workload's access stream, its page-table slice
in the shared :class:`~repro.sim.memory.PageAllocator`, a core id, and a
virtual cycle clock that each access advances by its cost under the
process's :class:`~repro.sim.cpu.IssueMode`.  The co-run scheduler uses
the clocks to interleave processes the way real time would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from repro.sim.cpu import IssueMode
from repro.sim.hierarchy import AccessResult, MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.prefetcher import (
    L1_INSTALL_PROBABILITY,
    LATE_PROBABILITY,
    PrefetcherConfig,
    StreamPrefetcher,
)
from repro.workloads.base import MemoryAccess, Workload

__all__ = ["Process", "drive"]


class Process:
    """One application instance bound to a core and a color set.

    Args:
        pid: process id (also the page-allocator namespace).
        workload: the application model.
        core: core index within the shared hierarchy.
        allocator: the machine's page allocator (shared across processes).
        colors: partition colors this process may use; ``None`` means
            unrestricted (uncontrolled sharing).
        issue_mode: complex or simplified (Section 5.2.8); feeds the
            per-access cycle cost.
        prefetcher: the core's stream-prefetcher settings.  It watches
            the *virtual* miss stream and translates each prefetch
            through the process's page table, so prefetched lines always
            land in the process's own partition colors (real per-page
            streams behave the same way).  ``PrefetcherConfig(
            enabled=False)`` models the "No prefetch" modes.
        seed_offset: decorrelates access streams of identical workloads
            (the 3 applu instances of Section 5.3).
    """

    def __init__(
        self,
        pid: int,
        workload: Workload,
        core: int,
        allocator: PageAllocator,
        colors: Optional[Sequence[int]] = None,
        issue_mode: IssueMode = IssueMode.COMPLEX,
        prefetcher: Optional[PrefetcherConfig] = None,
        seed_offset: int = 0,
    ):
        self.pid = pid
        self.workload = workload
        self.core = core
        self.allocator = allocator
        self.issue_mode = issue_mode
        if colors is not None:
            allocator.set_colors(pid, colors)
        self._seed_offset = seed_offset
        # Created lazily on first use so the batch engine can adopt a
        # never-pulled stream with native array generation instead of
        # wrapping a live iterator (repro.sim.fastsim redirects this
        # through its BatchAccessSource either way).
        self._stream: Optional[Iterator[MemoryAccess]] = None
        self.machine = allocator.machine
        self.prefetcher = StreamPrefetcher(prefetcher or PrefetcherConfig())
        self._pf_rng = random.Random(f"prefetch/{pid}/{seed_offset}")
        self.instructions = 0
        self.accesses = 0
        self.cycles = 0.0
        self._ipa = workload.instructions_per_access
        self._base_cost = issue_mode.base_cpi * self._ipa
        self._expose = issue_mode.overlap_factor
        self._line_size = self.machine.line_size
        self._page_size = self.machine.page_size
        self._lines_per_page = self._page_size // self._line_size
        # Hot-path bindings: the per-access loop must not re-resolve these.
        self._page_table = allocator.page_table(pid)
        self._pf_random = self._pf_rng.random
        # Set by the batch engine when it adopts this process's stream;
        # scalar step() keeps working through it (see repro.sim.fastsim).
        self._fastsim_source = None
        # The native engine's session while it holds this process's
        # state (repro.sim.native.NativeSession).
        self._native = None

    def step(self, hierarchy: MemoryHierarchy) -> AccessResult:
        """Execute one access (plus its surrounding instructions)."""
        if self._native is not None:
            self._native.materialize("step")
        stream = self._stream
        if stream is None:
            stream = self._stream = self.workload.accesses(self._seed_offset)
        access = next(stream)
        vaddr = access.vaddr
        vline = vaddr // self._line_size
        lines_per_page = self._lines_per_page
        table = self._page_table
        vpage, page_line = divmod(vline, lines_per_page)
        frame = table.get(vpage)
        # Unmapped (None) or stale (~frame < 0): frame_for maps it.
        translated = frame is None or frame < 0
        if translated:
            frame = self.allocator.frame_for(self.pid, vpage)
        result = hierarchy.access(
            self.core, frame * lines_per_page + page_line,
            is_store=access.is_store,
        )
        if result.l1_miss:
            pf_random = self._pf_random
            for pf_vline in self.prefetcher.observe_miss(vline):
                pf_vpage, pf_page_line = divmod(pf_vline, lines_per_page)
                pf_frame = table.get(pf_vpage)
                if pf_frame is None or pf_frame < 0:
                    pf_frame = self.allocator.frame_for(self.pid, pf_vpage)
                    translated = True
                pf_line = pf_frame * lines_per_page + pf_page_line
                # Every *request* is visible to the PMU (stale entries);
                # late prefetches install nothing, timely ones always
                # reach the L2 and sometimes the L1.
                result.prefetched_lines.append(pf_line)
                if pf_random() < LATE_PROBABILITY:
                    continue
                install_l1 = pf_random() < L1_INSTALL_PROBABILITY
                hierarchy.prefetch_fill(self.core, pf_line, install_l1=install_l1)
        hierarchy.counters[self.core].instructions += self._ipa
        self.instructions += self._ipa
        self.accesses += 1
        self.cycles += self._base_cost + self._penalty(result, hierarchy.machine)
        if translated:
            # A page a resize marked stale migrates on its next touch;
            # the cycles are charged to the access that migrated.
            self.cycles += self.allocator.take_migration_debt(self.pid)
        return result

    def _penalty(self, result: AccessResult, machine: MachineConfig) -> float:
        if result.l1_hit:
            return 0.0
        if result.l2_hit:
            return self._expose * machine.l2_latency
        if result.l3_hit:
            return self._expose * machine.l3_latency
        return self._expose * machine.memory_latency

    @property
    def ipc(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    def reset_metrics(self) -> None:
        """Zero the process-side counters (cycle clock keeps running so
        co-run interleaving stays fair across measurement windows)."""
        self.instructions = 0
        self.accesses = 0


def drive(
    process: Process,
    hierarchy: MemoryHierarchy,
    num_accesses: int,
    observer: Optional[Callable[[AccessResult], None]] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> int:
    """Run one process alone for ``num_accesses`` accesses.

    Args:
        observer: optional callback fed every :class:`AccessResult`
            (this is how the PMU trace collector attaches).
        stop: optional early-exit predicate checked between accesses
            (e.g. 'trace log full').

    Returns:
        The number of accesses actually executed.
    """
    step = process.step
    if observer is None and stop is None:
        for done in range(num_accesses):
            step(hierarchy)
        return num_accesses
    executed = 0
    for _ in range(num_accesses):
        result = step(hierarchy)
        executed += 1
        if observer is not None:
            observer(result)
        if stop is not None and stop():
            break
    return executed

