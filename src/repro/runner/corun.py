"""Multiprogrammed co-runs on the shared L2 (paper Section 5.3).

Two or more processes share the simulated L2, either *uncontrolled*
(every process may use every color -- the paper's baseline) or
*partitioned* (disjoint color sets chosen by the selector).  Processes
are interleaved by their virtual cycle clocks: at every step the process
that is least far along in time executes, so a process slowed by misses
naturally issues fewer accesses per unit time, exactly like time-shared
cores.

The headline metric matches Figure 7: per-application average IPC,
normalized to the uncontrolled-sharing configuration (in %).  The
multiprogrammed run ends when any one application completes its quota
('terminated as soon as one of the applications ended').
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.obs import get_telemetry
from repro.runner.driver import Process
from repro.sim.cpu import IssueMode
from repro.sim.fastsim import NativeCorun, record_drive
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.native import native_available
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.base import Workload

__all__ = [
    "CorunSpec",
    "CorunResult",
    "corun",
    "native_runner",
    "normalized_ipc",
    "run_leg",
]


@dataclass(frozen=True)
class CorunSpec:
    """One process slot in a co-run.

    Args:
        workload: the application model.
        colors: partition colors, or ``None`` for uncontrolled sharing.
        seed_offset: decorrelates identical workloads (3x applu).
    """

    workload: Workload
    colors: Optional[Sequence[int]] = None
    seed_offset: int = 0


@dataclass
class CorunResult:
    """Per-application outcomes of one multiprogrammed run."""

    names: List[str]
    ipc: List[float]
    mpki: List[float]
    instructions: List[int]
    accesses: List[int]


def corun(
    specs: Sequence[CorunSpec],
    machine: MachineConfig,
    quota_accesses: int,
    warmup_accesses: int = 0,
    issue_mode: IssueMode = IssueMode.COMPLEX,
    prefetch_enabled: bool = True,
) -> CorunResult:
    """Run the processes together until one exhausts its access quota.

    Args:
        specs: one entry per process; each gets its own core (private
            L1s), all share the L2/L3.
        quota_accesses: per-process access budget; the run stops when the
            first process reaches it (paper: runs terminate when one
            application ends).
        warmup_accesses: per-process accesses executed (interleaved)
            before metrics are reset, to reach cache steady state.
    """
    if not specs:
        raise ValueError("need at least one process")
    if quota_accesses <= 0:
        raise ValueError("quota must be positive")

    hierarchy = MemoryHierarchy(machine, num_cores=len(specs))
    allocator = PageAllocator(machine)
    processes: List[Process] = []
    for index, spec in enumerate(specs):
        processes.append(
            Process(
                pid=index,
                workload=spec.workload,
                core=index,
                allocator=allocator,
                colors=spec.colors,
                issue_mode=issue_mode,
                prefetcher=PrefetcherConfig(enabled=prefetch_enabled),
                seed_offset=spec.seed_offset,
            )
        )

    runner, reason = native_runner(processes, hierarchy)
    if reason is not None:
        get_telemetry().registry.counter(
            "sim.batch_fallbacks", reason=reason
        ).inc()

    if warmup_accesses > 0:
        run_leg(processes, hierarchy, runner, warmup_accesses)
        hierarchy.reset_counters()
        for process in processes:
            process.reset_metrics()
        # Cycle clocks are *not* reset: fairness carries over; but IPC
        # accounting below uses deltas.
        cycle_base = [p.cycles for p in processes]
    else:
        cycle_base = [0.0] * len(processes)

    run_leg(processes, hierarchy, runner, quota_accesses)

    ipc: List[float] = []
    mpki: List[float] = []
    for index, process in enumerate(processes):
        window_cycles = process.cycles - cycle_base[index]
        ipc.append(
            process.instructions / window_cycles if window_cycles > 0 else 0.0
        )
        mpki.append(hierarchy.counters[index].mpki())
    return CorunResult(
        names=[spec.workload.name for spec in specs],
        ipc=ipc,
        mpki=mpki,
        instructions=[p.instructions for p in processes],
        accesses=[p.accesses for p in processes],
    )


def native_runner(
    processes: Sequence[Process], hierarchy: MemoryHierarchy,
) -> Tuple[Optional[NativeCorun], Optional[str]]:
    """``(runner, None)`` when the native engine loads, else ``(None,
    "native_unavailable")``: with a runner the whole interleave runs
    inside one C call per leg instead of the scalar heap."""
    if not native_available():
        return None, "native_unavailable"
    return NativeCorun(processes, hierarchy), None


def run_leg(
    processes: Sequence[Process],
    hierarchy: MemoryHierarchy,
    runner: Optional[NativeCorun],
    target_extra: int,
) -> None:
    """Advance processes clock-fairly until one executes ``target_extra``
    more accesses than it had when this call began: on ``runner`` (see
    :func:`native_runner`), or on the scalar heap when it is None.  The
    accesses count under the engine that ran them."""
    started = time.perf_counter()
    start = [p.accesses for p in processes]
    if runner is not None:
        runner.run_until(start, target_extra)
    else:
        _scalar_leg(processes, hierarchy, start, target_extra)
    record_drive(
        "native" if runner is not None else "scalar",
        sum(p.accesses for p in processes) - sum(start), started,
    )


def _scalar_leg(processes, hierarchy, start, target_extra: int) -> None:
    """The reference interleave: a min-heap on (cycles, index) always
    steps the least-advanced process in virtual time."""
    heap: List[Tuple[float, int]] = [
        (p.cycles, i) for i, p in enumerate(processes)
    ]
    heapq.heapify(heap)
    while heap:
        _cycles, index = heapq.heappop(heap)
        process = processes[index]
        process.step(hierarchy)
        if process.accesses - start[index] >= target_extra:
            return
        heapq.heappush(heap, (process.cycles, index))


def normalized_ipc(result: CorunResult, baseline: CorunResult) -> List[float]:
    """Per-application IPC as a percentage of the baseline run's
    (Figure 7's 'Normalized Avg IPC (%)')."""
    if result.names != baseline.names:
        raise ValueError("runs being compared contain different applications")
    normalized: List[float] = []
    for value, base in zip(result.ipc, baseline.ipc):
        normalized.append(100.0 * value / base if base > 0 else 0.0)
    return normalized
