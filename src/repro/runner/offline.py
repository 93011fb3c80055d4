"""Exhaustive offline real-MRC measurement (paper Section 5.2.1).

'To obtain the real MRCs, we used an exhaustive offline method combined
with our software-based cache partitioning mechanism: for each of the
possible 16 cache sizes, the application was executed while using the
processor PMU to measure the L2 cache miss rate.'

:func:`real_mrc` does exactly that against the simulated machine: one
run per size with the page allocator confined to the first ``k`` colors,
a hierarchy warm-up period, then a measured window.  :func:`mpki_timeline`
produces the per-interval miss-rate series behind Figure 2a.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.mrc import MissRateCurve
from repro.runner.driver import Process
from repro.runner.pool import get_pool
from repro.sim.cpu import IssueMode
from repro.sim.fastsim import drive_batch
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.base import Workload, shared_streams

__all__ = ["OfflineConfig", "real_mrc", "measure_mpki", "mpki_timeline"]


@dataclass(frozen=True)
class OfflineConfig:
    """Measurement windows for offline runs, in accesses.

    ``None`` values derive machine-relative defaults: warm-up long enough
    to populate the L2 several times over, and a measurement window an
    order of magnitude past that.
    """

    warmup_accesses: Optional[int] = None
    measure_accesses: Optional[int] = None
    issue_mode: IssueMode = IssueMode.COMPLEX
    prefetch_enabled: bool = True

    def resolved_warmup(self, machine: MachineConfig) -> int:
        if self.warmup_accesses is not None:
            return self.warmup_accesses
        return 8 * machine.l2_lines

    def resolved_measure(self, machine: MachineConfig) -> int:
        if self.measure_accesses is not None:
            return self.measure_accesses
        return 24 * machine.l2_lines


def _build_run(
    workload: Workload,
    machine: MachineConfig,
    colors: Optional[Sequence[int]],
    config: OfflineConfig,
    seed_offset: int = 0,
):
    hierarchy = MemoryHierarchy(machine, num_cores=1)
    allocator = PageAllocator(machine)
    process = Process(
        pid=0,
        workload=workload,
        core=0,
        allocator=allocator,
        colors=colors,
        issue_mode=config.issue_mode,
        prefetcher=PrefetcherConfig(enabled=config.prefetch_enabled),
        seed_offset=seed_offset,
    )
    return hierarchy, process


def measure_mpki(
    workload: Workload,
    machine: MachineConfig,
    colors: Sequence[int],
    config: OfflineConfig = OfflineConfig(),
    seed_offset: int = 0,
) -> float:
    """Measured L2 MPKI of ``workload`` confined to ``colors``.

    One simulated run: warm up the hierarchy (uncounted), then measure
    demand L2 misses per kilo-instruction over the measurement window --
    what the PMU's miss counters report on the real machine.
    """
    hierarchy, process = _build_run(workload, machine, colors, config, seed_offset)
    drive_batch(process, hierarchy, config.resolved_warmup(machine))
    hierarchy.reset_counters()
    drive_batch(process, hierarchy, config.resolved_measure(machine))
    mpki = hierarchy.counters[0].mpki()
    hierarchy.publish_telemetry()
    return mpki


def real_mrc(
    workload: Workload,
    machine: MachineConfig,
    config: OfflineConfig = OfflineConfig(),
    sizes: Optional[Sequence[int]] = None,
    seed_offset: int = 0,
    max_workers: Optional[int] = None,
) -> MissRateCurve:
    """The exhaustive offline real MRC: one run per partition size.

    Args:
        sizes: the partition sizes (in colors) to measure; defaults to
            every size ``1..num_colors``.
        max_workers: run the per-size measurements in parallel worker
            processes (the runs are fully independent, so the curve is
            identical to the sequential one).  ``None`` falls back to
            the process-wide ``--sim-workers`` default, then to the
            sequential in-process loop, which generates the stream once
            and replays it for every later size
            (:func:`~repro.workloads.base.shared_streams`).
    """
    chosen = list(sizes) if sizes is not None else list(
        range(1, machine.num_colors + 1)
    )
    points = {}
    pool = get_pool(max_workers)
    if pool is not None and len(chosen) > 1:
        # Worker runs are traced and their telemetry payloads fold back
        # into this process's registry, so the pooled run reports like
        # the sequential one.
        measured = pool.map_traced(
            measure_mpki,
            [
                (workload, machine, list(range(size)), config, seed_offset)
                for size in chosen
            ],
        )
        points = dict(zip(chosen, measured))
    else:
        # Every size runs the same stream (same workload, same offset):
        # the first run generates it and the others replay it.
        with shared_streams():
            for size in chosen:
                colors = list(range(size))
                points[size] = measure_mpki(
                    workload, machine, colors, config, seed_offset
                )
    return MissRateCurve(points, label=f"real:{workload.name}")


def mpki_timeline(
    workload: Workload,
    machine: MachineConfig,
    colors: Sequence[int],
    total_accesses: int,
    interval_instructions: int,
    config: OfflineConfig = OfflineConfig(),
    seed_offset: int = 0,
) -> List[float]:
    """Per-interval MPKI series over one long run (Figure 2a).

    The run is divided into intervals of ``interval_instructions``;
    each interval contributes one MPKI sample.  No warm-up is skipped:
    the figure shows the full execution.
    """
    if interval_instructions <= 0:
        raise ValueError("interval_instructions must be positive")
    hierarchy, process = _build_run(workload, machine, colors, config, seed_offset)
    series: List[float] = []
    counters = hierarchy.counters[0]
    executed = 0
    # Instructions advance by a fixed amount per access, so the index of
    # each interval's closing access is known in advance: run to it in
    # one batched call instead of checking after every step.
    per_access = workload.instructions_per_access
    while executed < total_accesses:
        needed = interval_instructions - counters.instructions
        chunk = min(-(-needed // per_access), total_accesses - executed)
        executed += drive_batch(process, hierarchy, chunk)
        if counters.instructions >= interval_instructions:
            series.append(counters.mpki())
            counters.reset()
    if counters.instructions >= interval_instructions // 2:
        # Keep a final partial interval if it is at least half-length.
        series.append(counters.mpki())
    return series
