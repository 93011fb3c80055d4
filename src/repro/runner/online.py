"""The online RapidMRC probe: PMU trace collection on a live run.

This stitches the pieces together the way the deployed system would
(paper Section 3): the application runs under its current partitioning;
a probing period is started by arming the trace collector; the probe
ends when the trace log fills; the calculation engine then turns the log
into a calibrated MRC.

The probe also produces the cost-model inputs for Table 2 columns (a)
and (b): trace-logging cycles (application progress plus per-exception
pipeline-flush costs) and MRC-calculation cycles.

Every probe additionally carries a :class:`~repro.reliability.quality.
ProbeQuality` verdict.  A probe whose log never filled, or that retired
zero instructions, is *not* silently turned into a curve: ``result``
stays ``None`` in the hopeless cases and the verdict records exactly
which gates failed, so callers (the dynamic manager's supervisor, the
CLI) can degrade deliberately instead of acting on garbage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.rapidmrc import ProbeConfig, RapidMRC, RapidMRCResult
from repro.obs import get_telemetry
from repro.pmu.ideal import IdealTraceCollector
from repro.pmu.sampling import PMUModel, ProbeTrace, TraceCollector
from repro.reliability.faults import (
    FaultPlan,
    FaultyTraceCollector,
    InjectionReport,
    wrap_collector,
)
from repro.reliability.quality import (
    ProbeQuality,
    QualityConfig,
    assess_probe,
)
from repro.runner.driver import Process
from repro.sim.cpu import IssueMode
from repro.sim.fastsim import drive_batch
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.base import Workload

__all__ = ["OnlineProbeConfig", "OnlineProbe", "ProbeFailedError", "collect_trace"]


class ProbeFailedError(RuntimeError):
    """Raised when a failed probe's (absent) curve is used anyway."""


@dataclass(frozen=True)
class OnlineProbeConfig:
    """How the probing run is set up.

    Args:
        warmup_accesses: accesses executed before the collector is armed
            (lets the hierarchy and the application reach steady state,
            standing in for the paper probing at the 10-billion-
            instruction mark).  ``None`` derives a machine default.
        colors: partitioning in effect while probing (``None`` =
            uncontrolled).  MRCs are independent of it (Section 2.3) --
            a property the tests verify.
        issue_mode: complex (default) or simplified (Figures 4b/6).
        pmu_model: POWER5 (stale prefetch entries) or POWER5+ (omitted).
        prefetch_enabled: hardware prefetcher on/off.
        drop_probability: dual-LSU drop chance in complex mode.
        max_accesses: safety bound on probe length (probes on tiny
            working sets could otherwise log forever at near-zero miss
            rates).
        use_ideal_pmu: collect through the Section 6 proposed PMU
            (:class:`repro.pmu.ideal.IdealTraceCollector`) instead of
            the real channel -- no drops, no stale entries, amortized
            exceptions.
        ideal_buffer_entries: hardware trace-buffer size for the ideal
            PMU.
    """

    warmup_accesses: Optional[int] = None
    colors: Optional[Sequence[int]] = None
    issue_mode: IssueMode = IssueMode.COMPLEX
    pmu_model: PMUModel = PMUModel.POWER5
    prefetch_enabled: bool = True
    drop_probability: float = 0.35
    max_accesses: Optional[int] = None
    seed: int = 1234
    use_ideal_pmu: bool = False
    ideal_buffer_entries: int = 128

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], "
                f"got {self.drop_probability!r}"
            )
        if self.ideal_buffer_entries <= 0:
            raise ValueError(
                f"ideal_buffer_entries must be positive, "
                f"got {self.ideal_buffer_entries!r}"
            )
        if self.warmup_accesses is not None and self.warmup_accesses < 0:
            raise ValueError(
                f"warmup_accesses must be non-negative, "
                f"got {self.warmup_accesses!r}"
            )
        if self.max_accesses is not None and self.max_accesses <= 0:
            raise ValueError(
                f"max_accesses must be positive, got {self.max_accesses!r}"
            )

    def resolved_warmup(self, machine: MachineConfig) -> int:
        if self.warmup_accesses is not None:
            return self.warmup_accesses
        return 6 * machine.l2_lines

    def resolved_max_accesses(self, machine: MachineConfig, log_entries: int) -> int:
        if self.max_accesses is not None:
            return self.max_accesses
        # Generous: even at a 2% L1D miss rate the log fills within this.
        return max(60 * log_entries, 40 * machine.l2_lines)


@dataclass
class OnlineProbe:
    """Everything one probing period produced.

    ``result`` is the computed MRC (uncalibrated until the caller
    supplies a measured anchor point), or ``None`` when the probe
    yielded nothing computable (empty log, zero instructions);
    ``quality`` is the gate verdict explaining how trustworthy the probe
    is; ``probe`` is the raw channel statistics; ``accesses_executed``
    ties the probe to simulated time.
    """

    result: Optional[RapidMRCResult]
    probe: ProbeTrace
    accesses_executed: int
    log_filled: bool
    quality: ProbeQuality
    injection: Optional[InjectionReport] = None

    @property
    def ok(self) -> bool:
        """True when every quality gate passed."""
        return self.quality.ok

    def calibrate(self, anchor_color: int, measured_mpki: float):
        if self.result is None:
            raise ProbeFailedError(
                f"cannot calibrate a failed probe ({self.quality.describe()})"
            )
        return self.result.calibrate(anchor_color, measured_mpki)


def collect_trace(
    workload: Workload,
    machine: MachineConfig,
    online: OnlineProbeConfig = OnlineProbeConfig(),
    probe_config: ProbeConfig = ProbeConfig(),
    fault_plan: Optional[FaultPlan] = None,
    quality_config: QualityConfig = QualityConfig(),
) -> OnlineProbe:
    """Run a probing period against a fresh hierarchy and compute the MRC.

    The run is: build machine state, warm up (collector disarmed), arm
    the collector, drive the application until the trace log fills, then
    feed the log to the calculation engine and score the probe against
    the quality gates.

    Args:
        fault_plan: optional deterministic fault injection applied to
            the trace channel (see :mod:`repro.reliability.faults`).
        quality_config: gate thresholds for the returned verdict.
    """
    log_entries = probe_config.resolved_log_entries(machine)
    telemetry = get_telemetry()
    with telemetry.tracer.span("probe", workload=workload.name):
        hierarchy = MemoryHierarchy(machine, num_cores=1)
        allocator = PageAllocator(machine)
        process = Process(
            pid=0,
            workload=workload,
            core=0,
            allocator=allocator,
            colors=online.colors,
            issue_mode=online.issue_mode,
            prefetcher=PrefetcherConfig(enabled=online.prefetch_enabled),
        )
        drive_batch(process, hierarchy, online.resolved_warmup(machine))

        if online.use_ideal_pmu:
            collector = IdealTraceCollector(
                log_capacity=log_entries,
                buffer_entries=online.ideal_buffer_entries,
            )
        else:
            collector = TraceCollector(
                log_capacity=log_entries,
                issue_mode=online.issue_mode,
                pmu_model=online.pmu_model,
                drop_probability=online.drop_probability,
                seed=online.seed,
            )
        collector = wrap_collector(collector, fault_plan, salt=workload.name)
        instructions_before = process.instructions
        with telemetry.tracer.span(
            "trace_collect", workload=workload.name, log_capacity=log_entries
        ):
            executed = drive_batch(
                process,
                hierarchy,
                online.resolved_max_accesses(machine, log_entries),
                collector=collector,
            )
            collector.observe_instructions(
                process.instructions - instructions_before
            )
            probe = collector.finish()

        # A probe with nothing in the log or no retired instructions has
        # no computable MRC; the quality verdict carries the diagnosis
        # instead of a max(1, ...) masking the broken denominator.
        result: Optional[RapidMRCResult] = None
        if len(probe.entries) and probe.instructions > 0:
            engine = RapidMRC(machine, probe_config)
            result = engine.compute(
                probe.entries, probe.instructions,
                label=f"rapidmrc:{workload.name}",
            )
        quality = assess_probe(probe, result, log_entries, quality_config)
        injection = (
            collector.report
            if isinstance(collector, FaultyTraceCollector) else None
        )
        hierarchy.publish_telemetry()
    return OnlineProbe(
        result=result,
        probe=probe,
        accesses_executed=executed,
        log_filled=len(probe.entries) >= log_entries,
        quality=quality,
        injection=injection,
    )
