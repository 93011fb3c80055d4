"""Dynamic online cache management (paper Sections 5.3 / 7 future work).

The paper computes RapidMRC once and sizes partitions offline, then
sketches the intended deployment: *'we envision extending our current
implementation to dynamically track MRC transitions and recompute
optimal partition sizes accordingly'*, with page migration (7.3 us per
4 kB page) providing online resizing.  This module builds that closed
loop over the simulated machine:

1. **monitor**: each process's L2 MPKI is read from the PMU counters at
   a fixed instruction interval (one point of the MRC -- Figure 2c
   showed one point suffices to detect curve changes);
2. **detect**: the Section 5.2.2 heuristic flags phase transitions;
3. **probe**: a transition (or a stale curve) triggers a RapidMRC probe
   for that process, collected in-place while everything keeps running;
4. **judge**: the finished probe passes through the reliability quality
   gates; the :class:`~repro.reliability.supervisor.ProbeSupervisor`
   admits it, schedules a backed-off retry, or serves a degraded curve
   (last-known-good, anchor-flat, or nothing);
5. **decide**: admitted curves are v-offset-calibrated at the process's
   *current* partition size and fed to the partition selector; when any
   process has no usable curve, the loop falls back to the uniform
   split instead of optimizing over garbage;
6. **act**: changed allocations are applied through the page allocator,
   charging the documented per-page migration cost to the moved
   process.

The loop is deliberately conservative: probes are rate-limited by a
cooldown, bounded by an access-budget deadline, and resizes happen only
when the selector's decision actually changes.  Every reliability
decision is visible both as a :class:`ManagerEvent` and as a structured
:class:`~repro.reliability.supervisor.ReliabilityEvent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import heapq

from repro.core.analytic import AnalyticConfig, AnalyticMRCBank
from repro.core.mrc import MissRateCurve
from repro.core.partition import choose_partition_sizes_multi
from repro.core.phase import PhaseDetector, PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig, RapidMRC, RapidMRCResult
from repro.obs import get_telemetry
from repro.obs.drift import DriftConfig, DriftMonitor
from repro.pmu.sampling import PMUModel, TraceCollector
from repro.reliability.faults import FaultPlan, wrap_collector
from repro.reliability.quality import assess_anchor, assess_probe, assess_reuse
from repro.reliability.supervisor import (
    DegradationRung,
    ProbeSupervisor,
    ReliabilityEvent,
    SupervisorConfig,
)
from repro.store.mrc_store import MRCStore, StoreConfig
from repro.store.signature import PhaseSignature, signature_of
from repro.runner.driver import Process
from repro.sim.cpu import IssueMode
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.base import Workload

__all__ = [
    "DynamicConfig",
    "ManagerEvent",
    "DynamicReport",
    "DynamicPartitionManager",
    "ProbeOutcome",
    "DecisionRecord",
]


@dataclass(frozen=True)
class DynamicConfig:
    """Tunables of the closed loop.

    Args:
        interval_instructions: monitoring interval per process; ``None``
            derives a machine-relative default.
        detector: phase-detection heuristic parameters (paper defaults).
        probe: RapidMRC probe configuration.
        probe_cooldown_intervals: minimum monitoring intervals between
            probes of the same process (rate limit).
        initial_probe: probe every process once at startup (otherwise
            the manager waits for the first detected transition).
        drop_probability: PMU dual-LSU drop chance while probing.
        exception_cost_cycles: pipeline-flush + handler cycles charged
            to the application per PMU overflow exception while its
            probe is active -- the cost that made the paper's apps run
            at 24% IPC during trace logging.
        reliability: probe supervisor policy (quality gates, retry
            backoff, deadline, degradation ladder).
        fault_plan: optional deterministic fault injection applied to
            every probe's trace channel (tests / chaos drills).
        store: phase-signature MRC cache policy; ``None`` disables
            caching entirely (no store is built, every transition pays
            a full probe -- the pre-cache behaviour).
        reuse_enabled: consult the store before probing.  With a store
            configured but reuse disabled, fresh admitted probes are
            still recorded (cache priming / ``--no-mrc-reuse``).
        analytic: admission knobs of the probe-free Che/Fagin power-law
            bank feeding the ``ANALYTIC_ESTIMATE`` degradation rung.
        drift: served-curve accuracy monitoring
            (:class:`~repro.obs.drift.DriftConfig`).  Each settled
            monitoring interval compares the served curve's predicted
            MPKI at the live allocation against the free PMU sample; a
            CUSUM trigger emits a ``drift-detected`` event and
            re-requests a probe through the normal gate.  ``None``
            (the default) disables monitoring -- decisions are then
            bit-identical to a pre-drift manager.
    """

    interval_instructions: Optional[int] = None
    detector: PhaseDetectorConfig = PhaseDetectorConfig()
    probe: ProbeConfig = ProbeConfig()
    probe_cooldown_intervals: int = 2
    initial_probe: bool = True
    drop_probability: float = 0.35
    pmu_model: PMUModel = PMUModel.POWER5
    exception_cost_cycles: int = 1200
    reliability: SupervisorConfig = SupervisorConfig()
    fault_plan: Optional[FaultPlan] = None
    store: Optional[StoreConfig] = None
    reuse_enabled: bool = True
    analytic: AnalyticConfig = AnalyticConfig()
    drift: Optional[DriftConfig] = None

    def __post_init__(self) -> None:
        if self.interval_instructions is not None and self.interval_instructions <= 0:
            raise ValueError(
                f"interval_instructions must be positive, "
                f"got {self.interval_instructions!r}"
            )
        if self.probe_cooldown_intervals < 0:
            raise ValueError(
                f"probe_cooldown_intervals must be >= 0, "
                f"got {self.probe_cooldown_intervals!r}"
            )
        if not 0.0 <= self.drop_probability <= 1.0:
            raise ValueError(
                f"drop_probability must be in [0, 1], "
                f"got {self.drop_probability!r}"
            )
        if self.exception_cost_cycles < 0:
            raise ValueError(
                f"exception_cost_cycles must be >= 0, "
                f"got {self.exception_cost_cycles!r}"
            )

    def resolved_interval(self, machine: MachineConfig) -> int:
        if self.interval_instructions is not None:
            return self.interval_instructions
        return 40 * machine.l2_lines


@dataclass(frozen=True)
class ManagerEvent:
    """One entry of the manager's decision log.

    ``kind`` is one of ``probe``, ``transition``, ``resize``,
    ``probe-rejected``, ``probe-retry``, ``probe-deadline``,
    ``degraded``, ``cache-reuse``, ``reuse-rejected``,
    ``probe-requested``, ``drift-detected``.
    """

    kind: str
    pid: int
    instructions: int         # manager-global instruction clock
    detail: str = ""


@dataclass(frozen=True)
class ProbeOutcome:
    """One probe-lifecycle notification delivered to ``probe_listener``.

    ``kind`` is one of ``started``, ``admitted``, ``rejected``,
    ``deadline``, ``invalidated``, ``aborted``, ``reused``,
    ``degraded``, ``gate-denied``, ``drift-detected``.  ``accesses``
    is the probe's access cost: the reserved deadline budget for
    ``started``/``gate-denied``, the accesses actually consumed for
    terminal outcomes (the fleet budget refunds the difference).  Every
    probe is charged in real accesses, whatever its stack engine: a
    sampling estimator thins the stack's work, not the trace log.
    """

    kind: str
    pid: int
    accesses: int = 0
    detail: str = ""


@dataclass(frozen=True)
class DecisionRecord:
    """Provenance of one partition decision (chaos-harness evidence).

    ``mode`` is ``optimized`` (every process had a curve) or ``uniform``
    (at least one hole -> even split).  ``rungs`` snapshots each
    process's degradation rung at decision time, so a test can assert
    that no optimized decision was ever computed from garbage.
    """

    mode: str
    counts: Tuple[int, ...]
    rungs: Tuple[str, ...]
    instructions: int


@dataclass
class DynamicReport:
    """Outcome of a managed run."""

    names: List[str]
    ipc: List[float]
    final_colors: List[Tuple[int, ...]]
    events: List[ManagerEvent]
    mpki_timelines: List[List[float]]
    probes_run: int
    resizes: int
    migration_cycles: float
    probes_rejected: int = 0
    degraded_decisions: int = 0
    reliability_events: List[ReliabilityEvent] = field(default_factory=list)
    probes_reused: int = 0
    reuse_rejected: int = 0
    store_stats: Optional[Dict[str, int]] = None
    decisions: List[DecisionRecord] = field(default_factory=list)
    probe_gate_denials: int = 0
    analytic_stats: Optional[Dict[str, int]] = None
    drift_events: int = 0

    def events_of_kind(self, kind: str) -> List[ManagerEvent]:
        return [event for event in self.events if event.kind == kind]


class _Managed:
    """Book-keeping for one managed process."""

    def __init__(self, process: Process, detector: PhaseDetector,
                 base_cooldown: int):
        self.process = process
        self.detector = detector
        self.mrc: Optional[MissRateCurve] = None
        self.collector = None
        self.probe_instructions_start = 0
        self.probe_accesses_start = 0
        self.probe_deadline_accesses = 0
        self.probe_count = 0
        self.intervals_since_probe = 10 ** 9
        self.cooldown_intervals = base_cooldown
        self.interval_instructions_seen = 0
        self.timeline: List[float] = []
        self.needs_probe = False
        # Open telemetry span of the in-flight probe (floating: probes
        # interleave with execution, so they cannot be lexical scopes).
        self.probe_span = None
        # Index into ``timeline`` of the current phase's first *settled*
        # sample.  Transition-interval samples straddle the boundary
        # (they mix two working sets, Section 5.2.2), so fingerprints
        # must not include them: the window advances past every
        # in-transition interval and starts at the first steady one.
        self.phase_sample_start = 0


class DynamicPartitionManager:
    """Runs N workloads under closed-loop MRC-driven partitioning.

    Args:
        machine: machine geometry.
        workloads: the co-scheduled applications (each gets a core).
        config: loop tunables.
        issue_mode: processor mode for execution and the PMU channel.
        store: an existing :class:`~repro.store.mrc_store.MRCStore` to
            use (e.g. loaded from disk for a warm start); overrides
            ``config.store``.  ``None`` builds one from ``config.store``
            when that is set, else runs without a cache.
        analytic_bank: an existing
            :class:`~repro.core.analytic.AnalyticMRCBank` to share (the
            fleet service pools observations across domains); ``None``
            builds a private one from ``config.analytic``.
        domain: owning fleet domain index, if any.  When set, every
            ``dynamic.*`` metric this manager emits carries a
            ``domain`` label, so process-pool fold-back keeps the
            domains' counters distinguishable instead of summing them
            into one total.

    Two hooks let an outer service steer the loop without subclassing:

    - ``probe_gate``: ``(pid, deadline_accesses) -> bool`` consulted
      before every probe start; ``False`` defers the probe one cooldown
      (the fleet's global budget admission).  ``None`` admits always.
    - ``probe_listener``: called with every :class:`ProbeOutcome`
      (budget refunds, circuit-breaker failure counting).
    """

    def __init__(
        self,
        machine: MachineConfig,
        workloads: Sequence[Workload],
        config: DynamicConfig = DynamicConfig(),
        issue_mode: IssueMode = IssueMode.COMPLEX,
        prefetcher: Optional[PrefetcherConfig] = None,
        store: Optional[MRCStore] = None,
        analytic_bank: Optional[AnalyticMRCBank] = None,
        domain: Optional[int] = None,
    ):
        if not workloads:
            raise ValueError("need at least one workload")
        if len(workloads) > machine.num_colors:
            raise ValueError("more workloads than colors")
        self.machine = machine
        self.config = config
        self.issue_mode = issue_mode
        self.domain = domain
        self.drift_monitor: Optional[DriftMonitor] = (
            DriftMonitor(config.drift, domain=domain)
            if config.drift is not None else None
        )
        self.hierarchy = MemoryHierarchy(machine, num_cores=len(workloads))
        self.allocator = PageAllocator(machine)
        self.engine = RapidMRC(machine, config.probe)
        self.supervisor = ProbeSupervisor(
            config.reliability, num_colors=machine.num_colors
        )
        if store is not None:
            self.store: Optional[MRCStore] = store
        elif config.store is not None:
            self.store = MRCStore(config.store)
        else:
            self.store = None
        self.analytic = (
            analytic_bank if analytic_bank is not None
            else AnalyticMRCBank(config.analytic)
        )
        self._interval = config.resolved_interval(machine)
        self.events: List[ManagerEvent] = []
        self.migration_cycles = 0.0
        self.probes_run = 0
        self.probes_rejected = 0
        self.degraded_decisions = 0
        self.probes_reused = 0
        self.reuse_rejected = 0
        self.resizes = 0
        self.probe_gate_denials = 0
        self.decisions: List[DecisionRecord] = []
        self.probe_gate: Optional[Callable[[int, int], bool]] = None
        self.probe_listener: Optional[Callable[[ProbeOutcome], None]] = None
        self._cycle_base: Optional[List[float]] = None

        # Start from an even split -- the uninformed default.
        even = machine.num_colors // len(workloads)
        extra = machine.num_colors - even * len(workloads)
        self.current_colors: List[Tuple[int, ...]] = []
        cursor = 0
        self.managed: List[_Managed] = []
        for index, workload in enumerate(workloads):
            count = even + (1 if index < extra else 0)
            colors = tuple(range(cursor, cursor + count))
            cursor += count
            self.current_colors.append(colors)
            process = Process(
                pid=index,
                workload=workload,
                core=index,
                allocator=self.allocator,
                colors=colors,
                issue_mode=issue_mode,
                prefetcher=prefetcher,
                seed_offset=index,
            )
            self.managed.append(_Managed(
                process, PhaseDetector(config.detector),
                base_cooldown=config.probe_cooldown_intervals,
            ))
            if config.initial_probe:
                self.managed[index].needs_probe = True

    # -- the loop -------------------------------------------------------------

    def run(self, quota_accesses: int, warmup_accesses: int = 0) -> DynamicReport:
        """Run until one process reaches its access quota."""
        if quota_accesses <= 0:
            raise ValueError("quota must be positive")
        self.begin(warmup_accesses)
        self.step_accesses(quota_accesses)
        return self.finish()

    # -- stepwise driving (the fleet service interleaves many managers) -------

    def begin(self, warmup_accesses: int = 0) -> None:
        """Warm up and arm the loop for incremental :meth:`step_accesses`."""
        if warmup_accesses > 0:
            self._advance(warmup_accesses, managed_hooks=False)
            self.hierarchy.reset_counters()
            for managed in self.managed:
                managed.process.reset_metrics()
        self._cycle_base = [m.process.cycles for m in self.managed]

    def step_accesses(self, target_extra: int) -> None:
        """Advance until one process gains ``target_extra`` accesses.

        Callable repeatedly between :meth:`begin` and :meth:`finish`;
        probes, intervals, and decisions carry over across calls, so an
        outer event loop can interleave slices of many managers.
        """
        if self._cycle_base is None:
            raise RuntimeError("step_accesses before begin()")
        if target_extra <= 0:
            raise ValueError("target_extra must be positive")
        self._advance(target_extra, managed_hooks=True)

    def finish(self) -> DynamicReport:
        """Flush telemetry and build the report for the stepped span."""
        if self._cycle_base is None:
            raise RuntimeError("finish before begin()")
        # Residue the interval harvests never saw (the final partial
        # interval) still reaches the registry.
        self.hierarchy.publish_telemetry()
        ipc = []
        for base, managed in zip(self._cycle_base, self.managed):
            window = managed.process.cycles - base
            ipc.append(
                managed.process.instructions / window if window > 0 else 0.0
            )
        return DynamicReport(
            names=[m.process.workload.name for m in self.managed],
            ipc=ipc,
            final_colors=list(self.current_colors),
            events=list(self.events),
            mpki_timelines=[m.timeline for m in self.managed],
            probes_run=self.probes_run,
            resizes=self.resizes,
            migration_cycles=(
                self.migration_cycles
                + self.allocator.lazy_migrations
                * self.allocator.migration_cost_cycles
            ),
            probes_rejected=self.probes_rejected,
            degraded_decisions=self.degraded_decisions,
            reliability_events=list(self.supervisor.events),
            probes_reused=self.probes_reused,
            reuse_rejected=self.reuse_rejected,
            store_stats=self.store.stats() if self.store else None,
            decisions=list(self.decisions),
            probe_gate_denials=self.probe_gate_denials,
            analytic_stats=self.analytic.stats(),
            drift_events=(
                self.drift_monitor.events
                if self.drift_monitor is not None else 0
            ),
        )

    def _notify(self, outcome: ProbeOutcome) -> None:
        if self.probe_listener is not None:
            self.probe_listener(outcome)

    def _labels(self, **labels: object) -> Dict[str, object]:
        """Metric labels with the owning fleet domain attached, if any."""
        if self.domain is not None:
            labels.setdefault("domain", self.domain)
        return labels

    def _note_fresh_curve(self, index: int) -> None:
        """A new curve was served; restart its drift accumulation."""
        if self.drift_monitor is not None:
            self.drift_monitor.note_fresh_curve(index)

    def _advance(self, target_extra: int, managed_hooks: bool) -> None:
        start = [m.process.accesses for m in self.managed]
        heap: List[Tuple[float, int]] = [
            (m.process.cycles, i) for i, m in enumerate(self.managed)
        ]
        heapq.heapify(heap)
        while heap:
            _cycles, index = heapq.heappop(heap)
            managed = self.managed[index]
            result = managed.process.step(self.hierarchy)
            if managed_hooks:
                self._observe(index, managed, result)
            if managed.process.accesses - start[index] >= target_extra:
                return
            heapq.heappush(heap, (managed.process.cycles, index))

    # -- monitoring / probing --------------------------------------------------

    def _observe(self, index: int, managed: _Managed, result) -> None:
        ipa = managed.process.workload.instructions_per_access
        managed.interval_instructions_seen += ipa

        if managed.collector is not None:
            before = managed.collector.exceptions
            managed.collector.observe(result)
            taken = managed.collector.exceptions - before
            if taken:
                managed.process.cycles += (
                    taken * self.config.exception_cost_cycles
                )
            probe_accesses = (
                managed.process.accesses - managed.probe_accesses_start
            )
            if managed.collector.done:
                self._finish_probe(index, managed)
            elif probe_accesses >= managed.probe_deadline_accesses:
                self._abort_probe(index, managed, probe_accesses)
        elif managed.needs_probe and (
            managed.intervals_since_probe >= managed.cooldown_intervals
        ):
            # Section 7 future work: when the workload returns to a
            # phase already profiled, reuse the cached curve instead of
            # paying a full probe.  A miss (or a failed reuse gate)
            # falls through to the ordinary probe path.
            if not self._try_reuse(index, managed):
                if (
                    self.store is not None
                    and self.config.reuse_enabled
                    and not self._phase_window(managed)
                ):
                    # The phase has no settled sample yet, so the cache
                    # could not even be consulted.  Hold the probe for
                    # the interval(s) it takes one to arrive: a hit then
                    # saves the whole probe, and a probe started now
                    # could not be fingerprinted for storage anyway.
                    pass
                elif not self._gate_allows(index, managed):
                    pass
                else:
                    self._start_probe(index, managed)

        if managed.interval_instructions_seen >= self._interval:
            self._end_interval(index, managed)

    def _gate_allows(self, index: int, managed: _Managed) -> bool:
        """Ask the external probe gate (budget admission) if one is set.

        The gate is quoted the probe's full deadline in accesses.
        Denial defers the request one cooldown instead of dropping it:
        the process keeps re-requesting each cooldown until admitted,
        which is what the fleet budget's priority aging keys off.
        """
        if self.probe_gate is None:
            return True
        log_entries = self.config.probe.resolved_log_entries(self.machine)
        cost = self.config.reliability.deadline_accesses(log_entries)
        if self.probe_gate(index, cost):
            return True
        self.probe_gate_denials += 1
        managed.intervals_since_probe = 0
        get_telemetry().registry.counter(
            "dynamic.gate_denied", **self._labels(pid=index)
        ).inc()
        self._notify(ProbeOutcome(
            "gate-denied", index, accesses=cost,
        ))
        return False

    def _end_interval(self, index: int, managed: _Managed) -> None:
        telemetry = get_telemetry()
        mpki = self.hierarchy.harvest_interval(index)
        managed.timeline.append(mpki)
        managed.interval_instructions_seen = 0
        managed.intervals_since_probe += 1
        telemetry.registry.counter("dynamic.intervals", **self._labels(pid=index)).inc()
        event = managed.detector.observe(mpki)
        if event is None and not managed.detector.in_transition:
            # A settled sample at the current size is one free data
            # point for the probe-free power-law fit.
            self.analytic.record(
                managed.process.workload.name,
                len(self.current_colors[index]), mpki,
            )
        if event is not None:
            telemetry.registry.counter("dynamic.transitions", **self._labels(pid=index)).inc()
            self.events.append(ManagerEvent(
                kind="transition",
                pid=index,
                instructions=self._global_instructions(),
                detail=f"{event.mpki_before:.1f}->{event.mpki_after:.1f} MPKI",
            ))
            managed.needs_probe = True
            # The old phase's failure streak (and its analytic samples)
            # say nothing about the new working set: reset before any
            # mid-probe invalidation below charges the *new* phase.
            self.analytic.note_transition(managed.process.workload.name)
            self.supervisor.reset_backoff(index, reason="phase transition")
            if managed.collector is not None:
                # Section 5.2.2: a probe spanning a phase boundary mixes
                # two working sets -- discard it and reprobe.
                consumed = (
                    managed.process.accesses - managed.probe_accesses_start
                )
                managed.collector = None
                telemetry.tracer.end(managed.probe_span, status="invalidated")
                managed.probe_span = None
                telemetry.registry.counter(
                    "dynamic.probes_invalidated", **self._labels(pid=index)
                ).inc()
                self.supervisor.report_invalidated(
                    index, reason="phase transition mid-probe"
                )
                self.events.append(ManagerEvent(
                    kind="probe-rejected", pid=index,
                    instructions=self._global_instructions(),
                    detail="invalidated by phase transition",
                ))
                self._notify(ProbeOutcome(
                    "invalidated", index, accesses=consumed,
                    detail="phase transition mid-probe",
                ))
                self._handle_probe_failure(index, managed)
        if managed.detector.in_transition:
            # This interval's sample straddles (or ramps through) a
            # phase boundary; keep the fingerprint window ahead of it so
            # signatures describe only the settled phase.
            managed.phase_sample_start = len(managed.timeline)
        tick = len(managed.timeline)
        telemetry.board.record(
            "dynamic.mpki", tick, mpki, **self._labels(pid=index)
        )
        if managed.mrc is not None:
            predicted = managed.mrc.value_at(len(self.current_colors[index]))
            telemetry.board.record(
                "dynamic.predicted_mpki", tick, predicted,
                **self._labels(pid=index),
            )
            # Drift monitoring: settled samples only.  Transition
            # intervals mix working sets (the phase detector owns
            # those), and in-flight or pending probes mean a fresh
            # curve is already on its way -- charging either to the
            # served curve would double-report.
            if (self.drift_monitor is not None
                    and event is None
                    and not managed.detector.in_transition
                    and managed.collector is None
                    and not managed.needs_probe):
                drift = self.drift_monitor.observe(index, predicted, mpki, tick)
                telemetry.board.record(
                    "dynamic.drift_statistic", tick,
                    self.drift_monitor.statistic(index),
                    **self._labels(pid=index),
                )
                if drift is not None:
                    self._on_drift(index, managed, drift)

    def _on_drift(self, index: int, managed: _Managed, drift) -> None:
        """A served curve stopped matching reality: solicit a re-probe.

        The probe request flows through the ordinary admission path
        (cooldown and budget gate), so drift recovery competes fairly
        with every other probe demand -- except the cache: the cached
        entry for this phase is the curve that just proved wrong, so it
        is evicted first.  Without that, ``_try_reuse`` would hand the
        same stale shape straight back and the loop would never reach a
        real probe.
        """
        if self.store is not None and self.config.reuse_enabled:
            signature = self._phase_signature(managed)
            if signature is not None:
                entry = self.store.get(
                    signature, now_instructions=self._global_instructions()
                )
                if entry is not None:
                    self.store.evict(entry.signature)
        get_telemetry().registry.counter(
            "dynamic.drift_detected", **self._labels(pid=index)
        ).inc()
        detail = (
            f"residual ewma {drift.residual_ewma:.2f} MPKI, "
            f"statistic {drift.statistic:.1f} after {drift.samples} samples"
        )
        self.events.append(ManagerEvent(
            kind="drift-detected", pid=index,
            instructions=self._global_instructions(), detail=detail,
        ))
        managed.needs_probe = True
        self._notify(ProbeOutcome("drift-detected", index, detail=detail))

    def _phase_window(self, managed: _Managed) -> List[float]:
        """Settled MPKI samples of the current phase (fingerprint input)."""
        return managed.timeline[managed.phase_sample_start:]

    def _phase_signature(self, managed: _Managed) -> Optional[PhaseSignature]:
        window = self._phase_window(managed)
        if self.store is None or not window:
            return None
        return signature_of(
            managed.process.workload.name,
            window,
            self.store.config.signature,
        )

    def _try_reuse(self, index: int, managed: _Managed) -> bool:
        """Serve a cached curve for this phase if the store has one.

        Returns ``True`` when a cached curve was re-anchored at the
        currently measured MPKI point and fed to the selector -- the
        probe is then skipped entirely.
        """
        if self.store is None or not self.config.reuse_enabled:
            return False
        signature = self._phase_signature(managed)
        if signature is None:
            # No settled sample of this phase yet: nothing to
            # fingerprint and nothing to re-anchor against.
            return False
        telemetry = get_telemetry()
        entry = self.store.get(
            signature, now_instructions=self._global_instructions()
        )
        if entry is None:
            telemetry.registry.counter("dynamic.cache_misses", **self._labels(pid=index)).inc()
            return False
        anchor_size = len(self.current_colors[index])
        anchor_mpki = managed.timeline[-1]
        quality = assess_reuse(
            entry.mrc, anchor_size, anchor_mpki,
            self.config.reliability.quality,
            warmup_fraction=entry.warmup_fraction,
        )
        if not quality.ok:
            self.reuse_rejected += 1
            telemetry.registry.counter(
                "dynamic.reuse_rejected", **self._labels(pid=index)
            ).inc()
            self.events.append(ManagerEvent(
                kind="reuse-rejected", pid=index,
                instructions=self._global_instructions(),
                detail=quality.describe(),
            ))
            return False
        curve, shift = entry.mrc.v_offset_matched(anchor_size, anchor_mpki)
        managed.mrc = curve
        self._note_fresh_curve(index)
        managed.needs_probe = False
        managed.intervals_since_probe = 0
        managed.cooldown_intervals = self.config.probe_cooldown_intervals
        self.probes_reused += 1
        detail = f"{entry.signature.key()} shift {shift:+.2f} MPKI"
        self.supervisor.note_reuse(index, curve, detail=detail)
        telemetry.registry.counter("dynamic.cache_hits", **self._labels(pid=index)).inc()
        self.events.append(ManagerEvent(
            kind="cache-reuse", pid=index,
            instructions=self._global_instructions(),
            detail=detail,
        ))
        self._notify(ProbeOutcome("reused", index, detail=detail))
        self._redecide()
        return True

    def _start_probe(self, index: int, managed: _Managed) -> None:
        log_entries = self.config.probe.resolved_log_entries(self.machine)
        collector = TraceCollector(
            log_capacity=log_entries,
            issue_mode=self.issue_mode,
            pmu_model=self.config.pmu_model,
            drop_probability=self.config.drop_probability,
            seed=1000 + index,
        )
        managed.collector = wrap_collector(
            collector, self.config.fault_plan,
            salt=f"{index}/{managed.probe_count}",
        )
        managed.probe_count += 1
        managed.probe_instructions_start = managed.process.instructions
        managed.probe_accesses_start = managed.process.accesses
        managed.probe_deadline_accesses = (
            self.config.reliability.deadline_accesses(log_entries)
        )
        managed.needs_probe = False
        managed.intervals_since_probe = 0
        telemetry = get_telemetry()
        managed.probe_span = telemetry.tracer.begin(
            "probe", pid=index,
            workload=managed.process.workload.name, mode="dynamic",
        )
        telemetry.registry.counter("dynamic.probes_started", **self._labels(pid=index)).inc()
        self.events.append(ManagerEvent(
            kind="probe", pid=index,
            instructions=self._global_instructions(), detail="started",
        ))
        self._notify(ProbeOutcome(
            "started", index, accesses=managed.probe_deadline_accesses,
        ))

    def _abort_probe(self, index: int, managed: _Managed,
                     probe_accesses: int) -> None:
        """Deadline expiry: the log never filled within the access budget."""
        managed.collector = None
        telemetry = get_telemetry()
        telemetry.tracer.end(managed.probe_span, status="deadline")
        managed.probe_span = None
        telemetry.registry.counter("dynamic.probe_deadlines", **self._labels(pid=index)).inc()
        self.supervisor.report_deadline(index, probe_accesses)
        self.events.append(ManagerEvent(
            kind="probe-deadline", pid=index,
            instructions=self._global_instructions(),
            detail=f"log unfilled after {probe_accesses} accesses",
        ))
        self._notify(ProbeOutcome(
            "deadline", index, accesses=probe_accesses,
            detail="log unfilled",
        ))
        self._handle_probe_failure(index, managed)

    def _finish_probe(self, index: int, managed: _Managed) -> None:
        collector = managed.collector
        assert collector is not None
        managed.collector = None
        collector.observe_instructions(
            managed.process.instructions - managed.probe_instructions_start
        )
        probe = collector.finish()
        log_entries = self.config.probe.resolved_log_entries(self.machine)

        telemetry = get_telemetry()
        result: Optional[RapidMRCResult] = None
        # attach() nests the computation under the probe's floating span.
        with telemetry.tracer.attach(managed.probe_span):
            if len(probe.entries) and probe.instructions > 0:
                result = self.engine.compute(
                    probe.entries, probe.instructions,
                    label=f"dyn:{managed.process.workload.name}",
                )
            quality = assess_probe(
                probe, result, log_entries, self.config.reliability.quality
            )

        # Calibrate at the *current* allocation: its miss rate is what
        # the PMU has been measuring all along.  A fault plan may hand
        # us a garbage measurement here -- the supervisor's anchor
        # sanity check is what catches it.
        anchor = len(self.current_colors[index])
        recent = managed.timeline[-1] if managed.timeline else None
        if recent is not None and self.config.fault_plan is not None:
            recent = self.config.fault_plan.corrupt_anchor(
                recent, salt=f"{index}/{managed.probe_count}",
            )
        consumed = managed.process.accesses - managed.probe_accesses_start
        curve = self.supervisor.admit(index, quality, result, anchor, recent)
        if curve is not None:
            telemetry.tracer.end(managed.probe_span, status="admitted")
            managed.probe_span = None
            telemetry.registry.counter(
                "dynamic.probes_admitted", **self._labels(pid=index)
            ).inc()
            managed.mrc = curve
            self._note_fresh_curve(index)
            managed.cooldown_intervals = self.config.probe_cooldown_intervals
            self.probes_run += 1
            # Fingerprint at admit time: by now the phase has settled
            # samples (the probe itself spans several intervals), so the
            # stored signature matches what a later revisit's settled
            # window will produce.  A mid-probe transition would have
            # invalidated the probe, so the window is still this phase.
            signature = self._phase_signature(managed)
            if signature is not None and result is not None:
                # Cache the *raw* shape: reuse re-anchors it at the
                # then-current measurement, so the stored level is moot.
                self.store.put_result(
                    signature, result,
                    now_instructions=self._global_instructions(),
                )
            self.events.append(ManagerEvent(
                kind="probe", pid=index,
                instructions=self._global_instructions(),
                detail=f"finished ({len(probe.entries)} entries)",
            ))
            self._notify(ProbeOutcome("admitted", index, accesses=consumed))
            self._redecide()
            return

        telemetry.tracer.end(managed.probe_span, status="rejected")
        managed.probe_span = None
        self.events.append(ManagerEvent(
            kind="probe-rejected", pid=index,
            instructions=self._global_instructions(),
            detail=quality.describe(),
        ))
        self._notify(ProbeOutcome(
            "rejected", index, accesses=consumed, detail=quality.describe(),
        ))
        self._handle_probe_failure(index, managed)

    def _handle_probe_failure(self, index: int, managed: _Managed) -> None:
        """Shared post-failure policy: retry with backoff, else degrade."""
        registry = get_telemetry().registry
        self.probes_rejected += 1
        registry.counter("dynamic.probes_rejected", **self._labels(pid=index)).inc()
        retry, cooldown = self.supervisor.retry_guidance(index)
        if retry:
            registry.counter("dynamic.probe_retries", **self._labels(pid=index)).inc()
            managed.needs_probe = True
            managed.cooldown_intervals = max(
                self.config.probe_cooldown_intervals, cooldown
            )
            managed.intervals_since_probe = 0
            self.events.append(ManagerEvent(
                kind="probe-retry", pid=index,
                instructions=self._global_instructions(),
                detail=f"cooldown {managed.cooldown_intervals} intervals",
            ))
            return
        # Retries exhausted: ride the degradation ladder.  The curve (or
        # its absence) feeds the next decision; a later phase transition
        # can still request a fresh probe.
        self._serve_fallback(index, managed)

    def _serve_fallback(self, index: int, managed: _Managed,
                        detail: str = "") -> DegradationRung:
        """Park the process on the best remaining degradation rung."""
        recent = managed.timeline[-1] if managed.timeline else None
        curve, rung = self.supervisor.fallback_curve(
            index, recent, analytic=self._analytic_curve(index, managed),
        )
        get_telemetry().registry.counter(
            "dynamic.degradations", **self._labels(pid=index, rung=rung.value)
        ).inc()
        managed.mrc = curve
        self._note_fresh_curve(index)
        managed.cooldown_intervals = self.config.probe_cooldown_intervals
        managed.needs_probe = False
        self.events.append(ManagerEvent(
            kind="degraded", pid=index,
            instructions=self._global_instructions(),
            detail=rung.value + (f" ({detail})" if detail else ""),
        ))
        self._notify(ProbeOutcome("degraded", index, detail=rung.value))
        self._redecide()
        return rung

    def _analytic_curve(self, index: int,
                        managed: _Managed) -> Optional[MissRateCurve]:
        """The probe-free power-law estimate, anchored when possible.

        The raw fit predicts absolute levels from the bank's samples;
        when the latest PMU sample is plausible the curve is v-offset
        matched at the current size, same as a cached curve on reuse.
        """
        signature = self._phase_signature(managed)
        curve = self.analytic.curve_for(
            managed.process.workload.name,
            self.machine.num_colors,
            signature_key=signature.key() if signature else None,
        )
        if curve is None:
            return None
        recent = managed.timeline[-1] if managed.timeline else None
        if recent is not None and assess_anchor(
            recent, self.config.reliability.quality
        ).passed:
            curve, _shift = curve.v_offset_matched(
                len(self.current_colors[index]), recent
            )
        return curve

    # -- external control (fleet service) -------------------------------------

    def abort_inflight_probe(self, index: int, reason: str = "external") -> bool:
        """Kill an in-flight probe (e.g. the domain's PMU went dark).

        Counts as a failure against the supervisor's backoff, then runs
        the ordinary retry/degrade policy.  Returns ``True`` when a
        probe was actually aborted.
        """
        managed = self.managed[index]
        if managed.collector is None:
            return False
        consumed = managed.process.accesses - managed.probe_accesses_start
        managed.collector = None
        telemetry = get_telemetry()
        telemetry.tracer.end(managed.probe_span, status="aborted")
        managed.probe_span = None
        telemetry.registry.counter("dynamic.probes_aborted", **self._labels(pid=index)).inc()
        self.supervisor.report_invalidated(index, reason=reason)
        self.events.append(ManagerEvent(
            kind="probe-rejected", pid=index,
            instructions=self._global_instructions(), detail=reason,
        ))
        self._notify(ProbeOutcome(
            "aborted", index, accesses=consumed, detail=reason,
        ))
        self._handle_probe_failure(index, managed)
        return True

    def request_probe(self, index: int, reason: str = "") -> None:
        """Ask for a fresh probe at the next opportunity (re-admission).

        The fleet calls this when a quarantined domain's circuit closes
        or a PMU blackout ends: the ladder curve served meanwhile stays
        in force until the fresh probe lands.
        """
        managed = self.managed[index]
        if managed.collector is not None:
            return
        managed.needs_probe = True
        managed.intervals_since_probe = max(
            managed.intervals_since_probe, managed.cooldown_intervals
        )
        self.events.append(ManagerEvent(
            kind="probe-requested", pid=index,
            instructions=self._global_instructions(), detail=reason,
        ))

    def degrade_now(self, index: int, reason: str = "") -> DegradationRung:
        """Force the process onto the ladder immediately (quarantine).

        Any in-flight probe is aborted first; otherwise the pending
        probe request is cancelled and the best fallback rung served.
        """
        managed = self.managed[index]
        if managed.collector is not None:
            self.abort_inflight_probe(index, reason=reason or "degrade-now")
            return self.supervisor.rung(index)
        return self._serve_fallback(index, managed, detail=reason)

    # -- decisions ---------------------------------------------------------------

    def _redecide(self) -> None:
        telemetry = get_telemetry()
        curves = [m.mrc for m in self.managed]
        if any(curve is None for curve in curves):
            if all(curve is None for curve in curves):
                # Nobody has a usable curve yet (startup, or everything
                # degraded to the bottom rung): nothing to optimize.
                return
            # Bottom rung of the ladder: at least one process is flying
            # blind, so stop optimizing and split the cache evenly
            # rather than size partitions around a hole.
            self.degraded_decisions += 1
            with telemetry.tracer.span("partition_decision", mode="uniform"):
                new_colors = self._materialize(self._uniform_counts())
            telemetry.registry.counter(
                "dynamic.decisions", **self._labels(mode="uniform")
            ).inc()
            self._record_decision("uniform", new_colors)
            self._apply_colors(new_colors, detail="uniform-split (degraded)")
            return
        with telemetry.tracer.span("partition_decision", mode="optimized"):
            decision = choose_partition_sizes_multi(
                curves, self.machine.num_colors
            )
            new_colors = self._materialize(decision.colors)
        telemetry.registry.counter("dynamic.decisions", **self._labels(mode="optimized")).inc()
        self._record_decision("optimized", new_colors)
        self._apply_colors(new_colors, detail=str([len(c) for c in new_colors]))

    def _record_decision(
        self, mode: str, new_colors: List[Tuple[int, ...]]
    ) -> None:
        self.decisions.append(DecisionRecord(
            mode=mode,
            counts=tuple(len(colors) for colors in new_colors),
            rungs=tuple(
                self.supervisor.rung(pid).value
                for pid in range(len(self.managed))
            ),
            instructions=self._global_instructions(),
        ))

    def _apply_colors(
        self, new_colors: List[Tuple[int, ...]], detail: str
    ) -> None:
        if new_colors == self.current_colors:
            return
        for index, (managed, colors) in enumerate(
            zip(self.managed, new_colors)
        ):
            if colors == self.current_colors[index]:
                continue
            # Lazy resize: only pages the process actually touches again
            # migrate (and pay), so cold history is free.
            report = self.allocator.resize(index, colors, lazy=True)
            managed.process.cycles += report.cycles
            self.migration_cycles += report.cycles
        self.current_colors = new_colors
        self.resizes += 1
        get_telemetry().registry.counter("dynamic.resizes", **self._labels()).inc()
        self.events.append(ManagerEvent(
            kind="resize", pid=-1,
            instructions=self._global_instructions(),
            detail=detail,
        ))

    def _uniform_counts(self) -> List[int]:
        even = self.machine.num_colors // len(self.managed)
        extra = self.machine.num_colors - even * len(self.managed)
        return [
            even + (1 if index < extra else 0)
            for index in range(len(self.managed))
        ]

    def _materialize(self, counts: Sequence[int]) -> List[Tuple[int, ...]]:
        """Assign concrete color ids: contiguous runs in process order."""
        out: List[Tuple[int, ...]] = []
        cursor = 0
        for count in counts:
            out.append(tuple(range(cursor, cursor + count)))
            cursor += count
        return out

    def _global_instructions(self) -> int:
        return sum(m.process.instructions for m in self.managed)
