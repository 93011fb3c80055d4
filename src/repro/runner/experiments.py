"""Per-figure experiment drivers: one function per paper table/figure.

Each function reproduces the *procedure* behind one figure or table of
the evaluation (Section 5) against the simulated machine and returns the
same rows/series the paper plots.  The benchmark harness
(``benchmarks/``) calls these and prints/validates the results; the
examples reuse the smaller ones.

All experiments accept a machine (default: 1/16-scale POWER5) plus knobs
to trade accuracy for runtime; the defaults match what the benchmarks
use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.overhead import OverheadModel
from repro.analysis.tables import Table2Row
from repro.core.correction import thin_trace
from repro.core.mrc import MissRateCurve, mpki_distance
from repro.core.partition import PartitionAssignment, choose_partition_sizes
from repro.core.phase import PhaseDetectorConfig, average_phase_length, detect_boundaries
from repro.core.rapidmrc import ProbeConfig, RapidMRC
from repro.dinero.simulator import associativity_sweep
from repro.pmu.sampling import PMUModel
from repro.runner.corun import CorunSpec, corun, normalized_ipc
from repro.runner.offline import OfflineConfig, mpki_timeline, real_mrc
from repro.runner.pool import get_pool
from repro.runner.online import OnlineProbe, OnlineProbeConfig, collect_trace
from repro.sim.cpu import IssueMode
from repro.sim.machine import MachineConfig
from repro.workloads import make_workload
from repro.workloads.base import Workload, shared_streams
from repro.workloads.spec import WORKLOAD_NAMES

__all__ = [
    "default_machine",
    "fig1_offline_mrc",
    "Fig2Result",
    "fig2_phases",
    "AccuracyRow",
    "fig3_accuracy",
    "fig4_improvements",
    "fig5_log_size",
    "fig5_warmup",
    "fig5_missed_events",
    "fig5_associativity",
    "fig5_real_modes",
    "fig6_calculated_modes",
    "Fig7Result",
    "fig7_partitioning",
    "table2_statistics",
]


def default_machine() -> MachineConfig:
    """The benchmark machine: a 1/16-scale POWER5 (960-line L2)."""
    return MachineConfig.scaled(16)


# ---------------------------------------------------------------------------
# Figure 1 -- offline L2 MRC of mcf
# ---------------------------------------------------------------------------

def fig1_offline_mrc(
    machine: Optional[MachineConfig] = None,
    workload_name: str = "mcf",
    config: OfflineConfig = OfflineConfig(),
) -> MissRateCurve:
    """Figure 1: the exhaustive offline MRC of mcf over 16 partitions."""
    machine = machine or default_machine()
    workload = make_workload(workload_name, machine)
    return real_mrc(workload, machine, config)


# ---------------------------------------------------------------------------
# Figure 2 -- phases of mcf
# ---------------------------------------------------------------------------

@dataclass
class Fig2Result:
    """Everything Figure 2 plots.

    Attributes:
        timelines: per-size MPKI series (Fig 2a's 16 curves).
        interval_instructions: x-axis scale of the timelines.
        phase_mrcs: the per-phase MRCs plus the average (Fig 2b).
        detected_boundaries: per-size detected phase boundaries, in
            interval indices (Fig 2c).
        true_boundaries: ground-truth boundaries from the workload's
            phase schedule, in interval indices.
    """

    timelines: Dict[int, List[float]]
    interval_instructions: int
    phase_mrcs: Dict[str, MissRateCurve]
    detected_boundaries: Dict[int, List[int]]
    true_boundaries: List[int]


def fig2_phases(
    machine: Optional[MachineConfig] = None,
    sizes: Optional[Sequence[int]] = None,
    phase_cycles: int = 3,
    intervals_per_phase: int = 8,
    detector: PhaseDetectorConfig = PhaseDetectorConfig(),
) -> Fig2Result:
    """Figure 2: mcf's alternating phases and their impact on the MRC.

    Runs mcf at each partition size long enough to cover
    ``phase_cycles`` full phase alternations, recording per-interval
    MPKI; measures the per-phase MRCs; and runs the Section 5.2.2 phase
    detector over every timeline.
    """
    machine = machine or default_machine()
    mcf = make_workload("mcf", machine)
    schedule = mcf.schedule  # mcf is a PhasedWorkload
    sizes = list(sizes) if sizes is not None else list(
        range(1, machine.num_colors + 1)
    )

    period_accesses = schedule.period_accesses
    total_accesses = phase_cycles * period_accesses
    # Interval length chosen so each phase spans several intervals.
    shortest_phase = min(p.duration_accesses for p in schedule.phases)
    interval_instructions = max(
        1, (shortest_phase * mcf.instructions_per_access) // intervals_per_phase
    )

    timelines: Dict[int, List[float]] = {}
    detected: Dict[int, List[int]] = {}
    for size in sizes:
        series = mpki_timeline(
            mcf, machine, colors=list(range(size)),
            total_accesses=total_accesses,
            interval_instructions=interval_instructions,
        )
        timelines[size] = series
        detected[size] = detect_boundaries(series, detector)

    true_boundaries = [
        boundary * mcf.instructions_per_access // interval_instructions
        for boundary in schedule.boundaries_in(total_accesses)
    ]

    # Fig 2b: per-phase MRCs.  Measure each phase alone by building a
    # workload pinned into that phase (offset measurement windows would
    # need phase-aligned warmup; a dedicated single-phase workload is the
    # controlled equivalent).
    from repro.workloads.base import Workload

    phase_mrcs: Dict[str, MissRateCurve] = {}
    for index, phase in enumerate(schedule.phases):
        single = Workload(
            f"mcf:{phase.label or index}",
            phase.pattern,
            instructions_per_access=mcf.instructions_per_access,
            store_fraction=mcf.store_fraction,
            seed=mcf.seed,
        )
        phase_mrcs[phase.label or str(index)] = real_mrc(single, machine)
    # The whole-run average must span full phase cycles, not a slice of
    # one phase (the paper averages over the entire execution).
    phase_mrcs["average"] = real_mrc(
        mcf, machine,
        OfflineConfig(
            warmup_accesses=8 * machine.l2_lines,
            measure_accesses=2 * period_accesses,
        ),
    )

    return Fig2Result(
        timelines=timelines,
        interval_instructions=interval_instructions,
        phase_mrcs=phase_mrcs,
        detected_boundaries=detected,
        true_boundaries=true_boundaries,
    )


# ---------------------------------------------------------------------------
# Figure 3 / Table 2 -- accuracy over the 30 applications
# ---------------------------------------------------------------------------

@dataclass
class AccuracyRow:
    """One application's Figure-3 comparison."""

    workload: str
    real: MissRateCurve
    calculated: MissRateCurve
    distance: float
    vertical_shift: float
    probe: OnlineProbe


def _probe_and_compare(
    workload: Workload,
    machine: MachineConfig,
    offline: OfflineConfig,
    online: OnlineProbeConfig,
    probe_config: ProbeConfig,
    anchor_color: int = 8,
) -> AccuracyRow:
    # The probe runs the stream the real MRC's runs recorded, and a
    # caller's enclosing scope (Fig. 7's pair) keeps sharing it.
    with shared_streams():
        real = real_mrc(workload, machine, offline)
        probe = collect_trace(workload, machine, online, probe_config)
    probe.calibrate(anchor_color, real[anchor_color])
    calc = probe.result.best_mrc
    return AccuracyRow(
        workload=workload.name,
        real=real,
        calculated=calc,
        distance=mpki_distance(real, calc),
        vertical_shift=probe.result.vertical_shift,
        probe=probe,
    )


def fig3_accuracy(
    machine: Optional[MachineConfig] = None,
    names: Optional[Sequence[str]] = None,
    offline: OfflineConfig = OfflineConfig(),
    online: OnlineProbeConfig = OnlineProbeConfig(),
    probe_config: ProbeConfig = ProbeConfig(),
    max_workers: Optional[int] = None,
) -> List[AccuracyRow]:
    """Figure 3: RapidMRC vs the real MRC for every application.

    Args:
        max_workers: probe the applications in parallel worker processes
            (each row is independent); ``None`` stays sequential.
    """
    machine = machine or default_machine()
    chosen = list(names) if names is not None else list(WORKLOAD_NAMES)
    tasks = [
        (make_workload(name, machine), machine, offline, online, probe_config)
        for name in chosen
    ]
    pool = get_pool(max_workers)
    if pool is not None and len(chosen) > 1:
        # Worker telemetry payloads fold back into this process's
        # registry (the pool owns the call_traced/absorb dance).
        return pool.map_traced(_probe_and_compare, tasks)
    return [_probe_and_compare(*task) for task in tasks]


# ---------------------------------------------------------------------------
# Figure 4 -- improved swim (10x log) and art (simplified mode)
# ---------------------------------------------------------------------------

def fig4_improvements(
    machine: Optional[MachineConfig] = None,
    offline: OfflineConfig = OfflineConfig(),
) -> Dict[str, Dict[str, AccuracyRow]]:
    """Figure 4: the two paper-identified fixes for problematic apps.

    - swim with the standard log vs a 10x longer log (Fig 4a);
    - art in complex mode vs simplified mode with prefetch off (Fig 4b,
      run on the POWER5+).
    """
    machine = machine or default_machine()
    standard_log = ProbeConfig().resolved_log_entries(machine)

    # swim alternates stencil passes; its representative real MRC must
    # average several full pass cycles (the paper's real slices are ~20x
    # the calculated slice and do this implicitly).
    swim = make_workload("swim", machine)
    swim_offline = OfflineConfig(
        warmup_accesses=offline.resolved_warmup(machine),
        measure_accesses=3 * swim.schedule.period_accesses,
    )
    swim_standard = _probe_and_compare(
        swim, machine, swim_offline, OnlineProbeConfig(), ProbeConfig()
    )
    swim_long = _probe_and_compare(
        swim, machine, swim_offline, OnlineProbeConfig(),
        ProbeConfig(log_entries=10 * standard_log),
    )
    art = make_workload("art", machine)
    art_complex = _probe_and_compare(
        art, machine, offline, OnlineProbeConfig(), ProbeConfig()
    )
    art_simplified = _probe_and_compare(
        art, machine, offline,
        OnlineProbeConfig(
            issue_mode=IssueMode.SIMPLIFIED,
            prefetch_enabled=False,
            pmu_model=PMUModel.POWER5_PLUS,
        ),
        ProbeConfig(),
    )
    return {
        "swim": {"standard": swim_standard, "long_log": swim_long},
        "art": {"standard": art_complex, "simplified": art_simplified},
    }


# ---------------------------------------------------------------------------
# Figure 5 -- factor studies on mcf
# ---------------------------------------------------------------------------

def _mcf_probe(
    machine: MachineConfig,
    probe_config: ProbeConfig,
    online: Optional[OnlineProbeConfig] = None,
):
    workload = make_workload("mcf", machine)
    return collect_trace(workload, machine, online or OnlineProbeConfig(),
                         probe_config)


def fig5_log_size(
    machine: Optional[MachineConfig] = None,
    multipliers: Sequence[float] = (0.64, 1.0, 1.28, 2.56, 5.12, 10.24),
) -> Dict[int, MissRateCurve]:
    """Figure 5a: calculated MRC of mcf vs trace-log size.

    The paper sweeps 102k..1638k entries around the 160k default; the
    multipliers reproduce those ratios against the scaled default.
    """
    machine = machine or default_machine()
    base = ProbeConfig().resolved_log_entries(machine)
    curves: Dict[int, MissRateCurve] = {}
    for multiplier in multipliers:
        entries = max(100, int(base * multiplier))
        probe = _mcf_probe(machine, ProbeConfig(log_entries=entries))
        curves[entries] = probe.result.mrc
    return curves


def fig5_warmup(
    machine: Optional[MachineConfig] = None,
    fractions: Sequence[float] = (0.512, 0.256, 0.128, 0.064, 0.032, 0.008, 0.0),
) -> Dict[int, MissRateCurve]:
    """Figure 5b: calculated MRC of mcf vs warmup length.

    The paper sweeps 0..81920 warmup entries of a 160k log; fractions
    express the same sweep relative to the log size.
    """
    machine = machine or default_machine()
    log_entries = ProbeConfig().resolved_log_entries(machine)
    # Collect ONE trace, then recompute with different warmups -- exactly
    # how the paper studies this factor (it is a calculation-side knob).
    probe = _mcf_probe(machine, ProbeConfig(log_entries=log_entries))
    trace = probe.probe.entries
    instructions = max(1, probe.probe.instructions)
    curves: Dict[int, MissRateCurve] = {}
    for fraction in fractions:
        entries = int(log_entries * fraction)
        engine = RapidMRC(machine, ProbeConfig(warmup=entries))
        curves[entries] = engine.compute(trace, instructions).mrc
    return curves


def fig5_missed_events(
    machine: Optional[MachineConfig] = None,
    keep_every: Sequence[int] = (1, 2, 4, 6, 8, 10),
) -> Dict[int, MissRateCurve]:
    """Figure 5c: impact of artificially dropping trace entries.

    Uses the 10x log (as the paper does) so thinned traces stay long
    enough, then recomputes the MRC per thinning level.
    """
    machine = machine or default_machine()
    log_entries = 10 * ProbeConfig().resolved_log_entries(machine)
    probe = _mcf_probe(machine, ProbeConfig(log_entries=log_entries))
    trace = probe.probe.entries
    instructions = max(1, probe.probe.instructions)
    curves: Dict[int, MissRateCurve] = {}
    for keep in keep_every:
        thinned = thin_trace(trace, keep)
        # Instructions span the same window regardless of thinning.
        engine = RapidMRC(machine, ProbeConfig())
        curves[keep] = engine.compute(thinned, instructions).mrc
    return curves


def fig5_associativity(
    machine: Optional[MachineConfig] = None,
    associativities: Sequence[object] = (10, 32, 64, "full"),
):
    """Figure 5d: mcf's trace through the Dinero simulator at several
    associativities.  Returns {assoc: [DineroResult per size]}."""
    machine = machine or default_machine()
    probe = _mcf_probe(machine, ProbeConfig())
    # Dinero walks the trace one entry at a time: hand it Python ints.
    trace = probe.result.correction.trace.tolist()
    return associativity_sweep(
        trace,
        size_bytes=machine.l2_size,
        line_size=machine.line_size,
        associativities=associativities,
        warmup_entries=len(trace) // 4,
    )


def fig5_real_modes(
    machine: Optional[MachineConfig] = None,
    offline: OfflineConfig = OfflineConfig(),
    workload_name: str = "mcf",
) -> Dict[str, MissRateCurve]:
    """Figure 5e: the real MRC under {all-enabled, no-prefetch,
    no-prefetch+simplified} machine modes."""
    machine = machine or default_machine()
    workload = make_workload(workload_name, machine)
    modes = {
        "all_enabled": OfflineConfig(
            warmup_accesses=offline.warmup_accesses,
            measure_accesses=offline.measure_accesses,
            issue_mode=IssueMode.COMPLEX, prefetch_enabled=True,
        ),
        "no_prefetch": OfflineConfig(
            warmup_accesses=offline.warmup_accesses,
            measure_accesses=offline.measure_accesses,
            issue_mode=IssueMode.COMPLEX, prefetch_enabled=False,
        ),
        "simplified": OfflineConfig(
            warmup_accesses=offline.warmup_accesses,
            measure_accesses=offline.measure_accesses,
            issue_mode=IssueMode.SIMPLIFIED, prefetch_enabled=False,
        ),
    }
    return {
        mode: real_mrc(workload, machine, config)
        for mode, config in modes.items()
    }


# ---------------------------------------------------------------------------
# Figure 6 -- calculated MRC under machine modes
# ---------------------------------------------------------------------------

def fig6_calculated_modes(
    machine: Optional[MachineConfig] = None,
    names: Sequence[str] = ("mcf", "equake"),
) -> Dict[str, Dict[str, MissRateCurve]]:
    """Figure 6: the *calculated* MRC with {all, no-prefetch, simplified}
    trace-collection modes (POWER5+, so no stale entries)."""
    machine = machine or default_machine()
    modes = {
        "all_enabled": OnlineProbeConfig(
            issue_mode=IssueMode.COMPLEX, prefetch_enabled=True,
            pmu_model=PMUModel.POWER5_PLUS,
        ),
        "no_prefetch": OnlineProbeConfig(
            issue_mode=IssueMode.COMPLEX, prefetch_enabled=False,
            pmu_model=PMUModel.POWER5_PLUS,
        ),
        "simplified": OnlineProbeConfig(
            issue_mode=IssueMode.SIMPLIFIED, prefetch_enabled=False,
            pmu_model=PMUModel.POWER5_PLUS,
        ),
    }
    out: Dict[str, Dict[str, MissRateCurve]] = {}
    for name in names:
        workload = make_workload(name, machine)
        out[name] = {}
        for mode, online in modes.items():
            probe = collect_trace(workload, machine, online, ProbeConfig())
            out[name][mode] = probe.result.mrc
    return out


# ---------------------------------------------------------------------------
# Figure 7 -- sizing cache partitions
# ---------------------------------------------------------------------------

@dataclass
class Fig7Result:
    """One multiprogrammed workload's Figure-7 outcome."""

    names: List[str]
    chosen_real: PartitionAssignment
    chosen_rapidmrc: PartitionAssignment
    #: normalized IPC (%) per application, per split x (first app's colors).
    spectrum: Dict[int, List[float]]
    gain_rapidmrc: float
    gain_real: float


def _spectrum_gain(
    spectrum: Dict[int, List[float]], split: int
) -> float:
    """Combined normalized-IPC gain of a split vs uncontrolled (=100%)."""
    values = spectrum[split]
    return sum(values) / len(values) - 100.0


def fig7_partitioning(
    machine: Optional[MachineConfig] = None,
    pairs: Sequence[Tuple[str, str]] = (
        ("twolf", "equake"), ("vpr", "applu"),
    ),
    quota_accesses: Optional[int] = None,
    warmup_accesses: Optional[int] = None,
    offline: OfflineConfig = OfflineConfig(),
    splits: Optional[Sequence[int]] = None,
    disable_l3: bool = True,
    max_workers: Optional[int] = None,
) -> List[Fig7Result]:
    """Figure 7: choose partition sizes from RapidMRC vs real MRCs and
    measure the normalized-IPC spectrum over all splits.

    The paper disables the L3 for twolf+equake and vpr+applu (its 36 MB
    swallowed the working sets); ``disable_l3`` reproduces that.

    Args:
        max_workers: probe the two co-runners of each pair in parallel
            worker processes (they are independent runs).
    """
    machine = machine or default_machine()
    corun_machine = machine.without_l3() if disable_l3 else machine
    quota = quota_accesses or 24 * machine.l2_lines
    warm = warmup_accesses if warmup_accesses is not None else 8 * machine.l2_lines
    chosen_splits = list(splits) if splits is not None else list(
        range(1, machine.num_colors)
    )

    results: List[Fig7Result] = []
    for name_a, name_b in pairs:
        workload_a = make_workload(name_a, machine)
        workload_b = make_workload(name_b, machine)
        tasks = [
            (workload, machine, offline, OnlineProbeConfig(), ProbeConfig())
            for workload in (workload_a, workload_b)
        ]

        def specs(split: Optional[int]) -> List[CorunSpec]:
            if split is None:
                return [CorunSpec(workload_a), CorunSpec(workload_b)]
            return [
                CorunSpec(workload_a, colors=list(range(split))),
                CorunSpec(
                    workload_b,
                    colors=list(range(split, machine.num_colors)),
                ),
            ]

        # Both probe rows and every co-run run the pair's two streams:
        # each is generated once for the whole pair.
        with shared_streams():
            pool = get_pool(max_workers)
            if pool is not None:
                row_a, row_b = pool.map_traced(_probe_and_compare, tasks)
            else:
                row_a, row_b = (_probe_and_compare(*task) for task in tasks)
            chosen_real = choose_partition_sizes(
                row_a.real, row_b.real, machine.num_colors
            )
            chosen_rapid = choose_partition_sizes(
                row_a.calculated, row_b.calculated, machine.num_colors
            )
            baseline = corun(
                specs(None), corun_machine, quota, warmup_accesses=warm
            )
            spectrum: Dict[int, List[float]] = {}
            for split in chosen_splits:
                run = corun(
                    specs(split), corun_machine, quota, warmup_accesses=warm
                )
                spectrum[split] = normalized_ipc(run, baseline)

        results.append(
            Fig7Result(
                names=[name_a, name_b],
                chosen_real=chosen_real,
                chosen_rapidmrc=chosen_rapid,
                spectrum=spectrum,
                gain_rapidmrc=_spectrum_gain(
                    spectrum, chosen_rapid.colors[0]
                ) if chosen_rapid.colors[0] in spectrum else 0.0,
                gain_real=_spectrum_gain(
                    spectrum, chosen_real.colors[0]
                ) if chosen_real.colors[0] in spectrum else 0.0,
            )
        )
    return results


def fig7_ammp_3applu(
    machine: Optional[MachineConfig] = None,
    quota_accesses: Optional[int] = None,
    warmup_accesses: Optional[int] = None,
    offline: OfflineConfig = OfflineConfig(),
    splits: Optional[Sequence[int]] = None,
) -> Fig7Result:
    """Figure 7c: ammp + 3x applu, with the L3 enabled.

    The three applu instances share one partition (paper footnote 4:
    cache-insensitive applications are pooled); sizing splits the cache
    between ammp and the pooled trio, whose aggregate MRC is 3x applu's.
    """
    machine = machine or default_machine()
    quota = quota_accesses or 24 * machine.l2_lines
    warm = warmup_accesses if warmup_accesses is not None else 8 * machine.l2_lines
    chosen_splits = list(splits) if splits is not None else list(
        range(1, machine.num_colors)
    )

    ammp = make_workload("ammp", machine)
    applu = make_workload("applu", machine)

    def tripled(mrc: MissRateCurve) -> MissRateCurve:
        return MissRateCurve(
            {size: 3 * value for size, value in mrc}, label="3x" + mrc.label
        )

    def specs(split: Optional[int]) -> List[CorunSpec]:
        if split is None:
            return [CorunSpec(ammp)] + [
                CorunSpec(applu, seed_offset=k + 1) for k in range(3)
            ]
        shared = list(range(split, machine.num_colors))
        return [CorunSpec(ammp, colors=list(range(split)))] + [
            CorunSpec(applu, colors=shared, seed_offset=k + 1)
            for k in range(3)
        ]

    # The later co-runs replay the four streams the first one generated.
    with shared_streams():
        ammp_row = _probe_and_compare(
            ammp, machine, offline, OnlineProbeConfig(), ProbeConfig()
        )
        applu_row = _probe_and_compare(
            applu, machine, offline, OnlineProbeConfig(), ProbeConfig()
        )
        chosen_real = choose_partition_sizes(
            ammp_row.real, tripled(applu_row.real), machine.num_colors
        )
        chosen_rapid = choose_partition_sizes(
            ammp_row.calculated, tripled(applu_row.calculated),
            machine.num_colors,
        )
        baseline = corun(specs(None), machine, quota, warmup_accesses=warm)
        spectrum: Dict[int, List[float]] = {}
        for split in chosen_splits:
            run = corun(specs(split), machine, quota, warmup_accesses=warm)
            spectrum[split] = normalized_ipc(run, baseline)

    return Fig7Result(
        names=["ammp", "applu", "applu", "applu"],
        chosen_real=chosen_real,
        chosen_rapidmrc=chosen_rapid,
        spectrum=spectrum,
        gain_rapidmrc=_spectrum_gain(spectrum, chosen_rapid.colors[0])
        if chosen_rapid.colors[0] in spectrum else 0.0,
        gain_real=_spectrum_gain(spectrum, chosen_real.colors[0])
        if chosen_real.colors[0] in spectrum else 0.0,
    )


# ---------------------------------------------------------------------------
# Table 2 -- per-application statistics
# ---------------------------------------------------------------------------

def table2_statistics(
    machine: Optional[MachineConfig] = None,
    names: Optional[Sequence[str]] = None,
    offline: OfflineConfig = OfflineConfig(),
    include_long_log: bool = False,
    timeline_accesses: Optional[int] = None,
) -> List[Table2Row]:
    """Table 2: the full per-application statistics table.

    Args:
        include_long_log: also compute column (j), the 10x-log distance
            (slow; the benchmark enables it for a subset).
        timeline_accesses: accesses for the phase-length measurement
            (column d); default is machine-derived.
    """
    machine = machine or default_machine()
    chosen = list(names) if names is not None else list(WORKLOAD_NAMES)
    overhead_model = OverheadModel(machine)
    rows: List[Table2Row] = []
    timeline_total = timeline_accesses or 60 * machine.l2_lines
    for name in chosen:
        workload = make_workload(name, machine)
        row = _probe_and_compare(
            workload, machine, offline, OnlineProbeConfig(), ProbeConfig()
        )
        probe = row.probe

        # Columns a-b: the cycle cost model over the probe.
        app_cycles = probe.probe.instructions * 1.0  # ~1 IPC of app progress
        overhead = overhead_model.probe_overhead(
            probe.probe, application_cycles=app_cycles
        )

        # Column d: phase length from the 8-color MPKI timeline.
        interval_instructions = max(
            1, timeline_total * workload.instructions_per_access // 24
        )
        series = mpki_timeline(
            workload, machine, colors=list(range(8)),
            total_accesses=timeline_total,
            interval_instructions=interval_instructions,
        )
        boundaries = detect_boundaries(series)
        phase_length = average_phase_length(
            boundaries, len(series), interval_instructions
        )

        long_distance = None
        if include_long_log:
            long_probe_config = ProbeConfig(
                log_entries=10 * ProbeConfig().resolved_log_entries(machine)
            )
            long_probe = collect_trace(
                workload, machine, OnlineProbeConfig(), long_probe_config
            )
            long_probe.calibrate(8, row.real[8])
            long_distance = mpki_distance(row.real, long_probe.result.best_mrc)

        rows.append(
            Table2Row(
                workload=name,
                trace_logging_cycles=overhead.logging_cycles,
                mrc_calculation_cycles=overhead.calculation_cycles,
                probe_instructions=probe.probe.instructions,
                avg_phase_length_instructions=phase_length,
                prefetch_conversion_fraction=(
                    probe.result.prefetch_conversion_fraction
                ),
                warmup_fraction=probe.result.warmup_fraction,
                stack_hit_rate=probe.result.stack_hit_rate,
                vertical_shift_mpki=row.vertical_shift,
                distance_standard_log=row.distance,
                distance_long_log=long_distance,
            )
        )
    return rows
