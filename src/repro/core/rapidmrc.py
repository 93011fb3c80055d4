"""The RapidMRC pipeline: trace log -> calibrated miss-rate curve.

This module is the paper's MRC *calculation engine* (Section 3.2).  It
takes a raw probe trace (however collected -- the live PMU model in
:mod:`repro.runner.online`, or a synthetic trace in tests), applies the
Section 3.1.1 corrections, runs the bounded LRU stack, and produces an
MPKI curve ready for v-offset calibration, together with the per-probe
statistics that populate Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core import fastpath
from repro.core.correction import CorrectionResult
from repro.core.estimators import EstimatorConfig, is_estimator
from repro.core.histogram import StackDistanceHistogram
from repro.core.mrc import MissRateCurve
from repro.core.stack import LRUStackSimulator, check_engine
from repro.core.warmup import HybridWarmup, NoWarmup, StaticWarmup, warmup_fraction_used
from repro.obs import get_telemetry
from repro.sim.machine import MachineConfig

__all__ = ["ProbeConfig", "RapidMRCResult", "RapidMRC"]


@dataclass(frozen=True)
class ProbeConfig:
    """Tunables of one RapidMRC probe.

    Args:
        log_entries: trace-log length.  The paper's default is ~10x the
            LRU stack depth (160k entries for a 15360-line stack,
            Section 5.2.3); ``None`` derives that default from the
            machine.
        warmup: ``"hybrid"`` (automatic with static fallback -- the
            Table 2 policy), ``"static"`` (always half the log),
            ``"none"``, or an integer for an explicit static entry count.
        stack_engine: ``batch`` -- the exact vectorized kernel of
            :mod:`repro.core.fastpath`, bit-identical to the paper's
            range-list stack (:func:`repro.core.stack.reference_histogram`
            over a :class:`~repro.core.stack.RangeListLRUStack`) -- or a
            sub-linear sampling estimator (``shards``, ``aet``) from
            :mod:`repro.core.estimators`.
        correct_prefetch_repetitions: apply the stale-SDAR repair.
        anchor_color: cache size (colors) used for v-offset matching; the
            paper uses the 8-color point (Section 5.2.1).
        sampling_rate: spatial sampling rate for estimator engines, in
            ``(0, 1]``; ``None`` uses the estimator default (0.1).
            Only meaningful with an estimator ``stack_engine``.
    """

    log_entries: Optional[int] = None
    warmup: object = "hybrid"
    stack_engine: str = "batch"
    correct_prefetch_repetitions: bool = True
    anchor_color: int = 8
    sampling_rate: Optional[float] = None

    def __post_init__(self) -> None:
        check_engine(self.stack_engine)
        if self.sampling_rate is not None:
            if not 0.0 < self.sampling_rate <= 1.0:
                raise ValueError(
                    f"sampling_rate must be in (0, 1], "
                    f"got {self.sampling_rate!r}"
                )
            if not is_estimator(self.stack_engine):
                raise ValueError(
                    f"sampling_rate only applies to estimator engines "
                    f"(shards/aet), not {self.stack_engine!r}"
                )

    def resolved_sampling_rate(self) -> float:
        """The effective sampling rate: 1.0 for exact engines."""
        if not is_estimator(self.stack_engine):
            return 1.0
        if self.sampling_rate is not None:
            return self.sampling_rate
        return EstimatorConfig().sampling_rate

    def cost_scale(self) -> float:
        """Fraction of a full probe's cost this configuration pays.

        Estimator probes touch roughly ``sampling_rate`` of the trace's
        refs, so the fleet budget reserves proportionally less for them.
        """
        return self.resolved_sampling_rate()

    def resolved_log_entries(self, machine: MachineConfig) -> int:
        if self.log_entries is not None:
            if self.log_entries <= 0:
                raise ValueError("log_entries must be positive")
            return self.log_entries
        return 10 * machine.l2_lines

    def make_warmup(self, log_entries: int):
        if self.warmup == "none" or self.warmup is None:
            return NoWarmup()
        if self.warmup == "static":
            return StaticWarmup(log_entries // 2)
        if self.warmup == "hybrid":
            return HybridWarmup(fallback_entries=log_entries // 2)
        if isinstance(self.warmup, int):
            return StaticWarmup(self.warmup)
        raise ValueError(f"unknown warmup spec {self.warmup!r}")


@dataclass
class RapidMRCResult:
    """A computed (and optionally calibrated) RapidMRC.

    Attributes map onto Table 2: ``instructions`` (col c), prefetch
    conversion fraction (col e, via ``correction``), ``warmup_fraction``
    (col f), ``stack_hit_rate`` (col g), ``vertical_shift`` (col h).
    """

    mrc: MissRateCurve
    histogram: StackDistanceHistogram
    instructions: int
    trace_length: int
    recorded_entries: int
    warmup_fraction: float
    stack_hit_rate: float
    correction: Optional[CorrectionResult] = None
    calibrated_mrc: Optional[MissRateCurve] = None
    vertical_shift: float = 0.0
    #: Estimator backend that produced the curve (None for exact engines).
    estimator: Optional[str] = None
    #: Effective sampling rate (1.0 for exact engines).
    sampling_rate: float = 1.0
    #: Peak entries the backend kept resident (0 for exact engines).
    tracked_entries: int = 0

    @property
    def prefetch_conversion_fraction(self) -> float:
        """Fraction of the log rewritten by stale-SDAR repair (col e)."""
        if self.correction is None:
            return 0.0
        return self.correction.converted_fraction()

    def calibrate(self, anchor_color: int, measured_mpki: float) -> MissRateCurve:
        """V-offset match against a measured point and remember the result."""
        telemetry = get_telemetry()
        with telemetry.tracer.span("calibration", anchor_color=anchor_color):
            matched, shift = self.mrc.v_offset_matched(
                anchor_color, measured_mpki
            )
        self.calibrated_mrc = matched
        self.vertical_shift = shift
        telemetry.registry.counter("mrc.calibrations").inc()
        return matched

    @property
    def best_mrc(self) -> MissRateCurve:
        """The calibrated curve when available, else the raw one."""
        return self.calibrated_mrc if self.calibrated_mrc is not None else self.mrc


class RapidMRC:
    """MRC calculation engine bound to a machine geometry.

    Args:
        machine: supplies the stack bound (L2 lines), the 16 partition
            boundaries and lines-per-color scaling.
        config: probe tunables.
    """

    def __init__(self, machine: MachineConfig, config: ProbeConfig = ProbeConfig()):
        self.machine = machine
        self.config = config

    def compute(
        self,
        trace: Sequence[int],
        instructions: int,
        label: str = "",
    ) -> RapidMRCResult:
        """Turn a raw trace log into an MRC.

        Args:
            trace: sampled cache-line numbers, in arrival order, as read
                from the trace log (*uncorrected*).
            instructions: instructions completed during the probe window
                (the MPKI denominator).
            label: label for the produced curve.
        """
        if instructions <= 0:
            raise ValueError("instructions must be positive")
        telemetry = get_telemetry()
        engine_name = self.config.stack_engine
        estimating = is_estimator(engine_name)
        correction = None
        with telemetry.tracer.span(
            "correction", engine=engine_name, entries=len(trace)
        ):
            lines = fastpath.as_trace_array(trace)
            if self.config.correct_prefetch_repetitions:
                correction = fastpath.correct_stale_repetitions(lines)
                lines = correction.trace

        boundaries = self.machine.color_sizes_in_lines()
        estimator_config = None
        if estimating:
            estimator_config = EstimatorConfig(
                sampling_rate=self.config.resolved_sampling_rate()
            )
        simulator = LRUStackSimulator(
            max_depth=self.machine.l2_lines,
            engine=engine_name,
            boundaries=boundaries,
            estimator_config=estimator_config,
        )
        warmup = self.config.make_warmup(len(lines))
        with telemetry.tracer.span(
            "stack_distance", engine=engine_name, entries=len(lines)
        ):
            histogram = simulator.process(lines, warmup=warmup)
        telemetry.registry.counter("mrc.computes", engine=engine_name).inc()
        telemetry.registry.counter(
            "mrc.trace_entries", engine=engine_name
        ).inc(len(trace))
        telemetry.registry.histogram("mrc.trace_length").observe(len(trace))

        warmup_fraction = warmup_fraction_used(warmup, len(lines))
        recorded = histogram.total_accesses
        # The histogram covers only post-warmup entries; scale the MPKI
        # denominator to the same window so shape is unbiased (the
        # absolute level is recalibrated by v-offset matching anyway).
        effective_instructions = max(
            1, round(instructions * (recorded / max(1, len(lines))))
        )
        mrc = histogram.to_mrc(
            lines_per_color=self.machine.lines_per_color,
            num_colors=self.machine.num_colors,
            instructions=effective_instructions,
            label=label or "rapidmrc",
        )
        estimate = simulator.last_estimate
        if estimate is not None:
            telemetry.registry.counter(
                "mrc.estimates", estimator=estimate.estimator
            ).inc()
            telemetry.registry.counter(
                "mrc.estimator_sampled_refs", estimator=estimate.estimator
            ).inc(estimate.sampled_refs)
        return RapidMRCResult(
            mrc=mrc,
            histogram=histogram,
            instructions=instructions,
            trace_length=len(trace),
            recorded_entries=recorded,
            warmup_fraction=warmup_fraction,
            stack_hit_rate=histogram.hit_rate(),
            correction=correction,
            estimator=estimate.estimator if estimate is not None else None,
            sampling_rate=(
                estimate.sampling_rate if estimate is not None else 1.0
            ),
            tracked_entries=(
                estimate.tracked_peak if estimate is not None else 0
            ),
        )

    def compute_calibrated(
        self,
        trace: Sequence[int],
        instructions: int,
        measured_anchor_mpki: float,
        label: str = "",
    ) -> RapidMRCResult:
        """Compute and immediately v-offset match at the anchor color."""
        result = self.compute(trace, instructions, label=label)
        result.calibrate(self.config.anchor_color, measured_anchor_mpki)
        return result
