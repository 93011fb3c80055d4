"""Post-probe quality gates: decide whether a probe can be trusted.

The MRC-construction literature identifies sampling noise and trace
truncation as the dominant failure modes of online MRC systems; the
paper itself flags short logs (Section 5.2.3), excessive warmup
(Section 5.2.4) and stale-entry floods (Section 5.2.7) as accuracy
killers.  Instead of feeding whatever came off the channel into the
partition selector, every probe is scored against a set of gates and
summarized as a :class:`ProbeQuality` verdict.  The
:class:`~repro.reliability.supervisor.ProbeSupervisor` acts on the
verdict; callers that want the raw detail can inspect the individual
:class:`QualityCheck` entries.

The gates and the fault classes they catch:

================  =====================================================
gate              primary failure mode caught
================  =====================================================
log-fill          truncated probes / dead channel (TRUNCATE_LOG)
instructions      zero-instruction probes (broken MPKI denominator)
unique-lines      degenerate log slivers
address-range     corrupted SDAR reads, cross-address-space garbage
                  (CORRUPT_SDAR, PHASE_SHIFT's foreign working set)
drop-fraction     swallowed overflow exceptions on top of the baseline
                  dual-LSU losses (LOST_EXCEPTIONS)
stale-fraction    stale-SDAR repetition floods (Section 5.2.7)
warmup-fraction   logs consumed almost entirely by stack warmup
cold-fraction     reuse visibly present in the log but absent from the
                  histogram (distance inflation); genuinely streaming
                  probes -- near-all-unique logs -- are exempt, their
                  flat all-cold curve is correct
monotonicity      calculation-engine regressions (stack-distance MRCs
                  are monotone non-increasing by construction)
================  =====================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.mrc import MissRateCurve
from repro.core.rapidmrc import RapidMRCResult
from repro.obs import get_telemetry
from repro.pmu.sampling import ProbeTrace

__all__ = [
    "QualityConfig",
    "QualityCheck",
    "ProbeQuality",
    "assess_probe",
    "assess_anchor",
    "assess_reuse",
]


@dataclass(frozen=True)
class QualityConfig:
    """Gate thresholds.

    Defaults are deliberately permissive: they catch channel failures
    (empty or truncated logs, garbage addresses, stale floods), not
    ordinary noise the v-offset calibration absorbs.

    Args:
        min_fill_fraction: minimum log-fill fraction; partial logs
            under-warm the LRU stack (Section 5.2.3 sizes the log at
            ~10x the stack for exactly this reason).
        min_unique_lines: minimum distinct cache lines in the log; fewer
            means the probe saw a degenerate sliver of the working set.
            Kept low: genuine small-working-set applications (the
            paper's gzip/crafty class) legitimately fill a log from a
            few dozen lines.
        max_plausible_line: cache-line numbers at or above this are
            counted as garbage (no simulated footprint reaches them).
        max_out_of_range_fraction: maximum fraction of log entries with
            garbage line numbers.
        max_drop_fraction: maximum fraction of L1D misses the channel
            admits to having lost (dual-LSU baseline plus any swallowed
            exceptions); past this the trace is too thin to trust.
        max_stale_fraction: maximum fraction of log entries that are
            stale-SDAR repetitions (pre-repair); beyond it the repair
            heuristic dominates the data.
        max_warmup_fraction: maximum fraction of the log consumed by
            stack warmup; past this almost nothing was recorded.
        max_cold_fraction: maximum fraction of post-warmup accesses that
            are cold misses -- *when the log itself shows reuse*.  High
            cold mass despite repeated lines in the log means observed
            stack distances were inflated (mixed phases, corruption).
        streaming_unique_fraction: unique-lines/entries ratio at which a
            probe counts as genuinely streaming and the cold gate is
            waived (an all-unique log cannot produce stack hits).
        max_monotone_violation_fraction: maximum fraction of adjacent
            MRC size pairs where MPKI *increases* -- stack-distance MRCs
            are monotone non-increasing by construction, so violations
            flag engine bugs or hand-built curves.
        max_plausible_mpki: anchor measurements above this (or negative,
            or non-finite) are rejected as garbage.
        max_reuse_shift_mpki: maximum |v-offset| allowed when re-anchoring
            a *cached* curve at the currently measured MPKI point.  A
            fresh probe tolerates any shift (the shape was just
            measured); a cached shape whose level disagrees with the
            live measurement by more than this is evidence the phase
            did *not* actually recur, so reuse is rejected and the
            ordinary probe path runs.
    """

    min_fill_fraction: float = 0.5
    min_unique_lines: int = 16
    max_plausible_line: int = 1 << 32
    max_out_of_range_fraction: float = 0.05
    max_drop_fraction: float = 0.6
    max_stale_fraction: float = 0.6
    max_warmup_fraction: float = 0.95
    max_cold_fraction: float = 0.9
    streaming_unique_fraction: float = 0.8
    max_monotone_violation_fraction: float = 0.35
    max_plausible_mpki: float = 10_000.0
    max_reuse_shift_mpki: float = 25.0

    def __post_init__(self) -> None:
        for name in ("min_fill_fraction", "max_out_of_range_fraction",
                     "max_drop_fraction", "max_stale_fraction",
                     "max_warmup_fraction", "max_cold_fraction",
                     "streaming_unique_fraction",
                     "max_monotone_violation_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.min_unique_lines < 1:
            raise ValueError("min_unique_lines must be >= 1")
        if self.max_plausible_line < 1:
            raise ValueError("max_plausible_line must be >= 1")
        if self.max_plausible_mpki <= 0:
            raise ValueError("max_plausible_mpki must be positive")
        if self.max_reuse_shift_mpki <= 0:
            raise ValueError("max_reuse_shift_mpki must be positive")


@dataclass(frozen=True)
class QualityCheck:
    """One gate's outcome: ``value`` measured against ``bound``."""

    name: str
    passed: bool
    value: float
    bound: float
    detail: str = ""

    def describe(self) -> str:
        status = "ok" if self.passed else "FAIL"
        text = f"{self.name}: {status} ({self.value:g} vs bound {self.bound:g})"
        if self.detail:
            text += f" -- {self.detail}"
        return text


@dataclass(frozen=True)
class ProbeQuality:
    """The verdict over all gates for one probe.

    ``estimator``/``sampling_rate`` record which MRC backend produced
    the judged curve (``None``/1.0 for the exact engines), so degraded
    sampled probes stay distinguishable downstream.
    """

    checks: Tuple[QualityCheck, ...]
    estimator: Optional[str] = None
    sampling_rate: float = 1.0

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> Tuple[QualityCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def check(self, name: str) -> QualityCheck:
        for entry in self.checks:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(check.name == name for check in self.checks)

    def describe(self) -> str:
        if self.ok:
            return "probe ok (all gates passed)"
        failed = ", ".join(
            f"{check.name}={check.value:g}" for check in self.failures
        )
        return f"probe rejected: {failed}"


def _record_verdict(quality: ProbeQuality) -> ProbeQuality:
    """Publish one verdict to the telemetry registry (no-op by default)."""
    registry = get_telemetry().registry
    registry.counter("probe.assessed").inc()
    if quality.estimator is not None:
        registry.counter(
            "probe.assessed_estimated", estimator=quality.estimator
        ).inc()
    if quality.ok:
        registry.counter("probe.ok").inc()
    else:
        registry.counter("probe.rejected").inc()
        for check in quality.failures:
            registry.counter("quality.gate_failures", gate=check.name).inc()
    return quality


def _unique_count(lines) -> int:
    """Distinct line numbers in a trace, without a per-entry ``int()``:
    one sort for an array-backed trace, one ``set`` for a list."""
    if isinstance(lines, np.ndarray):
        return int(np.unique(lines).size)
    return len(set(lines))


def assess_probe(
    probe: ProbeTrace,
    result: Optional[RapidMRCResult],
    log_capacity: int,
    config: QualityConfig = QualityConfig(),
) -> ProbeQuality:
    """Score one probe against every gate.

    Args:
        probe: the raw channel statistics.
        result: the computed MRC, or ``None`` when computation was not
            possible (empty log or zero-instruction probe) -- the
            result-side gates then fail by definition.
        log_capacity: the configured trace-log length (the fill-fraction
            denominator).
        config: gate thresholds.
    """
    if log_capacity <= 0:
        raise ValueError("log_capacity must be positive")
    checks: List[QualityCheck] = []
    entries = probe.entries
    fill = len(entries) / log_capacity
    checks.append(QualityCheck(
        name="log-fill",
        passed=fill >= config.min_fill_fraction,
        value=fill,
        bound=config.min_fill_fraction,
        detail=f"{len(entries)}/{log_capacity} entries",
    ))
    checks.append(QualityCheck(
        name="instructions",
        passed=probe.instructions > 0,
        value=float(probe.instructions),
        bound=1.0,
        detail="MPKI denominator must be positive",
    ))
    unique = len(set(entries))
    checks.append(QualityCheck(
        name="unique-lines",
        passed=unique >= config.min_unique_lines,
        value=float(unique),
        bound=float(config.min_unique_lines),
    ))
    out_of_range = sum(
        1 for line in entries
        if line < 0 or line >= config.max_plausible_line
    )
    oor_fraction = out_of_range / len(entries) if entries else 0.0
    checks.append(QualityCheck(
        name="address-range",
        passed=oor_fraction <= config.max_out_of_range_fraction,
        value=oor_fraction,
        bound=config.max_out_of_range_fraction,
        detail=f"{out_of_range} garbage line numbers",
    ))
    drop = probe.drop_fraction()
    checks.append(QualityCheck(
        name="drop-fraction",
        passed=drop <= config.max_drop_fraction,
        value=drop,
        bound=config.max_drop_fraction,
        detail=f"{probe.dropped_events}/{probe.l1d_misses} misses lost",
    ))
    stale = probe.stale_entries / len(entries) if entries else 0.0
    checks.append(QualityCheck(
        name="stale-fraction",
        passed=stale <= config.max_stale_fraction,
        value=stale,
        bound=config.max_stale_fraction,
    ))

    if result is None:
        checks.append(QualityCheck(
            name="computed",
            passed=False,
            value=0.0,
            bound=1.0,
            detail="no MRC could be computed from this probe",
        ))
        return _record_verdict(ProbeQuality(checks=tuple(checks)))

    estimator = getattr(result, "estimator", None)
    sampling_rate = getattr(result, "sampling_rate", 1.0)

    checks.append(QualityCheck(
        name="warmup-fraction",
        passed=result.warmup_fraction <= config.max_warmup_fraction,
        value=result.warmup_fraction,
        bound=config.max_warmup_fraction,
    ))
    total = result.histogram.total_accesses
    cold = result.histogram.cold_misses / total if total else 1.0
    # Streaming exemption works on the *corrected* trace: stale-SDAR
    # repeats make a streamer's raw log look reuse-heavy, but after
    # repair an all-unique trace cannot produce stack hits, so its
    # all-cold histogram is correct rather than suspicious.
    # len() (not truthiness) so this also handles the batch engine's
    # array-backed corrected traces.
    judged = result.correction.trace if result.correction else entries
    unique_fraction = (
        _unique_count(judged) / len(judged) if len(judged) else 0.0
    )
    streaming = unique_fraction >= config.streaming_unique_fraction
    checks.append(QualityCheck(
        name="cold-fraction",
        passed=streaming or cold <= config.max_cold_fraction,
        value=cold,
        bound=config.max_cold_fraction,
        detail=(
            "streaming probe (cold mass expected)" if streaming
            else f"{result.histogram.cold_misses}/{total} post-warmup accesses"
        ),
    ))
    pairs = max(1, result.mrc.num_points - 1)
    violations = result.mrc.monotone_violations() / pairs
    checks.append(QualityCheck(
        name="monotonicity",
        passed=violations <= config.max_monotone_violation_fraction,
        value=violations,
        bound=config.max_monotone_violation_fraction,
    ))
    return _record_verdict(ProbeQuality(
        checks=tuple(checks),
        estimator=estimator,
        sampling_rate=sampling_rate,
    ))


def assess_reuse(
    curve: MissRateCurve,
    anchor_size: int,
    anchor_mpki: Optional[float],
    config: QualityConfig = QualityConfig(),
    warmup_fraction: float = 0.0,
) -> ProbeQuality:
    """Quality-gate the *reuse* of a cached curve (no fresh probe ran).

    Reuse substitutes a remembered shape for a measurement, so the gates
    differ from :func:`assess_probe`: there is no channel to judge, but
    the substitution itself must be defensible.

    - ``anchor``: reuse always re-anchors at the live PMU sample, so a
      missing or implausible anchor makes reuse meaningless -- probe
      instead.
    - ``reuse-shift``: the v-offset needed to pin the cached shape at
      the live measurement.  Within bounds it is ordinary calibration
      (Table 2 column h); beyond ``max_reuse_shift_mpki`` the "same"
      phase measures nothing like the cached one, so the match is
      rejected.
    - ``monotonicity``: cached curves may come from disk; a corrupted
      or hand-edited file must not reach the partition selector.
    - ``warmup-fraction``: re-checks the stored probe metadata (same
      bound as the fresh-probe gate) so a file edit cannot smuggle in a
      curve the original gates would have rejected.

    Args:
        curve: the cached :class:`~repro.core.mrc.MissRateCurve`.
        anchor_size: current allocation (colors) -- the re-anchor point.
        anchor_mpki: most recent measured MPKI at that allocation.
        config: gate thresholds (shared with the probe gates).
        warmup_fraction: stored metadata of the probe that produced the
            curve.
    """
    checks: List[QualityCheck] = [assess_anchor(anchor_mpki, config)]
    if anchor_mpki is not None and checks[0].passed:
        shift = anchor_mpki - curve.value_at(anchor_size)
        checks.append(QualityCheck(
            name="reuse-shift",
            passed=abs(shift) <= config.max_reuse_shift_mpki,
            value=abs(shift),
            bound=config.max_reuse_shift_mpki,
            detail=f"v-offset {shift:+.2f} MPKI at {anchor_size} colors",
        ))
    pairs = max(1, curve.num_points - 1)
    violations = curve.monotone_violations() / pairs
    checks.append(QualityCheck(
        name="monotonicity",
        passed=violations <= config.max_monotone_violation_fraction,
        value=violations,
        bound=config.max_monotone_violation_fraction,
    ))
    checks.append(QualityCheck(
        name="warmup-fraction",
        passed=warmup_fraction <= config.max_warmup_fraction,
        value=warmup_fraction,
        bound=config.max_warmup_fraction,
    ))
    quality = ProbeQuality(checks=tuple(checks))
    registry = get_telemetry().registry
    registry.counter("store.reuse_assessed").inc()
    if quality.ok:
        registry.counter("store.reuse_ok").inc()
    else:
        registry.counter("store.reuse_rejected").inc()
        for check in quality.failures:
            registry.counter(
                "quality.reuse_gate_failures", gate=check.name
            ).inc()
    return quality


def assess_anchor(
    mpki: Optional[float],
    config: QualityConfig = QualityConfig(),
) -> QualityCheck:
    """Sanity-check one measured anchor point (v-offset input).

    A ``None`` anchor (no measurement available yet) fails the check --
    calibration without an anchor is meaningless.  Callers that can
    proceed uncalibrated should test for ``None`` themselves.
    """
    if mpki is None:
        return QualityCheck(
            name="anchor",
            passed=False,
            value=float("nan"),
            bound=config.max_plausible_mpki,
            detail="no anchor measurement available",
        )
    plausible = (
        math.isfinite(mpki) and 0.0 <= mpki <= config.max_plausible_mpki
    )
    return QualityCheck(
        name="anchor",
        passed=plausible,
        value=mpki if math.isfinite(mpki) else float("nan"),
        bound=config.max_plausible_mpki,
    )
