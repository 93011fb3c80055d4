"""The probe supervisor: deadlines, retries, and the degradation ladder.

The closed loop (:mod:`repro.runner.dynamic`) must keep making *some*
partitioning decision even when probes keep failing -- acting on garbage
is worse than acting on stale-but-valid data, and stalling the loop is
worse than an even split.  The supervisor encodes that policy:

1. **deadline** -- a probe that has not filled its log within an access
   budget is aborted (tiny working sets would otherwise probe forever,
   and a truncated channel would never terminate);
2. **retry with backoff** -- a failed or low-quality probe is retried up
   to ``max_retries`` times, with an exponentially growing cooldown so a
   persistently broken channel cannot monopolize the loop;
3. **degradation ladder** -- while no fresh curve is available the
   supervisor serves, in order: the per-process *last-known-good* curve,
   a probe-free *analytic estimate* (the Che/Fagin power-law fit of
   :mod:`repro.core.analytic`, built from monitoring samples alone), a
   flat single-anchor-point estimate built from the most recent PMU
   miss-rate sample, and finally nothing at all -- at which point the
   caller falls back to a uniform partition split.

Every step emits a structured :class:`ReliabilityEvent` so operators
(and tests) can reconstruct exactly why a decision was made.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.mrc import MissRateCurve
from repro.core.rapidmrc import RapidMRCResult
from repro.obs import Counter, get_telemetry
from repro.reliability.quality import (
    ProbeQuality,
    QualityConfig,
    assess_anchor,
)

__all__ = [
    "DegradationRung",
    "SupervisorConfig",
    "ReliabilityEvent",
    "ProbeSupervisor",
]


class DegradationRung(enum.Enum):
    """Where on the ladder a process's current curve came from.

    Ordered best to worst; ``UNIFORM_SPLIT`` means no curve at all and
    the caller must stop optimizing and split evenly.
    ``ANALYTIC_ESTIMATE`` is the probe-free Che/Fagin power-law fit
    (:mod:`repro.core.analytic`): better than a flat anchor because it
    still carries a size preference, worse than last-known-good because
    it was modeled, not measured.
    """

    FRESH = "fresh"
    LAST_KNOWN_GOOD = "last-known-good"
    ANALYTIC_ESTIMATE = "analytic-estimate"
    ANCHOR_FLAT = "anchor-flat"
    UNIFORM_SPLIT = "uniform-split"

    @property
    def rank(self) -> int:
        """Ladder position, 0 (best) to 4 (worst); monotone in quality."""
        return _RUNG_RANKS[self]


_RUNG_RANKS: Dict["DegradationRung", int] = {
    DegradationRung.FRESH: 0,
    DegradationRung.LAST_KNOWN_GOOD: 1,
    DegradationRung.ANALYTIC_ESTIMATE: 2,
    DegradationRung.ANCHOR_FLAT: 3,
    DegradationRung.UNIFORM_SPLIT: 4,
}


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervisor policy knobs.

    Args:
        quality: gate thresholds applied to every finished probe.
        max_retries: probe attempts after a failure before the process
            is parked on the degradation ladder until the next phase
            transition asks for a curve again.
        cooldown_base_intervals: cooldown (in monitoring intervals)
            before the first retry.
        cooldown_factor: multiplier applied to the cooldown per
            consecutive failure (exponential backoff).
        max_cooldown_intervals: backoff ceiling.
        deadline_log_multiple: probe deadline in accesses, expressed as
            a multiple of the trace-log length; a probe that has not
            filled its log after ``deadline_log_multiple * log_entries``
            accesses is aborted as truncated.
    """

    quality: QualityConfig = QualityConfig()
    max_retries: int = 3
    cooldown_base_intervals: int = 2
    cooldown_factor: float = 2.0
    max_cooldown_intervals: int = 64
    deadline_log_multiple: int = 80

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.cooldown_base_intervals < 0:
            raise ValueError("cooldown_base_intervals must be >= 0")
        if self.cooldown_factor < 1.0:
            raise ValueError("cooldown_factor must be >= 1")
        if self.max_cooldown_intervals < self.cooldown_base_intervals:
            raise ValueError(
                "max_cooldown_intervals must be >= cooldown_base_intervals"
            )
        if self.deadline_log_multiple < 1:
            raise ValueError("deadline_log_multiple must be >= 1")

    def cooldown_after(self, consecutive_failures: int) -> int:
        """Cooldown intervals before the next retry (exponential).

        The backoff is clamped at ``max_cooldown_intervals`` exactly
        once, in float space: a long failure streak overflows
        ``cooldown_factor ** n`` long before the int conversion, so the
        clamp must happen before (or instead of) rounding.
        """
        if consecutive_failures <= 0:
            return 0
        try:
            cooldown = self.cooldown_base_intervals * (
                self.cooldown_factor ** (consecutive_failures - 1)
            )
        except OverflowError:
            return self.max_cooldown_intervals
        if cooldown >= self.max_cooldown_intervals:
            return self.max_cooldown_intervals
        return int(round(cooldown))

    def deadline_accesses(self, log_entries: int) -> int:
        """Access budget for one probe with the given log length."""
        return self.deadline_log_multiple * log_entries


@dataclass(frozen=True)
class ReliabilityEvent:
    """One structured supervisor decision.

    ``kind`` is one of ``accepted``, ``rejected``, ``retry``,
    ``exhausted``, ``degraded``, ``deadline``, ``invalidated``,
    ``reused``, ``backoff-reset``.
    """

    kind: str
    pid: int
    rung: Optional[DegradationRung] = None
    detail: str = ""


class _Health:
    """Per-process reliability state.

    ``accepted``/``rejected`` are views over real telemetry
    :class:`~repro.obs.Counter` instruments, so they read the same with
    telemetry on or off.
    """

    def __init__(self) -> None:
        self.last_good: Optional[MissRateCurve] = None
        self.consecutive_failures = 0
        self._accepted = Counter()
        self._rejected = Counter()
        self.rung = DegradationRung.UNIFORM_SPLIT

    @property
    def accepted(self) -> int:
        return self._accepted.value

    @property
    def rejected(self) -> int:
        return self._rejected.value


class ProbeSupervisor:
    """Quality-gates probes and walks the degradation ladder.

    The supervisor is engine-agnostic: the caller runs the probe and the
    MRC computation, then asks the supervisor to *admit* the outcome.
    ``admit`` returns the curve to use (calibrated when the anchor
    passed its sanity check) or ``None`` plus retry guidance; when no
    fresh curve is admissible, :meth:`fallback_curve` serves the best
    remaining rung.

    Args:
        config: policy knobs.
        num_colors: machine partition-unit count, used to synthesize the
            flat anchor-point estimate over the full size range.
    """

    def __init__(
        self,
        config: SupervisorConfig = SupervisorConfig(),
        num_colors: int = 16,
    ):
        if num_colors < 1:
            raise ValueError("num_colors must be >= 1")
        self.config = config
        self.num_colors = num_colors
        self.events: List[ReliabilityEvent] = []
        self._health: Dict[int, _Health] = {}

    # -- bookkeeping --------------------------------------------------------

    def health(self, pid: int) -> _Health:
        if pid not in self._health:
            self._health[pid] = _Health()
        return self._health[pid]

    def last_known_good(self, pid: int) -> Optional[MissRateCurve]:
        return self.health(pid).last_good

    def rung(self, pid: int) -> DegradationRung:
        return self.health(pid).rung

    def events_of_kind(self, kind: str) -> List[ReliabilityEvent]:
        return [event for event in self.events if event.kind == kind]

    def _emit(self, kind: str, pid: int,
              rung: Optional[DegradationRung] = None,
              detail: str = "") -> ReliabilityEvent:
        event = ReliabilityEvent(kind=kind, pid=pid, rung=rung, detail=detail)
        self.events.append(event)
        registry = get_telemetry().registry
        if rung is not None:
            registry.counter(
                "reliability.events", kind=kind, rung=rung.value
            ).inc()
            # The ladder position as a live signal (0 = FRESH .. 4 =
            # UNIFORM_SPLIT): scorecards and exporters read dwell and
            # current depth from here without replaying the event log.
            registry.gauge("reliability.rung_rank", pid=pid).set(rung.rank)
        else:
            registry.counter("reliability.events", kind=kind).inc()
        return event

    # -- admission ----------------------------------------------------------

    def admit(
        self,
        pid: int,
        quality: ProbeQuality,
        result: Optional[RapidMRCResult],
        anchor_size: int,
        anchor_mpki: Optional[float],
    ) -> Optional[MissRateCurve]:
        """Judge one finished probe; return the curve to act on, if any.

        A probe is admitted only when every quality gate passed and the
        anchor measurement, if one exists, is plausible; the (calibrated
        when possible) curve then becomes the process's last-known-good.
        A ``None`` anchor is tolerated here -- early probes can finish
        before the first monitoring sample -- and the curve is admitted
        uncalibrated.  Otherwise ``None`` is returned and the failure is
        recorded for retry/backoff accounting (see
        :meth:`retry_guidance`).
        """
        health = self.health(pid)
        anchor_bad = False
        if anchor_mpki is not None:
            anchor_bad = not assess_anchor(
                anchor_mpki, self.config.quality
            ).passed
        if quality.ok and result is not None and not anchor_bad:
            if anchor_mpki is not None:
                curve = result.calibrate(anchor_size, anchor_mpki)
                detail = f"anchor {anchor_mpki:.2f} MPKI at {anchor_size} colors"
            else:
                curve = result.best_mrc
                detail = "uncalibrated (no anchor sample yet)"
            health.last_good = curve
            health.consecutive_failures = 0
            health._accepted.inc()
            health.rung = DegradationRung.FRESH
            self._emit("accepted", pid, DegradationRung.FRESH, detail=detail)
            return curve

        health._rejected.inc()
        health.consecutive_failures += 1
        reasons = [check.name for check in quality.failures]
        if anchor_bad:
            reasons.append("anchor")
        self._emit("rejected", pid, detail=",".join(reasons) or "unknown")
        return None

    def note_reuse(self, pid: int, curve: MissRateCurve,
                   detail: str = "") -> None:
        """Record a curve served from the MRC store instead of a probe.

        A reused curve passed the reuse quality gates
        (:func:`~repro.reliability.quality.assess_reuse`), so it counts
        as a success: it becomes the process's last-known-good, clears
        the consecutive-failure streak, and puts the process on the
        ``FRESH`` rung -- the decision basis is as good as a probe's.
        """
        health = self.health(pid)
        health.last_good = curve
        health.consecutive_failures = 0
        health._accepted.inc()
        health.rung = DegradationRung.FRESH
        self._emit("reused", pid, DegradationRung.FRESH, detail=detail)

    def report_deadline(self, pid: int, accesses: int) -> None:
        """Record a probe aborted by the access-budget deadline."""
        health = self.health(pid)
        health._rejected.inc()
        health.consecutive_failures += 1
        self._emit("deadline", pid,
                   detail=f"aborted after {accesses} accesses")

    def reset_backoff(self, pid: int, reason: str = "") -> None:
        """Clear the consecutive-failure streak without an admission.

        A phase transition makes the old failure streak meaningless: the
        broken probes described a working set that no longer exists, so
        the *new* phase's probes should start from the base cooldown
        instead of inheriting an inflated backoff.  The dynamic manager
        calls this when a transition re-requests a probe for a process
        that was parked on the ladder.
        """
        health = self.health(pid)
        if health.consecutive_failures == 0:
            return
        health.consecutive_failures = 0
        self._emit("backoff-reset", pid, detail=reason)

    def report_invalidated(self, pid: int, reason: str = "") -> None:
        """Record a probe invalidated mid-collection (phase transition).

        Section 5.2.2: a trace spanning a phase boundary mixes two
        working sets, so the loop discards it rather than computing a
        curve that describes neither phase.
        """
        health = self.health(pid)
        health._rejected.inc()
        health.consecutive_failures += 1
        self._emit("invalidated", pid, detail=reason)

    # -- retry / degradation ------------------------------------------------

    def retry_guidance(self, pid: int) -> Tuple[bool, int]:
        """After a failure: ``(should_retry, cooldown_intervals)``.

        Retries stop once ``max_retries`` consecutive failures have
        accumulated; the process then rides the degradation ladder.  The
        failure count clears on an *accepted* probe (or reuse) and on a
        phase transition (:meth:`reset_backoff` -- a new phase owes
        nothing to the old phase's broken probes); while the same phase
        keeps failing, the backoff keeps growing.
        """
        health = self.health(pid)
        failures = health.consecutive_failures
        if failures > self.config.max_retries:
            self._emit(
                "exhausted", pid,
                detail=f"{failures - 1} retries used",
            )
            return False, 0
        cooldown = self.config.cooldown_after(failures)
        self._emit(
            "retry", pid,
            detail=f"attempt {failures}, cooldown {cooldown} intervals",
        )
        return True, cooldown

    def fallback_curve(
        self,
        pid: int,
        recent_mpki: Optional[float],
        analytic: Optional[MissRateCurve] = None,
    ) -> Tuple[Optional[MissRateCurve], DegradationRung]:
        """Serve the best available rung below a fresh probe.

        Ladder: last-known-good curve -> probe-free analytic estimate
        (when the caller supplies one, see :mod:`repro.core.analytic`)
        -> flat estimate pinned at the most recent plausible PMU sample
        -> ``(None, UNIFORM_SPLIT)``.  The flat estimate deliberately
        carries no size preference: the selector will treat the process
        as cache-insensitive, which is the least committal reading of a
        single point.  An analytic curve is sanity-checked the same way
        a cached curve is -- a non-monotone fit never reaches the
        selector.
        """
        health = self.health(pid)
        if health.last_good is not None:
            health.rung = DegradationRung.LAST_KNOWN_GOOD
            self._emit("degraded", pid, DegradationRung.LAST_KNOWN_GOOD)
            return health.last_good, DegradationRung.LAST_KNOWN_GOOD
        if analytic is not None and self._analytic_plausible(analytic):
            health.rung = DegradationRung.ANALYTIC_ESTIMATE
            self._emit(
                "degraded", pid, DegradationRung.ANALYTIC_ESTIMATE,
                detail=analytic.label,
            )
            return analytic, DegradationRung.ANALYTIC_ESTIMATE
        anchor_check = assess_anchor(recent_mpki, self.config.quality)
        if anchor_check.passed:
            flat = MissRateCurve(
                {size: recent_mpki for size in range(1, self.num_colors + 1)},
                label=f"anchor-flat:pid{pid}",
            )
            health.rung = DegradationRung.ANCHOR_FLAT
            self._emit(
                "degraded", pid, DegradationRung.ANCHOR_FLAT,
                detail=f"{recent_mpki:.2f} MPKI",
            )
            return flat, DegradationRung.ANCHOR_FLAT
        health.rung = DegradationRung.UNIFORM_SPLIT
        self._emit("degraded", pid, DegradationRung.UNIFORM_SPLIT)
        return None, DegradationRung.UNIFORM_SPLIT

    def _analytic_plausible(self, curve: MissRateCurve) -> bool:
        """Gate an analytic estimate the way a cached curve is gated."""
        pairs = max(1, curve.num_points - 1)
        violations = curve.monotone_violations() / pairs
        bound = self.config.quality.max_monotone_violation_fraction
        if violations > bound:
            return False
        top = curve.value_at(curve.sizes[0])
        return top <= self.config.quality.max_plausible_mpki

    # -- reporting ----------------------------------------------------------

    def summary(self) -> Dict[int, Dict[str, object]]:
        """Per-process reliability snapshot (CLI / report consumption)."""
        return {
            pid: {
                "accepted": health.accepted,
                "rejected": health.rejected,
                "consecutive_failures": health.consecutive_failures,
                "rung": health.rung.value,
                "has_last_known_good": health.last_good is not None,
            }
            for pid, health in sorted(self._health.items())
        }
