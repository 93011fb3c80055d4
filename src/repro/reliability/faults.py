"""Deterministic fault injection for the PMU trace channel.

The paper's channel is already imperfect by design (dual-LSU drops,
stale-SDAR repetitions -- Section 3.1.1); a production deployment also
has to survive the failure modes *around* the channel: corrupted SDAR
reads, probes cut short, lost overflow exceptions, applications changing
phase mid-probe (Section 5.2.2), and garbage anchor measurements.  This
module injects each of those defects deterministically, so the quality
gates and the degradation ladder can be exercised reproducibly.

Faults compose: a :class:`FaultPlan` holds one :class:`FaultSpec` per
fault class, and :class:`FaultyTraceCollector` wraps any collector with
the :class:`~repro.pmu.sampling.TraceCollector` interface (``observe``,
``observe_instructions``, ``finish``, ``done``), applying the active
specs as events flow through.  All randomness comes from one
``random.Random`` seeded from the plan, so the same plan always injects
the same defects into the same event stream.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, replace as dc_replace
from typing import Dict, Iterable, Optional, Tuple

from repro.obs import Counter, get_telemetry
from repro.pmu.sampling import BatchEventConsumer, ProbeTrace
from repro.sim.hierarchy import AccessResult

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultyTraceCollector",
    "FAULT_KINDS",
    "ServiceFaultKind",
    "ServiceFaultSpec",
    "ServiceFaultPlan",
    "SERVICE_FAULT_KINDS",
]


class FaultKind(enum.Enum):
    """The five injectable fault classes.

    Attributes:
        CORRUPT_SDAR: an SDAR read returns a garbage line number (bus
            glitch, racing update); the bogus address lands in the log.
        TRUNCATE_LOG: the probing channel dies partway through -- the
            log never fills and the probe ends with a partial trace.
        LOST_EXCEPTIONS: overflow exceptions are swallowed (masked
            interrupts, handler preemption); the sampled events vanish.
        PHASE_SHIFT: the application transitions to a different phase
            mid-probe, so the log mixes two unrelated working sets.
        GARBAGE_ANCHOR: the measured anchor miss rate used for v-offset
            calibration is nonsense (counter wrap, wrong-core read).
    """

    CORRUPT_SDAR = "corrupt-sdar"
    TRUNCATE_LOG = "truncate-log"
    LOST_EXCEPTIONS = "lost-exceptions"
    PHASE_SHIFT = "phase-shift"
    GARBAGE_ANCHOR = "garbage-anchor"


#: Canonical CLI spelling of every fault kind.
FAULT_KINDS: Tuple[str, ...] = tuple(kind.value for kind in FaultKind)

#: Default ``rate`` per fault kind.  The rate's meaning is kind-specific
#: (probability per event, or a log-fraction trigger point) -- see
#: :class:`FaultSpec`.
_DEFAULT_RATES: Dict[FaultKind, float] = {
    FaultKind.CORRUPT_SDAR: 0.25,
    FaultKind.TRUNCATE_LOG: 0.3,
    FaultKind.LOST_EXCEPTIONS: 0.5,
    FaultKind.PHASE_SHIFT: 0.5,
    FaultKind.GARBAGE_ANCHOR: 1.0,
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault class with its intensity.

    Args:
        kind: which defect to inject.
        rate: kind-specific intensity, always in [0, 1]:

            - ``CORRUPT_SDAR``: probability each logged entry is garbage;
            - ``TRUNCATE_LOG``: log-fill fraction at which the channel
              dies (0.3 = the probe ends with the log 30% full);
            - ``LOST_EXCEPTIONS``: probability each L1D-miss sample's
              exception is swallowed;
            - ``PHASE_SHIFT``: log-fill fraction at which the workload's
              addresses jump to a disjoint working set;
            - ``GARBAGE_ANCHOR``: probability a given anchor measurement
              is garbage.
    """

    kind: FaultKind
    rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rate is None:
            object.__setattr__(self, "rate", _DEFAULT_RATES[self.kind])
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(
                f"fault rate must be in [0, 1], got {self.rate!r} "
                f"for {self.kind.value}"
            )

    def describe(self) -> str:
        return f"{self.kind.value}:{self.rate:g}"


@dataclass(frozen=True)
class FaultPlan:
    """A composable, seedable set of faults to inject.

    Args:
        specs: the active fault specs (at most one per kind).
        seed: root seed; every collector wrapped under this plan derives
            its RNG from ``(seed, salt)`` so concurrent probes stay
            independently deterministic.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        kinds = [spec.kind for spec in self.specs]
        if len(kinds) != len(set(kinds)):
            raise ValueError("at most one FaultSpec per fault kind")
        object.__setattr__(self, "specs", tuple(self.specs))

    def spec_for(self, kind: FaultKind) -> Optional[FaultSpec]:
        for spec in self.specs:
            if spec.kind is kind:
                return spec
        return None

    def rng(self, salt: object = "") -> random.Random:
        """A fresh deterministic RNG scoped to ``salt`` (e.g. a pid)."""
        return random.Random(f"faultplan/{self.seed}/{salt}")

    def corrupt_anchor(self, mpki: float, salt: object = "") -> float:
        """Apply GARBAGE_ANCHOR (if active) to a measured anchor MPKI.

        Returns either the measurement unchanged or a value no sane
        calibration should accept: a huge positive rate, a negative
        rate, or NaN-free garbage scaled far outside plausibility.
        """
        spec = self.spec_for(FaultKind.GARBAGE_ANCHOR)
        if spec is None:
            return mpki
        rng = self.rng(f"anchor/{salt}")
        if rng.random() >= spec.rate:
            return mpki
        # Three garbage shapes, deterministically chosen.
        shape = rng.randrange(3)
        if shape == 0:
            return -abs(mpki) - rng.uniform(1.0, 100.0)
        if shape == 1:
            return rng.uniform(1e5, 1e7)
        return mpki * rng.uniform(200.0, 2000.0) + 1e4

    def describe(self) -> str:
        if not self.specs:
            return "no faults"
        return ",".join(spec.describe() for spec in self.specs)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI spec like ``"corrupt-sdar,truncate-log:0.4"``.

        Each comma-separated item is ``kind`` or ``kind:rate``; ``all``
        expands to every fault class at its default rate.
        """
        items = [item.strip() for item in text.split(",") if item.strip()]
        if not items:
            raise ValueError("empty fault spec")
        specs = []
        for item in items:
            name, _, rate_text = item.partition(":")
            if name == "all":
                if rate_text:
                    raise ValueError("'all' takes no rate")
                specs.extend(FaultSpec(kind) for kind in FaultKind)
                continue
            try:
                kind = FaultKind(name)
            except ValueError:
                raise ValueError(
                    f"unknown fault kind {name!r}; "
                    f"choose from {', '.join(FAULT_KINDS)}"
                ) from None
            rate = float(rate_text) if rate_text else None
            specs.append(FaultSpec(kind, rate))
        return cls(specs=tuple(specs), seed=seed)


class InjectionReport:
    """What the wrapper actually injected during one probe.

    The integer fields are read-only views over real
    :class:`~repro.obs.Counter` instruments, so the report works the
    same whether telemetry is enabled or not; the wrapper additionally
    mirrors every injection into the process-wide registry under
    ``faults.*``.
    """

    def __init__(self) -> None:
        self._corrupted = Counter()
        self._lost = Counter()
        self.truncated = False
        self.phase_shifted = False
        self.counts: Dict[str, int] = {}

    @property
    def corrupted_entries(self) -> int:
        return self._corrupted.value

    @property
    def lost_exceptions(self) -> int:
        return self._lost.value

    def record_corrupted(self) -> None:
        self._corrupted.inc()

    def record_lost(self) -> None:
        self._lost.inc()

    def summary(self) -> str:
        parts = [
            f"corrupted={self.corrupted_entries}",
            f"lost={self.lost_exceptions}",
            f"truncated={self.truncated}",
            f"phase_shifted={self.phase_shifted}",
        ]
        return " ".join(parts)


class FaultyTraceCollector(BatchEventConsumer):
    """Wrap a trace collector, injecting the plan's faults live.

    The wrapper is interface-compatible with
    :class:`~repro.pmu.sampling.TraceCollector`, so runners can treat it
    as a drop-in channel.  Faults are applied per event:

    - LOST_EXCEPTIONS swallows L1D-miss events before they reach the
      underlying collector (the sample never existed);
    - CORRUPT_SDAR rewrites the sampled line to a garbage address on a
      *copy* of the event (the simulation's own view stays intact);
    - PHASE_SHIFT relocates every line to a disjoint address region once
      the log passes the trigger fraction, mimicking the application
      switching working sets mid-probe;
    - TRUNCATE_LOG reports ``done`` once the log passes the trigger
      fraction and drops everything after, ending the probe early with
      a partial log.

    Args:
        inner: the real collector (``TraceCollector`` or
            ``IdealTraceCollector``).
        plan: which faults to inject.
        salt: decorrelates RNG streams between wrapped probes (the
            dynamic manager salts with ``pid/probe-number``).
    """

    #: Offset applied by PHASE_SHIFT: far beyond any simulated footprint,
    #: so the shifted lines form a disjoint working set.
    PHASE_OFFSET = 1 << 40

    def __init__(self, inner, plan: FaultPlan, salt: object = ""):
        self.inner = inner
        self.plan = plan
        self._rng = plan.rng(salt)
        self.report = InjectionReport()
        self._corrupt = plan.spec_for(FaultKind.CORRUPT_SDAR)
        self._truncate = plan.spec_for(FaultKind.TRUNCATE_LOG)
        self._lost = plan.spec_for(FaultKind.LOST_EXCEPTIONS)
        self._shift = plan.spec_for(FaultKind.PHASE_SHIFT)
        # Registry instruments, cached once per wrapped probe (null
        # no-ops when telemetry is off).
        registry = get_telemetry().registry
        self._corrupt_counter = registry.counter(
            "faults.injected", kind=FaultKind.CORRUPT_SDAR.value
        )
        self._lost_counter = registry.counter(
            "faults.injected", kind=FaultKind.LOST_EXCEPTIONS.value
        )
        self._truncated_counter = registry.counter("faults.truncated_probes")
        self._shift_counter = registry.counter("faults.phase_shifted_probes")

    # -- collector interface ------------------------------------------------

    @property
    def done(self) -> bool:
        if self._truncated_now():
            if not self.report.truncated:
                self.report.truncated = True
                self._truncated_counter.inc()
            return True
        return self.inner.done

    @property
    def exceptions(self) -> int:
        return self.inner.exceptions

    @property
    def instructions(self) -> int:
        return self.inner.instructions

    @property
    def log(self):
        return self.inner.log

    def observe_instructions(self, count: int) -> None:
        self.inner.observe_instructions(count)

    def observe(self, result: AccessResult) -> None:
        self.observe_event(result.line, result.l1_hit, result.prefetched_lines)

    def observe_event(self, line, l1_hit, prefetched_lines=()) -> None:
        """Raw-event form of :meth:`observe`, with identical fault draws."""
        if self.done:
            return
        if l1_hit:
            self.inner.observe_event(line, True, prefetched_lines)
            return

        if self._lost is not None and self._rng.random() < self._lost.rate:
            # The overflow exception never fired: no SDAR read, no log
            # entry, and the underlying collector never sees the miss.
            self.report.record_lost()
            self._lost_counter.inc()
            return

        prefetched = prefetched_lines
        if self._phase_shifted_now():
            if not self.report.phase_shifted:
                self.report.phase_shifted = True
                self._shift_counter.inc()
            line = self._relocate(line)
            prefetched = [self._relocate(pf) for pf in prefetched]
        if self._corrupt is not None and self._rng.random() < self._corrupt.rate:
            self.report.record_corrupted()
            self._corrupt_counter.inc()
            line = self._rng.getrandbits(48)
        self.inner.observe_event(line, False, prefetched)

    def finish(self) -> ProbeTrace:
        trace = self.inner.finish()
        if self.report.lost_exceptions:
            # The PMC counted these misses even though their exceptions
            # were swallowed, so the channel's own statistics admit to
            # the loss -- that is what the drop-fraction gate audits.
            trace = dc_replace(
                trace,
                l1d_misses=trace.l1d_misses + self.report.lost_exceptions,
                dropped_events=(
                    trace.dropped_events + self.report.lost_exceptions
                ),
            )
        return trace

    # -- fault triggers -----------------------------------------------------

    def _fill_fraction(self) -> float:
        log = self.inner.log
        return len(log) / log.capacity if log.capacity else 1.0

    def _truncated_now(self) -> bool:
        return (
            self._truncate is not None
            and self._fill_fraction() >= self._truncate.rate
        )

    def _phase_shifted_now(self) -> bool:
        return (
            self._shift is not None
            and self._fill_fraction() >= self._shift.rate
        )

    def _relocate(self, line: int) -> int:
        return line + self.PHASE_OFFSET


def wrap_collector(
    collector, plan: Optional[FaultPlan], salt: object = ""
):
    """Wrap ``collector`` under ``plan``; a ``None`` plan is a no-op."""
    if plan is None or not plan.specs:
        return collector
    return FaultyTraceCollector(collector, plan, salt=salt)


# ---------------------------------------------------------------------------
# Service-level faults (the fleet partition service's failure modes)
# ---------------------------------------------------------------------------


class ServiceFaultKind(enum.Enum):
    """Failure modes of the *service* around the probe channel.

    The per-probe faults above corrupt one trace; a long-running fleet
    service additionally has to survive whole subsystems misbehaving:

    Attributes:
        DOMAIN_BLACKOUT: one cache domain's PMU goes dark for a window
            of ticks -- in-flight probes on the domain abort and no new
            probe can be admitted until the window closes (firmware
            update, perf-subsystem wedge, counter takeover by another
            agent).
        CHURN_DELAY: process join/leave/crash notifications arrive late
            by a fixed number of ticks (slow control plane).
        CHURN_DUPLICATE: every churn notification is re-delivered a few
            ticks after the original (at-least-once delivery); the
            duplicate must be a no-op.
        BUDGET_STORM: the global probe-access budget is drained to zero
            every tick of a window -- no probe anywhere can be admitted
            (a burst of higher-priority PMU consumers).
    """

    DOMAIN_BLACKOUT = "domain-blackout"
    CHURN_DELAY = "churn-delay"
    CHURN_DUPLICATE = "churn-duplicate"
    BUDGET_STORM = "budget-storm"


#: Canonical CLI spelling of every service-level fault kind.
SERVICE_FAULT_KINDS: Tuple[str, ...] = tuple(
    kind.value for kind in ServiceFaultKind
)


@dataclass(frozen=True)
class ServiceFaultSpec:
    """One service-level fault instance.

    Args:
        kind: which failure mode.
        start_tick: first fleet tick the fault is active (windowed
            kinds: ``DOMAIN_BLACKOUT``, ``BUDGET_STORM``).
        duration_ticks: window length in ticks (windowed kinds).
        domain: affected domain index for ``DOMAIN_BLACKOUT``; ``None``
            blacks out every domain.
        magnitude: ``CHURN_DELAY``: ticks each notification is late;
            ``CHURN_DUPLICATE``: ticks after the original at which the
            duplicate is delivered.
    """

    kind: ServiceFaultKind
    start_tick: int = 0
    duration_ticks: int = 0
    domain: Optional[int] = None
    magnitude: int = 2

    def __post_init__(self) -> None:
        if self.start_tick < 0:
            raise ValueError(f"start_tick must be >= 0, got {self.start_tick!r}")
        if self.duration_ticks < 0:
            raise ValueError(
                f"duration_ticks must be >= 0, got {self.duration_ticks!r}"
            )
        if self.magnitude < 1:
            raise ValueError(f"magnitude must be >= 1, got {self.magnitude!r}")
        windowed = self.kind in (
            ServiceFaultKind.DOMAIN_BLACKOUT, ServiceFaultKind.BUDGET_STORM
        )
        if windowed and self.duration_ticks == 0:
            raise ValueError(
                f"{self.kind.value} needs a positive duration_ticks"
            )

    @property
    def end_tick(self) -> int:
        """First tick *after* the fault window (windowed kinds)."""
        return self.start_tick + self.duration_ticks

    def active(self, tick: int) -> bool:
        return self.start_tick <= tick < self.end_tick

    def describe(self) -> str:
        if self.kind is ServiceFaultKind.DOMAIN_BLACKOUT:
            where = "*" if self.domain is None else str(self.domain)
            return (f"{self.kind.value}:{where}"
                    f"@{self.start_tick}+{self.duration_ticks}")
        if self.kind is ServiceFaultKind.BUDGET_STORM:
            return f"{self.kind.value}@{self.start_tick}+{self.duration_ticks}"
        return f"{self.kind.value}:{self.magnitude}"


@dataclass(frozen=True)
class ServiceFaultPlan:
    """A composable set of service-level faults, fully deterministic.

    Unlike the per-probe :class:`FaultPlan` there is no randomness at
    all: every fault is a scheduled window or a fixed transform of the
    churn schedule, so a chaos run replays exactly.
    """

    specs: Tuple[ServiceFaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def specs_of(self, kind: ServiceFaultKind) -> Tuple[ServiceFaultSpec, ...]:
        return tuple(spec for spec in self.specs if spec.kind is kind)

    # -- queries the fleet service makes each tick --------------------------

    def blackout_active(self, domain: int, tick: int) -> bool:
        return any(
            spec.active(tick)
            and (spec.domain is None or spec.domain == domain)
            for spec in self.specs_of(ServiceFaultKind.DOMAIN_BLACKOUT)
        )

    def storm_active(self, tick: int) -> bool:
        return any(
            spec.active(tick)
            for spec in self.specs_of(ServiceFaultKind.BUDGET_STORM)
        )

    def churn_delay_ticks(self) -> int:
        """Total delivery delay applied to every churn notification."""
        return sum(
            spec.magnitude
            for spec in self.specs_of(ServiceFaultKind.CHURN_DELAY)
        )

    def churn_duplicate_offset(self) -> Optional[int]:
        """Ticks after the original at which a duplicate is delivered."""
        specs = self.specs_of(ServiceFaultKind.CHURN_DUPLICATE)
        if not specs:
            return None
        return max(spec.magnitude for spec in specs)

    def clear_tick(self) -> int:
        """First tick at which every windowed fault has ended."""
        ends = [
            spec.end_tick for spec in self.specs
            if spec.kind in (
                ServiceFaultKind.DOMAIN_BLACKOUT, ServiceFaultKind.BUDGET_STORM
            )
        ]
        return max(ends) if ends else 0

    def describe(self) -> str:
        if not self.specs:
            return "no service faults"
        return ",".join(spec.describe() for spec in self.specs)

    # -- CLI parsing ---------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ServiceFaultPlan":
        """Parse a CLI spec.

        Grammar per comma-separated item:

        - ``domain-blackout[:DOMAIN]@START+DURATION`` (``:*`` = all
          domains);
        - ``budget-storm@START+DURATION``;
        - ``churn-delay[:TICKS]`` / ``churn-duplicate[:TICKS]``;
        - ``all`` -- a canonical chaos mix: domain 0 blacked out, one
          budget storm, delayed and duplicated churn.
        """
        items = [item.strip() for item in text.split(",") if item.strip()]
        if not items:
            raise ValueError("empty service fault spec")
        specs: list = []
        for item in items:
            if item == "all":
                specs.extend([
                    ServiceFaultSpec(
                        ServiceFaultKind.DOMAIN_BLACKOUT,
                        start_tick=8, duration_ticks=6, domain=0,
                    ),
                    ServiceFaultSpec(
                        ServiceFaultKind.BUDGET_STORM,
                        start_tick=18, duration_ticks=5,
                    ),
                    ServiceFaultSpec(
                        ServiceFaultKind.CHURN_DELAY, magnitude=2
                    ),
                    ServiceFaultSpec(
                        ServiceFaultKind.CHURN_DUPLICATE, magnitude=3
                    ),
                ])
                continue
            specs.append(cls._parse_item(item))
        return cls(specs=tuple(specs))

    @staticmethod
    def _parse_item(item: str) -> ServiceFaultSpec:
        head, at, window = item.partition("@")
        name, _, qualifier = head.partition(":")
        try:
            kind = ServiceFaultKind(name)
        except ValueError:
            raise ValueError(
                f"unknown service fault kind {name!r}; "
                f"choose from {', '.join(SERVICE_FAULT_KINDS)}"
            ) from None
        if kind in (ServiceFaultKind.DOMAIN_BLACKOUT,
                    ServiceFaultKind.BUDGET_STORM):
            if not at:
                raise ValueError(f"{name} needs a @START+DURATION window")
            start_text, plus, duration_text = window.partition("+")
            if not plus:
                raise ValueError(f"{name} window must be @START+DURATION")
            domain: Optional[int] = None
            if kind is ServiceFaultKind.DOMAIN_BLACKOUT and qualifier not in ("", "*"):
                domain = int(qualifier)
            return ServiceFaultSpec(
                kind,
                start_tick=int(start_text),
                duration_ticks=int(duration_text),
                domain=domain,
            )
        if at:
            raise ValueError(f"{name} takes no @window")
        magnitude = int(qualifier) if qualifier else 2
        return ServiceFaultSpec(kind, magnitude=magnitude)
