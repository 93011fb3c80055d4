"""Continuous data-address sampling: the trace collector.

:class:`TraceCollector` plays the role of RapidMRC's kernel component: it
arms a PMC on L1D misses with threshold one, and on each overflow
exception reads the SDAR into a :class:`~repro.pmu.tracelog.TraceLog`.
It consumes :class:`~repro.sim.hierarchy.AccessResult` events from the
simulated hierarchy and reproduces the channel defects of Section 3.1.1:

- **dual-LSU missed events** (complex issue mode only): when an L1D miss
  follows hard on the heels of another (both "in flight"), the second
  sometimes never updates the SDAR -- its memory request was already
  issued when the first miss's exception flushed the pipeline, so the
  re-issued instruction hits in L1.  No SDAR update, no counted event:
  the access vanishes from the trace.
- **stale-SDAR prefetch entries** (POWER5): each hardware prefetch raises
  a trace entry, but the SDAR keeps its old value, producing runs of
  repeated entries.  On the POWER5+ the prefetch raises nothing at all.

The registers themselves hold no state here: with threshold one every
counted event overflows at once, and each handler reads the address the
current miss just wrote.  So every entry a miss logs, demand or stale,
is that miss's line, and each entry costs one exception.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

import numpy as np

from repro.core.fastpath import as_trace_array
from repro.obs import get_telemetry
from repro.pmu.tracelog import TraceLog
from repro.sim.cpu import IssueMode
from repro.sim.hierarchy import AccessResult

__all__ = [
    "BatchEventConsumer",
    "INFLIGHT_WINDOW",
    "PMUModel",
    "ProbeTrace",
    "TraceCollector",
    "finish_probe",
]

#: Memory accesses within which two L1D misses are both in flight: a
#: miss this close after the previous one may be dropped in complex mode.
INFLIGHT_WINDOW = 2


class BatchEventConsumer:
    """Batched half of the ``observe_event`` protocol.

    :meth:`observe_events` feeds a batch of raw events and reports how
    many the probe consumed, stopping with the event on which ``done``
    first turns true.  No engine calls it: the native engine runs the
    stock collectors' channel itself and sends every other observer to
    the scalar driver.  It is kept only because the repository
    benchmark's per-layer wrapper list (``bench/layers.py``) names it.
    """

    def observe_events(self, lines, l1_hits, prefetched=None) -> int:
        """Feed raw events in bulk; returns the number consumed.

        Args:
            lines: physical line number per event.
            l1_hits: L1 hit flag per event.
            prefetched: per-event sequences of prefetched lines, or
                ``None`` when no event prefetched anything.
        """
        observe = self.observe_event
        total = len(lines)
        if prefetched is None:
            for index in range(total):
                observe(lines[index], l1_hits[index])
                if self.done:
                    return index + 1
        else:
            for index in range(total):
                observe(lines[index], l1_hits[index], prefetched[index])
                if self.done:
                    return index + 1
        return total


class PMUModel(enum.Enum):
    """Which processor's PMU quirks to reproduce."""

    POWER5 = "power5"
    POWER5_PLUS = "power5+"

    @property
    def prefetch_raises_stale_entry(self) -> bool:
        """POWER5: prefetches log a stale SDAR repeat (Section 5.2.7)."""
        return self is PMUModel.POWER5


@dataclass
class ProbeTrace:
    """Everything a probing period produced.

    Attributes:
        entries: raw (uncorrected) trace log contents -- cache-line
            numbers as sampled from the SDAR, as a contiguous int64
            array (the collectors hand over their log's filled prefix;
            any other sequence is coerced once on construction).
        instructions: instructions the application completed during the
            probe (the MPKI denominator, Table 2 column c).
        l1d_misses: true number of L1D misses during the probe, including
            the ones the PMU dropped.
        dropped_events: misses that never made it into the log.
        stale_entries: log entries that are stale-SDAR repetitions.
        exceptions: overflow exceptions taken (each costs a pipeline
            flush; feeds the overhead model, Table 2 column a).
    """

    entries: np.ndarray
    instructions: int
    l1d_misses: int
    dropped_events: int
    stale_entries: int
    exceptions: int

    def __post_init__(self) -> None:
        self.entries = as_trace_array(self.entries)

    def drop_fraction(self) -> float:
        if self.l1d_misses == 0:
            return 0.0
        return self.dropped_events / self.l1d_misses


def finish_probe(collector) -> ProbeTrace:
    """Package ``collector``'s probe and publish its channel counters.

    The one finishing step of both stock collectors: whole-probe totals
    go to the telemetry registry once per probe, never per event.
    """
    trace = ProbeTrace(
        entries=collector.log.entries(),
        instructions=collector.instructions,
        l1d_misses=collector.l1d_misses,
        dropped_events=collector.dropped_events,
        stale_entries=collector.stale_entries,
        exceptions=collector.exceptions,
    )
    registry = get_telemetry().registry
    registry.counter("pmu.probes").inc()
    registry.counter("pmu.log_entries").inc(len(trace.entries))
    registry.counter("pmu.probe_instructions").inc(trace.instructions)
    registry.counter("pmu.l1d_misses").inc(trace.l1d_misses)
    registry.counter("pmu.exceptions").inc(trace.exceptions)
    registry.counter("pmu.dropped_events").inc(trace.dropped_events)
    registry.counter("pmu.stale_entries").inc(trace.stale_entries)
    registry.counter("pmu.channel", engine=collector.channel_engine).inc()
    return trace


class TraceCollector(BatchEventConsumer):
    """Collects one probing period's trace from hierarchy access events.

    Args:
        log_capacity: trace-log length (the paper's 160k, scaled).
        issue_mode: complex mode enables the dual-LSU drop defect.
        pmu_model: POWER5 or POWER5+ prefetch behaviour.
        drop_probability: chance that an L1D miss *adjacent to the
            previous miss* is swallowed in complex mode.  Adjacent means
            within :data:`INFLIGHT_WINDOW` memory accesses -- both misses
            would plausibly be in flight together.
        seed: RNG seed for reproducible drops.
    """

    def __init__(
        self,
        log_capacity: int,
        issue_mode: IssueMode = IssueMode.COMPLEX,
        pmu_model: PMUModel = PMUModel.POWER5,
        drop_probability: float = 0.35,
        seed: int = 1234,
    ):
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError("drop_probability must be in [0, 1]")
        self.log = TraceLog(log_capacity)
        self.issue_mode = issue_mode
        self.pmu_model = pmu_model
        self.drop_probability = drop_probability
        self._rng = random.Random(seed)
        # Accesses since the last L1D miss; starting at the window means
        # no miss is in flight yet.
        self._accesses_since_miss = INFLIGHT_WINDOW
        self.instructions = 0
        self.l1d_misses = 0
        self.dropped_events = 0
        self.stale_entries = 0
        self.exceptions = 0
        #: Which engine ran the channel model: "python" (this class's
        #: per-event methods) or "native" (set when the compiled engine
        #: collected, see repro.sim.native.TraceChannel).
        self.channel_engine = "python"

    @property
    def done(self) -> bool:
        """Probing ends when the trace log fills."""
        return self.log.is_full

    def observe_instructions(self, count: int) -> None:
        """Instructions retired by the application during the probe."""
        self.instructions += count

    def observe(self, result: AccessResult) -> None:
        """Feed one hierarchy access event that occurred during the probe."""
        self.observe_event(result.line, result.l1_hit, result.prefetched_lines)

    def observe_event(self, line, l1_hit, prefetched_lines=()) -> None:
        """Raw-event form of :meth:`observe` (no ``AccessResult`` needed)."""
        if self.done:
            self._tick()
            return

        if l1_hit:
            self._tick()
            # L1 hits never reach the L2 and are invisible to the L1D-miss
            # selection criterion (this is RapidMRC's central economy:
            # only ~1-in-many accesses cost an exception).
            return

        self.l1d_misses += 1
        if self._should_drop():
            self.dropped_events += 1
            self._accesses_since_miss = 0
            return

        # The miss writes its address into the SDAR and overflows the
        # threshold-one PMC; the exception handler logs the SDAR: ``line``.
        self.exceptions += 1
        self.log.append(line)
        self._accesses_since_miss = 0

        # Prefetches triggered by this miss (POWER5): each raises one more
        # exception, whose handler reads the unchanged SDAR -- ``line``
        # again, a stale entry.
        if self.pmu_model.prefetch_raises_stale_entry:
            for _pf_line in prefetched_lines:
                if self.done:
                    break
                self.exceptions += 1
                self.log.append(line)
                self.stale_entries += 1

    def _tick(self) -> None:
        self._accesses_since_miss += 1

    def _should_drop(self) -> bool:
        """Dual-LSU drop model: only adjacent in-flight misses collide."""
        if not self.issue_mode.dual_lsu:
            return False
        if self._accesses_since_miss >= INFLIGHT_WINDOW:
            return False
        return self._rng.random() < self.drop_probability

    def finish(self) -> ProbeTrace:
        """Package the collected probe."""
        return finish_probe(self)
