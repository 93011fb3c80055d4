"""The paper's proposed future PMU (Section 6).

The discussion section asks hardware vendors for three capabilities:

1. *a trace buffer* instead of a single SDAR, raising the exception only
   on buffer overflow, so the exception cost is amortized over many
   samples;
2. *complete capture*: the buffer records every access even with several
   memory instructions in flight (no dual-LSU drops);
3. *prefetch visibility*: hardware prefetches are recorded with their
   real target addresses (no stale entries, nothing omitted).

:class:`IdealTraceCollector` models that PMU.  It is interface-
compatible with :class:`~repro.pmu.sampling.TraceCollector`, so runners
can swap it in; the ``pmu_comparison`` benchmark quantifies what the
wishlist would buy in accuracy and in exception count.
"""

from __future__ import annotations

from repro.pmu.sampling import BatchEventConsumer, ProbeTrace, finish_probe
from repro.pmu.tracelog import TraceLog
from repro.sim.hierarchy import AccessResult

__all__ = ["IdealTraceCollector"]


class IdealTraceCollector(BatchEventConsumer):
    """Trace collector for the Section 6 proposed PMU.

    Args:
        log_capacity: total trace-log length, as for the real collector.
        buffer_entries: hardware trace-buffer size; one overflow
            exception is taken per ``buffer_entries`` samples instead of
            one per sample.

    Prefetched lines are always recorded with their true addresses
    (wishlist item 3).
    """

    def __init__(self, log_capacity: int, buffer_entries: int = 128):
        if buffer_entries < 1:
            raise ValueError("buffer must hold at least one entry")
        self.log = TraceLog(log_capacity)
        self.buffer_entries = buffer_entries
        self.instructions = 0
        self.l1d_misses = 0
        self.dropped_events = 0   # always 0: wishlist item 2
        self.stale_entries = 0    # always 0: wishlist item 3
        self.exceptions = 0
        self._buffered = 0
        self.channel_engine = "python"   # see TraceCollector

    @property
    def done(self) -> bool:
        return self.log.is_full

    def observe_instructions(self, count: int) -> None:
        self.instructions += count

    def observe(self, result: AccessResult) -> None:
        """Feed one hierarchy access event during the probe."""
        self.observe_event(result.line, result.l1_hit, result.prefetched_lines)

    def observe_event(self, line, l1_hit, prefetched_lines=()) -> None:
        """Raw-event form of :meth:`observe`."""
        if self.done or l1_hit:
            return
        self.l1d_misses += 1
        self._record(line)
        for pf_line in prefetched_lines:
            if self.done:
                break
            self._record(pf_line)

    def _record(self, line: int) -> None:
        if not self.log.append(line):
            return
        self._buffered += 1
        if self._buffered >= self.buffer_entries or self.log.is_full:
            # Buffer overflow (or end of probe): one exception drains it.
            self.exceptions += 1
            self._buffered = 0

    def finish(self) -> ProbeTrace:
        if self._buffered:
            # Final partial drain when the probe is stopped by software.
            self.exceptions += 1
            self._buffered = 0
        return finish_probe(self)
