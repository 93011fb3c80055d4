"""Sequential stream prefetcher (POWER5-style).

The POWER5 detects ascending sequential miss streams and prefetches ahead
into the L1D and L2.  The paper cares about two behavioural consequences:

- the *real* MRC shifts down when prefetching is on (Figure 5e), and
- prefetch fills corrupt the PMU trace (stale-SDAR repetitions,
  Section 3.1.1), with the fraction of affected log entries reported in
  Table 2 column (e).

The model keeps a table of ``NUM_STREAMS`` streams.  A miss that extends
a confirmed stream triggers prefetches of the next ``DEPTH`` lines; a
miss adjacent to a recent miss allocates a new stream.  Only ascending
streams are detected, matching the paper's repair strategy (repetitions
are rewritten as *ascending* lines).  The geometry is one machine's,
fixed: the paper only switches the prefetcher on or off (Figure 5e).

Real prefetchers are imperfect: some prefetches arrive too late to help,
and not every prefetch is installed all the way up into the L1.  Those
imperfections matter here -- they are why real MRCs of prefetch-friendly
applications still *decline* with cache size instead of flattening at
zero, and why the PMU trace retains most demand events (an L2-only
install leaves the later L1 miss visible, with a correct SDAR).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = [
    "CONFIRM_AFTER",
    "DEPTH",
    "L1_INSTALL_PROBABILITY",
    "LATE_PROBABILITY",
    "NUM_STREAMS",
    "PrefetcherConfig",
    "StreamPrefetcher",
]

#: Stream-table entries (POWER5 tracked 8 streams).
NUM_STREAMS = 8
#: Lines fetched ahead once a stream is confirmed.
DEPTH = 2
#: Consecutive sequential misses needed to confirm a stream.
CONFIRM_AFTER = 2
#: Chance a prefetch arrives too late to be installed at all (the demand
#: access misses as if never prefetched).
LATE_PROBABILITY = 0.25
#: Chance a timely prefetch is installed into the L1D as well as the L2;
#: an L2-only install converts the would-be L2 miss into an L2 hit but
#: keeps the L1 miss event.
L1_INSTALL_PROBABILITY = 0.4


@dataclass(frozen=True)
class PrefetcherConfig:
    """Stream-prefetcher switch.

    Args:
        enabled: Figure 5e's switch (off is the "No prefetch" mode).
    """

    enabled: bool = True


@dataclass
class _Stream:
    next_line: int
    hits: int = 1
    confirmed: bool = False
    last_use: int = 0


class StreamPrefetcher:
    """Detects ascending miss streams and emits prefetch line numbers."""

    def __init__(self, config: PrefetcherConfig = PrefetcherConfig()):
        self.config = config
        self._streams: List[_Stream] = []
        self._clock = 0

    def observe_miss(self, line: int) -> List[int]:
        """Feed one demand L1D miss; return lines to prefetch (may be [])."""
        if not self.config.enabled:
            return []
        self._clock += 1
        for stream in self._streams:
            if line == stream.next_line:
                stream.hits += 1
                stream.next_line = line + 1
                stream.last_use = self._clock
                if stream.hits >= CONFIRM_AFTER:
                    stream.confirmed = True
                if stream.confirmed:
                    prefetches = [line + 1 + offset for offset in range(DEPTH)]
                    stream.next_line = prefetches[-1] + 1
                    return prefetches
                return []
        self._allocate(line)
        return []

    def _allocate(self, line: int) -> None:
        stream = _Stream(next_line=line + 1, last_use=self._clock)
        if len(self._streams) < NUM_STREAMS:
            self._streams.append(stream)
            return
        # Replace the least recently useful stream.
        oldest = min(range(len(self._streams)), key=lambda i: self._streams[i].last_use)
        self._streams[oldest] = stream

    @property
    def active_streams(self) -> int:
        return len(self._streams)

    @property
    def confirmed_streams(self) -> int:
        return sum(1 for s in self._streams if s.confirmed)

    def reset(self) -> None:
        self._streams.clear()
        self._clock = 0
