"""Trace-log corrections for PMU hardware artifacts (paper Section 3.1.1).

Two defects of SDAR-based continuous data sampling are handled here:

1. **Stale-SDAR repetitions.**  A hardware prefetch that fills an L1 miss
   does not update the SDAR, so the previous value is recorded again; the
   trace then contains runs of identical consecutive entries.  The paper
   repairs these by "converting these repetitions into a series of
   ascending cache line accesses, thus emulating the value that should
   have been recorded" -- prefetchers on the POWER5 fetch ascending
   streams, so the most likely true addresses are the next lines.

2. **Missed events.**  With two load-store units, a second in-flight L1D
   miss can be swallowed when the first one's exception flushes the
   pipeline (the line is already on its way to L1 and no longer misses on
   re-issue).  There is no repair -- the events are simply gone -- but
   Section 5.2.5 studies their impact by *artificially thinning* a trace
   ("keep every Nth"), which :func:`thin_trace` implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

__all__ = [
    "CorrectionResult",
    "correct_stale_repetitions",
    "count_repetitions",
    "thin_trace",
]


#: Sentinel distinct from any trace entry (a first entry never counts as
#: a repetition, even in traces that contain unusual values).
_NO_PREDECESSOR = object()


@dataclass(frozen=True)
class CorrectionResult:
    """Outcome of stale-SDAR repair.

    Attributes:
        trace: the corrected cache-line trace.  Every probe's is an
            int64 array: the vectorized repair in
            :mod:`repro.core.fastpath` runs on the probe's int64 log, and
            the quality gates read the result as an array.  The scalar
            reference here returns a list.
        converted: number of entries that were rewritten (Table 2 column e
            reports this as a percentage of the log).
    """

    trace: Sequence[int]
    converted: int

    def converted_fraction(self) -> float:
        """Fraction of the log that required conversion (Table 2 col e)."""
        if len(self.trace) == 0:
            return 0.0
        return self.converted / len(self.trace)


def correct_stale_repetitions(trace: Sequence[int]) -> CorrectionResult:
    """Rewrite runs of identical consecutive lines as ascending lines.

    A run ``x, x, x, x`` becomes ``x, x+1, x+2, x+3``: the first entry is
    the genuine access; each repeat is assumed to be a swallowed prefetch
    of the next sequential cache line (Section 3.1.1).  Only the repeats
    are counted as converted.
    """
    corrected: List[int] = []
    converted = 0
    previous = None
    run = 0
    for line in trace:
        if line == previous:
            run += 1
            corrected.append(line + run)
            converted += 1
        else:
            previous = line
            run = 0
            corrected.append(line)
    return CorrectionResult(trace=corrected, converted=converted)


def count_repetitions(trace: Iterable[int]) -> int:
    """Number of entries equal to their predecessor (pre-repair).

    Accepts any iterable (including generators) and iterates pairwise
    without materializing a copy of the trace.
    """
    iterator = iter(trace)
    previous = next(iterator, _NO_PREDECESSOR)
    count = 0
    for line in iterator:
        if line == previous:
            count += 1
        previous = line
    return count


def thin_trace(trace: Sequence[int], keep_every: int) -> List[int]:
    """Keep every ``keep_every``-th entry, dropping the rest (Fig 5c).

    ``keep_every=1`` returns the trace unchanged; ``keep_every=4``
    simulates the PMU dropping 3 of every 4 events ("keep every 4th").
    """
    if keep_every < 1:
        raise ValueError("keep_every must be >= 1")
    if keep_every == 1:
        return list(trace)
    return [line for index, line in enumerate(trace) if index % keep_every == 0]

