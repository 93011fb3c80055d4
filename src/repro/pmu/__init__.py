"""Performance monitoring unit (PMU) model.

RapidMRC's trace channel is the POWER5 PMU's *continuous data-address
sampling*: the SDAR register shadows the data address of the last
matching memory instruction, a PMC counts L1D misses with an overflow
threshold of one, and the overflow exception handler reads the SDAR into
a trace log (paper Section 3.1.1).

The channel is imperfect, and the imperfections are the point -- this
package models them:

- **missed events**: with two load-store units, a second in-flight L1D
  miss may never update the SDAR (its re-issue after the exception's
  pipeline flush hits in L1), silently dropping the event;
- **stale-SDAR repetitions** (POWER5): hardware prefetch requests raise
  trace entries but do not update the SDAR, recording the previous value
  again;
- **omitted prefetches** (POWER5+): prefetch activity simply never
  appears in the trace.
"""

from repro.pmu.sampling import PMUModel, ProbeTrace, TraceCollector
from repro.pmu.tracelog import TraceLog

__all__ = [
    "PMUModel",
    "ProbeTrace",
    "TraceCollector",
    "TraceLog",
]
