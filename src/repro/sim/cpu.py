"""Processor issue modes and their cycle-cost parameters.

The paper runs the POWER5 in two modes (Section 5.2.8):

- *complex*: multiple issue, out-of-order, prefetching on -- the normal
  mode.  Memory-level parallelism hides part of the miss latency, and
  two L1D misses can be in flight at once (which is what makes the PMU
  drop trace events, Section 3.1.1).
- *simplified*: single issue, in-order, prefetching off -- used during
  trace collection for problematic applications (Figure 4b) and for the
  real-MRC sensitivity study (Figure 5e).

We model the performance side analytically: every access charges its
process's cycle clock a base CPI times its instructions plus the
latency of the level that served it, scaled by an overlap factor
expressing how much latency the out-of-order core hides
(:meth:`repro.runner.driver.Process.step`, and the native engine's step
in C).  Figure 7 only needs *relative* IPC across cache configurations,
which this model preserves (IPC ordering follows miss-rate ordering).
"""

from __future__ import annotations

import enum

__all__ = ["IssueMode"]


class IssueMode(enum.Enum):
    """Processor complexity mode (Section 5.2.8)."""

    COMPLEX = "complex"
    SIMPLIFIED = "simplified"

    @property
    def overlap_factor(self) -> float:
        """Fraction of memory latency *exposed* to execution.

        The OOO core overlaps a good part of miss latency with useful
        work; the single-issue in-order core exposes all of it.
        """
        return 0.45 if self is IssueMode.COMPLEX else 1.0

    @property
    def base_cpi(self) -> float:
        """Cycles per instruction with a perfect memory system."""
        return 0.7 if self is IssueMode.COMPLEX else 1.6

    @property
    def dual_lsu(self) -> bool:
        """Whether two L1D misses can be in flight simultaneously (the
        source of PMU missed events, Section 3.1.1)."""
        return self is IssueMode.COMPLEX
