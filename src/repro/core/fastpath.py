"""The exact MRC path: whole-trace pipeline stages on int64 arrays.

Every exact probe runs here (through :class:`~repro.core.rapidmrc.
RapidMRC` and :class:`~repro.core.stack.LRUStackSimulator`) instead of
paying Python interpreter overhead on each of the ~160k trace entries
(paper Section 5.2.3):

- :func:`correct_stale_repetitions`, the stale-SDAR repair of
  :mod:`repro.core.correction` on int64 arrays;
- :func:`batch_histogram`, the stack-distance histogram: every access's
  exact bounded stack distance from one C pass over the trace,
  quantized to the partition boundaries and accumulated with
  ``numpy.bincount``, honoring the warmup policies of
  :mod:`repro.core.warmup`.

The C pass (``repro_stack_distances`` in the native engine, selected
whenever :func:`repro.sim.native.native_lib` loads) walks the trace
once.  A Fenwick tree over time positions marks each line's latest
access, and an open-addressing map from line to that position yields
its previous access ``p``; every marked position after ``p`` is one
distinct line touched since, so the distance is their count plus one,
O(log n) per access.  The same pass notes the access at which
``max_depth`` distinct lines have been seen, which is where the
automatic and hybrid warmups stop.  Distances beyond ``max_depth``
become cold misses, exactly as the paper's bounded stack reports them.

Without the native engine (``REPRO_NATIVE=0``, no compiler) the
histogram comes from the scalar reference itself:
:func:`~repro.core.stack.reference_histogram` over a
:class:`~repro.core.stack.RangeListLRUStack`, the paper's own engine,
one access at a time.  The C pass is **bit-identical** to it -- the same
histograms, cold misses and warmup bookkeeping -- and its distances are
:class:`~repro.core.stack.NaiveLRUStack`'s element for element (the
differential tests in ``tests/core/test_stack_kernels.py``,
``tests/core/test_fastpath.py`` and
``tests/integration/test_reference_parity.py`` and the engine benchmark
enforce this).  The path that ran is counted as
``mrc.stack_kernel{kernel=native|reference}``.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.correction import CorrectionResult
from repro.core.histogram import COLD_MISS, StackDistanceHistogram
from repro.obs import get_telemetry
from repro.core.warmup import (
    AutomaticWarmup,
    HybridWarmup,
    NoWarmup,
    StaticWarmup,
)

__all__ = [
    "as_trace_array",
    "correct_stale_repetitions",
    "batch_histogram",
]


def as_trace_array(trace: Iterable[int]) -> np.ndarray:
    """Coerce a trace to a contiguous 1-D int64 array (no copy if already one)."""
    arr = np.ascontiguousarray(trace, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"a trace must be one-dimensional, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Vectorized stale-SDAR repair (twin of repro.core.correction)
# ---------------------------------------------------------------------------

def correct_stale_repetitions(trace: Iterable[int]) -> CorrectionResult:
    """Vectorized stale-SDAR repair: runs of identical entries -> ascending.

    Identical to :func:`repro.core.correction.correct_stale_repetitions`
    (a run ``x, x, x`` becomes ``x, x+1, x+2``), but operates on an int64
    array in O(n) numpy work and returns the corrected trace as an array.
    """
    arr = as_trace_array(trace)
    n = arr.size
    registry = get_telemetry().registry
    registry.counter("fastpath.corrections").inc()
    if n == 0:
        return CorrectionResult(trace=arr, converted=0)
    is_rep = np.empty(n, dtype=bool)
    is_rep[0] = False
    np.equal(arr[1:], arr[:-1], out=is_rep[1:])
    index = np.arange(n, dtype=np.int64)
    # Index of the run head each entry belongs to: the latest non-repeat.
    run_head = np.maximum.accumulate(np.where(is_rep, 0, index))
    # Repeats all equal their run head's value, so adding the in-run
    # offset yields the ascending rewrite; non-repeats get offset 0.
    corrected = arr + (index - run_head)
    converted = int(is_rep.sum())
    registry.counter("fastpath.converted_entries").inc(converted)
    return CorrectionResult(trace=corrected, converted=converted)


# ---------------------------------------------------------------------------
# Warmup resolution and histogram accumulation
# ---------------------------------------------------------------------------

#: The warmup policies the C pass resolves from its stack fill index.
_WARMUP_POLICIES = (NoWarmup, StaticWarmup, HybridWarmup, AutomaticWarmup)


def _resolve_warmup_start(warmup, fill: int, n: int) -> int:
    """First recorded index under ``warmup``, mirroring the scalar loop.

    ``fill`` is the index at which the bounded stack fills (``n`` when
    it never does).  Also back-fills the policy object's bookkeeping
    attributes (``warmup_entries``, ``automatic_triggered``) so that
    :func:`repro.core.warmup.warmup_fraction_used` reports exactly what
    it would after :func:`repro.core.stack.reference_histogram`.
    """
    if warmup is None or isinstance(warmup, NoWarmup):
        return 0
    if isinstance(warmup, StaticWarmup):
        return min(warmup.entries, n)
    if isinstance(warmup, HybridWarmup):
        start = min(fill, warmup.fallback_entries, n)
        warmup.warmup_entries = start
        if start < n:
            warmup._warmed = True
            warmup.automatic_triggered = fill <= warmup.fallback_entries
        return start
    # AutomaticWarmup: batch_histogram admits no other policy.
    start = min(fill, n)
    warmup.warmup_entries = start
    if start < n:
        warmup._warmed = True
    return start


def _normalized_boundaries(
    boundaries: Optional[Sequence[int]], max_depth: int
) -> np.ndarray:
    """Validate and complete boundaries the way RangeListLRUStack does."""
    if boundaries is None:
        bounds = [max_depth]
    else:
        bounds = sorted(set(int(b) for b in boundaries))
        if not bounds or bounds[0] < 1:
            raise ValueError("boundaries must be positive depths")
        if bounds[-1] > max_depth:
            raise ValueError("boundaries cannot exceed max_depth")
        if bounds[-1] != max_depth:
            bounds.append(max_depth)
    return np.asarray(bounds, dtype=np.int64)


def batch_histogram(
    trace: Iterable[int],
    max_depth: int,
    boundaries: Optional[Sequence[int]] = None,
    warmup=None,
) -> StackDistanceHistogram:
    """Whole-trace stack-distance histogram from the exact C pass.

    Distances are bucketed to the upper boundary of their range, so the
    result is identical to :func:`~repro.core.stack.reference_histogram`
    over a :class:`~repro.core.stack.RangeListLRUStack` with the same
    boundaries and warmup -- which is what runs instead when the native
    engine does not load.

    Args:
        trace: the (already corrected) cache-line trace.
        max_depth: stack bound in lines.
        boundaries: quantization depths; ``max_depth`` is appended when
            absent, as in the range-list engine.
        warmup: a policy from :mod:`repro.core.warmup`, or ``None`` to
            record every access.
    """
    if max_depth <= 0:
        raise ValueError("max_depth must be positive")
    bounds = _normalized_boundaries(boundaries, max_depth)
    if warmup is not None and not isinstance(warmup, _WARMUP_POLICIES):
        raise TypeError(
            f"the batch engine cannot vectorize warmup policy {warmup!r}; "
            f"use a policy from repro.core.warmup"
        )
    arr = as_trace_array(trace)
    n = arr.size
    registry = get_telemetry().registry
    registry.counter("fastpath.histograms").inc()
    registry.counter("fastpath.histogram_entries").inc(n)
    # Imported here, not at module level: set-up processes that never
    # compute a curve should not load the native harness (and
    # repro.core.stack imports this module).
    from repro.sim import native

    lib = native.native_lib()
    registry.counter(
        "mrc.stack_kernel", kernel="reference" if lib is None else "native"
    ).inc()
    if lib is None:
        from repro.core.stack import RangeListLRUStack, reference_histogram

        return reference_histogram(
            RangeListLRUStack(max_depth, bounds.tolist()), arr.tolist(), warmup
        )
    distances, fill = native.stack_distances(lib, arr, max_depth)
    histogram = StackDistanceHistogram(max_depth=max_depth)
    start = _resolve_warmup_start(warmup, fill, n)
    if start >= n:
        return histogram
    recorded_cold = distances[start:] == COLD_MISS
    recorded = distances[start:][~recorded_cold]
    histogram.cold_misses = int(recorded_cold.sum())
    if recorded.size == 0:
        return histogram
    buckets = np.searchsorted(bounds, recorded, side="left")
    counts = np.bincount(buckets, minlength=bounds.size)
    histogram.counts = {
        int(bounds[i]): int(c) for i, c in enumerate(counts) if c
    }
    return histogram
