"""Batched, numpy-vectorized fast path for the probe->MRC pipeline.

The per-access engines in :mod:`repro.core.stack` pay Python interpreter
overhead on every one of the ~160k trace entries of a probe (paper
Section 5.2.3).  This module provides whole-trace, array-based twins of
the hot pipeline stages:

- vectorized trace corrections mirroring :mod:`repro.core.correction`
  (stale-SDAR repair, thinning, random drops) on int64 arrays;
- :func:`batch_stack_distances`, a batched Mattson kernel that computes
  every access's exact bounded stack distance in O(n log n) vectorized
  numpy work;
- :func:`batch_histogram`, which quantizes distances to the partition
  boundaries and accumulates the stack-distance histogram with
  ``numpy.bincount``, honoring the warmup policies of
  :mod:`repro.core.warmup`.

Everything here is **bit-identical** to the scalar engines: the batch
kernel reproduces :class:`~repro.core.stack.NaiveLRUStack`'s exact
distances and, when given boundaries, the quantized histogram of
:class:`~repro.core.stack.RangeListLRUStack` (the differential tests in
``tests/core/test_fastpath.py`` and the engine benchmark enforce this).

How the kernel works
--------------------

The stack distance of access ``i`` with previous occurrence ``p`` is the
number of *distinct* lines touched in ``(p, i)``, plus one.  Counting
each distinct line at its first in-window occurrence ``j`` (those with
``prev[j] <= p``) and subtracting the rest gives

    distance(i) = i - prev[i] - G(i),
    G(i) = #{ j < i : prev[j] > prev[i] },

because every access ``j`` in ``(p, i)`` whose line was *already* seen
inside the window has its own previous occurrence inside the window
(``prev[j] > p``).  ``G`` is a dominance count over the ``prev`` array,
evaluated for all ``i`` at once by a bottom-up merge over power-of-two
time blocks -- the same interval decomposition an array-backed Fenwick
tree over timestamps uses, but with every level's counting done by one
sorted ``numpy.searchsorted`` call instead of n sequential tree walks.
Distances beyond ``max_depth`` become cold misses, exactly as the
paper's bounded stack reports them.
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
    "thin_trace",
    "drop_random",
    "previous_occurrences",
    "batch_stack_distances",
    "batch_histogram",
]


#: Block width at or below which the merge kernel uses a dense broadcast
#: compare instead of searchsorted (a global binary search costs ~log n
#: steps per element regardless of block width, so tiny blocks are much
#: cheaper to compare directly).
_BROADCAST_WIDTH = 16

_INT32_MAX = np.iinfo(np.int32).max


def as_trace_array(trace: Iterable[int]) -> np.ndarray:
    """Coerce a trace to a contiguous 1-D int64 array (no copy if already one)."""
    arr = np.ascontiguousarray(trace, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"a trace must be one-dimensional, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Vectorized corrections (twins of repro.core.correction)
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


def thin_trace(trace: Iterable[int], keep_every: int) -> np.ndarray:
    """Vectorized twin of :func:`repro.core.correction.thin_trace`."""
    if keep_every < 1:
        raise ValueError("keep_every must be >= 1")
    arr = as_trace_array(trace)
    if keep_every == 1:
        return arr.copy()
    return arr[::keep_every].copy()


def drop_random(trace: Iterable[int], drop_probability: float, rng) -> np.ndarray:
    """Vectorized twin of :func:`repro.core.correction.drop_random`.

    Draws from ``rng`` in the same order as the scalar version, so the
    surviving entries are identical for the same seed.
    """
    if not 0.0 <= drop_probability <= 1.0:
        raise ValueError("drop_probability must be in [0, 1]")
    arr = as_trace_array(trace)
    if drop_probability == 0.0:
        return arr.copy()
    draws = np.fromiter(
        (rng.random() for _ in range(arr.size)), dtype=np.float64, count=arr.size
    )
    return arr[draws >= drop_probability]


# ---------------------------------------------------------------------------
# Batched stack-distance kernel
# ---------------------------------------------------------------------------

def previous_occurrences(arr: np.ndarray) -> np.ndarray:
    """Index of each entry's previous occurrence, or -1 for a first touch.

    One stable argsort groups equal lines while preserving time order, so
    each entry's predecessor within its group is its previous occurrence.
    This is the dense-id remap pass: afterwards the kernel never looks at
    raw line numbers again, only at time indices.
    """
    n = arr.size
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    # Quicksort on a (value, time) composite key yields the same
    # grouped-by-line, time-ordered permutation as a stable argsort but
    # runs ~4x faster; fall back to the stable sort when the composite
    # could overflow int64 (absurdly large line numbers).
    vmin = int(arr.min())
    vspan = int(arr.max()) - vmin
    if vspan < (1 << 62) // n:
        key = (arr - vmin) * np.int64(n) + np.arange(n, dtype=np.int64)
        order = np.argsort(key)
    else:
        order = np.argsort(arr, kind="stable")
    grouped = arr[order]
    same_line = grouped[1:] == grouped[:-1]
    prev[order[1:][same_line]] = order[:-1][same_line]
    return prev


def _count_earlier_greater(values: np.ndarray) -> np.ndarray:
    """For each i, count j < i with ``values[j] > values[i]``, vectorized.

    Bottom-up merge over power-of-two blocks: at level ``w`` each pair of
    adjacent ``w``-wide blocks contributes, for every element of the
    right block, the number of greater elements in the (sorted) left
    block.  Each (j, i) pair is counted at exactly one level -- the one
    where j and i first fall into sibling blocks.  All pairs at a level
    are resolved by a single ``searchsorted`` on a row-offset-flattened
    array, so the total work is O(n log^2 n) inside numpy.
    """
    n = values.size
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    size = 1 << int(np.ceil(np.log2(n)))
    # Shift real values (all >= -1) to >= 1 and let padding be 0: padding
    # then never counts as greater than anything, wherever it lands.
    padded = np.zeros(size, dtype=np.int64)
    padded[:n] = values + 2
    # Rows offset by span must never collide: every padded value
    # (including the shifted maximum) has to stay below it.
    span = max(size + 4, int(values.max()) + 3)  # strictly above the max shifted value
    # Values are bounded by size+1, so a narrow copy is essentially
    # always available; binary search over half the bytes is measurably
    # faster on the wide searchsorted levels.
    narrow = padded.astype(np.int32) if span <= _INT32_MAX else padded
    padded_counts = np.zeros(size, dtype=np.int64)
    width = 1
    while width < size:
        pairs = size // (2 * width)
        # Pair-rows made entirely of padding contribute nothing real:
        # restrict every level to the rows that reach position n.
        rows = min(pairs, -(-n // (2 * width)))
        if width == 1:
            # Sibling singletons: one strided compare.
            greater = (narrow[0 : 2 * rows : 2] > narrow[1 : 2 * rows : 2])[
                :, None
            ]
        elif width <= _BROADCAST_WIDTH:
            # Tiny blocks: a dense compare beats paying a full global
            # binary search per element.
            blocks = narrow.reshape(pairs, 2, width)[:rows]
            greater = (blocks[:, 1, :, None] < blocks[:, 0, None, :]).sum(
                axis=2, dtype=np.int64
            )
        else:
            # Offset each pair-row into its own disjoint value band so
            # one flat searchsorted resolves every row at once (int32
            # whenever the top offset still fits).
            fits32 = narrow.dtype == np.int32 and rows * span <= _INT32_MAX
            src = narrow if fits32 else padded
            blocks = src.reshape(pairs, 2, width)[:rows]
            sorted_left = np.sort(blocks[:, 0, :], axis=1)
            offsets = np.arange(rows, dtype=src.dtype) * src.dtype.type(span)
            sorted_left += offsets[:, None]
            queries = blocks[:, 1, :] + offsets[:, None]
            at_most = np.searchsorted(
                sorted_left.ravel(), queries.ravel(), side="right"
            ).reshape(rows, width)
            at_most -= (np.arange(rows, dtype=np.int64) * width)[:, None]
            greater = width - at_most
        padded_counts.reshape(pairs, 2, width)[:rows, 1, :] += greater
        width *= 2
    return padded_counts[:n]


def batch_stack_distances(trace: Iterable[int], max_depth: int) -> np.ndarray:
    """Exact bounded LRU stack distance of every access, vectorized.

    Returns an int64 array: 1-based distances for reuses within
    ``max_depth``, :data:`~repro.core.histogram.COLD_MISS` for first
    touches and for reuses deeper than the bound -- element for element
    what :class:`~repro.core.stack.NaiveLRUStack` returns.
    """
    if max_depth <= 0:
        raise ValueError("max_depth must be positive")
    arr = as_trace_array(trace)
    n = arr.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    prev = previous_occurrences(arr)
    return _distances_from_prev(prev, max_depth)


def _distances_from_prev(prev: np.ndarray, max_depth: int) -> np.ndarray:
    """COLD_MISS-filled distance array from a previous-occurrence array.

    First touches (``prev < 0``) are stripped before the dominance count:
    ``prev[j] = -1`` can never exceed a reuse's ``prev[i] >= 0``, so first
    touches contribute nothing to any count and need no distance of their
    own -- dropping them shrinks the O(n log n) kernel input by the cold
    fraction of the trace.
    """
    distances = np.full(prev.size, COLD_MISS, dtype=np.int64)
    reuse = np.flatnonzero(prev >= 0)
    if reuse.size == 0:
        return distances
    compact_prev = prev[reuse]
    # Dense-rank the predecessor indices (they are distinct: each access
    # is the predecessor of at most one reuse) so the counting kernel
    # sees values < m and keeps its narrow row-offset layout.
    seen = np.zeros(prev.size, dtype=np.int8)
    seen[compact_prev] = 1
    rank = np.cumsum(seen, dtype=np.int64)
    inside = _count_earlier_greater(rank[compact_prev] - 1)
    dist = reuse - compact_prev - inside
    distances[reuse] = np.where(dist > max_depth, np.int64(COLD_MISS), dist)
    return distances


# ---------------------------------------------------------------------------
# Warmup resolution and histogram accumulation
# ---------------------------------------------------------------------------

def _stack_fill_index(prev: np.ndarray, max_depth: int) -> int:
    """First index i where the bounded stack is full after access i.

    Occupancy after access i is the number of distinct lines seen so far,
    capped at ``max_depth`` (evictions only ever replace).  Returns
    ``len(prev)`` when the stack never fills.
    """
    distinct = np.cumsum(prev < 0)
    full = distinct >= max_depth
    if not full.any():
        return int(prev.size)
    return int(np.argmax(full))


def _resolve_warmup_start(warmup, prev: np.ndarray, max_depth: int) -> int:
    """First recorded index under ``warmup``, mirroring the scalar loop.

    Also back-fills the policy object's bookkeeping attributes
    (``warmup_entries``, ``automatic_triggered``) so that
    :func:`repro.core.warmup.warmup_fraction_used` reports exactly what
    it would after a scalar :meth:`LRUStackSimulator.process` run.
    """
    n = int(prev.size)
    if warmup is None or isinstance(warmup, NoWarmup):
        return 0
    if isinstance(warmup, StaticWarmup):
        return min(warmup.entries, n)
    if isinstance(warmup, HybridWarmup):
        fill = _stack_fill_index(prev, max_depth)
        start = min(fill, warmup.fallback_entries, n)
        warmup.warmup_entries = start
        if start < n:
            warmup._warmed = True
            warmup.automatic_triggered = fill <= warmup.fallback_entries
        return start
    if isinstance(warmup, AutomaticWarmup):
        fill = _stack_fill_index(prev, max_depth)
        start = min(fill, n)
        warmup.warmup_entries = start
        if start < n:
            warmup._warmed = True
        return start
    raise TypeError(
        f"the batch engine cannot vectorize warmup policy {warmup!r}; "
        f"use a policy from repro.core.warmup or a per-access engine"
    )


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
    quantize: bool = True,
) -> StackDistanceHistogram:
    """Whole-trace stack-distance histogram, vectorized end to end.

    With ``quantize=True`` (default), distances are bucketed to the upper
    boundary of their range and the result is identical to running
    :class:`~repro.core.stack.RangeListLRUStack` over the trace; with
    ``quantize=False`` the exact histogram of
    :class:`~repro.core.stack.NaiveLRUStack` is produced (``boundaries``
    must then be ``None``).

    Args:
        trace: the (already corrected) cache-line trace.
        max_depth: stack bound in lines.
        boundaries: quantization depths; ``max_depth`` is appended when
            absent, as in the range-list engine.
        warmup: a policy from :mod:`repro.core.warmup`, or ``None`` to
            record every access.
        quantize: bucket distances to ``boundaries`` (range-list
            semantics) instead of keeping them exact.
    """
    if max_depth <= 0:
        raise ValueError("max_depth must be positive")
    if not quantize and boundaries is not None:
        raise ValueError("exact (quantize=False) histograms take no boundaries")
    bounds = _normalized_boundaries(boundaries, max_depth) if quantize else None
    arr = as_trace_array(trace)
    n = arr.size
    registry = get_telemetry().registry
    registry.counter("fastpath.histograms").inc()
    registry.counter("fastpath.histogram_entries").inc(n)
    histogram = StackDistanceHistogram(max_depth=max_depth)
    if n == 0:
        _resolve_warmup_start(warmup, np.empty(0, dtype=np.int64), max_depth)
        return histogram
    prev = previous_occurrences(arr)
    start = _resolve_warmup_start(warmup, prev, max_depth)
    if start >= n:
        return histogram
    distances = _distances_from_prev(prev, max_depth)
    recorded_cold = distances[start:] == COLD_MISS
    recorded = distances[start:][~recorded_cold]
    histogram.cold_misses = int(recorded_cold.sum())
    if recorded.size == 0:
        return histogram
    if quantize:
        buckets = np.searchsorted(bounds, recorded, side="left")
        counts = np.bincount(buckets, minlength=bounds.size)
        histogram.counts = {
            int(bounds[i]): int(c) for i, c in enumerate(counts) if c
        }
    else:
        counts = np.bincount(recorded)
        nonzero = np.flatnonzero(counts)
        histogram.counts = {int(d): int(counts[d]) for d in nonzero}
    return histogram
