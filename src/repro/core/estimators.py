"""Sub-linear MRC estimator backend: SHARDS sampling.

The exact stack kernel (``batch``, :mod:`repro.core.fastpath`) pays full
simulation cost on every trace entry.  The MRC survey (Byrne,
arXiv:1804.01972) catalogs sampling-based constructions that approximate
the same curve at a small constant fraction of that cost; this module
provides one of them behind a registry that plugs into
:class:`~repro.core.stack.LRUStackSimulator` alongside ``batch``:

- :class:`ShardsEstimator` -- SHARDS-style spatially-hashed sampling
  (Waldspurger et al.).  A line is *sampled* when ``hash(line) < T``
  with ``T = R * 2^64``; sampled lines run through a Fenwick LRU stack
  of their own, sampled distances are rescaled by ``1/R``, and each
  recorded reference carries weight ``1/R``.  With ``max_tracked`` set,
  ``T`` adapts downward (SHARDS_adj fixed-size mode): when more than
  ``max_tracked`` lines are resident, the highest-hash line is evicted
  and its hash becomes the new threshold.  The *dR correction* tops the
  smallest histogram bucket up to the expected post-warmup mass so the
  MPKI denominator matches the exact path's.

The estimator honors the warmup policies of :mod:`repro.core.warmup`
(stack fullness is estimated as ``1/R`` distinct-weight per sampled
first touch) and, at ``sampling_rate=1.0``, reproduces the exact
engines' boundary-evaluated histogram bit for bit.

Sampling cuts only the stack's work, never the probe's: every trace
entry is still logged (the PMU exception and SDAR read come before the
hash filter), so an estimator probe costs the same accesses as an exact
one.

Memory: SHARDS keeps at most ``~4 * ceil(max_depth * R)`` tracked
entries (compaction drops lines below the sampled-depth bound).
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.histogram import StackDistanceHistogram
from repro.core.warmup import AutomaticWarmup, HybridWarmup, NoWarmup, StaticWarmup

__all__ = [
    "EstimatorConfig",
    "EstimateResult",
    "ShardsEstimator",
    "ESTIMATORS",
    "is_estimator",
    "make_estimator",
]

_TWO64 = 1 << 64
_MASK64 = _TWO64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(x: int) -> int:
    """splitmix64 finalizer: uniform 64-bit hash of a 64-bit input."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def _prefilter(
    trace: Sequence[int], seed_mix: int, threshold: int
) -> Tuple[List[int], List[int], List[int]]:
    """Indices, lines, and hashes of refs with ``hash(line) < threshold``.

    Vectorized splitmix64: uint64 wraparound arithmetic is the masked
    2^64 arithmetic of :func:`_mix64`, so every hash equals
    ``_mix64((line & _MASK64) ^ seed_mix)``.
    """
    arr = np.ascontiguousarray(trace, dtype=np.int64)
    x = arr.view(np.uint64) ^ np.uint64(seed_mix)
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    x = x ^ (x >> np.uint64(31))
    if threshold >= _TWO64:
        idx = np.arange(arr.size)
        return idx.tolist(), arr.tolist(), x.tolist()
    mask = x < np.uint64(threshold)
    idx = np.nonzero(mask)[0]
    return idx.tolist(), arr[mask].tolist(), x[mask].tolist()


@dataclass(frozen=True)
class EstimatorConfig:
    """Tunables of the SHARDS estimator.

    Args:
        sampling_rate: initial spatial sampling rate ``R`` in ``(0, 1]``.
            ``1.0`` samples every line (SHARDS then matches the exact
            engines bit for bit).
        max_tracked: SHARDS fixed-size mode -- adapt the hash threshold
            down so at most this many lines stay resident.  ``None``
            keeps the rate fixed.
        seed: decorrelates the spatial hash.
        dr_correction: apply SHARDS' dR correction (top the smallest
            bucket up to the expected post-warmup mass) so the MPKI
            denominator matches the exact path's.
    """

    sampling_rate: float = 0.1
    max_tracked: Optional[int] = None
    seed: int = 42
    dr_correction: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.sampling_rate <= 1.0:
            raise ValueError(
                f"sampling_rate must be in (0, 1], got {self.sampling_rate!r}"
            )
        if self.max_tracked is not None and self.max_tracked < 1:
            raise ValueError(
                f"max_tracked must be >= 1, got {self.max_tracked!r}"
            )


@dataclass
class EstimateResult:
    """One estimator run: the histogram plus its cost accounting.

    Attributes:
        histogram: boundary-quantized stack-distance histogram whose
            total mass matches the exact path's recorded-entry count
            (so ``to_mrc`` denominators line up).
        estimator: registry name of the backend that produced it.
        sampling_rate: final sampling rate (post-adaptation for SHARDS).
        tracked_peak: peak resident entries of the sampled stack -- the
            memory story.
        sampled_refs: trace refs that passed the spatial filter.
        recorded_refs: histogram mass after rounding.
        warmup_entries: leading trace entries consumed by warmup.
    """

    histogram: StackDistanceHistogram
    estimator: str
    sampling_rate: float
    tracked_peak: int
    sampled_refs: int
    recorded_refs: int
    warmup_entries: int


class _SampledStack:
    """Fenwick LRU stack over the sampled sub-trace, with eviction.

    An order-statistic (binary indexed tree) stack bounded at the
    *sampled* depth (``ceil(max_depth * R)``): a sampled line deeper
    than the bound rescales past ``max_depth`` and is a cold miss for
    every size under study, so compaction may drop it.  Capacity is
    fixed (not doubling) to keep memory at ~4x the bound; compaction
    cost stays amortized constant per access.
    """

    __slots__ = (
        "bound", "_capacity", "_tree", "_last_time", "_time", "_live",
        "peak_occupancy",
    )

    def __init__(self, bound: int):
        self.bound = max(1, bound)
        self._capacity = max(4 * self.bound, 1 << 10)
        self._tree = [0] * (self._capacity + 1)
        self._last_time: Dict[int, int] = {}
        self._time = 0
        self._live = 0
        self.peak_occupancy = 0

    @property
    def occupancy(self) -> int:
        return min(len(self._last_time), self.bound)

    @property
    def tracked(self) -> int:
        return len(self._last_time)

    def __contains__(self, line: int) -> bool:
        return line in self._last_time

    def _tree_add(self, pos: int, delta: int) -> None:
        tree = self._tree
        while pos <= self._capacity:
            tree[pos] += delta
            pos += pos & (-pos)

    def _tree_sum(self, pos: int) -> int:
        tree = self._tree
        total = 0
        while pos > 0:
            total += tree[pos]
            pos -= pos & (-pos)
        return total

    def access(self, line: int) -> Optional[int]:
        """Touch ``line``; return its sampled distance, ``None`` if cold."""
        if self._time + 1 > self._capacity:
            self._compact()
        self._time += 1
        now = self._time
        previous = self._last_time.get(line)
        if previous is None:
            distance = None
        else:
            distance = self._live - self._tree_sum(previous) + 1
            self._tree_add(previous, -1)
            self._live -= 1
        self._last_time[line] = now
        self._tree_add(now, 1)
        self._live += 1
        occ = self.occupancy
        if occ > self.peak_occupancy:
            self.peak_occupancy = occ
        return distance

    def evict(self, line: int) -> None:
        previous = self._last_time.pop(line, None)
        if previous is not None:
            self._tree_add(previous, -1)
            self._live -= 1

    def shrink(self, bound: int) -> None:
        """Lower the depth bound (adaptive-T mode); applied at compaction."""
        self.bound = max(1, min(self.bound, bound))

    def _compact(self) -> None:
        ordered = sorted(self._last_time.items(), key=lambda item: -item[1])
        kept = ordered[: self.bound]
        kept.reverse()  # oldest first -> ascending new timestamps
        self._tree = [0] * (self._capacity + 1)
        self._last_time = {}
        self._live = 0
        self._time = 0
        for line, _old_time in kept:
            self._time += 1
            self._last_time[line] = self._time
            self._tree_add(self._time, 1)
            self._live += 1


class _WarmupPlan:
    """Streaming twin of the warmup policies over a sampled trace.

    The exact path calls ``should_record(index, stack)`` for every trace
    entry; a sampling estimator only visits the sampled ones, so the
    policy is resolved to its two primitive triggers -- stack fullness
    (estimated as distinct-weight) and a static index cutoff -- and
    evaluated at sampled refs only.  At ``R = 1.0`` every ref is sampled
    and the semantics match the exact path exactly (the access that
    fills the stack is itself recorded).
    """

    __slots__ = ("auto", "fallback", "warmed", "warm_start", "auto_hit")

    @staticmethod
    def supports(warmup: object) -> bool:
        return warmup is None or isinstance(
            warmup, (NoWarmup, StaticWarmup, AutomaticWarmup, HybridWarmup)
        )

    def __init__(self, warmup: object):
        self.auto = False
        self.fallback: Optional[int] = None
        self.warmed = False
        self.warm_start: Optional[int] = None
        self.auto_hit = False
        if warmup is None or isinstance(warmup, NoWarmup):
            self.warmed = True
            self.warm_start = 0
        elif isinstance(warmup, StaticWarmup):
            self.fallback = warmup.entries
        elif isinstance(warmup, AutomaticWarmup):
            self.auto = True
        elif isinstance(warmup, HybridWarmup):
            self.auto = True
            self.fallback = warmup.fallback_entries
        else:  # pragma: no cover - callers check supports() first
            raise TypeError(f"unsupported warmup policy {warmup!r}")
        if self.fallback == 0:
            self.warmed = True
            self.warm_start = 0

    def observe(self, index: int, distinct_weight: float, max_depth: int) -> bool:
        """Advance the policy at a sampled ref; return whether to record."""
        if not self.warmed:
            if self.auto and distinct_weight >= max_depth:
                self.warmed = True
                self.warm_start = index
                self.auto_hit = True
            elif self.fallback is not None and index >= self.fallback:
                self.warmed = True
                self.warm_start = self.fallback
        return self.warmed

    def finalize(self, trace_length: int) -> int:
        """Close the plan; return the warmup entry count (exact-path parity)."""
        if self.warm_start is None:
            if self.fallback is not None:
                self.warm_start = min(self.fallback, trace_length)
            else:
                self.warm_start = trace_length
        return self.warm_start

    def writeback(self, warmup: object, trace_length: int) -> None:
        """Mirror the exact path's bookkeeping onto the policy object."""
        if isinstance(warmup, (AutomaticWarmup, HybridWarmup)):
            warmup.warmup_entries = self.warm_start or 0
            if (self.warm_start or 0) < trace_length:
                warmup._warmed = True
            if isinstance(warmup, HybridWarmup) and self.auto_hit:
                warmup.automatic_triggered = True


class _WarmupAdapter:
    """Duck-typed stack handed to *custom* warmup policies.

    Exposes the one attribute the shipped policies consult
    (``is_full``), estimated from sampled first-touch weight.
    """

    __slots__ = ("distinct_weight", "_max_depth")

    def __init__(self, max_depth: int):
        self.distinct_weight = 0.0
        self._max_depth = max_depth

    @property
    def is_full(self) -> bool:
        return self.distinct_weight >= self._max_depth


def _normalize_boundaries(
    max_depth: int, boundaries: Optional[Sequence[int]]
) -> List[int]:
    if max_depth <= 0:
        raise ValueError("max_depth must be positive")
    if boundaries is None:
        boundaries = [max_depth]
    bounds = sorted(set(int(b) for b in boundaries))
    if not bounds or bounds[0] < 1:
        raise ValueError("boundaries must be positive depths")
    if bounds[-1] != max_depth:
        if bounds[-1] > max_depth:
            raise ValueError("boundaries cannot exceed max_depth")
        bounds.append(max_depth)
    return bounds


class ShardsEstimator:
    """SHARDS: spatially-hashed sampling over a sampled Fenwick stack."""

    name = "shards"

    def __init__(
        self,
        max_depth: int,
        boundaries: Optional[Sequence[int]] = None,
        config: EstimatorConfig = EstimatorConfig(),
    ):
        self.max_depth = max_depth
        self.boundaries = _normalize_boundaries(max_depth, boundaries)
        self.config = config
        self._seed_mix = _mix64(config.seed & _MASK64)

    def estimate(self, trace: Sequence[int], warmup: object = None) -> EstimateResult:
        n = len(trace)
        threshold = max(1, min(_TWO64, int(round(self.config.sampling_rate * _TWO64))))
        rate = threshold / _TWO64
        inv_rate = _TWO64 / threshold
        idxs, lines, hashes = _prefilter(trace, self._seed_mix, threshold)
        stack = _SampledStack(math.ceil(self.max_depth * rate))
        max_tracked = self.config.max_tracked
        heap: List[Tuple[int, int]] = []
        bounds = self.boundaries
        acc = {b: 0.0 for b in bounds}
        cold_weight = 0.0
        weight_sum = 0.0
        sampled = 0
        distinct_weight = 0.0
        max_depth = self.max_depth

        if _WarmupPlan.supports(warmup):
            plan = _WarmupPlan(warmup)
            generic: Optional[object] = None
        else:
            plan = None
            generic = _WarmupAdapter(max_depth)
        expected_override: Optional[float] = None

        pos = 0
        num_candidates = len(idxs)
        walk = range(num_candidates) if plan is not None else range(n)
        eligible = 0
        for step in walk:
            if plan is not None:
                i = idxs[step]
                hv = hashes[step]
                line = lines[step]
            else:
                i = step
                if pos < num_candidates and idxs[pos] == i:
                    hv = hashes[pos]
                    line = lines[pos]
                    pos += 1
                else:
                    # Unsampled ref: the custom policy still sees the index.
                    if warmup.should_record(i, generic):
                        eligible += 1
                    continue
            if hv >= threshold:
                continue  # adaptive T dropped below this hash mid-stream
            sampled += 1
            sampled_distance = stack.access(line)
            cold_ref = sampled_distance is None
            if cold_ref:
                distinct_weight += inv_rate
                if generic is not None:
                    generic.distinct_weight = distinct_weight
                if max_tracked is not None:
                    heapq.heappush(heap, (-hv, line))
                    if stack.tracked > max_tracked:
                        while heap:
                            neg_hash, victim = heapq.heappop(heap)
                            if victim in stack:
                                stack.evict(victim)
                                threshold = -neg_hash
                                rate = threshold / _TWO64
                                inv_rate = _TWO64 / threshold
                                stack.shrink(math.ceil(max_depth * rate))
                                break
            if plan is not None:
                record = plan.observe(i, distinct_weight, max_depth)
            else:
                record = warmup.should_record(i, generic)
                if record:
                    eligible += 1
            if not record:
                continue
            weight = inv_rate
            weight_sum += weight
            if cold_ref:
                cold_weight += weight
                continue
            rescaled = sampled_distance * inv_rate
            if rescaled > max_depth:
                cold_weight += weight
            else:
                acc[bounds[bisect_left(bounds, rescaled)]] += weight

        if plan is not None:
            warm_start = plan.finalize(n)
            plan.writeback(warmup, n)
            expected = float(n - warm_start)
        else:
            warm_start = n - eligible
            expected = float(eligible)
        if self.config.dr_correction and expected > weight_sum:
            # dR correction: the shortfall between expected post-warmup
            # mass and accumulated sample weight lands in the smallest
            # bucket, where it cannot change misses_at() for any
            # boundary size but restores the MPKI denominator.
            acc[bounds[0]] += expected - weight_sum

        counts: Dict[int, int] = {}
        for b in bounds:
            c = _round_half_up(acc[b])
            if c > 0:
                counts[b] = c
        histogram = StackDistanceHistogram(
            counts=counts,
            cold_misses=_round_half_up(cold_weight),
            max_depth=max_depth,
        )
        return EstimateResult(
            histogram=histogram,
            estimator=self.name,
            sampling_rate=rate,
            tracked_peak=stack.peak_occupancy,
            sampled_refs=sampled,
            recorded_refs=histogram.total_accesses,
            warmup_entries=warm_start,
        )


ESTIMATORS = {
    "shards": ShardsEstimator,
}


def is_estimator(name: object) -> bool:
    """Whether ``name`` selects a sampling estimator backend."""
    return isinstance(name, str) and name in ESTIMATORS


def make_estimator(
    name: str,
    max_depth: int,
    boundaries: Optional[Sequence[int]] = None,
    config: EstimatorConfig = EstimatorConfig(),
):
    """Instantiate an estimator backend by registry name."""
    if name not in ESTIMATORS:
        raise ValueError(
            f"unknown estimator {name!r}; options: {sorted(ESTIMATORS)}"
        )
    return ESTIMATORS[name](max_depth, boundaries=boundaries, config=config)
