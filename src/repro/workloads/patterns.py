"""Access-pattern primitives the application models are composed from.

Each primitive produces a characteristic miss-rate-curve signature:

==================  ======================================================
Pattern             MRC signature
==================  ======================================================
SequentialStream    flat: no reuse at any size (streaming)
LoopingScan         step: all misses until the cache holds the loop
RandomWorkingSet    smooth decline, reaching zero at the working-set size
ZipfWorkingSet      convex decline with a steep early knee (hot lines)
PointerChase        step at the chain size, with irregular line order
StridedSweep        flat or step depending on stride vs footprint
MixedPattern        weighted blend of the above
RegionOffset        relocates a pattern to a disjoint address region
==================  ======================================================

All addresses are line-aligned virtual byte addresses.  Footprints are in
bytes; generators never touch outside ``base .. base+footprint``.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.workloads.base import (
    AccessBatch,
    AccessPattern,
    BatchRandom,
    MemoryAccess,
    TakeFn,
    cyclic_stream,
)

__all__ = [
    "SequentialStream",
    "LoopingScan",
    "RandomWorkingSet",
    "ZipfWorkingSet",
    "PointerChase",
    "StridedSweep",
    "MixedPattern",
    "RegionOffset",
]

_LINE = 128  # pattern granularity; matches the machine line size


def _check_footprint(footprint: int) -> int:
    if footprint < _LINE:
        raise ValueError(f"footprint must be at least one line ({_LINE}B)")
    return (footprint // _LINE) * _LINE


def _cyclic_lines(order: np.ndarray, base: int) -> TakeFn:
    """Walk a fixed line-index cycle starting at ``base``."""
    return cyclic_stream(base + order * _LINE)


class SequentialStream(AccessPattern):
    """Endless ascending walk over a region, wrapping around.

    With a footprint far larger than the cache this is pure streaming:
    every line is a compulsory-style miss and the MRC is flat.  It is
    also precisely the traffic that trains the stream prefetcher.
    """

    def __init__(self, footprint: int, base: int = 0):
        self.footprint = _check_footprint(footprint)
        self.base = base

    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:
        lines = self.footprint // _LINE
        index = 0
        while True:
            yield MemoryAccess(self.base + index * _LINE)
            index += 1
            if index >= lines:
                index = 0

    def batch_stream(self, rng: random.Random) -> TakeFn:
        lines = self.footprint // _LINE
        return _cyclic_lines(np.arange(lines, dtype=np.int64), self.base)

    def footprint_bytes(self) -> int:
        return self.footprint


class LoopingScan(AccessPattern):
    """Repeated in-order scan of a fixed region (classic loop nest).

    Every access after the first pass has stack distance equal to the
    loop's line count, so the MRC is a step: 100% misses below that size,
    ~0% above.
    """

    def __init__(self, footprint: int, base: int = 0):
        self.footprint = _check_footprint(footprint)
        self.base = base

    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:
        lines = self.footprint // _LINE
        while True:
            for index in range(lines):
                yield MemoryAccess(self.base + index * _LINE)

    def batch_stream(self, rng: random.Random) -> TakeFn:
        lines = self.footprint // _LINE
        return _cyclic_lines(np.arange(lines, dtype=np.int64), self.base)

    def footprint_bytes(self) -> int:
        return self.footprint


class RandomWorkingSet(AccessPattern):
    """Uniform random accesses within a working set.

    Stack distances are spread smoothly, giving a gradual MRC decline
    that reaches zero once the cache covers the working set.
    """

    def __init__(self, footprint: int, base: int = 0):
        self.footprint = _check_footprint(footprint)
        self.base = base

    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:
        lines = self.footprint // _LINE
        while True:
            yield MemoryAccess(self.base + rng.randrange(lines) * _LINE)

    def batch_stream(self, rng: random.Random) -> TakeFn:
        lines = self.footprint // _LINE
        base = self.base
        draws = BatchRandom(rng)

        def take(count: int) -> AccessBatch:
            indices = draws.randbelow(lines, count)
            return base + indices * _LINE, np.zeros(count, dtype=np.bool_)

        return take

    def footprint_bytes(self) -> int:
        return self.footprint


class ZipfWorkingSet(AccessPattern):
    """Zipf-distributed accesses: few hot lines, long cold tail.

    Produces the convex, steep-early-knee MRCs of pointer-heavy SPEC
    codes like mcf: a small cache already captures the hot lines, and
    each size increment captures geometrically less.

    Args:
        footprint: bytes spanned by the popularity distribution.
        alpha: Zipf exponent; larger = more skew (typical 0.6-1.2).
    """

    def __init__(self, footprint: int, alpha: float = 0.9, base: int = 0):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.footprint = _check_footprint(footprint)
        self.alpha = alpha
        self.base = base
        self._table_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(cumulative, placement)``: the inverse-CDF rank table and
        each rank's line index, built once per pattern."""
        if self._table_cache is None:
            lines = self.footprint // _LINE
            # Ranks are scattered over the region so popularity is not
            # spatially correlated (defeats the prefetcher the way
            # pointer-heavy code does).
            weights = [1.0 / ((rank + 1) ** self.alpha) for rank in range(lines)]
            total = sum(weights)
            cumulative = np.empty(lines, dtype=np.float64)
            acc = 0.0
            for rank, weight in enumerate(weights):
                acc += weight / total
                cumulative[rank] = acc
            placement = list(range(lines))
            random.Random(0xC0FFEE).shuffle(placement)
            self._table_cache = (
                cumulative, np.asarray(placement, dtype=np.int64)
            )
        return self._table_cache

    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:
        import bisect

        table, placement_arr = self._tables()
        cumulative = table.tolist()
        placement = placement_arr.tolist()
        lines = len(cumulative)
        while True:
            rank = bisect.bisect_left(cumulative, rng.random())
            if rank >= lines:
                rank = lines - 1
            yield MemoryAccess(self.base + placement[rank] * _LINE)

    def batch_stream(self, rng: random.Random) -> TakeFn:
        cumulative, placement = self._tables()
        top = cumulative.size - 1
        addresses = self.base + placement * _LINE
        draws = BatchRandom(rng)

        def take(count: int) -> AccessBatch:
            # searchsorted(side="left") on the same float table is exactly
            # bisect_left, so ranks match the scalar generator draw for draw.
            ranks = np.searchsorted(cumulative, draws.random(count), side="left")
            np.minimum(ranks, top, out=ranks)
            return addresses[ranks], np.zeros(count, dtype=np.bool_)

        return take

    def footprint_bytes(self) -> int:
        return self.footprint


class PointerChase(AccessPattern):
    """Walk a fixed random permutation cycle over the region's lines.

    Every line is revisited exactly once per cycle, so stack distances
    all equal the chain length (a hard step MRC), and the visit order is
    unpredictable -- no prefetcher help, maximal PMU stress.
    """

    def __init__(self, footprint: int, base: int = 0, permutation_seed: int = 99):
        self.footprint = _check_footprint(footprint)
        self.base = base
        self.permutation_seed = permutation_seed

    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:
        lines = self.footprint // _LINE
        order = list(range(lines))
        random.Random(self.permutation_seed).shuffle(order)
        while True:
            for line in order:
                yield MemoryAccess(self.base + line * _LINE)

    def batch_stream(self, rng: random.Random) -> TakeFn:
        lines = self.footprint // _LINE
        order = list(range(lines))
        random.Random(self.permutation_seed).shuffle(order)
        return _cyclic_lines(np.asarray(order, dtype=np.int64), self.base)

    def footprint_bytes(self) -> int:
        return self.footprint


class StridedSweep(AccessPattern):
    """Repeated strided sweep (column-major matrix walks, FFT strides).

    A stride of ``k`` lines visits every k-th line then wraps to the next
    offset, touching the whole region each full sweep.
    """

    def __init__(self, footprint: int, stride_lines: int = 4, base: int = 0):
        if stride_lines < 1:
            raise ValueError("stride must be at least one line")
        self.footprint = _check_footprint(footprint)
        self.stride_lines = stride_lines
        self.base = base

    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:
        lines = self.footprint // _LINE
        stride = self.stride_lines
        while True:
            for offset in range(min(stride, lines)):
                for index in range(offset, lines, stride):
                    yield MemoryAccess(self.base + index * _LINE)

    def batch_stream(self, rng: random.Random) -> TakeFn:
        lines = self.footprint // _LINE
        stride = self.stride_lines
        sweep = np.concatenate(
            [
                np.arange(offset, lines, stride, dtype=np.int64)
                for offset in range(min(stride, lines))
            ]
        )
        return _cyclic_lines(sweep, self.base)

    def footprint_bytes(self) -> int:
        return self.footprint


class MixedPattern(AccessPattern):
    """Probabilistic interleave of sub-patterns.

    Each access is drawn from sub-pattern ``i`` with probability
    ``weights[i]``.  Sub-patterns should occupy disjoint regions (wrap
    them in :class:`RegionOffset`) unless sharing is intended.
    """

    def __init__(self, parts: Sequence[Tuple[float, AccessPattern]]):
        if not parts:
            raise ValueError("MixedPattern needs at least one part")
        total = sum(weight for weight, _p in parts)
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        self.parts = [(weight / total, pattern) for weight, pattern in parts]

    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:
        streams = [
            (weight, pattern.generate(random.Random(rng.random())))
            for weight, pattern in self.parts
        ]
        boundaries: List[float] = []
        acc = 0.0
        for weight, _stream in streams:
            acc += weight
            boundaries.append(acc)
        iterators = [stream for _w, stream in streams]
        while True:
            choice = rng.random()
            for index, bound in enumerate(boundaries):
                if choice <= bound:
                    yield next(iterators[index])
                    break
            else:
                yield next(iterators[-1])

    def batch_stream(self, rng: random.Random) -> TakeFn:
        # Sub-stream seeds come off the shared RNG first, exactly as the
        # scalar generator draws them; afterwards the shared RNG is used
        # only for the per-access choice draws, so one vectorized draw
        # block per chunk replays the scalar draw order, and each
        # sub-stream generates exactly the accesses selected from it.
        takes: List[TakeFn] = []
        boundaries: List[float] = []
        acc = 0.0
        for weight, pattern in self.parts:
            takes.append(pattern.batch_stream(random.Random(rng.random())))
            acc += weight
            boundaries.append(acc)
        # The scalar loop picks the first part whose bound is >= the
        # choice, falling through to the last part (rounding can leave
        # the total a hair under 1.0): that is the number of the other
        # parts' bounds lying below the choice.
        inner_bounds = boundaries[:-1]
        choices = BatchRandom(rng)

        def take(count: int) -> AccessBatch:
            drawn = choices.random(count)
            if not inner_bounds:
                return takes[0](count)
            selection = np.zeros(count, dtype=np.intp)
            for bound in inner_bounds:
                selection += drawn > bound
            vaddrs = np.empty(count, dtype=np.int64)
            stores = np.empty(count, dtype=np.bool_)
            for index, sub_take in enumerate(takes):
                positions = np.flatnonzero(selection == index)
                if positions.size:
                    sub_v, sub_s = sub_take(positions.size)
                    vaddrs[positions] = sub_v
                    stores[positions] = sub_s
            return vaddrs, stores

        return take

    def footprint_bytes(self) -> int:
        return sum(pattern.footprint_bytes() for _w, pattern in self.parts)


class RegionOffset(AccessPattern):
    """Relocate a pattern to ``base + offset`` (disjoint-region helper)."""

    def __init__(self, pattern: AccessPattern, offset: int):
        if offset % _LINE != 0:
            raise ValueError("offset must be line-aligned")
        self.inner = pattern
        self.offset = offset

    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:
        for access in self.inner.generate(rng):
            yield MemoryAccess(access.vaddr + self.offset, access.is_store)

    def batch_stream(self, rng: random.Random) -> TakeFn:
        inner = self.inner.batch_stream(rng)
        offset = self.offset

        def take(count: int) -> AccessBatch:
            vaddrs, stores = inner(count)
            return vaddrs + offset, stores

        return take

    def footprint_bytes(self) -> int:
        return self.inner.footprint_bytes()
