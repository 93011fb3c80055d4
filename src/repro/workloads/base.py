"""Workload abstractions: access streams the runners can drive.

A workload is an unbounded, reproducible stream of memory accesses plus
an instruction-cost model.  The paper observes that roughly one in three
instructions is a load or store (Section 3.1); our patterns generate
accesses at cache-line granularity (one access per distinct *touch*), so
``instructions_per_access`` folds in both the 3:1 instruction mix and
the within-line spatial locality real code has (a 128-byte line holds 16
words, each typically touched by its own instruction).
"""

from __future__ import annotations

import abc
import contextlib
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs import get_telemetry

__all__ = [
    "MemoryAccess",
    "Workload",
    "AccessPattern",
    "AccessBatch",
    "BatchRandom",
    "StreamRecording",
    "TakeFn",
    "cyclic_stream",
    "draw_uniform",
    "recorded_stream",
    "shared_streams",
]

#: One generated chunk: line-aligned virtual addresses plus store flags.
AccessBatch = Tuple[np.ndarray, np.ndarray]
#: ``take(count)``: the next ``count`` accesses of one stream.
TakeFn = Callable[[int], AccessBatch]


def draw_uniform(rng: random.Random, count: int) -> np.ndarray:
    """``count`` consecutive ``rng.random()`` draws as a float64 array.

    Bit-identical to calling ``rng.random()`` ``count`` times -- CPython's
    ``random.Random`` and ``numpy.random.RandomState`` share the MT19937
    core and build each double from the same two 32-bit words with the
    same (exact, power-of-two) scaling -- but generated in C.  The
    Python RNG's state is transferred in, advanced by the vectorized
    draw, and written back, so scalar draws may continue seamlessly.
    This is :class:`BatchRandom`'s path when the native kernels are
    unavailable.
    """
    if count <= 0:
        return np.empty(0, dtype=np.float64)
    version, internal, gauss_next = rng.getstate()
    if version != 3 or len(internal) != 625:  # pragma: no cover - exotic VM
        return np.fromiter(
            (rng.random() for _ in range(count)), np.float64, count
        )
    state = np.random.RandomState()
    state.set_state(
        ("MT19937", np.asarray(internal[:624], dtype=np.uint32), internal[624])
    )
    out = state.random_sample(count)
    _mt, keys, pos, _hg, _cg = state.get_state()
    rng.setstate((version, tuple(int(k) for k in keys) + (pos,), gauss_next))
    return out


class BatchRandom:
    """Vectorized draws from one ``random.Random``, CPython-exact.

    With the native engine built, the RNG's MT19937 state is adopted once
    into a C-visible buffer (:class:`repro.sim.native.MTStream`) and each
    call runs a C fill kernel, then writes the state back -- so after
    every call ``rng`` holds exactly the state the same scalar draws
    leave.  The stream owns ``rng`` from construction on: nothing else
    may draw from it.  Without the engine (``REPRO_NATIVE=0``, no
    compiler), and for ``randbelow`` bounds of 2**32 or more, the draws
    are made by the Python path: :func:`draw_uniform` and
    ``rng.randrange``.
    """

    __slots__ = ("_rng", "_mt")

    def __init__(self, rng: random.Random):
        from repro.sim import native

        lib = native.native_lib()
        self._rng = rng
        self._mt = native.MTStream(lib, rng) if lib is not None else None

    @property
    def engine(self) -> str:
        """``"native"`` while the C kernels draw, else ``"python"``."""
        return "python" if self._mt is None else "native"

    def random(self, count: int) -> np.ndarray:
        """``count`` consecutive ``rng.random()`` draws."""
        mt = self._mt
        if mt is None:
            return draw_uniform(self._rng, count)
        out = mt.random(count)
        mt.store(self._rng)
        return out

    def randbelow(self, bound: int, count: int) -> np.ndarray:
        """``count`` consecutive ``rng.randrange(bound)`` draws."""
        if bound < 1:
            raise ValueError("bound must be positive")
        mt = self._mt
        if mt is not None and bound >> 32:
            # Past one 32-bit word per draw: ``rng`` is current (every
            # call stores it), so the Python path takes over for good.
            self._mt = mt = None
        if mt is None:
            randrange = self._rng.randrange
            return np.fromiter(
                (randrange(bound) for _ in range(count)), np.int64, count
            )
        out = mt.randbelow(bound, count)
        mt.store(self._rng)
        return out


def cyclic_stream(addresses: np.ndarray) -> TakeFn:
    """Walk a fixed address cycle forever, ``take(count)`` at a time
    (no RNG consumed, no stores)."""
    period = addresses.size
    cursor = 0

    def take(count: int) -> AccessBatch:
        nonlocal cursor
        end = cursor + count
        if end <= period:
            vaddrs = addresses[cursor:end].copy()
        else:
            # One rotated period, repeated (np.resize tiles) to length.
            vaddrs = np.resize(
                np.concatenate((addresses[cursor:], addresses[:cursor])),
                count,
            )
        cursor = end % period
        return vaddrs, np.zeros(count, dtype=np.bool_)

    return take


@dataclass(frozen=True)
class MemoryAccess:
    """One memory operation: a virtual byte address plus load/store kind."""

    vaddr: int
    is_store: bool = False


class AccessPattern(abc.ABC):
    """A reusable access-stream primitive (see :mod:`repro.workloads.patterns`).

    Patterns are stateless descriptions (at most caching tables derived
    from their parameters); :meth:`generate` returns a fresh infinite
    iterator each call, driven by the supplied RNG so streams are
    reproducible.
    """

    @abc.abstractmethod
    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:
        """Yield accesses forever."""

    def batch_stream(self, rng: random.Random) -> TakeFn:
        """The stream :meth:`generate` produces, in array chunks on demand.

        Returns ``take(count)``, which generates exactly the next
        ``count`` accesses as ``(vaddrs, is_store)`` arrays.  Any
        sequence of chunk sizes concatenates to the scalar stream from an
        identically seeded RNG -- same addresses, same store flags, same
        RNG draw order -- and after each chunk ``rng`` holds the state the
        scalar generator leaves after as many accesses.  The default
        buffers the scalar generator; hot patterns override it with
        vectorized generation.
        """
        stream = self.generate(rng)

        def take(count: int) -> AccessBatch:
            vaddrs = np.empty(count, dtype=np.int64)
            stores = np.empty(count, dtype=np.bool_)
            for index in range(count):
                access = next(stream)
                vaddrs[index] = access.vaddr
                stores[index] = access.is_store
            return vaddrs, stores

        return take

    @abc.abstractmethod
    def footprint_bytes(self) -> int:
        """Total bytes the pattern can touch (its working-set bound)."""


class Workload:
    """A named application model: an access pattern plus cost parameters.

    Args:
        name: the application this models (e.g. ``mcf``).
        pattern: the access-stream generator.
        instructions_per_access: instructions retired per memory access
            emitted (folds in instruction mix and within-line locality).
        store_fraction: fraction of accesses that are stores (the pattern
            may also mark stores itself; this is a fallback used by
            patterns that do not).
        seed: base RNG seed; every stream from this workload is
            reproducible given the seed.
        description: one line on what behaviour class is being modeled.
    """

    def __init__(
        self,
        name: str,
        pattern: AccessPattern,
        instructions_per_access: int = 48,
        store_fraction: float = 0.3,
        seed: int = 7,
        description: str = "",
    ):
        if instructions_per_access < 1:
            raise ValueError("instructions_per_access must be >= 1")
        if not 0.0 <= store_fraction <= 1.0:
            raise ValueError("store_fraction must be in [0, 1]")
        self.name = name
        self.pattern = pattern
        self.instructions_per_access = instructions_per_access
        self.store_fraction = store_fraction
        self.seed = seed
        self.description = description

    def accesses(self, seed_offset: int = 0) -> Iterator[MemoryAccess]:
        """A fresh, reproducible infinite access stream."""
        rng = random.Random(f"{self.seed}/{seed_offset}")
        store_rng = random.Random(f"{self.seed}/{seed_offset}/stores")
        for access in self.pattern.generate(rng):
            if not access.is_store and store_rng.random() < self.store_fraction:
                yield MemoryAccess(access.vaddr, is_store=True)
            else:
                yield access

    def access_batches(
        self, seed_offset: int, demand: List[int]
    ) -> Iterator[AccessBatch]:
        """Array-chunk form of :meth:`accesses` (same stream, same draws).

        ``demand`` is a one-element list the consumer sets before every
        ``next()``; each pull generates exactly ``demand[0]`` accesses, so
        only the accesses the consumer will use are generated.  Store
        promotion consumes ``store_rng`` draws in the exact scalar order:
        one draw per access the pattern did not already mark as a store,
        in stream order.
        """
        rng = random.Random(f"{self.seed}/{seed_offset}")
        store_rng = random.Random(f"{self.seed}/{seed_offset}/stores")
        take = self.pattern.batch_stream(rng)
        store_draws = BatchRandom(store_rng)
        fraction = self.store_fraction
        while True:
            vaddrs, stores = take(demand[0])
            loads = np.flatnonzero(~stores)
            if loads.size:
                stores = stores.copy()
                stores[loads] = store_draws.random(loads.size) < fraction
            _count_stream("generated", vaddrs.size)
            yield vaddrs, stores

    def footprint_bytes(self) -> int:
        return self.pattern.footprint_bytes()

    def __repr__(self) -> str:
        return (
            f"Workload({self.name!r}, ipa={self.instructions_per_access}, "
            f"footprint={self.footprint_bytes()}B)"
        )


# ---------------------------------------------------------------------------
# Stream sharing: generate once, replay many times
# ---------------------------------------------------------------------------

class StreamRecording:
    """One ``(workload, seed_offset)`` stream, generated once and
    replayed from its first access by any number of readers.

    The accesses generated so far live in two read-only arrays, so no
    reader can change what a later one replays.  A reader that runs past
    their end extends them through ``workload.access_batches``, by
    exactly the missing accesses.  Growth allocates new arrays and
    copies: it never resizes in place, so chunks already handed out --
    views of the old arrays, possibly bound in C -- stay valid.
    """

    def __init__(self, workload: Workload, seed_offset: int):
        # The recording holds its workload, so the object id that keys it
        # cannot be reused while the recording lives.
        self.workload = workload
        self.vaddrs = np.empty(0, dtype=np.int64)
        self.stores = np.empty(0, dtype=np.bool_)
        self._demand = [0]
        self._batches = workload.access_batches(
            seed_offset, demand=self._demand
        )

    def replay(self, demand: List[int]) -> Iterator[AccessBatch]:
        """The stream from its start, in the protocol of
        :meth:`Workload.access_batches`: each pull returns exactly
        ``demand[0]`` accesses, as views of the recording."""
        cursor = 0
        while True:
            end = cursor + demand[0]
            recorded = self.vaddrs.size
            if end > recorded:
                self._demand[0] = end - recorded
                vaddrs, stores = next(self._batches)
                self.vaddrs = np.concatenate((self.vaddrs, vaddrs))
                self.stores = np.concatenate((self.stores, stores))
                self.vaddrs.flags.writeable = False
                self.stores.flags.writeable = False
            _count_stream("replayed", min(end, recorded) - cursor)
            yield self.vaddrs[cursor:end], self.stores[cursor:end]
            cursor = end


#: The open scope's recordings by ``(id(workload), seed_offset)``; None
#: outside :func:`shared_streams`.
_recordings: Optional[Dict[Tuple[int, int], StreamRecording]] = None


def _drop_recordings() -> None:
    global _recordings
    _recordings = None


# A forked pool worker generates its own streams: it never inherits the
# scope its parent had open when it forked.
os.register_at_fork(after_in_child=_drop_recordings)


@contextlib.contextmanager
def shared_streams() -> Iterator[None]:
    """Generate each access stream at most once inside the block.

    The first native drive in the block that pulls a ``(workload
    object, seed_offset)`` stream records it, and every later drive of
    the same stream replays the recording (:func:`recorded_stream`).
    The key is the workload object itself, never its name: two
    workloads built alike for different machines stay apart.  A nested
    block reuses the outermost one; leaving the outermost frees every
    recording.
    """
    global _recordings
    if _recordings is not None:
        yield
        return
    _recordings = {}
    try:
        yield
    finally:
        _recordings = None


def recorded_stream(
    workload: Workload, seed_offset: int
) -> Optional[StreamRecording]:
    """The open scope's recording of this stream, created on first use;
    None outside :func:`shared_streams`."""
    if _recordings is None:
        return None
    key = (id(workload), seed_offset)
    recording = _recordings.get(key)
    if recording is None:
        recording = _recordings[key] = StreamRecording(workload, seed_offset)
    return recording


def _count_stream(source: str, accesses: int) -> None:
    """Count stream accesses by source (``generated`` or ``replayed``);
    counters, so pooled runs fold back to the sequential totals."""
    telemetry = get_telemetry()
    if telemetry.enabled and accesses:
        telemetry.registry.counter(
            "workloads.stream_accesses", source=source
        ).inc(accesses)
