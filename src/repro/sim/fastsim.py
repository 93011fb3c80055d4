"""Batched simulation: the native C engine behind one dispatch rule.

:func:`drive_batch` is the batched sibling of
:func:`repro.runner.driver.drive`: same inputs, bit-identical outputs
(core counters, cache contents in LRU order, the PMU trace log, RNG
states, cycle clocks).  It takes one of exactly two paths:

native
    The compiled engine (:mod:`repro.sim.native`) simulates the access
    stream in chunks, each generated on demand at the size the drive
    will run.  Its one way to serve an observer is its own trace
    channel: the stock collectors' PMU model runs inside C and logs
    straight into the collector's buffer.  It covers LRU L1D/L2/L3
    geometry with prefetch depth up to 64, no observer or a stock
    collector's ``observe``, and a stop predicate that is absent or a
    :class:`CollectorStop` over that collector.  The machine's state
    stays in C from one drive to the next (its
    :class:`~repro.sim.native.NativeSession`).

scalar
    Anything else -- a non-LRU cache, a deeper prefetcher, no C compiler
    or ``REPRO_NATIVE=0``, an observer C does not model (the
    fault-injecting wrapper, a plain callable) or an opaque stop -- first
    copies a live session's state back (``sim.native_copybacks{reason}``),
    then runs the scalar :func:`~repro.runner.driver.drive` unchanged and
    counts ``sim.batch_fallbacks{reason}``.

Either way ``sim.batch_accesses{engine}`` records which engine ran.  All
native drives consume the process's one logical access stream through a
shared :class:`BatchAccessSource`, so batched drives, scalar ``step()``
calls and co-run interleaving can be mixed freely on the same process
without skipping or replaying accesses.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro.obs import get_telemetry
from repro.sim.hierarchy import AccessResult, MemoryHierarchy

__all__ = [
    "DEFAULT_SLAB",
    "BatchAccessSource",
    "CollectorStop",
    "NativeCorun",
    "drive_batch",
    "native_fallback_reason",
    "record_drive",
]

#: Most accesses per chunk of the access stream handed to the native
#: engine (a drive asks for no more than it can still run).
DEFAULT_SLAB = 1 << 16
#: Accesses buffered at a time for scalar ``step()`` calls on a process
#: whose stream a :class:`BatchAccessSource` owns.
_SCALAR_CHUNK = 1 << 12


# ---------------------------------------------------------------------------
# Stream ownership
# ---------------------------------------------------------------------------

class BatchAccessSource:
    """Sole owner of one process's access stream, in array form.

    Created the first time the batch engine drives a process.  A stream
    that has never been pulled is regenerated through the workload's
    native array producers (:meth:`Workload.access_batches`); a live
    iterator (the process was already stepped scalar) is wrapped and
    buffered.  Either way the stream is demand-driven: :meth:`take`
    generates exactly the chunk its caller asks for.  ``process._stream``
    is redirected through this source, so scalar ``step()`` calls
    interleaved with batched drives keep consuming one single stream in
    order.
    """

    __slots__ = ("_batches", "_demand", "_pending")

    def __init__(self, process):
        # The generator sees the demand through this one-element list,
        # never through a reference back to the source: a source <->
        # generator cycle would keep dead streams' chunks alive until a
        # full garbage collection.
        self._demand = [0]
        if process._stream is None:
            self._batches = process.workload.access_batches(
                process._seed_offset, demand=self._demand
            )
        else:
            self._batches = _buffer_stream(process._stream, self._demand)
        self._pending: deque = deque()
        process._stream = self._scalar_iter()
        process._fastsim_source = self

    def take(self, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next chunk of at most ``limit`` accesses as ``(vaddrs,
        stores)``: a pushed-back tail if one is pending, else exactly
        ``limit`` freshly generated accesses."""
        if not self._pending:
            self._demand[0] = limit
            return next(self._batches)
        vaddrs, stores, cursor = self._pending.popleft()
        end = cursor + limit
        if end < vaddrs.size:
            self._pending.appendleft((vaddrs, stores, end))
        else:
            end = vaddrs.size
        return vaddrs[cursor:end], stores[cursor:end]

    def push_back(self, vaddrs: np.ndarray, stores: np.ndarray) -> None:
        """Return an unconsumed chunk tail to the front of the stream."""
        if vaddrs.size:
            self._pending.appendleft((vaddrs, stores, 0))

    def _scalar_iter(self) -> Iterator:
        from repro.workloads.base import MemoryAccess

        while True:
            if not self._pending:
                self.push_back(*self.take(_SCALAR_CHUNK))
            vaddrs, stores = self.take(1)
            yield MemoryAccess(vaddr=int(vaddrs[0]), is_store=bool(stores[0]))


def _buffer_stream(stream: Iterator, demand):
    """Array chunks of a live scalar iterator, ``demand[0]`` at a time."""
    while True:
        count = demand[0]
        vaddrs = np.empty(count, dtype=np.int64)
        stores = np.empty(count, dtype=np.bool_)
        for i in range(count):
            access = next(stream)
            vaddrs[i] = access.vaddr
            stores[i] = access.is_store
        yield vaddrs, stores


def _source_for(process) -> BatchAccessSource:
    source = getattr(process, "_fastsim_source", None)
    if source is None:
        source = BatchAccessSource(process)
    return source


class CollectorStop:
    """Early-stop predicate "the collector is done", in declarative form.

    Behaviourally identical to ``lambda: collector.done``, but the
    native engine can *reason* about it: the predicate is a pure
    function of the named collector's state, which only changes through
    the events the drive itself feeds.  For a stock collector "done" is
    "the log is full", which the C trace channel checks after every
    access, so the drive stops inside C on the exact access where the
    scalar loop would.  An opaque callable (plain lambda) is still
    honoured everywhere -- it simply keeps the drive on the scalar
    driver.
    """

    __slots__ = ("collector",)

    def __init__(self, collector):
        self.collector = collector

    def __call__(self) -> bool:
        return bool(self.collector.done)


# ---------------------------------------------------------------------------
# Eligibility
# ---------------------------------------------------------------------------

def native_fallback_reason(process, hierarchy: MemoryHierarchy) -> Optional[str]:
    """Why the compiled engine cannot simulate this configuration, or None.

    The engine hard-codes LRU for every cache level and bounds the
    prefetcher geometry.  ``native_unavailable`` means the engine is
    disabled (``REPRO_NATIVE=0``) or no C compiler could build it.
    """
    if (hierarchy.l1d[process.core].config.replacement != "lru"
            or hierarchy.l2.config.replacement != "lru"):
        return "replacement"
    l3 = hierarchy.l3
    if l3.enabled and not (
        l3._cache is not None and l3._cache.config.replacement == "lru"
    ):
        return "l3_replacement"
    config = process._pf_config
    if config.enabled and not (
        1 <= config.depth <= 64 and config.num_streams >= 1
    ):
        return "prefetch_geometry"
    from repro.sim.native import native_available

    if not native_available():
        return "native_unavailable"
    return None


def _native_serves(observer, stop) -> bool:
    """Whether the native engine can serve ``observer`` and ``stop``.

    C runs no Python per access, so an observer must be the ``observe``
    of a collector whose channel C models
    (:func:`repro.sim.native.channel_kind`), and the stop predicate must
    be absent or a :class:`CollectorStop` over that same collector.  An
    unobserved drive accepts any :class:`CollectorStop`: nothing the
    drive does can change its state.
    """
    if observer is None:
        return stop is None or isinstance(stop, CollectorStop)
    owner = getattr(observer, "__self__", None)
    if stop is not None and not (
        isinstance(stop, CollectorStop) and stop.collector is owner
    ):
        return False
    from repro.sim.native import channel_kind

    return (channel_kind(owner) is not None
            and getattr(observer, "__func__", None) is type(owner).observe)


# ---------------------------------------------------------------------------
# Native path
# ---------------------------------------------------------------------------

def _drive_native(
    process,
    hierarchy: MemoryHierarchy,
    num_accesses: int,
    stop: Optional[Callable[[], bool]],
    source: BatchAccessSource,
    slab_size: int,
    channel=None,
) -> Tuple[int, int]:
    """Solo drive on the compiled C engine, in the machine's session.

    ``channel`` is the observing collector, or None for an unobserved
    drive.  C applies every access to its trace channel and, under a
    stop predicate, stops on the access that fills its log, so the drive
    needs no Python per-event work at all.

    Returns ``(executed, chunks)``.
    """
    from repro.sim import native as _native

    session, slots = _native.enter(hierarchy, (process,))
    slot = slots[0]
    proc = session.proc(slot)
    trace = None
    executed = 0
    chunks = 0
    limit = num_accesses
    try:
        if channel is not None:
            trace = _native.TraceChannel(channel,
                                         stop_on_full=stop is not None)
        elif stop is not None and stop():
            # Scalar parity: the per-access loop executes one access and
            # only then consults the predicate, so a predicate that is
            # already true still consumes exactly one access.  (Without
            # an observer the predicate's state cannot change mid-run;
            # the C channel checks its own log after every access.)
            limit = 1
        while executed < limit:
            if session.chunk_remaining(slot) == 0:
                vaddrs, stores = source.take(
                    min(slab_size, limit - executed)
                )
                chunks += 1
                session.set_chunk(slot, vaddrs, stores)
            quota = limit - executed
            ran = session.run_solo(slot, quota, trace)
            executed += ran
            if ran == quota:
                break
            reason = proc.stop_reason
            if reason == _native.STOP_LOG_FULL:
                break
            if reason != _native.STOP_REFILL:
                session.grow(slot, reason)
    finally:
        session.leave(hierarchy, (process,), slots)
        if trace is not None:
            trace.commit()
    return executed, chunks


class NativeCorun:
    """Compiled co-run scheduler: all cores interleave inside one C call.

    Replaces the per-access heap loop of ``runner.corun``'s quota legs
    with :func:`repro_corun`, which repeatedly steps the process with
    the lowest (cycles, index) key -- the exact argmin order the heap
    produces -- until some process completes its quota.  Each leg runs
    in the machine's native session, so the heavy state stays in C from
    one leg to the next; a leg copies back only the counters and clocks
    that warmup resets and the IPC accounting read.
    """

    def __init__(self, processes, hierarchy: MemoryHierarchy,
                 slab_size: int = DEFAULT_SLAB):
        self.processes = list(processes)
        self.hierarchy = hierarchy
        self.slab_size = slab_size
        self.sources = [_source_for(p) for p in self.processes]

    def run_until(self, start, target_extra: int) -> bool:
        """Run every process until one has executed ``target_extra``
        accesses beyond its entry in ``start``.  Always returns True
        (the leg completed).
        """
        from repro.sim import native

        session, slots = native.enter(self.hierarchy, self.processes)
        try:
            while True:
                finisher, reason, proc = session.run_corun(
                    slots, start, target_extra
                )
                if finisher >= 0:
                    return True
                slot = slots[proc]
                if reason == native.STOP_REFILL:
                    # Refill with at most what this leg can still consume.
                    left = target_extra - (
                        session.proc(slot).accesses - start[proc]
                    )
                    vaddrs, stores = self.sources[proc].take(
                        min(self.slab_size, left)
                    )
                    session.set_chunk(slot, vaddrs, stores)
                else:
                    session.grow(slot, reason)
        finally:
            session.leave(self.hierarchy, self.processes, slots)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def drive_batch(
    process,
    hierarchy: MemoryHierarchy,
    num_accesses: int,
    observer: Optional[Callable[[AccessResult], None]] = None,
    stop: Optional[Callable[[], bool]] = None,
    slab_size: int = DEFAULT_SLAB,
) -> int:
    """Batched twin of :func:`repro.runner.driver.drive` (bit-identical).

    Runs the native engine when it covers the configuration, observer
    and stop predicate, and the scalar driver otherwise (counting
    ``sim.batch_fallbacks{reason}``).  Returns the number of accesses
    executed.
    """
    if num_accesses <= 0:
        return 0
    started = time.perf_counter()
    reason = native_fallback_reason(process, hierarchy)
    if reason is None and not _native_serves(observer, stop):
        reason = "observer"
    if reason is not None:
        from repro.runner.driver import drive

        # The scalar loop needs the machine's state back in Python.
        for owner in (hierarchy, process):
            if owner._native is not None:
                owner._native.materialize(reason)
        engine = "scalar"
        chunks = 0
        executed = drive(process, hierarchy, num_accesses,
                         observer=observer, stop=stop)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.counter(
                "sim.batch_fallbacks", reason=reason
            ).inc()
    else:
        engine = "native"
        channel = None if observer is None else observer.__self__
        executed, chunks = _drive_native(
            process, hierarchy, num_accesses, stop,
            _source_for(process), slab_size, channel,
        )
    record_drive(engine, executed, started, chunks)
    return executed


def record_drive(engine: str, accesses: int, started: float,
                 chunks: int = 0) -> None:
    """Count one drive's accesses and wall time under its engine label."""
    telemetry = get_telemetry()
    if not telemetry.enabled:
        return
    registry = telemetry.registry
    registry.counter("sim.batch_accesses", engine=engine).inc(accesses)
    if chunks:
        registry.counter("sim.batch_slabs", engine=engine).inc(chunks)
    elapsed = time.perf_counter() - started
    # Wall time as a counter so throughput survives worker fold-back (a
    # gauge would keep only one worker's last value; the report layer
    # derives accesses/sec from the two counter totals).
    registry.counter("sim.batch_ns", engine=engine).inc(
        max(1, int(elapsed * 1e9))
    )
