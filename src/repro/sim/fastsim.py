"""Batched simulation: the native C engine behind one dispatch rule.

:func:`drive_batch` is the batched sibling of
:func:`repro.runner.driver.drive`: same inputs, bit-identical outputs
(core counters, cache contents in LRU order, the PMU trace log, RNG
states, cycle clocks).  It takes one of exactly two paths:

native
    The compiled engine (:mod:`repro.sim.native`) simulates the access
    stream in chunks, and runs the stock trace collectors' PMU channel
    itself.  It covers LRU L1D/L2/L3 geometry with prefetch depth up to
    64, an observer that is a trace collector, and a stop predicate that
    is absent or a :class:`CollectorStop` over that collector.

scalar
    Anything else -- a non-LRU cache, a deeper prefetcher, no C compiler
    or ``REPRO_NATIVE=0``, an opaque observer or stop -- runs the scalar
    :func:`~repro.runner.driver.drive` unchanged and counts
    ``sim.batch_fallbacks{reason}``.

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

#: Accesses per chunk of the access stream handed to the native engine.
DEFAULT_SLAB = 1 << 16


# ---------------------------------------------------------------------------
# Stream ownership
# ---------------------------------------------------------------------------

class BatchAccessSource:
    """Sole owner of one process's access stream, in array form.

    Created the first time the batch engine drives a process.  A stream
    that has never been pulled is regenerated through the workload's
    native array producers (:meth:`Workload.access_batches`); a live
    iterator (the process was already stepped scalar) is wrapped and
    buffered.  Either way ``process._stream`` is redirected through this
    source, so scalar ``step()`` calls interleaved with batched drives
    keep consuming one single stream in order.
    """

    __slots__ = ("_batches", "_pending")

    def __init__(self, process, slab_size: int = DEFAULT_SLAB):
        if process._stream is None:
            self._batches = process.workload.access_batches(
                process._seed_offset, batch_size=slab_size
            )
        else:
            self._batches = _buffer_stream(process._stream, slab_size)
        self._pending: deque = deque()
        process._stream = self._scalar_iter()
        process._fastsim_source = self

    def take(self, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next chunk of at most ``limit`` accesses as ``(vaddrs, stores)``."""
        if self._pending:
            vaddrs, stores, cursor = self._pending.popleft()
        else:
            vaddrs, stores = next(self._batches)
            cursor = 0
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
            vaddrs, stores = self.take(1)
            yield MemoryAccess(vaddr=int(vaddrs[0]), is_store=bool(stores[0]))


def _buffer_stream(stream: Iterator, slab_size: int):
    while True:
        vaddrs = np.empty(slab_size, dtype=np.int64)
        stores = np.empty(slab_size, dtype=np.bool_)
        for i in range(slab_size):
            access = next(stream)
            vaddrs[i] = access.vaddr
            stores[i] = access.is_store
        yield vaddrs, stores


def _source_for(process, slab_size: int = DEFAULT_SLAB) -> BatchAccessSource:
    source = getattr(process, "_fastsim_source", None)
    if source is None:
        source = BatchAccessSource(process, slab_size)
    return source


class CollectorStop:
    """Early-stop predicate "the collector is done", in declarative form.

    Behaviourally identical to ``lambda: collector.done``, but the
    batched engines can *reason* about it: the predicate is a pure
    function of the named collector's state, which only changes through
    the events the drive itself feeds.  That is what lets the native
    engine run a chunk ahead of the observer and rewind to the exact
    access where ``done`` first turned true.  An opaque callable (plain
    lambda) is still honoured everywhere -- it simply keeps the drive on
    the scalar driver.
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


def _native_route(observer, stop):
    """How the native engine serves ``observer`` and ``stop``.

    Returns ``(channel, events_fn)``, or None when it cannot.  A stock
    collector (:func:`repro.sim.native.channel_kind`) runs its channel
    model inside C; any other observer's owner must expose the batched
    ``observe_events`` protocol, so the run-ahead engine can locate the
    exact stop access by rewinding.  The stop predicate must be absent
    or a :class:`CollectorStop` over that same collector.
    """
    if observer is None:
        if stop is None or isinstance(stop, CollectorStop):
            return None, None
        return None
    owner = getattr(observer, "__self__", None)
    if stop is not None and not (
        isinstance(stop, CollectorStop) and stop.collector is owner
    ):
        return None
    from repro.sim.native import channel_kind

    if (channel_kind(owner) is not None
            and getattr(observer, "__func__", None) is type(owner).observe):
        return owner, None
    events_fn = getattr(owner, "observe_events", None)
    if events_fn is None:
        return None
    return None, events_fn


# ---------------------------------------------------------------------------
# Native path
# ---------------------------------------------------------------------------

def _drive_native(
    process,
    hierarchy: MemoryHierarchy,
    num_accesses: int,
    events_fn,
    stop: Optional[Callable[[], bool]],
    source: BatchAccessSource,
    slab_size: int,
    channel=None,
) -> Tuple[int, int]:
    """Solo drive on the compiled C engine.

    ``channel`` is a collector the C trace channel models exactly
    (:func:`repro.sim.native.channel_kind`): C applies every access to
    it and stops on the access that fills its log, so the drive needs
    no Python per-event work at all.  Otherwise ``events_fn`` is the
    collector's ``observe_events`` bound method (or None for an
    unobserved run): observed chunks run ahead of the collector and are
    rewound to the exact access on which the stop predicate first
    fired -- snapshot, simulate, feed the recorded events, and if the
    collector consumed fewer events than the engine produced, restore
    the snapshot and deterministically re-run exactly the consumed
    prefix.

    Returns ``(executed, chunks)``.
    """
    from repro.sim import native as _native

    session = _native.NativeSession(
        hierarchy, [process], channel=channel,
        stop_on_full=channel is not None and stop is not None,
    )
    proc = session.procs[0]
    events = None
    if events_fn is not None:
        config = process._pf_config
        depth = config.depth if config.enabled else 0
        events = _native.EventBuffer(min(slab_size, 1 << 14), depth)

    executed = 0
    chunks = 0
    limit = num_accesses
    session.adopt()
    try:
        if (channel is None and events is None
                and stop is not None and stop()):
            # Scalar parity: the per-access loop executes one access and
            # only then consults the predicate, so a predicate that is
            # already true still consumes exactly one access.  (Without
            # an observer the predicate's state cannot change mid-run;
            # the C channel checks its own log after every access.)
            limit = 1
        while executed < limit:
            if session.chunk_remaining(0) == 0:
                vaddrs, stores = source.take(slab_size)
                chunks += 1
                session.set_chunk(0, vaddrs, stores)

            if events is None:
                quota = limit - executed
                ran = session.run_solo(0, quota)
                executed += ran
                if ran == quota:
                    break
                reason = proc.stop_reason
                if reason == _native.STOP_LOG_FULL:
                    break
                if reason != _native.STOP_REFILL:
                    session.grow(0, reason)
                continue

            quota = min(limit - executed, events.cap)
            snap = session.snapshot(0)
            events.reset()
            ran = session.run_solo(0, quota, events)
            lines, hits, prefetched = events.drain()
            consumed = events_fn(lines, hits, prefetched)
            while stop is None and consumed < ran:
                # No stop predicate: the scalar loop keeps feeding the
                # (now done) collector, so feed the tail through too.
                consumed += events_fn(
                    lines[consumed:],
                    hits[consumed:],
                    prefetched[consumed:] if prefetched is not None else None,
                )
            if consumed < ran:
                # The collector finished mid-chunk: rewind the engine
                # and replay exactly the consumed prefix (deterministic,
                # all prechecks already passed on the first run).
                session.restore(0, snap)
                rerun = session.run_solo(0, consumed)
                if rerun != consumed:
                    raise AssertionError(
                        "native replay diverged (engine bug)"
                    )
                executed += consumed
                return executed, chunks
            executed += ran
            if stop is not None and stop():
                return executed, chunks
            if ran < quota:
                reason = proc.stop_reason
                if reason != _native.STOP_REFILL:
                    session.grow(0, reason)
    finally:
        session.commit()
    return executed, chunks


class NativeCorun:
    """Compiled co-run scheduler: all cores interleave inside one C call.

    Replaces the per-access heap loop of ``runner.corun``'s quota legs
    with :func:`repro_corun`, which repeatedly steps the process with
    the lowest (cycles, index) key -- the exact argmin order the heap
    produces -- until some process completes its quota.  Legs commit on
    return, so warmup resets and scalar interleaving see live state.
    """

    def __init__(self, processes, hierarchy: MemoryHierarchy,
                 slab_size: int = DEFAULT_SLAB):
        from repro.sim import native as _native

        self._native = _native
        self.processes = list(processes)
        self.slab_size = slab_size
        self.sources = [_source_for(p, slab_size) for p in self.processes]
        self.session = _native.NativeSession(hierarchy, self.processes)

    def run_until(self, start, target_extra: int) -> bool:
        """Run every process until one has executed ``target_extra``
        accesses beyond its entry in ``start``.  Always returns True
        (the leg completed).
        """
        native = self._native
        session = self.session
        session.adopt()
        try:
            while True:
                finisher, reason, proc = session.run_corun(
                    start, target_extra
                )
                if finisher >= 0:
                    return True
                if reason == native.STOP_REFILL:
                    vaddrs, stores = self.sources[proc].take(self.slab_size)
                    session.set_chunk(proc, vaddrs, stores)
                else:
                    session.grow(proc, reason)
        finally:
            session.commit()


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
    route = _native_route(observer, stop) if reason is None else None
    if route is None:
        from repro.runner.driver import drive

        engine = "scalar"
        chunks = 0
        executed = drive(process, hierarchy, num_accesses,
                         observer=observer, stop=stop)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.counter(
                "sim.batch_fallbacks", reason=reason or "observer"
            ).inc()
    else:
        engine = "native"
        channel, events_fn = route
        executed, chunks = _drive_native(
            process, hierarchy, num_accesses, events_fn, stop,
            _source_for(process, slab_size), slab_size, channel,
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
