"""Batched simulation: the native C engine behind one dispatch rule.

:func:`drive_batch` is the batched sibling of
:func:`repro.runner.driver.drive`: same inputs, bit-identical outputs
(core counters, cache contents in LRU order, the PMU trace log, RNG
states, cycle clocks).  It takes one of exactly two paths:

native
    The compiled engine (:mod:`repro.sim.native`) simulates the access
    stream in chunks, each generated on demand at the size the drive
    will run.  A solo drive is a one-process :class:`NativeCorun` leg,
    through the engine's one run entry; co-runs and the dynamic
    manager's loop run multi-process legs, the manager's with a stop
    target per process at the next access where one of its hooks can
    fire.  Its one way to serve a collector is its own trace channel:
    the stock collectors' PMU model runs inside C and logs straight into
    the collector's buffer.  It covers every machine the simulator
    builds, with no collector or a stock one.  The machine's state stays
    in C from one drive to the next (its
    :class:`~repro.sim.native.NativeSession`).

scalar
    No C compiler or ``REPRO_NATIVE=0`` (reason ``native_unavailable``),
    or a collector C does not model (the fault-injecting wrapper, a
    subclass; reason ``observer``): the drive first copies a live
    session's state back (``sim.native_copybacks{reason}``), then runs
    the scalar :func:`~repro.runner.driver.drive` unchanged and counts
    ``sim.batch_fallbacks{reason}``.

Either way ``sim.batch_accesses{engine}`` records which engine ran.  All
native drives consume the process's one logical access stream through a
shared :class:`BatchAccessSource`, so batched drives, scalar ``step()``
calls and co-run interleaving can be mixed freely on the same process
without skipping or replaying accesses.  Inside
:func:`~repro.workloads.base.shared_streams` (one offline curve, one
Fig. 3 row, one Fig. 7 pair) every source of the same workload object
and ``seed_offset`` reads one recording of that stream, generated once;
``workloads.stream_accesses{source}`` counts generated against replayed
accesses.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.obs import get_telemetry
from repro.sim.hierarchy import MemoryHierarchy

__all__ = [
    "DEFAULT_SLAB",
    "BatchAccessSource",
    "NativeCorun",
    "drive_batch",
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
    that has never been pulled is read from the workload's native array
    producers (:meth:`Workload.access_batches`) -- or, inside
    :func:`~repro.workloads.base.shared_streams`, replayed from the
    scope's one recording of that ``(workload, seed_offset)`` stream,
    which the first reader generates and later readers extend; a live
    iterator (the process was already stepped scalar) is wrapped and
    buffered.  Either way the stream is demand-driven: :meth:`take`
    returns exactly the chunk its caller asks for.  ``process._stream``
    is redirected through this source, so scalar ``step()`` calls
    interleaved with batched drives keep consuming one single stream in
    order.
    """

    __slots__ = ("_batches", "_demand", "_pending")

    def __init__(self, process):
        from repro.workloads.base import recorded_stream

        # The generator sees the demand through this one-element list,
        # never through a reference back to the source: a source <->
        # generator cycle would keep dead streams' chunks alive until a
        # full garbage collection.
        self._demand = [0]
        if process._stream is None:
            recording = recorded_stream(process.workload, process._seed_offset)
            if recording is None:
                self._batches = process.workload.access_batches(
                    process._seed_offset, demand=self._demand
                )
            else:
                self._batches = recording.replay(self._demand)
        else:
            self._batches = _buffer_stream(process._stream, self._demand)
        self._pending: deque = deque()
        process._stream = self._scalar_iter()
        process._fastsim_source = self

    def take(self, limit: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next chunk of at most ``limit`` accesses as ``(vaddrs,
        stores)``: a pushed-back tail if one is pending, else exactly
        ``limit`` accesses pulled from the stream."""
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


# ---------------------------------------------------------------------------
# Native path
# ---------------------------------------------------------------------------

class NativeCorun:
    """Compiled co-run scheduler: all cores interleave inside one C call.

    Replaces the per-access heap loop of ``runner.corun``'s quota legs
    and of the dynamic manager's loop with :func:`repro_corun`, which
    repeatedly steps the process with the lowest (cycles, index) key --
    the exact argmin order the heap produces -- until some process
    reaches its stop target (its quota, or a nearer access the caller
    names).  Each leg runs
    in the machine's native session, so the heavy state stays in C from
    one leg to the next; a leg copies back only the counters and clocks
    that warmup resets and the IPC accounting read.  A native solo drive
    is a one-process leg (:func:`drive_batch`).
    """

    def __init__(self, processes, hierarchy: MemoryHierarchy,
                 slab_size: int = DEFAULT_SLAB):
        self.processes = list(processes)
        self.hierarchy = hierarchy
        self.slab_size = slab_size
        self.sources = [_source_for(p) for p in self.processes]

    def run_until(self, start, target_extra: int, stop_at=None,
                  channels=None) -> bool:
        """Run every process until one has executed ``target_extra``
        accesses beyond its entry in ``start`` -- or, with ``stop_at``
        (absolute access counts, none beyond that quota), until process
        ``i`` reaches ``stop_at[i]``.  ``channels[i]`` (a
        :class:`~repro.sim.native.TraceChannel` or None) observes process
        ``i``; the leg also ends right after the access that fills an
        observed log.  Always returns True (the leg completed).
        """
        self._run(start, target_extra, stop_at, channels)
        return True

    def _run(self, start, target_extra: int, stop_at=None,
             channels=None, first_chunk: Optional[int] = None) -> int:
        """The leg loop behind :meth:`run_until` and every native solo
        drive.  With ``first_chunk``, each process's first refill asks
        for at most that many accesses and each later one for twice the
        last, up to ``slab_size``.  Returns the number of chunks bound.

        With telemetry on, the time spent inside the C calls alone is
        counted as ``sim.native_step_ns``."""
        from repro.sim import native

        if stop_at is None:
            stop_at = [entry + target_extra for entry in start]
        session, slots = native.enter(self.hierarchy, self.processes)
        telemetry = get_telemetry()
        timed = telemetry.enabled
        step_ns = 0
        chunks = 0
        sizes = [first_chunk or self.slab_size] * len(slots)

        def refill(index: int) -> None:
            # At most what this process can still consume before the
            # quota, whatever nearer stop the leg has: a chunk's tail
            # stays bound for the next leg.
            slot = slots[index]
            left = target_extra - (session.proc(slot).accesses - start[index])
            size = sizes[index]
            sizes[index] = min(2 * size, self.slab_size)
            session.set_chunk(slot, *self.sources[index].take(min(size, left)))

        try:
            # Bind empty chunks up front rather than be told to by a stop.
            for index, slot in enumerate(slots):
                if session.chunk_remaining(slot) == 0:
                    refill(index)
                    chunks += 1
            while True:
                began = time.perf_counter_ns() if timed else 0
                finisher, reason, index = session.run_corun(
                    slots, stop_at, channels
                )
                if timed:
                    step_ns += time.perf_counter_ns() - began
                if finisher >= 0 or reason == native.STOP_LOG_FULL:
                    return chunks
                if reason == native.STOP_REFILL:
                    refill(index)
                    chunks += 1
                else:
                    session.grow(slots[index], reason)
        finally:
            session.leave(self.hierarchy, self.processes, slots)
            if step_ns:
                # A counter, so a worker pool's fold-back sums it.
                telemetry.registry.counter("sim.native_step_ns").inc(step_ns)
            for channel in channels or ():
                if channel is not None:
                    channel.commit()


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def drive_batch(
    process,
    hierarchy: MemoryHierarchy,
    num_accesses: int,
    collector=None,
    slab_size: int = DEFAULT_SLAB,
) -> int:
    """Batched twin of :func:`repro.runner.driver.drive` (bit-identical).

    With a ``collector``, every access is fed to it and the drive ends on
    the access that fills its log: ``drive(..., observer=collector.observe,
    stop=lambda: collector.done)``.  Runs the native engine when the
    library loads and models the collector, and the scalar driver
    otherwise (counting ``sim.batch_fallbacks{reason}``).  An observed
    native drive asks for its first chunk at the log's free entries (at
    most ``slab_size``) and doubles each refill up to ``slab_size``, so a
    probe whose log fills early generates little it never runs.  Returns
    the number of accesses executed.
    """
    if num_accesses <= 0:
        return 0
    started = time.perf_counter()
    from repro.sim import native

    reason = None
    if not native.native_available():
        reason = "native_unavailable"
    elif collector is not None and native.channel_kind(collector) is None:
        reason = "observer"
    if reason is not None:
        from repro.runner.driver import drive

        # The scalar loop needs the machine's state back in Python.
        for owner in (hierarchy, process):
            if owner._native is not None:
                owner._native.materialize(reason)
        engine = "scalar"
        chunks = 0
        if collector is None:
            executed = drive(process, hierarchy, num_accesses)
        else:
            executed = drive(process, hierarchy, num_accesses,
                             observer=collector.observe,
                             stop=lambda: collector.done)
        telemetry = get_telemetry()
        if telemetry.enabled:
            telemetry.registry.counter(
                "sim.batch_fallbacks", reason=reason
            ).inc()
    else:
        engine = "native"
        start = process.accesses
        channels = first_chunk = None
        if collector is not None:
            channel = native.TraceChannel(collector)
            channels = [channel]
            # A probe runs until its log fills, often far short of its
            # access bound: start at the log's free entries and double.
            first_chunk = max(1, min(slab_size, channel.pmu.log_cap))
        chunks = NativeCorun((process,), hierarchy, slab_size)._run(
            (start,), num_accesses, channels=channels, first_chunk=first_chunk
        )
        executed = process.accesses - start
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
