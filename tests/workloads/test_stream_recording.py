"""Stream sharing: one recording per (workload object, seed_offset).

Inside :func:`shared_streams` every native drive of the same workload
object and ``seed_offset`` reads one :class:`StreamRecording` of that
stream.  These tests pin the scope's key, its nesting and lifetime, the
replay protocol, and that growing a recording never moves memory a chunk
bound in C still points at.
"""

import contextlib
import dataclasses
import os
import pickle
import weakref

import numpy as np
import pytest

from repro.pmu.sampling import TraceCollector
from repro.runner.driver import Process
from repro.sim.fastsim import drive_batch
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.native import native_available
from repro.workloads.base import recorded_stream, shared_streams
from repro.workloads.spec import make_workload

MACHINE = MachineConfig.scaled(32)

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler / native engine disabled"
)


def _generated(workload, seed_offset, count):
    """The first ``count`` accesses of a stream, generated afresh."""
    return next(workload.access_batches(seed_offset, demand=[count]))


class TestScope:
    def test_no_recording_outside_a_scope(self):
        assert recorded_stream(make_workload("mcf", MACHINE), 0) is None

    def test_keyed_by_workload_object_and_offset(self):
        mcf = make_workload("mcf", MACHINE)
        with shared_streams():
            first = recorded_stream(mcf, 0)
            assert recorded_stream(mcf, 0) is first
            assert recorded_stream(mcf, 1) is not first
            twin = make_workload("mcf", MACHINE)
            assert recorded_stream(twin, 0) is not first

    def test_same_name_and_seed_at_two_scales_stay_apart(self):
        big = make_workload("mcf", MachineConfig.scaled(16), seed=7)
        small = make_workload("mcf", MachineConfig.scaled(32), seed=7)
        assert (big.name, big.seed) == (small.name, small.seed)
        with shared_streams():
            replays = [
                next(recorded_stream(workload, 0).replay([5_000]))[0]
                for workload in (big, small)
            ]
        assert not np.array_equal(*replays)
        for workload, replay in zip((big, small), replays):
            assert np.array_equal(replay, _generated(workload, 0, 5_000)[0])

    def test_nested_scopes_reuse_the_outer_recording(self):
        mcf = make_workload("mcf", MACHINE)
        with shared_streams():
            outer = recorded_stream(mcf, 0)
            with shared_streams():
                assert recorded_stream(mcf, 0) is outer
            assert recorded_stream(mcf, 0) is outer

    def test_leaving_the_scope_releases_the_recording(self):
        mcf = make_workload("mcf", MACHINE)
        with shared_streams():
            recording = recorded_stream(mcf, 0)
            next(recording.replay([1_000]))
            released = weakref.ref(recording)
            del recording
        assert released() is None
        assert recorded_stream(mcf, 0) is None

    def test_a_recording_never_rides_on_the_workload(self):
        """Pool tasks pickle workloads; a recording holds a generator,
        which would not pickle."""
        mcf = make_workload("mcf", MACHINE)
        with shared_streams():
            next(recorded_stream(mcf, 0).replay([1_000]))
            assert pickle.loads(pickle.dumps(mcf)).name == "mcf"

    def test_a_forked_child_starts_outside_the_scope(self):
        """A pool worker forked inside a scope generates its own streams."""
        mcf = make_workload("mcf", MACHINE)
        with shared_streams():
            recorded_stream(mcf, 0)
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                os._exit(0 if recorded_stream(mcf, 0) is None else 1)
            _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestReplay:
    @pytest.mark.parametrize("name", ["mcf", "twolf", "ammp"])
    def test_readers_see_the_generated_stream(self, name):
        """Two readers with different chunkings both read the stream
        ``access_batches`` generates, each pull exactly its demand."""
        workload = make_workload(name, MACHINE)
        vaddrs, stores = _generated(workload, 0, 9_000)
        with shared_streams():
            recording = recorded_stream(workload, 0)
            for sizes in ([1_000, 3_000, 5_000], [4_500, 1, 4_499]):
                demand = [0]
                reader = recording.replay(demand)
                chunks = []
                for size in sizes:
                    demand[0] = size
                    chunk = next(reader)
                    assert chunk[0].size == chunk[1].size == size
                    chunks.append(chunk)
                assert np.array_equal(
                    np.concatenate([c[0] for c in chunks]), vaddrs)
                assert np.array_equal(
                    np.concatenate([c[1] for c in chunks]), stores)
            assert recording.vaddrs.size == 9_000

    def test_replayed_chunks_are_read_only(self):
        mcf = make_workload("mcf", MACHINE)
        with shared_streams():
            vaddrs, stores = next(recorded_stream(mcf, 0).replay([100]))
            with pytest.raises(ValueError):
                vaddrs[0] = 0
            with pytest.raises(ValueError):
                stores[0] = True

    def test_growth_copies_into_new_arrays(self):
        mcf = make_workload("mcf", MACHINE)
        with shared_streams():
            recording = recorded_stream(mcf, 0)
            first = next(recording.replay([2_000]))[0]
            held = recording.vaddrs
            kept = held.copy()
            next(recording.replay([6_000]))
            assert recording.vaddrs is not held
            assert np.shares_memory(first, held)
            assert np.array_equal(held, kept)
            assert np.array_equal(recording.vaddrs[:2_000], kept)


def _build(workload):
    hierarchy = MemoryHierarchy(MACHINE, num_cores=1)
    process = Process(pid=0, workload=workload, core=0,
                      allocator=PageAllocator(MACHINE))
    return hierarchy, process


def _outcome(hierarchy, process):
    return (dataclasses.asdict(hierarchy.counters[0]), process.accesses,
            process.instructions, process.cycles)


@needs_native
def test_chunk_bound_in_c_survives_a_later_reader_growing_the_recording():
    """A probe's drive stops on a full log with the tail of its chunk
    still bound in C; a second reader then grows the recording far past
    it.  The first process resumes on its bound tail and ends exactly as
    it does on streams generated afresh."""
    mcf = make_workload("mcf", MACHINE)

    def run(scope):
        with scope:
            hier_a, proc_a = _build(mcf)
            collector = TraceCollector(log_capacity=300, seed=1)
            drive_batch(proc_a, hier_a, 50_000, collector=collector)
            assert hier_a._native.chunk_remaining(0) > 0
            recording = recorded_stream(mcf, 0)
            held = None if recording is None else recording.vaddrs
            hier_b, proc_b = _build(mcf)
            drive_batch(proc_b, hier_b, 20_000)
            if recording is not None:
                assert recording.vaddrs is not held
                assert recording.vaddrs.size == 20_000
            drive_batch(proc_a, hier_a, 5_000)
            return (collector.log.entries().tolist(),
                    _outcome(hier_a, proc_a), _outcome(hier_b, proc_b))

    assert run(shared_streams()) == run(contextlib.nullcontext())
