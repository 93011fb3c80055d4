"""Differential tests for the compiled native engine.

The native engine (``repro.sim._native.c`` via ``repro.sim.native``) is
an exact transliteration of the scalar hot path, so its contract is the
same as the rest of :mod:`repro.sim.fastsim`: bit identity with the
scalar driver on every covered configuration -- counters, cache
residency in LRU order, float cycle clocks, the process RNG state, the
PMU trace log, and co-run interleavings.  These tests pin the pieces
the pure-Python paths do not exercise: the CPython-exact MT19937, the C
trace channel (real and ideal collectors, writing the log's int64
buffer in place and stopping on the access that fills it), the scalar
route of observers C does not model (the fault-injecting wrapper),
negative virtual addresses (Python floor-division semantics in C), the
kill switch, and the visible build fallback.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.pmu.ideal import IdealTraceCollector
from repro.pmu.sampling import PMUModel, TraceCollector
from repro.reliability.faults import FaultPlan
from repro.runner.corun import CorunSpec, corun
from repro.runner.driver import Process, drive
from repro.runner.offline import OfflineConfig, real_mrc
from repro.runner.online import OnlineProbeConfig, collect_trace
from repro.sim import native
from repro.sim.cpu import IssueMode
from repro.sim.fastsim import drive_batch
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.native import native_available
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.base import AccessPattern, MemoryAccess, Workload
from repro.workloads.spec import make_workload

MACHINE = MachineConfig.scaled(32)

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler / native engine disabled"
)


def _build(machine, name, prefetch=True, colors=None, seed_offset=0,
           issue_mode=IssueMode.COMPLEX):
    hierarchy = MemoryHierarchy(machine, num_cores=1)
    process = Process(
        pid=0,
        workload=make_workload(name, machine),
        core=0,
        allocator=PageAllocator(machine),
        colors=colors,
        issue_mode=issue_mode,
        prefetcher=PrefetcherConfig(enabled=prefetch),
        seed_offset=seed_offset,
    )
    return hierarchy, process


def _channel_state(collector):
    """Everything a trace collector holds, for exact comparison."""
    state = {
        "entries": collector.log.entries().tolist(),
        "instructions": collector.instructions,
        "l1d_misses": collector.l1d_misses,
        "dropped_events": collector.dropped_events,
        "stale_entries": collector.stale_entries,
        "exceptions": collector.exceptions,
    }
    if isinstance(collector, IdealTraceCollector):
        state["buffered"] = collector._buffered
    else:
        state.update(
            rng=collector._rng.getstate(),
            since_miss=collector._accesses_since_miss,
        )
    return state


def _plain(trace):
    """A ProbeTrace's fields as plain values (the int64 log as a list)."""
    return {**dataclasses.asdict(trace), "entries": trace.entries.tolist()}


def _drive_observed(driver, process, hierarchy, accesses, collector,
                    **kwargs):
    """An observed drive that ends when ``collector``'s log fills, on the
    scalar reference or on ``drive_batch`` (which takes ``kwargs``)."""
    if driver is drive:
        return drive(process, hierarchy, accesses,
                     observer=collector.observe, stop=lambda: collector.done)
    return driver(process, hierarchy, accesses, collector=collector,
                  **kwargs)


def _observed_run(machine, driver, make_collector, name="mcf",
                  prefetch=True, issue_mode=IssueMode.COMPLEX,
                  accesses=50_000, **kwargs):
    hierarchy, process = _build(machine, name, prefetch=prefetch,
                                issue_mode=issue_mode)
    collector = make_collector()
    executed = _drive_observed(driver, process, hierarchy, accesses,
                               collector, **kwargs)
    return executed, collector, _state(hierarchy, process)


def _assert_channel_identical(make_collector, slab_size=None, **kwargs):
    """Scalar drive vs the C trace channel: identical in every field."""
    executed_s, coll_s, state_s = _observed_run(
        MACHINE, drive, make_collector, **kwargs)
    batch_kwargs = {} if slab_size is None else {"slab_size": slab_size}
    executed_b, coll_b, state_b = _observed_run(
        MACHINE, drive_batch, make_collector, **kwargs, **batch_kwargs)
    assert coll_b.channel_engine == "native"
    assert executed_s == executed_b
    assert _channel_state(coll_s) == _channel_state(coll_b)
    assert state_s == state_b
    return coll_b


def _mid_event_stale_capacity(name="mcf"):
    """A log capacity that fills on the first stale prefetch entry of an
    event that still has prefetches left to log."""
    hierarchy, process = _build(MACHINE, name, prefetch=True)
    collector = TraceCollector(log_capacity=1 << 20, seed=5)
    for _ in range(50_000):
        result = process.step(hierarchy)
        before = len(collector.log)
        collector.observe(result)
        if len(collector.log) - before >= 3:  # miss + two stale repeats
            return before + 2
    raise AssertionError("no multi-prefetch event found")


def _materialize(hierarchy, process):
    """Hand a live native session's heavy state back to Python, so the
    caches, maps and RNGs below can be read."""
    for owner in (hierarchy, process):
        if owner._native is not None:
            owner._native.materialize("inspect")


def _state(hierarchy, process):
    _materialize(hierarchy, process)
    table = process.allocator.page_table(process.pid)
    state = {
        "counters": dataclasses.asdict(hierarchy.counters[0]),
        "l1d": [list(b) for b in hierarchy.l1d[0]._sets],
        "l2": [list(b) for b in hierarchy.l2._sets],
        "cycles": process.cycles,
        "instructions": process.instructions,
        "accesses": process.accesses,
        "rng": process._pf_rng.getstate(),
        "streams": [
            (s.next_line, s.hits, s.confirmed, s.last_use)
            for s in process.prefetcher._streams
        ],
        "pf_clock": process.prefetcher._clock,
        "page_table": dict(table),
        "stale": sorted(vpage for vpage, frame in table.items() if frame < 0),
        "debt": dict(process.allocator._migration_debt),
        "cursor": dict(process.allocator._cursor),
    }
    if hierarchy.l3.enabled and hierarchy.l3._cache is not None:
        state["l3"] = [list(b) for b in hierarchy.l3._cache._sets]
    return state


class TestMt19937Parity:
    def test_draws_and_state_continuation(self):
        rng = random.Random("prefetch/0/0")
        reference = random.Random("prefetch/0/0")
        stream = native.MTStream(native.native_lib(), rng)
        draws = stream.random(2000)
        assert draws.tolist() == [reference.random() for _ in range(2000)]
        stream.store(rng)
        assert rng.getstate() == reference.getstate()
        # Continuing from the stored state must track CPython exactly.
        more = native.MTStream(native.native_lib(), rng).random(700)
        assert more.tolist() == [reference.random() for _ in range(700)]


class TestNativeSoloIdentity:
    @pytest.mark.parametrize("name", ["mcf", "jbb", "swim"])
    def test_prefetch_on(self, name):
        hier_s, proc_s = _build(MACHINE, name, prefetch=True)
        drive(proc_s, hier_s, 30_000)
        hier_b, proc_b = _build(MACHINE, name, prefetch=True)
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            drive_batch(proc_b, hier_b, 30_000)
        assert RunReport.from_telemetry(telemetry).counter_by_label(
            "sim.batch_accesses", "engine") == {"native": 30_000}
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)

    def test_partitioned_with_prefetch(self):
        hier_s, proc_s = _build(MACHINE, "art", prefetch=True,
                                colors=[0, 1, 2])
        drive(proc_s, hier_s, 20_000)
        hier_b, proc_b = _build(MACHINE, "art", prefetch=True,
                                colors=[0, 1, 2])
        drive_batch(proc_b, hier_b, 20_000)
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)

    def test_interleaves_with_scalar_steps(self):
        """Native chunks and scalar step() share one gapless stream."""
        hier_s, proc_s = _build(MACHINE, "twolf", prefetch=True)
        drive(proc_s, hier_s, 9_000)
        hier_b, proc_b = _build(MACHINE, "twolf", prefetch=True)
        drive_batch(proc_b, hier_b, 2_500)
        for _ in range(500):
            proc_b.step(hier_b)
        drive_batch(proc_b, hier_b, 6_000)
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)

    @settings(max_examples=12, deadline=None)
    @given(
        store_fraction=st.sampled_from([0.0, 0.3, 1.0]),
        footprint_l2=st.sampled_from([1, 4]),
        accesses=st.integers(min_value=1, max_value=6_000),
        slab=st.sampled_from([256, 1 << 14]),
    )
    def test_hypothesis_differential(self, store_fraction, footprint_l2,
                                     accesses, slab):
        from repro.workloads.patterns import ZipfWorkingSet

        def build():
            workload = Workload(
                "hyp",
                ZipfWorkingSet(footprint=footprint_l2 * MACHINE.l2_size),
                store_fraction=store_fraction,
                seed=13,
            )
            hierarchy = MemoryHierarchy(MACHINE, num_cores=1)
            process = Process(
                pid=0, workload=workload, core=0,
                allocator=PageAllocator(MACHINE),
                prefetcher=PrefetcherConfig(enabled=True),
            )
            return hierarchy, process

        hier_s, proc_s = build()
        drive(proc_s, hier_s, accesses)
        hier_b, proc_b = build()
        drive_batch(proc_b, hier_b, accesses, slab_size=slab)
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)


class _NegativePattern(AccessPattern):
    """Strided sweep that dips into negative virtual addresses, after
    ``lead`` accesses of random lines in a positive-only region."""

    def __init__(self, lead: int = 0):
        self.lead = lead

    def generate(self, rng):
        for _ in range(self.lead):
            yield MemoryAccess(128 * rng.randrange(4096))
        vaddr = 4096
        while True:
            yield MemoryAccess(vaddr)
            vaddr -= 128
            if vaddr < -65536:
                vaddr = 4096

    def footprint_bytes(self):
        return 2 * 65536


def _native_accesses(telemetry):
    report = RunReport.from_telemetry(telemetry)
    assert report.counter_total("sim.batch_fallbacks") == 0
    return report.counter_by_label("sim.batch_accesses", "engine")


class TestMixedEngineContinuity:
    """Negative virtual addresses stay on the native engine: C floors
    like Python's ``//`` and keys its vpage maps by zigzag encoding."""

    def test_negative_vaddr_falls_through_bit_identically(self):
        """Chunks dipping below address zero run natively and still
        equal the scalar run exactly."""
        def build(machine):
            workload = Workload("neg", _NegativePattern(), seed=3)
            hierarchy = MemoryHierarchy(machine, num_cores=1)
            process = Process(
                pid=0, workload=workload, core=0,
                allocator=PageAllocator(machine),
                prefetcher=PrefetcherConfig(enabled=True),
            )
            return hierarchy, process

        hier_s, proc_s = build(MACHINE)
        drive(proc_s, hier_s, 5_000)
        telemetry = Telemetry.in_memory()
        hier_b, proc_b = build(MACHINE)
        with use_telemetry(telemetry):
            executed = drive_batch(proc_b, hier_b, 5_000, slab_size=512)
        assert executed == 5_000
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)
        table = proc_b.allocator.page_table(proc_b.pid)
        assert any(vpage < 0 for vpage in table)
        assert _native_accesses(telemetry) == {"native": 5_000}

    def test_channel_hands_over_to_python_mid_probe(self):
        """The C channel keeps logging once the stream turns negative
        mid-probe: no hand-over to Python, the same log as one scalar
        run."""
        def run(machine, driver):
            workload = Workload("neg", _NegativePattern(lead=3_000), seed=3)
            hierarchy = MemoryHierarchy(machine, num_cores=1)
            process = Process(
                pid=0, workload=workload, core=0,
                allocator=PageAllocator(machine),
                prefetcher=PrefetcherConfig(enabled=True),
            )
            collector = TraceCollector(log_capacity=4_000, seed=5)
            kwargs = {"slab_size": 512} if driver is drive_batch else {}
            executed = _drive_observed(driver, process, hierarchy, 8_000,
                                       collector, **kwargs)
            return executed, collector, _state(hierarchy, process)

        executed_s, coll_s, state_s = run(MACHINE, drive)
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            executed_b, coll_b, state_b = run(MACHINE, drive_batch)
        assert coll_b.channel_engine == "native"
        assert executed_s > 3_000  # the log fills after the turn
        assert executed_s == executed_b
        assert _channel_state(coll_s) == _channel_state(coll_b)
        assert state_s == state_b
        assert _native_accesses(telemetry) == {"native": executed_b}

    def test_corun_negative_vaddr_fallback(self, monkeypatch):
        """A co-run with a negative-address process stays inside the
        native scheduler and matches the scalar heap exactly."""
        def specs(machine):
            neg = Workload("neg", _NegativePattern(), seed=3)
            return [
                CorunSpec(neg),
                CorunSpec(make_workload("mcf", machine)),
            ]

        monkeypatch.setenv("REPRO_NATIVE", "0")
        scalar_telemetry = Telemetry.in_memory()
        with use_telemetry(scalar_telemetry):
            scalar = corun(specs(MACHINE), MACHINE, 6_000,
                           warmup_accesses=1_000)
        monkeypatch.delenv("REPRO_NATIVE")
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            batch = corun(specs(MACHINE), MACHINE, 6_000,
                          warmup_accesses=1_000)
        executed = RunReport.from_telemetry(scalar_telemetry).counter_by_label(
            "sim.batch_accesses", "engine")["scalar"]
        assert _native_accesses(telemetry) == {"native": executed}
        assert scalar.ipc == batch.ipc
        assert scalar.mpki == batch.mpki
        assert scalar.instructions == batch.instructions
        assert scalar.accesses == batch.accesses


class _PageWalk(AccessPattern):
    """One access per page, over ``pages`` consecutive pages, repeated."""

    def __init__(self, page_size: int, pages: int):
        self.page_size = page_size
        self.pages = pages

    def generate(self, rng):
        while True:
            for page in range(self.pages):
                yield MemoryAccess(page * self.page_size)

    def footprint_bytes(self):
        return self.pages * self.page_size


class TestTableGrowth:
    @pytest.fixture
    def grow_reasons(self, monkeypatch):
        """The reason of every growth stop the session serves."""
        reasons = []
        grow = native.NativeSession.grow

        def counting_grow(session, index, reason):
            reasons.append(reason)
            return grow(session, index, reason)

        monkeypatch.setattr(native.NativeSession, "grow", counting_grow)
        return reasons

    @staticmethod
    def _build():
        workload = Workload(
            "pages", _PageWalk(MACHINE.page_size, 12_000), seed=3
        )
        hierarchy = MemoryHierarchy(MACHINE, num_cores=1)
        process = Process(
            pid=0, workload=workload, core=0,
            allocator=PageAllocator(MACHINE),
            prefetcher=PrefetcherConfig(enabled=True),
        )
        return hierarchy, process

    def test_growth_stops_resume_bit_identically(self, grow_reasons):
        """A drive that maps more pages than the adopted page table
        holds stops before each overflow, grows the table in place and
        resumes: the same state as the scalar run."""
        hier_s, proc_s = self._build()
        drive(proc_s, hier_s, 15_000)
        hier_b, proc_b = self._build()
        assert drive_batch(proc_b, hier_b, 15_000) == 15_000
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)
        assert grow_reasons and set(grow_reasons) == {native.STOP_GROW_PT}

    def test_growth_stops_inside_an_observed_drive(self, grow_reasons):
        """Both growth stops land mid-probe: the trace channel stays
        bound across them, and the drive ends where the scalar run's log
        fills."""
        def run(driver):
            hierarchy, process = self._build()
            # Fills after both growth stops (at access 14,142).
            collector = TraceCollector(log_capacity=16_000, seed=5)
            executed = _drive_observed(driver, process, hierarchy, 15_000,
                                       collector)
            return (executed, _channel_state(collector),
                    _state(hierarchy, process))

        scalar = run(drive)
        assert run(drive_batch) == scalar
        assert scalar[0] < 15_000
        assert grow_reasons and set(grow_reasons) == {native.STOP_GROW_PT}


class TestObservedRollback:
    """Observed drives: the C trace channel stops on the exact access
    the scalar loop stops on, and every other collector runs the scalar
    reference."""

    @pytest.mark.parametrize("log_capacity", [1, 7, 333])
    def test_stop_mid_chunk_rewinds_exactly(self, log_capacity):
        """The log fills mid-chunk; the C channel must stop on the exact
        access the scalar loop would have stopped on, with every
        collector field (log, counters, RNG, drop window) identical --
        under both issue modes, both PMU models, prefetch on and off."""
        for issue_mode, pmu_model, prefetch in itertools.product(
            (IssueMode.COMPLEX, IssueMode.SIMPLIFIED),
            (PMUModel.POWER5, PMUModel.POWER5_PLUS),
            (True, False),
        ):
            _assert_channel_identical(
                lambda: TraceCollector(log_capacity=log_capacity,
                                       issue_mode=issue_mode,
                                       pmu_model=pmu_model, seed=5),
                prefetch=prefetch, issue_mode=issue_mode,
            )

    def test_log_fills_on_stale_entry_mid_event(self):
        """The last slot goes to a stale repeat while the same miss still
        has prefetches queued: the rest of the event is not logged."""
        capacity = _mid_event_stale_capacity()
        coll = _assert_channel_identical(
            lambda: TraceCollector(log_capacity=capacity, seed=5))
        assert coll.stale_entries > 0
        assert coll.log.entries()[-1] == coll.log.entries()[-2]

    @pytest.mark.parametrize("prefetch", [True, False])
    @pytest.mark.parametrize("buffer_entries", [1, 128])
    @pytest.mark.parametrize("log_capacity", [1, 7, 333])
    def test_ideal_channel(self, log_capacity, buffer_entries, prefetch):
        _assert_channel_identical(
            lambda: IdealTraceCollector(
                log_capacity=log_capacity, buffer_entries=buffer_entries,
            ),
            prefetch=prefetch,
        )

    def test_already_full_log_still_runs_one_access(self):
        """Scalar parity: the stop predicate is only consulted after an
        access, so a drive armed on a full log executes exactly one."""
        def full_collector():
            collector = TraceCollector(log_capacity=2, seed=3)
            collector.log.append(11)
            collector.log.append(12)
            return collector

        _assert_channel_identical(full_collector)

    @pytest.mark.parametrize("ideal", [False, True])
    def test_log_fills_on_the_quotas_last_access(self, ideal):
        """The access that fills the log is also the last one the quota
        allows: the drive ends there, exactly as the scalar loop does,
        and one access less leaves the log one step short."""
        def make_collector():
            if ideal:
                return IdealTraceCollector(log_capacity=333,
                                           buffer_entries=8)
            return TraceCollector(log_capacity=333, seed=5)

        fills_at, _, _ = _observed_run(MACHINE, drive, make_collector)
        for accesses in (fills_at - 1, fills_at):
            coll = _assert_channel_identical(make_collector,
                                             accesses=accesses)
            assert coll.log.is_full == (accesses == fills_at)

    @pytest.mark.parametrize("per_chunk", ["all", "one"])
    def test_log_fills_on_a_chunks_last_access(self, per_chunk):
        """The log fills on the last access of a chunk, so the next one
        would need a refill: the drive stops with its chunk used up, and
        the drive after it binds the next chunk at the right place in
        the stream.

        An observed drive's first chunk is at most the log's free
        entries, so one chunk can hold the whole probe only where the
        log fills in fewer accesses than it has entries: applu fills 333
        entries in 289 (mcf needs 493)."""
        def make_collector():
            return TraceCollector(log_capacity=333, seed=5)

        fills_at, _, _ = _observed_run(MACHINE, drive, make_collector,
                                       name="applu")
        assert fills_at <= 333
        slab = fills_at if per_chunk == "all" else 1

        def run(driver, **kwargs):
            hierarchy, process = _build(MACHINE, "applu")
            collector = make_collector()
            executed = _drive_observed(driver, process, hierarchy, 50_000,
                                       collector, **kwargs)
            if driver is drive_batch:
                assert hierarchy._native.chunk_remaining(0) == 0
            driver(process, hierarchy, 1_000, **kwargs)
            return executed, _channel_state(collector), _state(hierarchy,
                                                               process)

        assert run(drive_batch, slab_size=slab) == run(drive)

    @pytest.mark.parametrize("ideal", [False, True])
    def test_partly_filled_log_appends_after_its_entries(self, ideal):
        """C writes the log's own buffer in place: it appends right after
        the k entries already logged, stops at capacity, and leaves the
        same log as the scalar run."""
        def partly_filled():
            collector = (
                IdealTraceCollector(log_capacity=333, buffer_entries=8)
                if ideal else TraceCollector(log_capacity=333, seed=3)
            )
            for line in range(5):
                collector.log.append(1000 + line)
            return collector

        coll = _assert_channel_identical(partly_filled)
        assert coll.log.is_full
        assert coll.log.entries()[:5].tolist() == [1000, 1001, 1002, 1003,
                                                   1004]

    @settings(max_examples=15, deadline=None)
    @given(
        drop_probability=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_hypothesis_drop_model(self, drop_probability, seed):
        _assert_channel_identical(
            lambda: TraceCollector(
                log_capacity=400, drop_probability=drop_probability,
                seed=seed,
            ),
            accesses=20_000,
        )

    def test_faulted_probe_takes_scalar_reference(self, monkeypatch):
        """The fault wrapper is not a channel C models: its probe runs
        the scalar drive (one observer fallback, native accesses for the
        warmup only) and equals the REPRO_NATIVE=0 probe exactly."""
        plan = FaultPlan.parse("all", seed=3)
        online = OnlineProbeConfig()
        runs = {}
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_NATIVE", flag)
            telemetry = Telemetry.in_memory()
            with use_telemetry(telemetry):
                probe = collect_trace(make_workload("mcf", MACHINE), MACHINE,
                                      online, fault_plan=plan)
            runs[flag] = (probe, RunReport.from_telemetry(telemetry))
        (native_probe, report), (py_probe, _) = runs["1"], runs["0"]
        assert report.counter_by_label(
            "sim.batch_fallbacks", "reason") == {"observer": 1}
        assert report.counter_by_label("sim.batch_accesses", "engine") == {
            "native": online.resolved_warmup(MACHINE),
            "scalar": native_probe.accesses_executed,
        }
        assert _plain(native_probe.probe) == _plain(py_probe.probe)
        assert native_probe.accesses_executed == py_probe.accesses_executed
        assert native_probe.quality == py_probe.quality
        assert native_probe.injection.summary() == py_probe.injection.summary()
        assert native_probe.injection.corrupted_entries > 0

    @pytest.mark.parametrize("route", ["native-real", "native-ideal",
                                       "kill-switch", "faulted"])
    def test_one_log_format(self, monkeypatch, route):
        """Every collector hands over its log as one contiguous int64
        array, and the native run's equals the scalar reference's element
        for element."""
        online = OnlineProbeConfig(use_ideal_pmu=route == "native-ideal")
        plan = FaultPlan.parse("all", seed=3) if route == "faulted" else None

        def entries(flag):
            monkeypatch.setenv("REPRO_NATIVE", flag)
            return collect_trace(make_workload("mcf", MACHINE), MACHINE,
                                 online, fault_plan=plan).probe.entries

        flag = "0" if route == "kill-switch" else "1"
        logged = entries(flag)
        other = entries("1" if flag == "0" else "0")
        for log in (logged, other):
            assert isinstance(log, np.ndarray)
            assert log.dtype == np.int64 and log.flags.c_contiguous
        assert np.array_equal(logged, other)

    @pytest.mark.parametrize("use_ideal_pmu", [False, True])
    def test_collect_trace_matches_kill_switch(self, monkeypatch,
                                               use_ideal_pmu):
        """A REPRO_NATIVE=0 probe equals the native one field by field."""
        online = OnlineProbeConfig(use_ideal_pmu=use_ideal_pmu)
        runs = {}
        for flag in ("1", "0"):
            monkeypatch.setenv("REPRO_NATIVE", flag)
            telemetry = Telemetry.in_memory()
            with use_telemetry(telemetry):
                probe = collect_trace(make_workload("mcf", MACHINE), MACHINE,
                                      online)
            report = RunReport.from_telemetry(telemetry)
            runs[flag] = (probe, report.counter_by_label(
                "pmu.channel", "engine"))
        (native_probe, native_channel), (py_probe, py_channel) = (
            runs["1"], runs["0"])
        assert native_channel == {"native": 1}
        assert py_channel == {"python": 1}
        assert _plain(native_probe.probe) == _plain(py_probe.probe)
        assert native_probe.accesses_executed == py_probe.accesses_executed
        assert native_probe.log_filled == py_probe.log_filled
        assert native_probe.quality == py_probe.quality
        assert dict(native_probe.result.mrc.mpki) == dict(
            py_probe.result.mrc.mpki)


class TestEveryMachineRunsNative:
    """Caches are LRU and the prefetcher's geometry is fixed, so no
    machine the simulator builds sends a drive to the scalar reference:
    only a missing library or a collector C does not model can."""

    @pytest.mark.parametrize("prefetch", [True, False])
    @pytest.mark.parametrize("l3", [True, False])
    @pytest.mark.parametrize("scale", [1, 16, 32])
    def test_drives_and_coruns_run_native(self, scale, l3, prefetch):
        machine = MachineConfig.scaled(scale)
        if not l3:
            machine = machine.without_l3()
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            for collector in (None,
                              TraceCollector(log_capacity=500, seed=5),
                              IdealTraceCollector(log_capacity=500)):
                hierarchy, process = _build(machine, "mcf",
                                            prefetch=prefetch)
                drive_batch(process, hierarchy, 3_000, collector=collector)
            corun([CorunSpec(make_workload("mcf", machine)),
                   CorunSpec(make_workload("art", machine))],
                  machine, quota_accesses=2_000, prefetch_enabled=prefetch)
        report = RunReport.from_telemetry(telemetry)
        assert set(report.counter_by_label(
            "sim.batch_accesses", "engine")) == {"native"}
        assert report.counter_by_label("sim.batch_fallbacks", "reason") == {}


class TestKillSwitch:
    def test_repro_native_0_disables_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert not native_available()
        hierarchy, process = _build(MACHINE, "jbb", prefetch=False)
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            drive_batch(process, hierarchy, 2_000)
        report = RunReport.from_telemetry(telemetry)
        by_engine = report.counter_by_label("sim.batch_accesses", "engine")
        assert by_engine == {"scalar": 2_000}
        assert report.counter_by_label(
            "sim.batch_fallbacks", "reason") == {"native_unavailable": 1}
        monkeypatch.delenv("REPRO_NATIVE")
        assert native_available()


class TestBuildFallback:
    def test_missing_compiler_warns_once_and_counts(self, monkeypatch):
        """No compiler: the fallback is counted per lookup and warned
        about once per process, never silent."""
        monkeypatch.setattr(native, "_find_cc", lambda: None)
        # A flag no cached library was built with forces a fresh build.
        monkeypatch.setattr(native, "_CFLAGS",
                            native._CFLAGS + ["-DREPRO_NO_CACHED_BUILD"])
        monkeypatch.setattr(native, "_LIB", None)
        monkeypatch.setattr(native, "_LIB_TRIED", False)
        monkeypatch.setattr(native, "_WARNED", False)
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            with pytest.warns(RuntimeWarning, match="no_compiler"):
                assert native.native_lib() is None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not native.native_available()
        report = RunReport.from_telemetry(telemetry)
        assert report.counter_by_label(
            "sim.native_unavailable", "reason") == {"no_compiler": 2}

    def test_build_removes_older_builds(self, monkeypatch, tmp_path):
        """A build into the package directory deletes the builds of
        older sources there and leaves every other file alone."""
        shutil.copy(os.path.join(os.path.dirname(native.__file__),
                                 "_native.c"), tmp_path)
        older = ["_repro_native_0123456789abcdef.so",
                 "_repro_native_fedcba9876543210.so"]
        others = ["other.so", "_repro_native_0123456789abcdef.so.tmp42"]
        for name in older + others:
            (tmp_path / name).write_bytes(b"")
        monkeypatch.setattr(native, "__file__", str(tmp_path / "native.py"))
        lib, failure = native._build_lib()
        assert lib is not None and failure is None
        built = set(os.listdir(tmp_path)) - {"_native.c", *others}
        assert len(built) == 1
        assert built.pop() not in older

    def test_kill_switch_is_silent(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        monkeypatch.setattr(native, "_WARNED", False)
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert native.native_lib() is None
        report = RunReport.from_telemetry(telemetry)
        assert report.counter_total("sim.native_unavailable") == 0


class TestPooledTelemetryParity:
    def test_real_mrc_pooled_counters_equal_sequential(self):
        """Satellite regression: folded batched-drive counters from a
        pooled offline curve equal the sequential run's, and throughput
        is derived from them (no per-worker gauge survives)."""
        workload = make_workload("jbb", MACHINE)
        config = OfflineConfig()
        sizes = [1, 2, 3, 4]

        seq_telemetry = Telemetry.in_memory()
        with use_telemetry(seq_telemetry):
            seq = real_mrc(workload, MACHINE, config, sizes=sizes)
        pool_telemetry = Telemetry.in_memory()
        with use_telemetry(pool_telemetry):
            pooled = real_mrc(workload, MACHINE, config, sizes=sizes,
                              max_workers=2)

        assert dict(seq) == dict(pooled)
        seq_report = RunReport.from_telemetry(seq_telemetry)
        pool_report = RunReport.from_telemetry(pool_telemetry)
        assert seq_report.counter_by_label(
            "sim.batch_accesses", "engine"
        ) == pool_report.counter_by_label("sim.batch_accesses", "engine")
        assert pool_report.counter_total("sim.batch_ns") > 0
        rates = pool_report.accesses_per_sec()
        assert "" in rates and rates[""] > 0
        assert pool_report.gauges("sim.accesses_per_sec") == {}
