"""The native session: one per machine, state copied back only on demand.

A machine's heavy state (cache sets, page tables, prefetcher streams,
RNGs, allocator frame counters) is adopted into C on its first native
run and stays there across drives and co-run legs; only counters,
statistics and clocks cross at each run boundary.  These tests pin:

- adopting: the numpy table and cache layouts equal the
  list-walking layouts C's insertion order and the LRU sets define;
- every figure and probe path adopts its machine once and copies
  nothing back, and the fault wrapper's scalar drive copies back once,
  counted under ``observer``;
- every hand-back point leaves exactly the state the scalar reference
  (``REPRO_NATIVE=0``) leaves for the same sequence of calls;
- a session dies with its machine, without the cycle collector.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.pmu.sampling import TraceCollector
from repro.reliability.faults import FaultPlan, wrap_collector
from repro.runner.corun import CorunSpec, _scalar_leg, corun
from repro.runner.driver import Process
from repro.runner.offline import measure_mpki, mpki_timeline
from repro.runner.online import OnlineProbeConfig, collect_trace
from repro.sim import native
from repro.sim.cache import CacheConfig, SetAssociativeCache
from repro.sim.fastsim import NativeCorun, drive_batch
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.native import native_available
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.spec import make_workload

MACHINE = MachineConfig.scaled(32)

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler / native engine disabled"
)


def _plain(trace):
    """A ProbeTrace's fields as plain values (the int64 log as a list)."""
    return {**dataclasses.asdict(trace), "entries": trace.entries.tolist()}


def _native_counts(telemetry):
    report = RunReport.from_telemetry(telemetry)
    return (report.counter_total("sim.native_adopts"),
            report.counter_by_label("sim.native_copybacks", "reason"))


# ---------------------------------------------------------------------------
# Adopt layouts
# ---------------------------------------------------------------------------

def _reference_ht_fill(keys, vals, cap):
    """The table C builds by inserting each key in order."""
    mask = cap - 1
    table_keys = [native.HT_EMPTY] * cap
    table_vals = [0] * cap
    for key, val in zip(keys, vals):
        h = (key * native._HASH_MULT) & native._M64
        h ^= h >> 29
        slot = h & mask
        while table_keys[slot] != native.HT_EMPTY:
            slot = (slot + 1) & mask
        table_keys[slot] = key
        table_vals[slot] = val
    return table_keys, table_vals


def _reference_cache_layout(cache):
    """Per-set ways, oldest first, zero-padded; and per-set occupancy."""
    assoc = cache.config.associativity
    ways, occ = [], []
    for bucket in cache._sets:
        lines = list(bucket)
        ways.extend(lines + [0] * (assoc - len(lines)))
        occ.append(len(lines))
    return ways, occ


class TestAdoptLayouts:
    @pytest.mark.parametrize("stale", [True, False])
    @pytest.mark.parametrize("count,cap", [(0, 8192), (1, 64), (44, 64),
                                          (700, 1024)])
    def test_table_matches_map_put_order(self, count, cap, stale):
        rng = np.random.default_rng(count)
        vpages = rng.integers(-5_000, 50_000, size=count).tolist()
        keys = list(dict.fromkeys(native._zigzag(v) for v in vpages))
        vals = [3 * key + 1 for key in keys]
        if stale:
            # Every third page is stale: its frame is stored as ~frame.
            vals[::3] = [~frame for frame in vals[::3]]
        got_keys, got_vals = native._ht_fill(keys, vals, cap)
        want_keys, want_vals = _reference_ht_fill(keys, vals, cap)
        assert got_keys.dtype == np.int64
        assert got_keys.tolist() == want_keys
        assert got_vals.tolist() == want_vals

    @pytest.mark.parametrize("fills", [0, 5, 300])
    def test_cache_layout_matches_lru_sets(self, fills):
        cache = SetAssociativeCache(CacheConfig(
            size_bytes=MACHINE.l2_size, line_size=MACHINE.line_size,
            associativity=MACHINE.l2_assoc,
        ))
        rng = np.random.default_rng(fills)
        for line in rng.integers(0, 4 * MACHINE.l2_lines, size=fills).tolist():
            cache.access(line)
        arrs = native._bind_cache(native._NCache(), cache)
        ways, occ = _reference_cache_layout(cache)
        assert arrs["ways"].tolist() == ways
        assert arrs["occ"].tolist() == occ

    def test_untouched_caches_are_never_built(self):
        """A fresh machine's caches are adopted as zero arrays without
        building their Python sets; handing the state back builds them."""
        hierarchy = MemoryHierarchy(MACHINE, num_cores=1)
        process = Process(pid=0, workload=make_workload("mcf", MACHINE),
                          core=0, allocator=PageAllocator(MACHINE))
        caches = (hierarchy.l1d[0], hierarchy.l2, hierarchy.l3._cache)
        drive_batch(process, hierarchy, 3_000)
        assert not any(cache.touched for cache in caches)
        hierarchy._native.materialize("inspect")
        assert all(cache.touched and cache.occupancy for cache in caches)


# ---------------------------------------------------------------------------
# One adopt per run, nothing copied back
# ---------------------------------------------------------------------------

def _corun_specs():
    return [
        CorunSpec(make_workload("jbb", MACHINE), colors=list(range(8))),
        CorunSpec(make_workload("mcf", MACHINE), colors=list(range(8, 16)),
                  seed_offset=3),
    ]


_RUNS = {
    "measure_mpki": lambda: measure_mpki(
        make_workload("mcf", MACHINE), MACHINE, [0, 1, 2, 3]),
    "mpki_timeline": lambda: mpki_timeline(
        make_workload("art", MACHINE), MACHINE, [0, 1, 2, 3], 30_000, 20_000),
    "collect_trace-real": lambda: collect_trace(
        make_workload("mcf", MACHINE), MACHINE, OnlineProbeConfig()),
    "collect_trace-ideal": lambda: collect_trace(
        make_workload("mcf", MACHINE), MACHINE,
        OnlineProbeConfig(use_ideal_pmu=True)),
    "corun-warmup": lambda: corun(_corun_specs(), MACHINE,
                                  quota_accesses=10_000,
                                  warmup_accesses=4_000),
}


class TestOneAdoptPerRun:
    @pytest.mark.parametrize("name", sorted(_RUNS))
    def test_adopted_once_never_copied_back(self, name):
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            _RUNS[name]()
        assert _native_counts(telemetry) == (1, {})

    def test_faulted_probe_copies_back_once_for_its_observer(
            self, monkeypatch):
        plan = FaultPlan.parse("all", seed=3)
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            probe = collect_trace(make_workload("mcf", MACHINE), MACHINE,
                                  OnlineProbeConfig(), fault_plan=plan)
        assert _native_counts(telemetry) == (1, {"observer": 1})
        monkeypatch.setenv("REPRO_NATIVE", "0")
        reference = collect_trace(make_workload("mcf", MACHINE), MACHINE,
                                  OnlineProbeConfig(), fault_plan=plan)
        assert _plain(probe.probe) == _plain(reference.probe)
        assert probe.accesses_executed == reference.accesses_executed
        assert probe.quality == reference.quality
        assert probe.injection.summary() == reference.injection.summary()

    def test_report_prints_adopts_and_copy_backs(self):
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            collect_trace(make_workload("mcf", MACHINE), MACHINE,
                          OnlineProbeConfig(),
                          fault_plan=FaultPlan.parse("all", seed=3))
        text = RunReport.from_telemetry(telemetry).render()
        assert "native state: adopted 1, copied back 1 (observer=1)" in text
        assert ("native state: adopted 0, copied back 0"
                in RunReport().render())


# ---------------------------------------------------------------------------
# Hand-back points: native, one Python entry, native again == scalar
# ---------------------------------------------------------------------------

def _machine():
    hierarchy = MemoryHierarchy(MACHINE, num_cores=2)
    allocator = PageAllocator(MACHINE)
    processes = [
        Process(pid=0, workload=make_workload("mcf", MACHINE), core=0,
                allocator=allocator, colors=list(range(8)),
                prefetcher=PrefetcherConfig(enabled=True)),
        Process(pid=1, workload=make_workload("art", MACHINE), core=1,
                allocator=allocator, colors=list(range(8, 16)),
                prefetcher=PrefetcherConfig(enabled=True), seed_offset=2),
    ]
    return hierarchy, processes


def _cache(cache):
    return {"sets": [list(bucket) for bucket in cache._sets]}


def _machine_state(hierarchy, processes):
    """Everything the machine holds, after handing native state back."""
    allocator = processes[0].allocator
    for owner in (hierarchy, allocator, *processes):
        if owner._native is not None:
            owner._native.materialize("inspect")
    state = {
        "l2": _cache(hierarchy.l2),
        "l3": _cache(hierarchy.l3._cache),
        "debt": dict(allocator._migration_debt),
        "cursor": dict(allocator._cursor),
        "next_frame": dict(allocator._next_frame_of_color),
        "lazy_migrations": allocator.lazy_migrations,
    }
    for process in processes:
        core = process.core
        table = allocator.page_table(process.pid)
        state[f"proc{core}"] = {
            "counters": dataclasses.asdict(hierarchy.counters[core]),
            "l1d": _cache(hierarchy.l1d[core]),
            "page_table": dict(table),
            "stale": sorted(vpage for vpage, frame in table.items()
                            if frame < 0),
            "streams": [dataclasses.astuple(s)
                        for s in process.prefetcher._streams],
            "pf_clock": process.prefetcher._clock,
            "rng": process._pf_rng.getstate(),
            "clock": (process.cycles, process.instructions,
                      process.accesses),
        }
    return state


def _leg(hierarchy, processes, target_extra):
    """One co-run leg on whichever engine the machine can take."""
    start = [p.accesses for p in processes]
    if native_available():
        NativeCorun(processes, hierarchy).run_until(start, target_extra)
    else:
        _scalar_leg(processes, hierarchy, start, target_extra)


def _steps(hierarchy, processes):
    for _ in range(777):
        processes[0].step(hierarchy)


def _reset(hierarchy, processes):
    hierarchy.reset_counters()
    processes[0].reset_metrics()


def _faulted_drive(hierarchy, processes):
    collector = wrap_collector(TraceCollector(log_capacity=2_000, seed=5),
                               FaultPlan.parse("all", seed=3), salt="mcf")
    drive_batch(processes[0], hierarchy, 6_000, collector=collector)


#: entry -> (what it does, the copy backs it costs on the native engine)
_ENTRIES = {
    "step": (_steps, {"step": 1}),
    "reset": (_reset, {}),
    "set_colors": (
        lambda h, ps: ps[0].allocator.set_colors(0, [2, 3, 4]),
        {"set_colors": 1}),
    "resize-lazy": (
        lambda h, ps: ps[0].allocator.resize(0, [0, 1, 2]),
        {"resize": 1}),
    "faulted_drive": (_faulted_drive, {"observer": 1}),
    "corun_leg": (lambda h, ps: _leg(h, ps, 5_000), {}),
}


def _sequence(entry):
    hierarchy, processes = _machine()
    # A probe that stops on a full log leaves its chunk's tail bound in C.
    collector = TraceCollector(log_capacity=500, seed=5)
    executed = drive_batch(processes[0], hierarchy, 9_000,
                           collector=collector)
    assert executed < 9_000
    entry(hierarchy, processes)
    drive_batch(processes[0], hierarchy, 7_000)
    return hierarchy, processes


class TestHandBackPoints:
    @pytest.mark.parametrize("name", sorted(_ENTRIES))
    def test_state_equals_scalar_reference(self, name, monkeypatch):
        entry, copybacks = _ENTRIES[name]
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            machine = _sequence(entry)
        # One adopt, plus a fresh one after each copy back.
        assert _native_counts(telemetry) == (1 + len(copybacks), copybacks)
        state = _machine_state(*machine)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert state == _machine_state(*_sequence(entry))

    def test_rebind_hands_back_before_adopting_again(self, monkeypatch):
        """A process on a core an adopted process holds, and a process
        moved to another machine, first hand the old session back."""
        def sequence():
            first = MemoryHierarchy(MACHINE, num_cores=1)
            second = MemoryHierarchy(MACHINE, num_cores=1)
            allocator = PageAllocator(MACHINE)
            a, b = (
                Process(pid=pid, workload=make_workload(name, MACHINE),
                        core=0, allocator=allocator,
                        prefetcher=PrefetcherConfig(enabled=True))
                for pid, name in ((0, "mcf"), (1, "art"))
            )
            drive_batch(a, first, 4_000)
            drive_batch(b, first, 4_000)
            drive_batch(a, second, 3_000)
            return (first, [b]), (second, [a])

        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            machines = sequence()
        assert _native_counts(telemetry) == (3, {"rebind": 2})
        state = [_machine_state(*machine) for machine in machines]
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert state == [_machine_state(*machine) for machine in sequence()]


class TestSessionLifetime:
    def test_session_dies_with_its_machine(self):
        hierarchy, processes = _machine()
        drive_batch(processes[0], hierarchy, 5_000)
        _leg(hierarchy, processes, 2_000)
        session = weakref.ref(hierarchy._native)
        assert all(p._native is session() for p in processes)
        gc.disable()
        try:
            del hierarchy, processes
            assert session() is None
        finally:
            gc.enable()

    def test_materialize_drops_the_session(self):
        hierarchy, processes = _machine()
        drive_batch(processes[0], hierarchy, 3_000)
        session = hierarchy._native
        allocator = processes[0].allocator
        assert allocator._native is session
        session.materialize("inspect")
        assert hierarchy._native is None
        assert allocator._native is None
        assert processes[0]._native is None
