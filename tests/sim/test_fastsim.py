"""Differential tests for the batched simulation entry point.

The contract of :mod:`repro.sim.fastsim` is *bit identity*: whichever
engine ``drive_batch`` picks (native C or the scalar fallback), it must
leave the hierarchy, the process clocks, and every observer in exactly
the state the scalar ``drive`` loop would have -- not approximately, not
statistically.  These tests hold scalar and batch runs side by side and
compare everything observable: per-core counters, per-cache statistics,
resident lines in LRU order, float cycle clocks, collected PMU traces,
computed MRCs, and co-run schedules.  Runner-level references run with
``REPRO_NATIVE=0``, which sends every drive down the scalar path.  Each
fallback reason is exercised once, with its counter checked.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.pmu.sampling import TraceCollector
from repro.runner.corun import CorunSpec, corun
from repro.runner.driver import Process, drive
from repro.runner.offline import OfflineConfig, mpki_timeline, real_mrc
from repro.runner.online import OnlineProbeConfig, collect_trace
from repro.sim.cpu import IssueMode
from repro.sim.fastsim import DEFAULT_SLAB, drive_batch
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.native import native_available
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.spec import make_workload

MACHINE = MachineConfig.scaled(32)

needs_native = pytest.mark.skipif(
    not native_available(), reason="no C compiler / native engine disabled"
)


def _plain(trace):
    """A ProbeTrace's fields as plain values (the int64 log as a list)."""
    return {**dataclasses.asdict(trace), "entries": trace.entries.tolist()}


@pytest.fixture
def scalar_env(monkeypatch):
    """Run the body with the native engine switched off, then back on."""
    def run(fn, *args, **kwargs):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        try:
            return fn(*args, **kwargs)
        finally:
            monkeypatch.delenv("REPRO_NATIVE")
    return run


def _build(machine, name, prefetch=True, colors=None,
           issue_mode=IssueMode.COMPLEX, seed_offset=0):
    hierarchy = MemoryHierarchy(machine, num_cores=1)
    allocator = PageAllocator(machine)
    process = Process(
        pid=0,
        workload=make_workload(name, machine),
        core=0,
        allocator=allocator,
        colors=colors,
        issue_mode=issue_mode,
        prefetcher=PrefetcherConfig(enabled=prefetch),
        seed_offset=seed_offset,
    )
    return hierarchy, process


def _cache_state(cache):
    return {"resident": [list(bucket) for bucket in cache._sets]}


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
        "l1d": _cache_state(hierarchy.l1d[0]),
        "l2": _cache_state(hierarchy.l2),
        "page_table": dict(table),
        "stale": sorted(vpage for vpage, frame in table.items() if frame < 0),
        "cycles": process.cycles,
        "instructions": process.instructions,
        "accesses": process.accesses,
    }
    if hierarchy.l3.enabled and hierarchy.l3._cache is not None:
        state["l3"] = _cache_state(hierarchy.l3._cache)
    return state


def _run_pair(name, accesses, **kwargs):
    hier_s, proc_s = _build(MACHINE, name, **kwargs)
    executed_s = drive(proc_s, hier_s, accesses)
    hier_b, proc_b = _build(MACHINE, name, **kwargs)
    executed_b = drive_batch(proc_b, hier_b, accesses)
    assert executed_s == executed_b
    return _state(hier_s, proc_s), _state(hier_b, proc_b)


class TestDriveBatchBitIdentity:
    @pytest.mark.parametrize("name", ["jbb", "mcf", "art"])
    @pytest.mark.parametrize("prefetch", [True, False])
    def test_workloads(self, name, prefetch):
        scalar, batch = _run_pair(name, 20_000, prefetch=prefetch)
        assert scalar == batch

    @pytest.mark.parametrize("colors", [[0], [0, 1, 2, 3]])
    def test_partitioned(self, colors):
        scalar, batch = _run_pair("swim", 15_000, colors=colors,
                                  prefetch=False)
        assert scalar == batch

    @pytest.mark.parametrize("store_fraction", [0.0, 0.3, 1.0])
    def test_store_fractions(self, store_fraction):
        """Stores exercise the write-through L1-hit → L2 forward path."""
        from repro.workloads.base import Workload
        from repro.workloads.patterns import ZipfWorkingSet

        def build():
            workload = Workload(
                f"stores-{store_fraction}",
                ZipfWorkingSet(footprint=4 * MACHINE.l2_size),
                instructions_per_access=48,
                store_fraction=store_fraction,
                seed=11,
            )
            hierarchy = MemoryHierarchy(MACHINE, num_cores=1)
            process = Process(
                pid=0, workload=workload, core=0,
                allocator=PageAllocator(MACHINE),
                prefetcher=PrefetcherConfig(enabled=False),
            )
            return hierarchy, process

        hier_s, proc_s = build()
        drive(proc_s, hier_s, 12_000)
        hier_b, proc_b = build()
        drive_batch(proc_b, hier_b, 12_000)
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)

    def test_simplified_issue_mode(self):
        scalar, batch = _run_pair("parser", 15_000,
                                  issue_mode=IssueMode.SIMPLIFIED,
                                  prefetch=False)
        assert scalar == batch

    def test_no_l3(self):
        machine = MACHINE.without_l3()
        hier_s, proc_s = _build(machine, "mcf", prefetch=False)
        drive(proc_s, hier_s, 15_000)
        hier_b, proc_b = _build(machine, "mcf", prefetch=False)
        drive_batch(proc_b, hier_b, 15_000)
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)

    def test_small_slabs_cross_boundaries(self):
        """Slab boundaries are invisible: tiny slabs == one big slab."""
        hier_a, proc_a = _build(MACHINE, "jbb", prefetch=False)
        drive_batch(proc_a, hier_a, 10_000, slab_size=257)
        hier_b, proc_b = _build(MACHINE, "jbb", prefetch=False)
        drive_batch(proc_b, hier_b, 10_000, slab_size=DEFAULT_SLAB)
        assert _state(hier_a, proc_a) == _state(hier_b, proc_b)

    def test_mixed_engine_stream_continuity(self):
        """Interleaving scalar steps with batch drives changes nothing."""
        hier_s, proc_s = _build(MACHINE, "mcf")
        drive(proc_s, hier_s, 12_000)

        hier_m, proc_m = _build(MACHINE, "mcf")
        drive_batch(proc_m, hier_m, 5_000)
        for _ in range(777):
            proc_m.step(hier_m)
        drive_batch(proc_m, hier_m, 12_000 - 5_000 - 777)
        assert _state(hier_s, proc_s) == _state(hier_m, proc_m)


class TestFallbackReasons:
    """Both reasons a drive skips native run the scalar driver:
    identical state, ``{"scalar": n}`` accesses, and one fallback
    counted under the reason."""

    def _compare(self, collector_type=None, accesses=6_000):
        """``collector_type`` None runs unobserved drives."""
        def build():
            hierarchy, process = _build(MACHINE, "mcf", prefetch=True)
            collector = (collector_type or TraceCollector)(
                log_capacity=1 << 20, seed=5)
            return hierarchy, process, collector

        hier_s, proc_s, coll_s = build()
        observed = collector_type is not None
        executed_s = drive(
            proc_s, hier_s, accesses,
            observer=coll_s.observe if observed else None,
            stop=(lambda: coll_s.done) if observed else None,
        )
        telemetry = Telemetry.in_memory()
        hier_b, proc_b, coll_b = build()
        with use_telemetry(telemetry):
            executed_b = drive_batch(proc_b, hier_b, accesses,
                                     collector=coll_b if observed else None)
        assert executed_s == executed_b
        assert _state(hier_s, proc_s) == _state(hier_b, proc_b)
        assert coll_s.log.entries().tolist() == coll_b.log.entries().tolist()
        report = RunReport.from_telemetry(telemetry)
        assert report.counter_by_label(
            "sim.batch_accesses", "engine") == {"scalar": executed_b}
        return report.counter_by_label("sim.batch_fallbacks", "reason")

    def test_native_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert self._compare() == {"native_unavailable": 1}

    @needs_native
    def test_observer(self):
        """A collector subclass may override any per-event hook, so C
        does not model it and it stays on the scalar loop."""
        class Subclass(TraceCollector):
            pass

        assert self._compare(collector_type=Subclass) == {"observer": 1}


class TestEligibility:
    def test_batch_path_counts_accesses(self):
        telemetry = Telemetry.in_memory()
        hierarchy, process = _build(MACHINE, "jbb", prefetch=False)
        engine = "native" if native_available() else "scalar"
        with use_telemetry(telemetry):
            drive_batch(process, hierarchy, 4_000)
        report = RunReport.from_telemetry(telemetry)
        assert report.counter_by_label(
            "sim.batch_accesses", "engine"
        ) == {engine: 4_000}
        assert report.counter_total("sim.batch_ns") > 0


class TestProbeDifferential:
    @pytest.mark.parametrize("prefetch", [True, False])
    def test_trace_collection_bit_identical(self, prefetch, scalar_env):
        online = OnlineProbeConfig(prefetch_enabled=prefetch)
        scalar = scalar_env(collect_trace, make_workload("mcf", MACHINE),
                            MACHINE, online)
        batch = collect_trace(make_workload("mcf", MACHINE), MACHINE, online)
        assert _plain(scalar.probe) == _plain(batch.probe)
        assert scalar.accesses_executed == batch.accesses_executed
        assert dict(scalar.result.mrc.mpki) == dict(batch.result.mrc.mpki)

    def test_ideal_pmu_bit_identical(self, scalar_env):
        online = OnlineProbeConfig(use_ideal_pmu=True)
        scalar = scalar_env(collect_trace, make_workload("jbb", MACHINE),
                            MACHINE, online)
        batch = collect_trace(make_workload("jbb", MACHINE), MACHINE, online)
        assert _plain(scalar.probe) == _plain(batch.probe)
        assert dict(scalar.result.mrc.mpki) == dict(batch.result.mrc.mpki)


class TestRunnerDifferential:
    def test_real_mrc_identical(self, scalar_env):
        config = OfflineConfig(warmup_accesses=4_000, measure_accesses=10_000)
        scalar = scalar_env(real_mrc, make_workload("swim", MACHINE), MACHINE,
                            config, sizes=[2, 8, 16])
        batch = real_mrc(make_workload("swim", MACHINE), MACHINE, config,
                         sizes=[2, 8, 16])
        assert dict(scalar.mpki) == dict(batch.mpki)

    def test_mpki_timeline_identical(self, scalar_env):
        config = OfflineConfig()
        args = ([0, 1, 2, 3], 30_000, 20_000, config)
        scalar = scalar_env(mpki_timeline, make_workload("art", MACHINE),
                            MACHINE, *args)
        batch = mpki_timeline(make_workload("art", MACHINE), MACHINE, *args)
        assert scalar == batch

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_corun_identical(self, prefetch, scalar_env):
        def specs(machine):
            return [
                CorunSpec(make_workload("jbb", machine),
                          colors=list(range(8))),
                CorunSpec(make_workload("mcf", machine),
                          colors=list(range(8, 16)), seed_offset=3),
            ]

        scalar = scalar_env(corun, specs(MACHINE), MACHINE,
                            quota_accesses=10_000, warmup_accesses=4_000,
                            prefetch_enabled=prefetch)
        batch = corun(specs(MACHINE), MACHINE, quota_accesses=10_000,
                      warmup_accesses=4_000, prefetch_enabled=prefetch)
        assert dataclasses.asdict(scalar) == dataclasses.asdict(batch)


# ---------------------------------------------------------------------------
# Demand-driven generation: a drive generates what it runs
# ---------------------------------------------------------------------------

def _count_generation(workload):
    """Record the size of every chunk ``workload.access_batches`` yields."""
    sizes = []
    original = workload.access_batches

    def counting(*args, **kwargs):
        for chunk in original(*args, **kwargs):
            sizes.append(chunk[0].size)
            yield chunk

    workload.access_batches = counting
    return sizes


@needs_native
class TestDemandDrivenSource:
    def test_solo_drive_generates_exactly_what_it_runs(self):
        hierarchy, process = _build(MACHINE, "mcf")
        sizes = _count_generation(process.workload)
        drive_batch(process, hierarchy, DEFAULT_SLAB + 1_234)
        drive_batch(process, hierarchy, 777)
        assert sizes == [DEFAULT_SLAB, 1_234, 777]

    def test_scalar_steps_pop_a_buffered_chunk(self):
        hier_s, proc_s = _build(MACHINE, "jbb")
        drive(proc_s, hier_s, 3_000)
        hierarchy, process = _build(MACHINE, "jbb")
        sizes = _count_generation(process.workload)
        drive_batch(process, hierarchy, 1_000)
        for _ in range(1_500):
            process.step(hierarchy)
        drive_batch(process, hierarchy, 500)
        # One generated chunk serves all the scalar steps, and the next
        # drive starts on its buffered tail.
        assert len(sizes) == 2 and sizes[0] == 1_000
        assert _state(hier_s, proc_s) == _state(hierarchy, process)

    def test_observed_drive_starts_at_the_free_log_entries(self):
        """A probe's first chunk is its log's free entries, and each
        refill doubles: mcf fills 1,000 entries within 3,000 accesses,
        so the drive generates 1,000 + 2,000, not a whole slab."""
        hierarchy, process = _build(MACHINE, "mcf")
        sizes = _count_generation(process.workload)
        collector = TraceCollector(log_capacity=1_000, seed=3)
        executed = drive_batch(process, hierarchy, 50_000,
                               collector=collector)
        assert collector.done and 1_000 < executed <= 3_000
        assert sizes == [1_000, 2_000]

    def test_observed_drive_with_a_slab_of_free_entries_is_unchanged(self):
        """Logs with at least a slab of free entries (a full-scale probe)
        keep slab-sized chunks."""
        hierarchy, process = _build(MACHINE, "mcf")
        sizes = _count_generation(process.workload)
        collector = TraceCollector(log_capacity=2 * DEFAULT_SLAB, seed=3)
        drive_batch(process, hierarchy, DEFAULT_SLAB + 1_234,
                    collector=collector)
        assert not collector.done
        assert sizes == [DEFAULT_SLAB, 1_234]

    def test_corun_generates_at_most_each_leg(self):
        workloads = [make_workload("jbb", MACHINE), make_workload("mcf", MACHINE)]
        counted = [_count_generation(w) for w in workloads]
        corun([CorunSpec(workloads[0], colors=list(range(8))),
               CorunSpec(workloads[1], colors=list(range(8, 16)))],
              MACHINE, quota_accesses=9_000, warmup_accesses=3_000)
        for sizes in counted:
            assert 0 < sum(sizes) <= 3_000 + 9_000

