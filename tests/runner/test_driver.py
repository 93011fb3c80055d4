"""Tests for the process driver."""

import pytest

from repro.runner.driver import Process, drive
from repro.sim.cpu import IssueMode
from repro.sim.fastsim import drive_batch
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.native import native_available
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.base import Workload
from repro.workloads.patterns import LoopingScan, SequentialStream
from repro.workloads.spec import make_workload

LINE = 128


def make_env(machine, workload, colors=None, issue_mode=IssueMode.COMPLEX,
             prefetch=False):
    hierarchy = MemoryHierarchy(machine)
    allocator = PageAllocator(machine)
    process = Process(
        pid=0, workload=workload, core=0, allocator=allocator,
        colors=colors, issue_mode=issue_mode,
        prefetcher=PrefetcherConfig(enabled=prefetch),
    )
    return hierarchy, process


def small_workload(ipa=10):
    return Workload(
        "loop", LoopingScan(64 * LINE), instructions_per_access=ipa,
        store_fraction=0.0,
    )


class TestProcess:
    def test_step_advances_counters(self, tiny_machine):
        hierarchy, process = make_env(tiny_machine, small_workload(ipa=10))
        process.step(hierarchy)
        assert process.accesses == 1
        assert process.instructions == 10
        assert hierarchy.counters[0].instructions == 10

    def test_cycles_accumulate(self, tiny_machine):
        hierarchy, process = make_env(tiny_machine, small_workload())
        process.step(hierarchy)
        assert process.cycles > 0

    def test_misses_cost_more_than_hits(self, tiny_machine):
        hierarchy, process = make_env(tiny_machine, small_workload())
        process.step(hierarchy)            # cold miss
        cost_miss = process.cycles
        # Re-access same first line of the loop after it completes a lap.
        drive(process, hierarchy, 63)
        before = process.cycles
        process.step(hierarchy)            # L1 hit (loop of 64 > L1?) --
        # guard: just assert hits are cheaper than the first cold miss.
        cost_hit = process.cycles - before
        assert cost_hit <= cost_miss

    def test_ipc_positive(self, tiny_machine):
        hierarchy, process = make_env(tiny_machine, small_workload())
        drive(process, hierarchy, 100)
        assert 0 < process.ipc < 2.0

    def test_simplified_mode_lower_ipc(self, tiny_machine):
        workload = Workload(
            "stream", SequentialStream(tiny_machine.l2_size * 4),
            instructions_per_access=10, store_fraction=0.0,
        )
        results = {}
        for mode in (IssueMode.COMPLEX, IssueMode.SIMPLIFIED):
            hierarchy, process = make_env(tiny_machine, workload, issue_mode=mode)
            drive(process, hierarchy, 500)
            results[mode] = process.ipc
        assert results[IssueMode.SIMPLIFIED] < results[IssueMode.COMPLEX]

    def test_color_confinement_applied(self, tiny_machine):
        hierarchy, process = make_env(tiny_machine, small_workload(), colors=[0])
        drive(process, hierarchy, 200)
        assert process.allocator.colors_of(0) == [0]
        footprint = process.allocator.footprint_colors(0)
        assert set(footprint) == {0}

    def test_reset_metrics_keeps_clock(self, tiny_machine):
        hierarchy, process = make_env(tiny_machine, small_workload())
        drive(process, hierarchy, 10)
        clock = process.cycles
        process.reset_metrics()
        assert process.instructions == 0
        assert process.cycles == clock


class TestProcessPrefetching:
    def test_sequential_stream_prefetches_within_colors(self, tiny_machine):
        """Prefetches follow the virtual stream and are translated, so a
        color-confined process's prefetches stay inside its partition."""
        from repro.sim.coloring import ColorMapper

        workload = Workload(
            "stream", SequentialStream(4 * tiny_machine.l2_size),
            instructions_per_access=10, store_fraction=0.0,
        )
        hierarchy, process = make_env(
            tiny_machine, workload, colors=[3], prefetch=True
        )
        mapper = ColorMapper(tiny_machine)
        prefetched = []
        for _ in range(300):
            result = process.step(hierarchy)
            prefetched.extend(result.prefetched_lines)
        assert prefetched, "a sequential stream must trigger prefetches"
        assert all(mapper.color_of_line(line) == 3 for line in prefetched)

    def test_prefetching_reduces_demand_misses(self, tiny_machine):
        workload = Workload(
            "stream", SequentialStream(8 * tiny_machine.l2_size),
            instructions_per_access=10, store_fraction=0.0,
        )
        results = {}
        for prefetch in (False, True):
            hierarchy, process = make_env(tiny_machine, workload,
                                          prefetch=prefetch)
            drive(process, hierarchy, 2000)
            results[prefetch] = hierarchy.counters[0].l1d_misses
        assert results[True] < results[False]


class TestDrive:
    def test_exact_access_count(self, tiny_machine):
        hierarchy, process = make_env(tiny_machine, small_workload())
        executed = drive(process, hierarchy, 37)
        assert executed == 37
        assert process.accesses == 37

    def test_observer_sees_every_access(self, tiny_machine):
        hierarchy, process = make_env(tiny_machine, small_workload())
        seen = []
        drive(process, hierarchy, 25, observer=seen.append)
        assert len(seen) == 25

    def test_stop_predicate_ends_early(self, tiny_machine):
        hierarchy, process = make_env(tiny_machine, small_workload())
        executed = drive(
            process, hierarchy, 1000, stop=lambda: process.accesses >= 5
        )
        assert executed == 5


def _lazily_resized_mcf():
    """mcf warmed on colours 0-7 of a 1/32 machine, then lazily resized to
    the disjoint colours 8-15: every page it touched is now stale."""
    machine = MachineConfig.scaled(32)
    hierarchy = MemoryHierarchy(machine)
    allocator = PageAllocator(machine)
    process = Process(
        pid=0, workload=make_workload("mcf", machine), core=0,
        allocator=allocator, colors=list(range(8)),
        prefetcher=PrefetcherConfig(enabled=True),
    )
    drive_batch(process, hierarchy, 20_000)
    assert allocator.resize(0, list(range(8, 16))) > 0
    return hierarchy, process


def _stale_pages(table):
    return {vpage for vpage, frame in table.items() if frame < 0}


def _migration_state(process):
    table = process.allocator.page_table(process.pid)
    return (process.cycles, process.allocator.lazy_migrations,
            dict(table), sorted(_stale_pages(table)))


class TestLazyMigrationCharge:
    """The page table alone decides which access migrates a page after a
    lazy resize; that access, and only it, pays."""

    def test_each_access_pays_for_the_pages_it_migrates(self):
        hierarchy, process = _lazily_resized_mcf()
        allocator = process.allocator
        machine = hierarchy.machine
        cost = allocator.migration_cost_cycles
        table = allocator.page_table(process.pid)
        moved_by = {"demand": 0, "prefetch": 0}
        for _ in range(20_000):
            cycles = process.cycles
            migrations = allocator.lazy_migrations
            stale_before = _stale_pages(table)
            result = process.step(hierarchy)
            added = allocator.lazy_migrations - migrations
            # Migrated: stale before the step, a frame (>= 0) after it.
            moved = {vpage for vpage in stale_before if table[vpage] >= 0}
            assert len(moved) == added
            base_and_penalty = (process._base_cost
                                + process._penalty(result, machine))
            assert process.cycles == (cycles + base_and_penalty) + cost * added
            demand_frame = result.line // machine.lines_per_page
            for vpage in moved:
                kind = "demand" if table[vpage] == demand_frame else "prefetch"
                moved_by[kind] += 1
        assert moved_by["demand"] > 0 and moved_by["prefetch"] > 0

    def test_native_drive_matches_scalar(self, monkeypatch):
        if not native_available():
            pytest.skip("no C compiler / native engine disabled")
        hierarchy, process = _lazily_resized_mcf()
        assert drive_batch(process, hierarchy, 20_000) == 20_000
        assert process.cycles > 0 and process.allocator.lazy_migrations > 0
        native_end = _migration_state(process)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        hierarchy, process = _lazily_resized_mcf()
        drive_batch(process, hierarchy, 20_000)
        assert _migration_state(process) == native_end
