"""Native vs scalar on the geometries the C fast paths leave to a fallback.

The engine floors by a power-of-two line size, lines per page and L3/L2
line ratio with a shift, and reduces every set index (L1D, L2, L3) with
Lemire's reciprocal multiply, which is exact only below 2**32.  Any
other divisor keeps the division, and any larger line keeps ``%``.
These tests drive each fallback through an observed drive, a co-run leg
and a solo drive, and compare the machine's whole state with the scalar
reference (``REPRO_NATIVE=0``):

- a valid machine whose line size (96 B), lines per page (3), L1D sets
  (6), L2 sets (96), L3 sets (80) and L3/L2 line ratio (3) are none of
  them powers of two;
- runs on the full-scale POWER5 (32 lines per page) whose frames start
  just below 2**27 or 2**28, so physical lines cross 2**32 and, in the
  second, L3 lines cross 2**32 too.

Negative virtual addresses are covered in ``test_native.py``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.pmu.sampling import TraceCollector
from repro.runner.corun import _scalar_leg
from repro.runner.driver import Process
from repro.sim import native
from repro.sim.fastsim import NativeCorun, drive_batch
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.spec import make_workload

#: No divisor of this machine is a power of two.
ODD = MachineConfig(
    name="odd",
    line_size=96,
    l1i_size=96 * 2 * 4, l1i_assoc=2,
    l1d_size=96 * 4 * 6, l1d_assoc=4,
    l2_size=96 * 10 * 96, l2_assoc=10,
    l3_size=288 * 12 * 80, l3_line_size=288, l3_assoc=12,
    page_size=288,
)
POWER5 = MachineConfig()


def _machine(machine, first_frame_index=0):
    """Two prefetching processes on two cores, each on two colours.
    Every colour's frames start at its ``first_frame_index``-th page."""
    hierarchy = MemoryHierarchy(machine, num_cores=2)
    allocator = PageAllocator(machine)
    for color in allocator._next_frame_of_color:
        allocator._next_frame_of_color[color] = first_frame_index
    processes = [
        Process(pid=pid, workload=make_workload(name, machine), core=pid,
                allocator=allocator, colors=colors,
                prefetcher=PrefetcherConfig(enabled=True),
                seed_offset=pid)
        for pid, name, colors in ((0, "mcf", [0, 1]), (1, "art", [2, 3]))
    ]
    return hierarchy, processes


def _lines(cache):
    return [list(bucket) for bucket in cache._sets]


def _state(hierarchy, processes, collector):
    """Everything the machine and the collector hold, read in Python."""
    allocator = processes[0].allocator
    for owner in (hierarchy, allocator, *processes):
        if owner._native is not None:
            owner._native.materialize("inspect")
    state = {
        "l2": _lines(hierarchy.l2),
        "l3": _lines(hierarchy.l3._cache),
        "debt": dict(allocator._migration_debt),
        "cursor": dict(allocator._cursor),
        "next_frame": dict(allocator._next_frame_of_color),
        "log": collector.log.entries().tolist(),
        "collector": (collector.l1d_misses, collector.dropped_events,
                      collector.stale_entries, collector.exceptions,
                      collector._accesses_since_miss,
                      collector._rng.getstate()),
    }
    for process in processes:
        core = process.core
        state[f"proc{core}"] = {
            "counters": dataclasses.asdict(hierarchy.counters[core]),
            "l1d": _lines(hierarchy.l1d[core]),
            "page_table": dict(allocator.page_table(process.pid)),
            "streams": [dataclasses.astuple(s)
                        for s in process.prefetcher._streams],
            "rng": process._pf_rng.getstate(),
            "clock": (process.cycles, process.instructions,
                      process.accesses),
        }
    return state


def _run(machine, first_frame_index=0):
    """An observed drive, a co-run leg and a solo drive, on whichever
    engine is enabled; returns the final state."""
    hierarchy, processes = _machine(machine, first_frame_index)
    collector = TraceCollector(log_capacity=1_500, seed=5)
    executed = drive_batch(processes[0], hierarchy, 20_000,
                           collector=collector)
    assert executed < 20_000  # the log filled
    start = [p.accesses for p in processes]
    if native.native_available():
        NativeCorun(processes, hierarchy).run_until(start, 6_000)
    else:
        _scalar_leg(processes, hierarchy, start, 6_000)
    drive_batch(processes[1], hierarchy, 4_000)
    return _state(hierarchy, processes, collector)


def _assert_native_equals_scalar(monkeypatch, machine, first_frame_index=0):
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry):
        state = _run(machine, first_frame_index)
    report = RunReport.from_telemetry(telemetry)
    assert report.counter_total("sim.batch_fallbacks") == 0
    assert set(report.counter_by_label("sim.batch_accesses", "engine")) == {
        "native"}
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert _run(machine, first_frame_index) == state
    return state


needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="no C compiler / native engine disabled",
)


@needs_native
class TestDivisionFallbacks:
    def test_geometry_takes_no_shift(self):
        assert ODD.lines_per_page == 3
        assert ODD.l2_sets == 96
        hierarchy, _ = _machine(ODD)
        for divisor in (ODD.line_size, ODD.lines_per_page,
                        hierarchy.l3._ratio):
            assert native._shift(divisor) == -1

    def test_native_equals_scalar(self, monkeypatch):
        _assert_native_equals_scalar(monkeypatch, ODD)


@needs_native
class TestLinesPast32Bits:
    @pytest.mark.parametrize("first_frame_index,cache", [
        (2**23 - 2, "l2"),   # frames cross 2**27: lines cross 2**32
        (2**24 - 2, "l3"),   # frames cross 2**28: L3 lines cross 2**32
    ])
    def test_native_equals_scalar(self, monkeypatch, first_frame_index,
                                  cache):
        state = _assert_native_equals_scalar(
            monkeypatch, POWER5, first_frame_index)
        resident = [line for bucket in state[cache] for line in bucket]
        assert min(resident) < 2**32 <= max(resident)


@settings(max_examples=200, deadline=None)
@given(nsets=st.integers(min_value=1, max_value=2**32 - 1),
       line=st.integers(min_value=0, max_value=2**32 - 1))
def test_reciprocal_reproduces_the_set_index(nsets, line):
    """C's fastmod, in Python: the low 64 bits of recip * line, times
    nsets, high half -- equal to line % nsets below 2**32."""
    recip = native._recip(nsets) % 2**64
    assert ((recip * line) % 2**64 * nsets) >> 64 == line % nsets


def test_shift_is_log2_of_powers_of_two_only():
    assert [native._shift(d) for d in (1, 2, 3, 96, 128, 4096)] == [
        0, 1, -1, -1, 7, 12]
