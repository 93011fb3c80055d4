"""Without the native engine, no drive generates accesses as arrays.

Only native drives pull ``Workload.access_batches`` (through
:class:`~repro.sim.fastsim.BatchAccessSource` or a
:class:`~repro.workloads.base.StreamRecording`), so only they reach
:class:`~repro.workloads.base.BatchRandom`'s draws.  Under
``REPRO_NATIVE=0`` every drive steps ``Process.step`` on the scalar
``Workload.accesses()`` stream instead.  Each case here runs one kind of
drive that way with ``access_batches`` made to raise: it must complete,
and ``sim.batch_accesses`` must count the ``scalar`` engine alone.
"""

import pytest

from repro.core.rapidmrc import ProbeConfig
from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.pmu.sampling import TraceCollector
from repro.runner.corun import CorunSpec, corun
from repro.runner.driver import Process
from repro.runner.dynamic import DynamicConfig, DynamicPartitionManager
from repro.sim.fastsim import drive_batch
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.workloads.base import Workload
from repro.workloads.spec import make_workload

MACHINE = MachineConfig.scaled(32)


@pytest.fixture(autouse=True)
def no_array_generation(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")

    def refuse(self, seed_offset, demand):
        raise AssertionError(
            f"{self.name}: a drive without the native engine pulled "
            f"access_batches"
        )

    monkeypatch.setattr(Workload, "access_batches", refuse)


def counted(run):
    """``run()``'s result and the engines its accesses ran on."""
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry):
        result = run()
    return result, RunReport.from_telemetry(telemetry).counter_by_label(
        "sim.batch_accesses", "engine"
    )


def solo_process():
    allocator = PageAllocator(MACHINE)
    process = Process(pid=0, workload=make_workload("mcf", MACHINE), core=0,
                      allocator=allocator)
    return process, MemoryHierarchy(MACHINE, num_cores=1)


def test_drive_batch_steps_the_scalar_stream():
    process, hierarchy = solo_process()
    _, engines = counted(lambda: drive_batch(process, hierarchy, 3_000))
    assert engines == {"scalar": 3_000}


def test_observed_drive_steps_the_scalar_stream():
    process, hierarchy = solo_process()
    collector = TraceCollector(log_capacity=200, seed=5)
    executed, engines = counted(lambda: drive_batch(
        process, hierarchy, 50_000, collector=collector
    ))
    assert collector.done
    assert engines == {"scalar": executed}


def test_corun_steps_the_scalar_stream():
    specs = [CorunSpec(make_workload(name, MACHINE), seed_offset=index)
             for index, name in enumerate(("mcf", "art"))]
    _, engines = counted(lambda: corun(
        specs, MACHINE, quota_accesses=2_000, warmup_accesses=500
    ))
    assert set(engines) == {"scalar"}


def test_managed_loop_steps_the_scalar_stream():
    lines = MACHINE.l2_lines
    config = DynamicConfig(
        interval_instructions=lines * 48,
        probe=ProbeConfig(log_entries=300),
        probe_cooldown_intervals=1,
    )
    manager = DynamicPartitionManager(
        MACHINE,
        [make_workload(name, MACHINE) for name in ("mcf", "gzip")],
        config,
    )
    report, engines = counted(
        lambda: manager.run(4 * lines, warmup_accesses=lines)
    )
    assert report.probes_run > 0
    assert set(engines) == {"scalar"}
