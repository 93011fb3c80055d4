"""Determinism and isolation invariants.

Every experiment in the repo must be exactly reproducible (seeded), and
the memory model must never alias two processes onto one frame -- the
silent failure modes these tests guard against would quietly corrupt
every figure.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rapidmrc import ProbeConfig
from repro.runner.corun import CorunSpec, corun
from repro.runner.online import OnlineProbeConfig, collect_trace
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.workloads import make_workload


class TestDeterminism:
    def test_probe_reproducible(self, tiny_machine):
        def run():
            probe = collect_trace(
                make_workload("twolf", tiny_machine), tiny_machine,
                OnlineProbeConfig(warmup_accesses=500),
                ProbeConfig(log_entries=1000),
            )
            return probe.probe.entries.tolist()

        assert run() == run()

    def test_corun_reproducible(self, tiny_machine):
        def run():
            result = corun(
                [
                    CorunSpec(make_workload("twolf", tiny_machine)),
                    CorunSpec(make_workload("gzip", tiny_machine)),
                ],
                tiny_machine, quota_accesses=2000,
            )
            return (result.ipc, result.mpki, result.accesses)

        assert run() == run()

    def test_distinct_pmu_seeds_differ(self, tiny_machine):
        def run(seed):
            probe = collect_trace(
                make_workload("twolf", tiny_machine), tiny_machine,
                OnlineProbeConfig(warmup_accesses=500, seed=seed,
                                  drop_probability=0.5),
                ProbeConfig(log_entries=1000),
            )
            return probe.probe.entries.tolist()

        assert run(1) != run(2)

    def test_real_mrc_reproducible(self, tiny_machine):
        from repro.runner.offline import OfflineConfig, real_mrc

        config = OfflineConfig(warmup_accesses=500, measure_accesses=1500)
        workload = make_workload("jbb", tiny_machine)
        a = real_mrc(workload, tiny_machine, config, sizes=[4, 12])
        b = real_mrc(workload, tiny_machine, config, sizes=[4, 12])
        assert a.mpki == b.mpki


class TestFrameIsolation:
    @settings(max_examples=20, deadline=None)
    @given(
        touches=st.lists(
            st.tuples(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=0, max_value=200)),
            max_size=300,
        )
    )
    def test_property_no_frame_shared_between_processes(self, touches):
        machine = MachineConfig.scaled(32)
        allocator = PageAllocator(machine)
        owner = {}
        for process, vpage in touches:
            frame = allocator.translate(
                process, vpage * machine.page_size
            ) // machine.page_size
            key = frame
            if key in owner:
                assert owner[key] == (process, vpage), (
                    "frame aliased across mappings"
                )
            owner[key] = (process, vpage)

    def test_huge_virtual_addresses(self, tiny_machine):
        allocator = PageAllocator(tiny_machine)
        paddr = allocator.translate(0, (1 << 40) + 17)
        assert paddr % tiny_machine.page_size == (
            ((1 << 40) + 17) % tiny_machine.page_size
        )

    def test_colors_isolated_under_interleaving(self, tiny_machine):
        from repro.sim.coloring import ColorMapper

        allocator = PageAllocator(tiny_machine)
        mapper = ColorMapper(tiny_machine)
        allocator.set_colors(0, [0, 1])
        allocator.set_colors(1, [2, 3])
        for vpage in range(60):
            pid = vpage % 2
            frame = allocator.translate(
                pid, vpage * tiny_machine.page_size
            ) // tiny_machine.page_size
            expected = {0, 1} if pid == 0 else {2, 3}
            assert mapper.color_of_page(frame) in expected
