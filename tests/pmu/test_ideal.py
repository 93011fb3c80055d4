"""Tests for the Section 6 proposed-PMU model."""

import pytest

from repro.pmu.ideal import IdealTraceCollector
from repro.sim.hierarchy import AccessResult


def miss(line, prefetched=()):
    return AccessResult(
        core=0, line=line, l1_hit=False, prefetched_lines=list(prefetched)
    )


def hit(line):
    return AccessResult(core=0, line=line, l1_hit=True)


class TestCompleteness:
    def test_no_drops_ever(self):
        collector = IdealTraceCollector(log_capacity=100)
        for line in range(50):
            collector.observe(miss(line))
        probe = collector.finish()
        assert probe.dropped_events == 0
        assert probe.entries.tolist() == list(range(50))

    def test_prefetches_recorded_with_true_addresses(self):
        collector = IdealTraceCollector(log_capacity=100)
        collector.observe(miss(10, prefetched=[11, 12]))
        assert collector.log.entries().tolist() == [10, 11, 12]
        assert collector.stale_entries == 0

    def test_prefetch_recording_optional(self):
        collector = IdealTraceCollector(log_capacity=100,
                                        record_prefetches=False)
        collector.observe(miss(10, prefetched=[11, 12]))
        assert collector.log.entries().tolist() == [10]

    def test_hits_and_ifetches_ignored(self):
        collector = IdealTraceCollector(log_capacity=10)
        collector.observe(hit(1))
        collector.observe(AccessResult(core=0, line=2, is_ifetch=True))
        assert len(collector.log) == 0


class TestAmortizedExceptions:
    def test_one_exception_per_buffer(self):
        collector = IdealTraceCollector(log_capacity=100, buffer_entries=10)
        for line in range(100):
            collector.observe(miss(line))
        probe = collector.finish()
        assert probe.exceptions == 10

    def test_partial_buffer_drained_at_finish(self):
        collector = IdealTraceCollector(log_capacity=100, buffer_entries=10)
        for line in range(15):
            collector.observe(miss(line))
        probe = collector.finish()
        assert probe.exceptions == 2  # one overflow + one final drain

    def test_exception_reduction_vs_real_pmu(self):
        """Wishlist item 1's point: ~buffer_entries-fold fewer
        exceptions than the threshold-1 channel."""
        from repro.pmu.sampling import TraceCollector
        from repro.sim.cpu import IssueMode

        real = TraceCollector(
            log_capacity=256, issue_mode=IssueMode.SIMPLIFIED,
            drop_probability=0.0,
        )
        ideal = IdealTraceCollector(log_capacity=256, buffer_entries=64)
        for line in range(256):
            real.observe(miss(line))
            ideal.observe(miss(line))
        assert ideal.finish().exceptions * 32 <= real.finish().exceptions

    def test_buffer_validated(self):
        with pytest.raises(ValueError):
            IdealTraceCollector(log_capacity=10, buffer_entries=0)


class TestIntegration:
    def test_online_probe_with_ideal_pmu(self, tiny_machine):
        from repro.core.rapidmrc import ProbeConfig
        from repro.runner.online import OnlineProbeConfig, collect_trace
        from repro.workloads import make_workload

        workload = make_workload("twolf", tiny_machine)
        probe = collect_trace(
            workload, tiny_machine,
            OnlineProbeConfig(warmup_accesses=500, use_ideal_pmu=True,
                              ideal_buffer_entries=64),
            ProbeConfig(log_entries=2000),
        )
        assert probe.log_filled
        assert probe.probe.dropped_events == 0
        assert probe.probe.stale_entries == 0
        assert probe.probe.exceptions <= 2000 // 64 + 1

    @pytest.mark.parametrize("use_ideal_pmu", [False, True])
    def test_probe_publishes_pmu_counters(self, tiny_machine, use_ideal_pmu):
        """Both collectors publish the same pmu.* counters, so the ideal
        PMU's probes feed the report's modeled logging/calculation split
        like the real one's."""
        from repro.core.rapidmrc import ProbeConfig
        from repro.obs import Telemetry, use_telemetry
        from repro.obs.report import RunReport
        from repro.runner.online import OnlineProbeConfig, collect_trace
        from repro.workloads import make_workload

        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            probe = collect_trace(
                make_workload("twolf", tiny_machine), tiny_machine,
                OnlineProbeConfig(warmup_accesses=500,
                                  use_ideal_pmu=use_ideal_pmu),
                ProbeConfig(log_entries=2000),
            )
        report = RunReport.from_telemetry(telemetry)
        trace = probe.probe
        assert report.counter_total("pmu.probes") == 1
        assert report.counter_total("pmu.log_entries") == len(trace.entries)
        assert report.counter_total("pmu.probe_instructions") == (
            trace.instructions)
        assert report.counter_total("pmu.l1d_misses") == trace.l1d_misses
        assert report.counter_total("pmu.exceptions") == trace.exceptions
        assert report.counter_total("pmu.dropped_events") == (
            trace.dropped_events)
        assert report.counter_total("pmu.stale_entries") == (
            trace.stale_entries)
        assert report.counter_total("pmu.channel") == 1
        assert report._modeled_split() is not None
