"""Tests for the trace collector and its channel defects."""

import pytest

from repro.pmu.sampling import PMUModel, TraceCollector
from repro.sim.cpu import IssueMode
from repro.sim.hierarchy import AccessResult


def miss(line, prefetched=()):
    return AccessResult(
        core=0, line=line, l1_hit=False, prefetched_lines=list(prefetched)
    )


def hit(line):
    return AccessResult(core=0, line=line, l1_hit=True)


def ifetch(line):
    return AccessResult(core=0, line=line, is_ifetch=True)


def collector(**kwargs):
    defaults = dict(
        log_capacity=100,
        issue_mode=IssueMode.SIMPLIFIED,  # no drops unless asked
        pmu_model=PMUModel.POWER5,
        drop_probability=0.0,
    )
    defaults.update(kwargs)
    return TraceCollector(**defaults)


class TestBasicCollection:
    def test_misses_are_logged(self):
        c = collector()
        for line in [5, 9, 5]:
            c.observe(miss(line))
        assert c.log.entries().tolist() == [5, 9, 5]
        assert c.l1d_misses == 3
        assert c.exceptions == 3

    def test_l1_hits_are_invisible(self):
        c = collector()
        c.observe(hit(1))
        c.observe(miss(2))
        c.observe(hit(3))
        assert c.log.entries().tolist() == [2]

    def test_ifetches_are_not_data_samples(self):
        c = collector()
        c.observe(ifetch(1))
        assert len(c.log) == 0

    def test_done_when_log_full(self):
        c = collector(log_capacity=2)
        c.observe(miss(1))
        assert not c.done
        c.observe(miss(2))
        assert c.done
        c.observe(miss(3))  # ignored
        assert c.log.entries().tolist() == [1, 2]

    def test_instruction_accounting(self):
        c = collector()
        c.observe_instructions(480)
        c.observe_instructions(20)
        assert c.instructions == 500

    def test_finish_packages_statistics(self):
        c = collector()
        c.observe(miss(1))
        c.observe_instructions(100)
        probe = c.finish()
        assert probe.entries.tolist() == [1]
        assert probe.instructions == 100
        assert probe.l1d_misses == 1
        assert probe.exceptions == 1
        assert probe.drop_fraction() == 0.0


class TestStalePrefetchEntries:
    def test_power5_prefetch_logs_stale_repeat(self):
        c = collector(pmu_model=PMUModel.POWER5)
        c.observe(miss(10, prefetched=[11, 12]))
        # One real entry + two stale repeats of the SDAR value.
        assert c.log.entries().tolist() == [10, 10, 10]
        assert c.stale_entries == 2

    def test_power5_plus_omits_prefetches(self):
        c = collector(pmu_model=PMUModel.POWER5_PLUS)
        c.observe(miss(10, prefetched=[11, 12]))
        assert c.log.entries().tolist() == [10]
        assert c.stale_entries == 0

    def test_stale_entries_respect_log_capacity(self):
        c = collector(log_capacity=2, pmu_model=PMUModel.POWER5)
        c.observe(miss(10, prefetched=[11, 12, 13]))
        assert c.log.entries().tolist() == [10, 10]

    def test_stale_runs_are_what_correction_expects(self):
        from repro.core.correction import correct_stale_repetitions

        c = collector(pmu_model=PMUModel.POWER5)
        c.observe(miss(10, prefetched=[11, 12]))
        repaired = correct_stale_repetitions(c.log.entries())
        assert repaired.trace == [10, 11, 12]


class TestMissedEvents:
    def test_simplified_mode_never_drops(self):
        c = collector(issue_mode=IssueMode.SIMPLIFIED, drop_probability=1.0)
        for line in range(10):
            c.observe(miss(line))
        assert c.dropped_events == 0

    def test_complex_mode_drops_adjacent_misses(self):
        c = collector(
            issue_mode=IssueMode.COMPLEX, drop_probability=1.0, inflight_window=2
        )
        c.observe(miss(1))   # recorded (no previous miss in flight)
        c.observe(miss(2))   # adjacent -> dropped
        assert c.dropped_events == 1
        assert c.log.entries().tolist() == [1]
        assert c.l1d_misses == 2

    def test_separated_misses_not_dropped(self):
        c = collector(
            issue_mode=IssueMode.COMPLEX, drop_probability=1.0, inflight_window=1
        )
        c.observe(miss(1))
        c.observe(hit(100))
        c.observe(miss(2))
        assert c.dropped_events == 0
        assert c.log.entries().tolist() == [1, 2]

    def test_drops_are_reproducible(self):
        def run(seed):
            c = collector(
                issue_mode=IssueMode.COMPLEX, drop_probability=0.5, seed=seed
            )
            for line in range(50):
                c.observe(miss(line))
            return c.log.entries().tolist()

        assert run(3) == run(3)

    def test_drop_fraction(self):
        c = collector(
            issue_mode=IssueMode.COMPLEX, drop_probability=1.0, inflight_window=2
        )
        for line in range(4):
            c.observe(miss(line))
        probe = c.finish()
        assert probe.drop_fraction() == pytest.approx(
            probe.dropped_events / probe.l1d_misses
        )


class TestValidation:
    def test_bad_probability(self):
        with pytest.raises(ValueError):
            collector(drop_probability=2.0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            collector(inflight_window=0)
