"""Tests for the dynamic online partition manager."""

import pytest

from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig
from repro.runner.dynamic import (
    DynamicConfig,
    DynamicPartitionManager,
    ManagerEvent,
)
from repro.workloads import make_workload
from repro.workloads.base import Workload
from repro.workloads.patterns import LoopingScan, RandomWorkingSet, SequentialStream
from repro.workloads.phased import Phase, PhasedWorkload

LINE = 128
#: Probe outcomes that close a budget reservation.
TERMINAL_OUTCOMES = {"admitted", "rejected", "deadline", "invalidated", "aborted"}


def hungry(machine):
    return Workload(
        "hungry", RandomWorkingSet(machine.l2_size),
        instructions_per_access=10, store_fraction=0.0,
    )


def streamer(machine):
    return Workload(
        "streamer", SequentialStream(8 * machine.l2_size),
        instructions_per_access=10, store_fraction=0.0,
    )


def fast_config(machine, **overrides):
    # The detector threshold sits above the tiny machine's interval
    # noise (~5 MPKI at this scale); the paper gets the same effect from
    # 1B-instruction smoothing.  Noise-triggered "transitions" would
    # otherwise invalidate every in-flight probe.
    defaults = dict(
        interval_instructions=8 * machine.l2_lines,
        probe=ProbeConfig(log_entries=1500),
        probe_cooldown_intervals=1,
        detector=PhaseDetectorConfig(threshold_mpki=15.0),
    )
    defaults.update(overrides)
    return DynamicConfig(**defaults)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"interval_instructions": 0},
        {"interval_instructions": -5},
        {"probe_cooldown_intervals": -1},
        {"drop_probability": -0.1},
        {"drop_probability": 1.5},
        {"exception_cost_cycles": -1},
    ])
    def test_bad_values_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            DynamicConfig(**kwargs)

    def test_error_names_the_field(self):
        with pytest.raises(ValueError, match="probe_cooldown_intervals"):
            DynamicConfig(probe_cooldown_intervals=-2)


class TestConstruction:
    def test_even_initial_split(self, tiny_machine):
        manager = DynamicPartitionManager(
            tiny_machine, [hungry(tiny_machine), streamer(tiny_machine)],
            fast_config(tiny_machine),
        )
        assert [len(c) for c in manager.current_colors] == [8, 8]

    def test_uneven_workload_count(self, tiny_machine):
        manager = DynamicPartitionManager(
            tiny_machine,
            [hungry(tiny_machine), streamer(tiny_machine), hungry(tiny_machine)],
            fast_config(tiny_machine),
        )
        assert sum(len(c) for c in manager.current_colors) == 16
        assert [len(c) for c in manager.current_colors] == [6, 5, 5]

    def test_no_workloads_rejected(self, tiny_machine):
        with pytest.raises(ValueError):
            DynamicPartitionManager(tiny_machine, [])

    def test_bad_quota_rejected(self, tiny_machine):
        manager = DynamicPartitionManager(
            tiny_machine, [hungry(tiny_machine)], fast_config(tiny_machine)
        )
        with pytest.raises(ValueError):
            manager.run(0)


class TestClosedLoop:
    def test_initial_probes_run_and_resize_happens(self, tiny_machine):
        manager = DynamicPartitionManager(
            tiny_machine, [hungry(tiny_machine), streamer(tiny_machine)],
            fast_config(tiny_machine),
        )
        report = manager.run(quota_accesses=25_000, warmup_accesses=500)
        assert report.probes_run >= 2
        assert report.resizes >= 1
        # The cache-sensitive app ends up with the majority of colors.
        sizes = dict(zip(report.names, (len(c) for c in report.final_colors)))
        assert sizes["hungry"] > sizes["streamer"]

    def test_probing_costs_cycles(self, tiny_machine):
        def run(exception_cost):
            manager = DynamicPartitionManager(
                tiny_machine, [hungry(tiny_machine)],
                fast_config(tiny_machine,
                            exception_cost_cycles=exception_cost),
            )
            return manager.run(quota_accesses=8_000)

        free = run(0)
        costly = run(50_000)
        assert costly.ipc[0] < free.ipc[0]

    def test_no_initial_probe_waits_for_transition(self, tiny_machine):
        # Two steady streamers: MPKI is flat (within prefetch noise, so
        # the threshold is set above it -- the paper smooths with 1B-
        # instruction intervals instead), no transition fires, and the
        # manager never probes or resizes.
        manager = DynamicPartitionManager(
            tiny_machine, [streamer(tiny_machine), streamer(tiny_machine)],
            fast_config(tiny_machine, initial_probe=False,
                        detector=PhaseDetectorConfig(threshold_mpki=15.0)),
        )
        report = manager.run(quota_accesses=10_000, warmup_accesses=500)
        assert report.probes_run == 0
        assert report.resizes == 0
        assert [len(c) for c in report.final_colors] == [8, 8]

    def test_phase_change_triggers_reprobe(self, tiny_machine):
        lines = tiny_machine.l2_lines
        # The small phase (32 lines) overflows L1D (8 lines) but sits in
        # L2, so its L2 MPKI contrasts sharply with the big phase while
        # the probe channel -- which samples L1D misses -- still sees
        # events and can fill its log.  An L1-resident phase would starve
        # every probe started inside it, and the reliability layer now
        # (correctly) discards probes that span the next transition.
        phased = PhasedWorkload(
            "phased",
            [
                Phase(RandomWorkingSet(tiny_machine.l2_size), 16 * lines, "big"),
                Phase(LoopingScan(32 * LINE), 16 * lines, "small"),
            ],
            instructions_per_access=10,
            store_fraction=0.0,
        )
        manager = DynamicPartitionManager(
            tiny_machine, [phased, streamer(tiny_machine)],
            fast_config(
                tiny_machine,
                interval_instructions=3 * tiny_machine.l2_lines * 10,
                detector=PhaseDetectorConfig(threshold_mpki=10.0),
            ),
        )
        report = manager.run(quota_accesses=60_000, warmup_accesses=500)
        transitions = report.events_of_kind("transition")
        assert transitions, "the phase alternation must be detected"
        # Re-probes follow the transitions (beyond the 2 initial ones).
        assert report.probes_run > 2

    def test_timelines_recorded(self, tiny_machine):
        manager = DynamicPartitionManager(
            tiny_machine, [hungry(tiny_machine)], fast_config(tiny_machine)
        )
        report = manager.run(quota_accesses=12_000)
        assert report.mpki_timelines[0], "monitoring must produce samples"

    def test_migration_cycles_accounted(self, tiny_machine):
        manager = DynamicPartitionManager(
            tiny_machine, [hungry(tiny_machine), streamer(tiny_machine)],
            fast_config(tiny_machine),
        )
        report = manager.run(quota_accesses=25_000, warmup_accesses=500)
        if report.resizes:
            assert report.migration_cycles > 0

    def test_event_log_is_ordered(self, tiny_machine):
        manager = DynamicPartitionManager(
            tiny_machine, [hungry(tiny_machine), streamer(tiny_machine)],
            fast_config(tiny_machine),
        )
        report = manager.run(quota_accesses=20_000)
        stamps = [event.instructions for event in report.events]
        assert stamps == sorted(stamps)


class TestProbeGate:
    """The external probe gate (the fleet budget's hook)."""

    def make_manager(self, machine, **overrides):
        return DynamicPartitionManager(
            machine, [hungry(machine), streamer(machine)],
            fast_config(machine, **overrides),
        )

    def test_gate_denials_are_counted(self, tiny_machine):
        manager = self.make_manager(tiny_machine)
        outcomes = []
        manager.probe_listener = outcomes.append
        manager.probe_gate = lambda pid, cost: cost <= 50_000
        report = manager.run(quota_accesses=25_000, warmup_accesses=500)
        assert report.probe_gate_denials >= 1
        denied = [o for o in outcomes if o.kind == "gate-denied"]
        assert len(denied) == report.probe_gate_denials
        assert report.probes_run == 0

    def test_full_cost_admission_lands_on_fresh_rung(self, tiny_machine):
        from repro.reliability.supervisor import DegradationRung

        manager = self.make_manager(tiny_machine)
        manager.probe_gate = lambda pid, cost: True
        report = manager.run(quota_accesses=25_000, warmup_accesses=500)
        assert report.probes_run >= 1
        assert manager.supervisor.rung(0) == DegradationRung.FRESH

    def test_estimator_probe_is_charged_in_real_accesses(self, tiny_machine):
        # A sampling estimator thins the stack's work, not the trace
        # log: the gate is quoted the full deadline, and every terminal
        # outcome carries the accesses the probe really consumed.
        manager = self.make_manager(tiny_machine, probe=ProbeConfig(
            log_entries=1500, stack_engine="shards", sampling_rate=0.2,
        ))
        quotes = []
        real = []
        settled = []

        def gate(pid, cost):
            quotes.append(cost)
            return True

        def listen(outcome):
            if outcome.kind in TERMINAL_OUTCOMES:
                managed = manager.managed[outcome.pid]
                real.append(
                    managed.process.accesses - managed.probe_accesses_start
                )
                settled.append(outcome.accesses)

        manager.probe_gate = gate
        manager.probe_listener = listen
        manager.run(quota_accesses=25_000, warmup_accesses=500)
        deadline = manager.config.reliability.deadline_accesses(1500)
        assert deadline == 120_000
        assert quotes and all(q == deadline for q in quotes)
        assert settled and settled == real
