"""Differential tests for MRC cache reuse in the dynamic manager.

The paper's Section 7 sketch: when a workload returns to a phase whose
curve was already probed, the cached curve (re-anchored at the current
measurement, Section 3.2) replaces the full probe.  These tests run the
same recurring-phase scenario with and without reuse and check the
bargain: substantially fewer probes, identical final decisions.
"""

import pytest

from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig
from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.runner.dynamic import DynamicConfig, DynamicPartitionManager
from repro.sim.machine import MachineConfig
from repro.store import MRCStore, SignatureConfig, StoreConfig
from repro.workloads.base import Workload
from repro.workloads.patterns import (
    LoopingScan,
    RandomWorkingSet,
    SequentialStream,
)
from repro.workloads.phased import Phase, PhasedWorkload

LINE = 128
QUOTA = 150_000
WARMUP = 500


def _store_config():
    # Coarser buckets than the defaults: the recurring phases sit ~50
    # MPKI apart, so generous quantization still separates them while
    # absorbing revisit-to-revisit measurement noise.
    return StoreConfig(
        signature=SignatureConfig(
            level_quantum_mpki=4.0, match_tolerance_mpki=6.0,
        ),
    )


def _manager(machine, store_config=None, store=None):
    lines = machine.l2_lines
    phased = PhasedWorkload(
        "phased",
        [
            # Alternating working sets: one thrashing the whole L2, one
            # fitting comfortably -- two sharply distinct phases that
            # each recur several times within the quota.
            Phase(RandomWorkingSet(machine.l2_size), 16 * lines, "big"),
            Phase(LoopingScan(32 * LINE), 16 * lines, "small"),
        ],
        instructions_per_access=10,
        store_fraction=0.0,
    )
    streamer = Workload(
        "streamer", SequentialStream(8 * machine.l2_size),
        instructions_per_access=10, store_fraction=0.0,
    )
    config = DynamicConfig(
        interval_instructions=3 * lines * 10,
        probe=ProbeConfig(log_entries=1500),
        probe_cooldown_intervals=1,
        detector=PhaseDetectorConfig(threshold_mpki=10.0),
        store=store_config,
    )
    return DynamicPartitionManager(
        machine, [phased, streamer], config, store=store
    )


@pytest.fixture(scope="module")
def machine():
    return MachineConfig.scaled(32)


@pytest.fixture(scope="module")
def baseline(machine):
    return _manager(machine).run(QUOTA, warmup_accesses=WARMUP)


@pytest.fixture(scope="module")
def reused(machine):
    return _manager(machine, store_config=_store_config()).run(
        QUOTA, warmup_accesses=WARMUP
    )


class TestDifferential:
    def test_reuse_cuts_probes_by_at_least_30_percent(
        self, baseline, reused
    ):
        assert baseline.probes_run > 0
        assert reused.probes_reused > 0
        assert reused.probes_run <= 0.7 * baseline.probes_run

    def test_final_decision_matches_probe_only_run(self, baseline, reused):
        assert reused.final_colors == baseline.final_colors

    def test_store_stats_account_for_every_reuse(self, reused):
        stats = reused.store_stats
        assert stats is not None
        assert stats["hits"] == reused.probes_reused
        assert stats["entries"] > 0
        assert reused.reuse_rejected == 0

    def test_cache_reuse_events_carry_signature_and_shift(self, reused):
        events = reused.events_of_kind("cache-reuse")
        assert len(events) == reused.probes_reused
        assert all("MPKI" in event.detail for event in events)

    def test_baseline_report_has_no_store(self, baseline):
        assert baseline.store_stats is None
        assert baseline.probes_reused == 0
        assert not baseline.events_of_kind("cache-reuse")


class TestPrimingAndWarmStart:
    def test_warm_start_from_saved_store(self, machine, reused, tmp_path):
        path = str(tmp_path / "warm.json")
        warm = _manager(machine, store_config=_store_config())
        warm.run(QUOTA, warmup_accesses=WARMUP)
        warm.store.save(path)

        manager = _manager(machine, store=MRCStore.load(path))
        report = manager.run(QUOTA, warmup_accesses=WARMUP)
        # The disk-loaded curves serve even the *first* visit of each
        # phase, so the warm run reuses at least as much as a cold one.
        assert report.probes_reused >= reused.probes_reused
        assert report.probes_run <= warm.probes_run


class TestTelemetry:
    def test_store_counters_reach_the_run_report(self, machine):
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            report = _manager(machine, store_config=_store_config()).run(
                QUOTA, warmup_accesses=WARMUP
            )
        run_report = RunReport.from_telemetry(telemetry)
        assert run_report.counter_total("store.hits") == report.probes_reused
        assert run_report.counter_total("store.misses") > 0
        assert run_report.counter_total("store.puts") > 0
        assert (
            run_report.counter_total("dynamic.cache_hits")
            == report.probes_reused
        )
        rendered = run_report.render()
        assert "mrc store:" in rendered
        assert "store.hits" in rendered
