"""Continuous observability at fleet level: series, health, and drift.

The acceptance scenario for the drift monitor is the *silently stale
cached curve*: an entry whose anchor point looks perfectly plausible
(zero v-offset shift, monotone shape, clean metadata), so every reuse
quality gate passes -- but whose shape is wrong everywhere else.  No
gate can catch it at admission time; only the continuous residual
monitor can, from the free monitoring samples that accumulate while
the curve steers decisions.

Two runs share one deterministic schedule:

* the **clean twin** starts from an empty store, probes everything
  fresh, and must finish with ZERO drift events (the detector's
  false-positive budget on honest curves is zero);
* the **injected run** starts from a store primed with a flat curve
  under exactly the phase signature the target process fingerprints at
  startup (recorded by the clean twin, which is bit-identical up to
  that lookup).  The tampered curve is served through the ordinary
  reuse path, the drift monitor catches it, and a replacement probe is
  re-solicited through the ordinary admission path within the run.
"""

import dataclasses
import re

import pytest

from repro.core.mrc import MissRateCurve
from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig
from repro.fleet.service import FleetConfig, FleetService
from repro.obs import Telemetry, use_telemetry
from repro.obs.drift import DriftConfig
from repro.obs.report import RunReport
from repro.reliability.faults import FaultPlan
from repro.runner.dynamic import DynamicConfig
from repro.sim.native import native_available
from repro.store.mrc_store import MRCStore, StoreConfig
from repro.workloads import make_workload

MEMBERS = ("gzip", "mcf", "art", "swim")
TARGET = "mcf"  # steep curve: a flat fake distorts its allocation hard
TICKS = 6
# High enough that the phase detector never fires in these runs: the
# stale curve must be caught by the drift monitor, not rescued by a
# phase-change re-probe.
DETECTOR_THRESHOLD = 80.0


class RecordingStore(MRCStore):
    """An MRCStore that remembers every lookup signature."""

    def __init__(self, config=StoreConfig()):
        super().__init__(config)
        self.lookups = []

    def get(self, signature, now_instructions=0):
        self.lookups.append(signature)
        return super().get(signature, now_instructions=now_instructions)


def _dynamic(machine, drift):
    return DynamicConfig(
        interval_instructions=8 * machine.l2_lines,
        probe=ProbeConfig(log_entries=1500),
        probe_cooldown_intervals=1,
        detector=PhaseDetectorConfig(threshold_mpki=DETECTOR_THRESHOLD),
        drift=drift,
        store=StoreConfig(),
    )


def _run(machine, store, drift=DriftConfig(), ticks=TICKS, telemetry=None):
    service = FleetService(
        machine,
        [make_workload(name, machine) for name in MEMBERS],
        FleetConfig(num_domains=2, ticks=ticks,
                    dynamic=_dynamic(machine, drift)),
        store=store,
    )
    if telemetry is None:
        return service.run()
    with use_telemetry(telemetry):
        return service.run()


@pytest.fixture(scope="module")
def clean_run(tiny_machine):
    """Empty store, drift monitoring on, telemetry captured."""
    store = RecordingStore()
    telemetry = Telemetry.in_memory()
    report = _run(tiny_machine, store, telemetry=telemetry)
    return report, store, telemetry


@pytest.fixture(scope="module")
def injected_run(tiny_machine, clean_run):
    """The same schedule with a poisoned cache entry for TARGET."""
    _, recon_store, _ = clean_run
    signature = next(
        s for s in recon_store.lookups if s.workload == TARGET
    )
    # A flat curve pinned at the signature's own MPKI level: the reuse
    # gates see a plausible anchor and a near-zero shift, yet the shape
    # is wrong at every other allocation.
    level = signature.level_bucket * signature.level_quantum_mpki
    flat = MissRateCurve(
        {size: level for size in range(1, tiny_machine.num_colors + 1)},
        label="stale-flat",
    )
    store = MRCStore(StoreConfig())
    store.put(signature, flat, stack_hit_rate=1.0, trace_length=1500)
    report = _run(tiny_machine, store)
    return report, store


class TestCleanBaseline:
    def test_zero_drift_events(self, clean_run):
        report, _, _ = clean_run
        assert report.drift_events == 0
        assert report.events_of_kind("drift-detected") == []
        for reports in report.domain_reports.values():
            for manager in reports:
                assert manager.drift_events == 0

    def test_report_carries_series(self, clean_run):
        report, _, _ = clean_run
        assert report.series is not None
        names = {entry["name"] for entry in report.series["series"]}
        assert {
            "fleet.mpki", "fleet.predicted_mpki", "fleet.rung_rank",
            "fleet.breaker_state", "fleet.budget_utilization",
            "fleet.drift_statistic", "fleet.store_hit_rate",
        } <= names
        for entry in report.series["series"]:
            assert entry["windows"], f"empty series: {entry['name']}"
            if entry["name"] == "fleet.budget_utilization":
                for window in entry["windows"]:
                    assert 0.0 <= window["min"] <= window["max"] <= 1.0

    def test_per_domain_series_labels(self, clean_run):
        report, _, _ = clean_run
        mpki = [
            entry for entry in report.series["series"]
            if entry["name"] == "fleet.mpki"
        ]
        labels = {
            (entry["labels"]["domain"], entry["labels"]["pid"])
            for entry in mpki
        }
        assert labels == {("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")}

    def test_report_carries_health(self, clean_run):
        report, _, _ = clean_run
        assert report.health is not None
        assert report.health["status"] in {"ok", "degraded", "critical"}
        domains = {card["domain"] for card in report.health["domains"]}
        assert domains == {0, 1}
        for card in report.health["domains"]:
            assert set(card["signals"]) == {
                "probe_deadline_hit_rate", "degraded_rung_dwell",
                "budget_denial_rate", "curve_staleness_ticks",
            }
            assert card["drift_events"] == 0

    def test_dynamic_counters_labeled_with_domain(self, clean_run):
        _, _, telemetry = clean_run
        counters = telemetry.registry.snapshot()["counters"]
        dynamic = [
            counter for counter in counters
            if counter["name"].startswith("dynamic.")
        ]
        assert dynamic, "fleet run must emit dynamic.* counters"
        for counter in dynamic:
            assert counter["labels"].get("domain") in {"0", "1"}, counter

    def test_service_series_fold_into_telemetry_board(self, clean_run):
        report, _, telemetry = clean_run
        board_names = set(telemetry.board.names())
        assert "fleet.mpki" in board_names
        assert "dynamic.mpki" in board_names  # per-interval runner series


class TestStaleCurveChaos:
    def test_tampered_curve_was_served(self, injected_run):
        report, store = injected_run
        assert store.stats()["hits"] >= 1
        reuses = [
            event
            for reports in report.domain_reports.values()
            for manager in reports
            for event in manager.events
            if event.kind == "cache-reuse"
        ]
        assert reuses, "the poisoned entry must flow through cache reuse"

    def test_drift_monitor_catches_the_stale_curve(self, injected_run):
        report, _ = injected_run
        assert report.drift_events >= 1
        events = report.events_of_kind("drift-detected")
        assert events
        assert all(event.tick < TICKS for event in events)

    def test_probe_resolicited_within_bounded_ticks(self, injected_run):
        report, _ = injected_run
        recovered = False
        for reports in report.domain_reports.values():
            for manager in reports:
                drifts = [e for e in manager.events
                          if e.kind == "drift-detected"]
                for drift in drifts:
                    followups = [
                        e for e in manager.events
                        if e.kind == "probe" and e.pid == drift.pid
                        and e.instructions > drift.instructions
                    ]
                    if followups:
                        recovered = True
        assert recovered, (
            "a drift event must re-solicit a probe for the same pid"
        )

    def test_health_scorecard_records_the_drift(self, injected_run):
        report, _ = injected_run
        assert sum(
            card["drift_events"] for card in report.health["domains"]
        ) == report.drift_events


class TestObservabilityToggle:
    def test_disabled_observability_drops_series_and_health(
        self, tiny_machine
    ):
        service = FleetService(
            tiny_machine,
            [make_workload(name, tiny_machine)
             for name in ("gzip", "swim")],
            FleetConfig(
                num_domains=2, ticks=2,
                dynamic=_dynamic(tiny_machine, drift=None),
                observability=False,
            ),
        )
        report = service.run()
        assert report.series is None
        assert report.health is None
        assert report.drift_events == 0


@pytest.mark.skipif(not native_available(),
                    reason="no C compiler / native engine disabled")
class TestEngineReport:
    """``obs report`` names the engine that ran the managed loops."""

    def test_clean_run_is_native(self, clean_run):
        _, _, telemetry = clean_run
        report = RunReport.from_telemetry(telemetry)
        engines = report.counter_by_label("sim.batch_accesses", "engine")
        assert engines.get("native", 0) > 0
        assert engines.get("scalar", 0) == 0
        text = report.render()
        assert re.search(
            r"simulation engine: native [1-9][0-9]*, scalar 0 accesses; "
            r"fallbacks: none", text)
        assert re.search(r"pmu channel engine: native [0-9]+ probes?$",
                         text, re.MULTILINE)

    def test_probe_faults_run_scalar_as_observer_fallbacks(
            self, tiny_machine):
        dynamic = dataclasses.replace(
            _dynamic(tiny_machine, drift=None),
            fault_plan=FaultPlan.parse("all", seed=0),
        )
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            FleetService(
                tiny_machine,
                [make_workload(name, tiny_machine) for name in MEMBERS],
                FleetConfig(num_domains=2, ticks=TICKS, dynamic=dynamic),
            ).run()
        report = RunReport.from_telemetry(telemetry)
        fallbacks = report.counter_by_label("sim.batch_fallbacks", "reason")
        assert set(fallbacks) == {"observer"}
        engines = report.counter_by_label("sim.batch_accesses", "engine")
        assert engines.get("scalar", 0) > 0
        assert engines.get("native", 0) > 0
        assert f"fallbacks: observer={fallbacks['observer']}" in report.render()
