"""The deterministic chaos harness (the PR's acceptance gate).

Two fixed scenarios split the cardinal invariants by what can be
observed under each fault regime:

* The **chaos scenario** layers every failure axis at once -- a PMU
  blackout on domain 0, a budget storm, delayed + duplicated churn
  delivery, and per-probe fault injection at a fixed seed -- and
  asserts the fleet degrades but never lies:

  1. **No garbage decisions**: an ``optimized`` partition decision is
     never made while any participant sits on the ``uniform-split``
     rung (i.e. has no usable curve); a domain with a blind process
     falls back to the even split instead of sizing partitions around
     a hole.
  2. **Quarantine degrades, never stalls**: tripped domains keep
     serving decisions from the ladder, and the probe-free
     ``ANALYTIC_ESTIMATE`` rung is exercised alongside the flat
     anchor.

  Probe faults are stationary (they never clear), so this scenario
  cannot end healthy -- which is exactly why reconvergence gets its
  own scenario.

* The **recovery scenario** injects only the *windowed* service
  faults, all of which clear mid-run, and asserts:

  3. **Reconvergence**: once every fault window has passed, periodic
     re-placement steers the faulted run back to the fault-free run's
     placement (same co-residency groups, up to domain relabeling)
     with every breaker closed.

Everything is deterministic (scheduled fault windows, seeded probe
faults), so a failure here replays bit-for-bit.
"""

import dataclasses

import pytest

from repro.core.analytic import AnalyticConfig
from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig
from repro.fleet.churn import ChurnSchedule
from repro.fleet.service import FleetConfig, FleetService
from repro.reliability.faults import FaultPlan, ServiceFaultPlan
from repro.reliability.supervisor import DegradationRung
from repro.runner.dynamic import DynamicConfig
from repro.workloads import make_workload

MEMBERS = ("gzip", "mcf", "art", "swim")
POOL = ("equake",)
CHURN = "join:equake@5,crash:mcf@10"
# Every fault window sits inside the run: blackout over ticks [4, 8),
# storm over [9, 11), churn delivered 2 ticks late and duplicated
# 3 ticks after that.  clear_tick() == 11.
SERVICE_PLAN = (
    "domain-blackout:0@4+4,budget-storm@9+2,churn-delay:2,churn-duplicate:3"
)
CHAOS_TICKS = 16
RECOVERY_TICKS = 20

LADDER_RUNGS = {rung.value for rung in DegradationRung}
FALLBACK_RUNGS = {
    DegradationRung.LAST_KNOWN_GOOD.value,
    DegradationRung.ANALYTIC_ESTIMATE.value,
    DegradationRung.ANCHOR_FLAT.value,
}


def run_scenario(machine, *, probe_faults: bool, service_faults: bool,
                 ticks: int, replace_every=None):
    dynamic = DynamicConfig(
        interval_instructions=8 * machine.l2_lines,
        probe=ProbeConfig(log_entries=1500),
        probe_cooldown_intervals=1,
        detector=PhaseDetectorConfig(threshold_mpki=15.0),
        fault_plan=FaultPlan.parse("all", seed=0) if probe_faults else None,
        # A wide monitoring window keeps samples from the pre-churn
        # partition sizes alive, so the power-law fit has two distinct
        # sizes to work with when the ladder asks for it.
        analytic=AnalyticConfig(max_samples=512),
    )
    service = FleetService(
        machine,
        [make_workload(name, machine) for name in MEMBERS],
        FleetConfig(
            num_domains=2, ticks=ticks, dynamic=dynamic,
            replace_every_ticks=replace_every,
        ),
        churn=ChurnSchedule.parse(CHURN),
        fault_plan=(
            ServiceFaultPlan.parse(SERVICE_PLAN) if service_faults else None
        ),
        pool={name: make_workload(name, machine) for name in POOL},
    )
    return service.run()


@pytest.fixture(scope="module")
def chaos_report(tiny_machine):
    """All fault axes at once; probe faults never clear."""
    return run_scenario(
        tiny_machine, probe_faults=True, service_faults=True,
        ticks=CHAOS_TICKS,
    )


@pytest.fixture(scope="module")
def recovery_report(tiny_machine):
    """Windowed service faults only -- everything clears by tick 11."""
    return run_scenario(
        tiny_machine, probe_faults=False, service_faults=True,
        ticks=RECOVERY_TICKS, replace_every=4,
    )


@pytest.fixture(scope="module")
def calm_report(tiny_machine):
    """The fault-free twin of the recovery scenario."""
    return run_scenario(
        tiny_machine, probe_faults=False, service_faults=False,
        ticks=RECOVERY_TICKS, replace_every=4,
    )


class TestChaosScenario:
    def test_faults_actually_fired(self, chaos_report):
        # The scenario is only evidence if every axis triggered.
        assert chaos_report.events_of_kind("blackout-start")
        assert chaos_report.events_of_kind("storm")
        assert chaos_report.quarantines >= 1
        assert chaos_report.budget_stats["storm_drains"] >= 1
        # The duplicated churn deliveries were recognised and ignored.
        assert chaos_report.churn_ignored >= 1
        assert chaos_report.churn_applied == 2

    def test_no_optimized_decision_from_a_blind_process(self, chaos_report):
        decisions = list(chaos_report.all_decisions())
        assert decisions, "the fleet must keep deciding under chaos"
        for decision in decisions:
            assert set(decision.rungs) <= LADDER_RUNGS
            if decision.mode == "optimized":
                assert DegradationRung.UNIFORM_SPLIT.value not in decision.rungs, (
                    f"optimized decision used a process with no curve: "
                    f"{decision}"
                )

    def test_quarantined_domains_serve_ladder_fallbacks(self, chaos_report):
        served = set(chaos_report.rungs_served)
        assert served & FALLBACK_RUNGS, (
            f"quarantine must serve ladder curves, got {served!r}"
        )
        # The probe-free rung between last-known-good and the flat
        # anchor is exercised by this scenario.
        assert DegradationRung.ANALYTIC_ESTIMATE.value in served
        assert chaos_report.analytic_stats["fits"] >= 1

    def test_chaos_run_is_deterministic(self, tiny_machine, chaos_report):
        again = run_scenario(
            tiny_machine, probe_faults=True, service_faults=True,
            ticks=CHAOS_TICKS,
        )
        assert again.canonical_grouping() == chaos_report.canonical_grouping()
        assert again.quarantines == chaos_report.quarantines
        assert [
            (e.tick, e.kind, e.domain) for e in again.events
        ] == [
            (e.tick, e.kind, e.domain) for e in chaos_report.events
        ]


class TestRecoveryScenario:
    def test_fault_windows_clear_inside_the_run(self):
        clear = ServiceFaultPlan.parse(SERVICE_PLAN).clear_tick()
        assert clear < RECOVERY_TICKS, (
            "scenario must leave room to reconverge"
        )

    def test_faulted_placement_matches_fault_free(
        self, recovery_report, calm_report
    ):
        # Co-residency only: the pool workloads' access streams keep
        # advancing across rebuilds, so exact color counts may differ
        # by a few colors between the runs even at the same placement.
        assert recovery_report.placement_groups() == (
            calm_report.placement_groups()
        )

    def test_breakers_end_closed(self, recovery_report):
        for stats in recovery_report.breaker_stats.values():
            assert stats["state"] == "closed", stats

    def test_faults_fired_before_recovery(self, recovery_report):
        assert recovery_report.events_of_kind("blackout-start")
        assert recovery_report.events_of_kind("blackout-end")
        assert recovery_report.events_of_kind("storm")
        assert recovery_report.churn_applied == 2

    def test_calm_run_never_degrades(self, calm_report):
        assert calm_report.quarantines == 0
        for stats in calm_report.breaker_stats.values():
            assert stats["opens"] == 0


#: Each scenario fixture and the arguments that rebuild it.
SCENARIOS = {
    "chaos_report": dict(probe_faults=True, service_faults=True,
                         ticks=CHAOS_TICKS),
    "recovery_report": dict(probe_faults=False, service_faults=True,
                            ticks=RECOVERY_TICKS, replace_every=4),
    "calm_report": dict(probe_faults=False, service_faults=False,
                        ticks=RECOVERY_TICKS, replace_every=4),
}


class TestEngineParity:
    """The managed loops run native legs between hook accesses (and the
    scalar heap around fault-wrapped probes); the scalar heap alone,
    under ``REPRO_NATIVE=0``, must produce the identical fleet run."""

    @pytest.mark.parametrize("fixture", sorted(SCENARIOS))
    def test_native_equals_scalar(self, fixture, tiny_machine, request,
                                  monkeypatch):
        native = request.getfixturevalue(fixture)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        scalar = run_scenario(tiny_machine, **SCENARIOS[fixture])
        assert scalar.placement_groups() == native.placement_groups()
        assert scalar.budget_stats == native.budget_stats
        assert dataclasses.asdict(scalar) == dataclasses.asdict(native)
