"""Tests for the fleet partition service: placement, churn, fault windows."""

from dataclasses import replace

import pytest

from repro.core.rapidmrc import ProbeConfig
from repro.fleet.budget import BudgetConfig
from repro.fleet.churn import ChurnSchedule
from repro.fleet.service import FleetConfig, FleetReport, FleetService
from repro.reliability.faults import ServiceFaultPlan
from repro.runner.dynamic import DynamicPartitionManager
from repro.workloads import make_workload
from repro.workloads.patterns import LoopingScan, RandomWorkingSet
from repro.workloads.phased import Phase, PhasedWorkload

#: Probe outcomes that close a budget reservation.
TERMINAL_OUTCOMES = {"admitted", "rejected", "deadline", "invalidated", "aborted"}


def run_fleet(machine, workloads, dynamic, ticks=12, churn=None,
              fault_plan=None, pool=None, **config_kwargs):
    config = FleetConfig(
        num_domains=2, ticks=ticks, dynamic=dynamic, **config_kwargs,
    )
    service = FleetService(
        machine, workloads, config,
        churn=churn, fault_plan=fault_plan, pool=pool,
    )
    return service.run()


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"num_domains": 0},
        {"ticks": 0},
        {"tick_accesses": 0},
        {"warmup_accesses": -1},
        {"blackout_degrade_after_ticks": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FleetConfig(**kwargs)

    def test_tick_accesses_derived_from_machine(self, tiny_machine):
        assert FleetConfig().resolved_tick_accesses(tiny_machine) == (
            8 * tiny_machine.l2_lines
        )
        assert FleetConfig(tick_accesses=999).resolved_tick_accesses(
            tiny_machine
        ) == 999

    def test_budget_defaults_to_two_deadlines(self, tiny_machine, fast_dynamic):
        config = FleetConfig(dynamic=fast_dynamic)
        deadline = fast_dynamic.reliability.deadline_accesses(1500)
        assert config.resolved_budget(tiny_machine).capacity_accesses == (
            2 * deadline
        )


class TestConstruction:
    def test_duplicate_names_rejected(self, tiny_machine, fast_dynamic):
        twins = [make_workload("gzip", tiny_machine) for _ in range(2)]
        with pytest.raises(ValueError):
            FleetService(tiny_machine, twins, FleetConfig(dynamic=fast_dynamic))

    def test_empty_fleet_rejected(self, tiny_machine, fast_dynamic):
        with pytest.raises(ValueError):
            FleetService(tiny_machine, [], FleetConfig(dynamic=fast_dynamic))


class TestSteadyState:
    def test_members_spread_across_domains(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip", "mcf", "art", "swim"),
            fast_dynamic,
        )
        assert sorted(len(members) for members in report.assignments) == [2, 2]
        placed = sorted(n for members in report.assignments for n in members)
        assert placed == ["art", "gzip", "mcf", "swim"]

    def test_every_domain_fully_allocates_its_colors(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip", "mcf", "art", "swim"),
            fast_dynamic,
        )
        for members in report.assignments:
            held = sum(report.final_counts[name] for name in members)
            assert held == tiny_machine.num_colors

    def test_decisions_recorded_with_rungs(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip", "mcf"), fast_dynamic,
        )
        decisions = list(report.all_decisions())
        assert decisions, "a healthy run must make partition decisions"
        assert any(d.mode == "optimized" for d in decisions)
        for decision in decisions:
            assert len(decision.rungs) == len(decision.counts)

    def test_breakers_stay_closed_without_faults(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip", "mcf", "art", "swim"),
            fast_dynamic,
        )
        assert report.quarantines == 0
        for stats in report.breaker_stats.values():
            assert stats["state"] == "closed"
            assert stats["opens"] == 0


class TestChurn:
    def test_join_and_crash_rerun_placement(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        pool = {"equake": make_workload("equake", tiny_machine)}
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip", "mcf", "art"), fast_dynamic,
            ticks=14,
            churn=ChurnSchedule.parse("join:equake@4,crash:mcf@9"),
            pool=pool,
        )
        assert report.churn_applied == 2
        placed = sorted(n for members in report.assignments for n in members)
        assert placed == ["art", "equake", "gzip"]
        # Each applied churn event re-ran placement (initial + 2).
        assert len(report.placements) == 3
        assert report.events_of_kind("rebuild")

    def test_duplicate_and_unknown_churn_ignored(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        # The same join delivered twice plus a leave for a non-member:
        # at-least-once delivery must be harmless.
        pool = {"equake": make_workload("equake", tiny_machine)}
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip", "mcf"), fast_dynamic,
            ticks=14,
            churn=ChurnSchedule.parse(
                "join:equake@4,join:equake@6,leave:swim@8"
            ),
            pool=pool,
        )
        assert report.churn_applied == 1
        assert report.churn_ignored == 2
        ignored = report.events_of_kind("churn-ignored")
        assert len(ignored) == 2

    def test_fleet_can_churn_to_empty_and_back(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        pool = {"art": make_workload("art", tiny_machine)}
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip"), fast_dynamic,
            ticks=12,
            churn=ChurnSchedule.parse("leave:gzip@3,join:art@7"),
            pool=pool,
        )
        assert report.churn_applied == 2
        placed = [n for members in report.assignments for n in members]
        assert placed == ["art"]


def phased(machine):
    """Alternates working sets every ~2 fleet ticks, so probes are
    pending (and deniable) inside any multi-tick fault window."""
    lines = machine.l2_lines
    return PhasedWorkload(
        "phased",
        [
            Phase(RandomWorkingSet(machine.l2_size), 16 * lines, "big"),
            Phase(LoopingScan(32 * 128), 16 * lines, "small"),
        ],
        instructions_per_access=10,
        store_fraction=0.0,
    )


class TestFaultWindows:
    def test_blackout_parks_and_then_repairs_the_domain(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        plan = ServiceFaultPlan.parse("domain-blackout:*@2+4")
        report = run_fleet(
            tiny_machine,
            [phased(tiny_machine)] + fleet_workloads("gzip", "mcf", "swim"),
            fast_dynamic, ticks=14, fault_plan=plan,
        )
        starts = report.events_of_kind("blackout-start")
        ends = report.events_of_kind("blackout-end")
        assert [e.tick for e in starts] == [2, 2]
        assert [e.tick for e in ends] == [6, 6]
        assert {e.domain for e in starts} == {0, 1}
        # The dark domain was forced onto the ladder rather than left
        # waiting on a probe the PMU cannot serve...
        assert report.events_of_kind("degrade-forced")
        # ...and fresh probes were solicited the moment it ended.
        solicited = report.events_of_kind("probe-solicited")
        assert solicited and all(e.tick == 6 for e in solicited)
        # A blackout is not a probe failure: the breaker never tripped.
        assert report.quarantines == 0

    def test_storm_drains_the_budget_each_tick(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        plan = ServiceFaultPlan.parse("budget-storm@1+3")
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip", "mcf"), fast_dynamic,
            ticks=8, fault_plan=plan,
        )
        storms = report.events_of_kind("storm")
        assert [e.tick for e in storms] == [1]
        assert report.budget_stats["storm_drains"] >= 1

    def test_starved_budget_denies_probes_but_keeps_deciding(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip", "mcf", "art", "swim"),
            fast_dynamic, ticks=10,
            budget=BudgetConfig(
                capacity_accesses=1, refill_accesses_per_tick=0,
                aging_discount_per_denial=0.0,
            ),
        )
        assert report.budget_stats["denied"] > 0
        assert report.budget_stats["admitted"] == 0
        denials = sum(
            r.probe_gate_denials
            for reports in report.domain_reports.values() for r in reports
        )
        assert denials > 0
        # With no probe ever admitted nobody has a curve, so nothing is
        # optimized -- but the fleet stayed up on its uniform splits.
        assert not any(
            d.mode == "optimized" for d in report.all_decisions()
        )
        for members in report.assignments:
            held = sum(report.final_counts[name] for name in members)
            assert held == tiny_machine.num_colors


class TestReport:
    def test_canonical_grouping_ignores_domain_labels(self):
        def make_report(assignments):
            return FleetReport(
                ticks_run=1,
                assignments=assignments,
                final_counts={"a": 10, "b": 6, "c": 9, "d": 7},
                events=[], placements=[], domain_reports={},
                budget_stats={}, breaker_stats={}, rungs_served={},
            )

        left = make_report((("a", "b"), ("c", "d")))
        right = make_report((("c", "d"), ("a", "b")))
        assert left.canonical_grouping() == right.canonical_grouping()
        moved = make_report((("a", "c"), ("b", "d")))
        assert left.canonical_grouping() != moved.canonical_grouping()

    def test_final_placement_maps_members_to_domains(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip", "mcf"), fast_dynamic,
            ticks=8,
        )
        placement = report.final_placement()
        assert set(placement) == {"gzip", "mcf"}
        for name, (domain, colors) in placement.items():
            assert name in report.assignments[domain]
            assert colors == report.final_counts[name]


class TestBudgetLedger:
    @pytest.mark.parametrize("probe", [
        ProbeConfig(log_entries=1500),
        ProbeConfig(log_entries=1500, stack_engine="shards", sampling_rate=0.1),
    ], ids=["batch", "shards"])
    def test_ledger_books_the_accesses_probes_really_consumed(
        self, tiny_machine, fast_dynamic, fleet_workloads, monkeypatch, probe
    ):
        # Conservation on a schedule without domain rebuilds: every
        # settled probe's real consumption is booked exactly once, and
        # the in-flight reservations are still outstanding at the end.
        real = []
        notify = DynamicPartitionManager._notify

        def spy(manager, outcome):
            if outcome.kind in TERMINAL_OUTCOMES:
                managed = manager.managed[outcome.pid]
                real.append(
                    managed.process.accesses - managed.probe_accesses_start
                )
            notify(manager, outcome)

        monkeypatch.setattr(DynamicPartitionManager, "_notify", spy)
        dynamic = replace(fast_dynamic, probe=probe)
        deadline = dynamic.reliability.deadline_accesses(1500)
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip", "mcf", "art", "swim"),
            dynamic, ticks=10,
            budget=BudgetConfig(capacity_accesses=2 * deadline),
        )
        assert not report.events_of_kind("rebuild")
        stats = report.budget_stats
        booked = (
            stats["charged"] - stats["refunded"] + stats["overrun"]
            - stats["outstanding"]
        )
        assert real and booked == sum(real)

    def test_starved_budget_admits_nothing(
        self, tiny_machine, fast_dynamic, fleet_workloads
    ):
        report = run_fleet(
            tiny_machine, fleet_workloads("gzip", "mcf"), fast_dynamic,
            ticks=6,
            budget=BudgetConfig(
                capacity_accesses=1, refill_accesses_per_tick=0,
                aging_discount_per_denial=0.0,
            ),
        )
        managers = [
            r for reports in report.domain_reports.values() for r in reports
        ]
        assert report.budget_stats["admitted"] == 0
        assert sum(r.probe_gate_denials for r in managers) > 0
