"""Tests for the deterministic fault-injection harness."""

import pytest

from repro.pmu.sampling import TraceCollector
from repro.reliability.faults import (
    FAULT_KINDS,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyTraceCollector,
    ServiceFaultKind,
    ServiceFaultPlan,
    ServiceFaultSpec,
    wrap_collector,
)
from repro.sim.hierarchy import AccessResult


def miss(line):
    return AccessResult(core=0, line=line, l1_hit=False, l2_hit=True)


def clean_collector(capacity=200):
    return TraceCollector(log_capacity=capacity, drop_probability=0.0)


def drive(collector, lines, instructions_per=10):
    for line in lines:
        if collector.done:
            break
        collector.observe(miss(line))
    collector.observe_instructions(instructions_per * len(lines))
    return collector.finish()


class TestFaultSpec:
    def test_default_rate_filled_in(self):
        spec = FaultSpec(FaultKind.CORRUPT_SDAR)
        assert spec.rate == 0.25

    @pytest.mark.parametrize("rate", [-0.1, 1.5, 2.0])
    def test_out_of_range_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.TRUNCATE_LOG, rate)

    def test_describe(self):
        assert FaultSpec(FaultKind.PHASE_SHIFT, 0.4).describe() == "phase-shift:0.4"


class TestFaultPlan:
    def test_duplicate_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(specs=(
                FaultSpec(FaultKind.CORRUPT_SDAR),
                FaultSpec(FaultKind.CORRUPT_SDAR, 0.5),
            ))

    def test_parse_single_and_rated(self):
        plan = FaultPlan.parse("corrupt-sdar,truncate-log:0.4", seed=9)
        assert plan.seed == 9
        assert plan.spec_for(FaultKind.CORRUPT_SDAR).rate == 0.25
        assert plan.spec_for(FaultKind.TRUNCATE_LOG).rate == 0.4
        assert plan.spec_for(FaultKind.PHASE_SHIFT) is None

    def test_parse_all_expands_every_kind(self):
        plan = FaultPlan.parse("all")
        assert len(plan.specs) == len(FAULT_KINDS)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("no-such-fault")
        with pytest.raises(ValueError):
            FaultPlan.parse("all:0.5")
        with pytest.raises(ValueError):
            FaultPlan.parse("   ")

    def test_rng_scoped_by_salt(self):
        plan = FaultPlan(seed=1)
        assert plan.rng("a").random() == plan.rng("a").random()
        assert plan.rng("a").random() != plan.rng("b").random()

    def test_describe(self):
        assert FaultPlan().describe() == "no faults"
        text = FaultPlan.parse("lost-exceptions:0.5").describe()
        assert text == "lost-exceptions:0.5"


class TestDeterminism:
    def test_same_plan_same_stream_same_log(self):
        lines = [i % 37 for i in range(400)]
        plan = FaultPlan.parse("all", seed=42)
        first = drive(FaultyTraceCollector(clean_collector(), plan, "s"), lines)
        second = drive(FaultyTraceCollector(clean_collector(), plan, "s"), lines)
        assert first.entries.tolist() == second.entries.tolist()
        assert first.dropped_events == second.dropped_events

    def test_different_seed_different_injection(self):
        lines = [i % 37 for i in range(400)]
        a = drive(FaultyTraceCollector(
            clean_collector(), FaultPlan.parse("corrupt-sdar", seed=1), "s",
        ), lines)
        b = drive(FaultyTraceCollector(
            clean_collector(), FaultPlan.parse("corrupt-sdar", seed=2), "s",
        ), lines)
        assert a.entries.tolist() != b.entries.tolist()

    def test_anchor_corruption_deterministic(self):
        plan = FaultPlan.parse("garbage-anchor", seed=5)
        assert plan.corrupt_anchor(12.0, "x") == plan.corrupt_anchor(12.0, "x")


class TestCorruptSdar:
    def test_garbage_lines_reach_the_log(self):
        plan = FaultPlan.parse("corrupt-sdar:0.5", seed=0)
        wrapped = FaultyTraceCollector(clean_collector(), plan)
        trace = drive(wrapped, [i % 29 for i in range(400)])
        garbage = [line for line in trace.entries if line >= 1 << 32]
        assert wrapped.report.corrupted_entries > 0
        assert garbage, "48-bit garbage addresses must land in the log"


class TestTruncateLog:
    def test_probe_ends_with_partial_log(self):
        plan = FaultPlan.parse("truncate-log:0.3", seed=0)
        wrapped = FaultyTraceCollector(clean_collector(200), plan)
        trace = drive(wrapped, range(1000))
        assert wrapped.report.truncated
        assert wrapped.done
        # The channel died at ~30% fill; nothing after gets logged.
        assert len(trace.entries) == pytest.approx(60, abs=2)


class TestLostExceptions:
    def test_all_samples_swallowed_at_rate_one(self):
        plan = FaultPlan.parse("lost-exceptions:1.0", seed=0)
        wrapped = FaultyTraceCollector(clean_collector(), plan)
        trace = drive(wrapped, range(150))
        assert wrapped.report.lost_exceptions == 150
        assert len(trace.entries) == 0
        # The PMC still counted the misses: the channel's statistics
        # admit to the loss, which is what the drop gate audits.
        assert trace.l1d_misses == 150
        assert trace.dropped_events == 150
        assert trace.drop_fraction() == 1.0

    def test_partial_loss_raises_drop_fraction(self):
        plan = FaultPlan.parse("lost-exceptions:0.5", seed=0)
        wrapped = FaultyTraceCollector(clean_collector(1000), plan)
        trace = drive(wrapped, range(600))
        lost = wrapped.report.lost_exceptions
        assert 0 < lost < 600
        assert trace.drop_fraction() == pytest.approx(lost / 600, abs=0.01)


class TestPhaseShift:
    def test_lines_relocate_after_trigger(self):
        plan = FaultPlan.parse("phase-shift:0.5", seed=0)
        wrapped = FaultyTraceCollector(clean_collector(100), plan)
        trace = drive(wrapped, [i % 10 for i in range(200)])
        assert wrapped.report.phase_shifted
        offset = FaultyTraceCollector.PHASE_OFFSET
        shifted = [line for line in trace.entries if line >= offset]
        native = [line for line in trace.entries if line < offset]
        assert shifted and native, "the log must mix both working sets"
        # Relocation preserves structure: shifted lines are old lines
        # moved wholesale into a disjoint region.
        assert {line - offset for line in shifted} <= set(range(10))


class TestWrapCollector:
    def test_none_plan_is_passthrough(self):
        inner = clean_collector()
        assert wrap_collector(inner, None) is inner
        assert wrap_collector(inner, FaultPlan()) is inner

    def test_active_plan_wraps(self):
        wrapped = wrap_collector(clean_collector(), FaultPlan.parse("all"))
        assert isinstance(wrapped, FaultyTraceCollector)

    def test_wrapper_mirrors_inner_interface(self):
        inner = clean_collector(50)
        wrapped = wrap_collector(inner, FaultPlan.parse("corrupt-sdar"))
        wrapped.observe(miss(3))
        wrapped.observe_instructions(10)
        assert wrapped.instructions == inner.instructions == 10
        assert wrapped.exceptions == inner.exceptions
        assert wrapped.log is inner.log


class TestServiceFaultSpec:
    def test_windowed_kinds_need_a_duration(self):
        with pytest.raises(ValueError):
            ServiceFaultSpec(ServiceFaultKind.DOMAIN_BLACKOUT)
        with pytest.raises(ValueError):
            ServiceFaultSpec(ServiceFaultKind.BUDGET_STORM)

    def test_window_bounds(self):
        spec = ServiceFaultSpec(
            ServiceFaultKind.DOMAIN_BLACKOUT,
            start_tick=8, duration_ticks=6, domain=0,
        )
        assert not spec.active(7)
        assert spec.active(8)
        assert spec.active(13)
        assert not spec.active(14)
        assert spec.end_tick == 14

    @pytest.mark.parametrize("kwargs", [
        {"start_tick": -1, "duration_ticks": 1},
        {"duration_ticks": -1},
        {"duration_ticks": 1, "magnitude": 0},
    ])
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServiceFaultSpec(ServiceFaultKind.BUDGET_STORM, **kwargs)


class TestServiceFaultPlan:
    def test_blackout_targets_one_domain(self):
        plan = ServiceFaultPlan.parse("domain-blackout:1@4+3")
        assert plan.blackout_active(1, 5)
        assert not plan.blackout_active(0, 5)
        assert not plan.blackout_active(1, 7)

    def test_wildcard_blackout_hits_every_domain(self):
        plan = ServiceFaultPlan.parse("domain-blackout:*@4+3")
        assert plan.blackout_active(0, 4)
        assert plan.blackout_active(7, 4)

    def test_storm_window(self):
        plan = ServiceFaultPlan.parse("budget-storm@2+2")
        assert not plan.storm_active(1)
        assert plan.storm_active(2)
        assert plan.storm_active(3)
        assert not plan.storm_active(4)

    def test_churn_transform_magnitudes(self):
        plan = ServiceFaultPlan.parse("churn-delay:3,churn-duplicate:5")
        assert plan.churn_delay_ticks() == 3
        assert plan.churn_duplicate_offset() == 5
        assert ServiceFaultPlan().churn_duplicate_offset() is None
        assert ServiceFaultPlan().churn_delay_ticks() == 0

    def test_all_is_the_canonical_chaos_mix(self):
        plan = ServiceFaultPlan.parse("all")
        kinds = {spec.kind for spec in plan.specs}
        assert kinds == set(ServiceFaultKind)
        # Every windowed fault has ended by the clear tick.
        clear = plan.clear_tick()
        assert clear == 23
        assert not plan.storm_active(clear)
        assert not plan.blackout_active(0, clear)

    def test_describe_roundtrips_through_parse(self):
        text = "domain-blackout:0@8+6,budget-storm@18+5,churn-delay:2"
        assert ServiceFaultPlan.parse(text).describe() == text

    @pytest.mark.parametrize("text", [
        "", "warp-core-breach", "domain-blackout", "domain-blackout:0@5",
        "churn-delay@3+1",
    ])
    def test_parse_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError):
            ServiceFaultPlan.parse(text)
