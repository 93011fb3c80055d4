"""Tests for the RapidMRC calculation engine (paper Section 3.2)."""

import random

import pytest

from repro.core.rapidmrc import ProbeConfig, RapidMRC, RapidMRCResult
from repro.core.warmup import HybridWarmup, NoWarmup, StaticWarmup
from repro.sim.machine import MachineConfig


@pytest.fixture(scope="module")
def machine():
    return MachineConfig.scaled(32)  # L2 = 480 lines, 30 lines/color


def looping_trace(lines, repeats, start=0):
    """A loop over `lines` distinct lines, `repeats` times."""
    return [start + i for i in range(lines)] * repeats


class TestProbeConfig:
    def test_default_log_size_is_ten_x_stack(self, machine):
        assert ProbeConfig().resolved_log_entries(machine) == 10 * machine.l2_lines

    def test_explicit_log_size(self, machine):
        assert ProbeConfig(log_entries=123).resolved_log_entries(machine) == 123

    def test_invalid_log_size(self, machine):
        with pytest.raises(ValueError):
            ProbeConfig(log_entries=0).resolved_log_entries(machine)

    def test_warmup_specs(self):
        assert isinstance(ProbeConfig(warmup="none").make_warmup(100), NoWarmup)
        static = ProbeConfig(warmup="static").make_warmup(100)
        assert isinstance(static, StaticWarmup) and static.entries == 50
        hybrid = ProbeConfig(warmup="hybrid").make_warmup(100)
        assert isinstance(hybrid, HybridWarmup) and hybrid.fallback_entries == 50
        explicit = ProbeConfig(warmup=7).make_warmup(100)
        assert isinstance(explicit, StaticWarmup) and explicit.entries == 7

    def test_unknown_warmup_rejected(self):
        with pytest.raises(ValueError):
            ProbeConfig(warmup="bogus").make_warmup(100)


class TestCompute:
    def test_loop_smaller_than_one_color_yields_zero_mrc(self, machine):
        engine = RapidMRC(machine, ProbeConfig(warmup="static"))
        trace = looping_trace(machine.lines_per_color // 2, 40)
        result = engine.compute(trace, instructions=len(trace) * 50)
        # Every post-warmup access hits within one color's worth of lines.
        assert all(v == pytest.approx(0.0) for _s, v in result.mrc)

    def test_loop_spanning_half_the_cache_steps_at_half(self, machine):
        engine = RapidMRC(machine, ProbeConfig(warmup="static",
                                               correct_prefetch_repetitions=False))
        loop_lines = 8 * machine.lines_per_color  # needs exactly 8 colors
        trace = looping_trace(loop_lines, 12)
        result = engine.compute(trace, instructions=len(trace) * 50)
        mrc = result.mrc
        # Below 8 colors: every access misses; at >= 8 colors: all hit.
        assert mrc[7] > 0
        assert mrc[8] == pytest.approx(0.0)
        assert mrc[16] == pytest.approx(0.0)

    def test_streaming_trace_is_flat_at_max(self, machine):
        engine = RapidMRC(machine, ProbeConfig(warmup="static",
                                               correct_prefetch_repetitions=False))
        trace = list(range(10 * machine.l2_lines))  # never reuse
        result = engine.compute(trace, instructions=len(trace) * 50)
        values = [v for _s, v in result.mrc]
        assert max(values) - min(values) == pytest.approx(0.0)
        assert values[0] > 0

    def test_instructions_must_be_positive(self, machine):
        with pytest.raises(ValueError):
            RapidMRC(machine).compute([1, 2, 3], instructions=0)

    def test_stack_hit_rate_reported(self, machine):
        engine = RapidMRC(machine, ProbeConfig(warmup="none"))
        trace = looping_trace(10, 100)
        result = engine.compute(trace, instructions=10_000)
        # 10 distinct lines, everything else re-hits the stack.
        assert result.stack_hit_rate == pytest.approx(990 / 1000)

    def test_correction_statistics_flow_through(self, machine):
        engine = RapidMRC(machine, ProbeConfig(warmup="none"))
        trace = [5, 5, 5, 9]
        result = engine.compute(trace, instructions=100)
        assert result.correction is not None
        assert result.prefetch_conversion_fraction == pytest.approx(0.5)

    def test_correction_can_be_disabled(self, machine):
        engine = RapidMRC(
            machine, ProbeConfig(correct_prefetch_repetitions=False)
        )
        result = engine.compute([5, 5, 5], instructions=100)
        assert result.correction is None
        assert result.prefetch_conversion_fraction == 0.0

    def test_warmup_fraction_reported(self, machine):
        engine = RapidMRC(machine, ProbeConfig(warmup="static"))
        trace = looping_trace(20, 10)
        result = engine.compute(trace, instructions=10_000)
        assert result.warmup_fraction == pytest.approx(0.5)

    def test_engines_agree(self, machine, range_list_reference):
        trace = [random.Random(3).randrange(2000) for _ in range(4000)]
        engine = RapidMRC(machine, ProbeConfig(warmup="static"))
        got = engine.compute(trace, instructions=100_000)
        want = range_list_reference(machine, trace, 100_000, warmup="static")
        assert got.histogram == want.histogram
        assert dict(got.mrc) == dict(want.mrc)

    def test_only_batch_or_estimators_accepted(self):
        for engine in ("rangelist", "naive", "btree"):
            with pytest.raises(ValueError, match="batch, shards"):
                ProbeConfig(stack_engine=engine)
        assert ProbeConfig().stack_engine == "batch"


class TestCalibration:
    def test_calibrate_sets_anchor(self, machine):
        engine = RapidMRC(machine, ProbeConfig(warmup="none"))
        trace = [random.Random(0).randrange(1000) for _ in range(3000)]
        result = engine.compute(trace, instructions=60_000)
        matched = result.calibrate(anchor_color=8, measured_mpki=12.5)
        assert matched.value_at(8) == pytest.approx(12.5)
        assert result.vertical_shift == pytest.approx(
            12.5 - result.mrc.value_at(8)
        )
        assert result.best_mrc is matched

    def test_best_mrc_before_calibration_is_raw(self, machine):
        engine = RapidMRC(machine, ProbeConfig(warmup="none"))
        result = engine.compute([1, 2, 3], instructions=100)
        assert result.best_mrc is result.mrc

    def test_compute_calibrated_one_shot(self, machine):
        engine = RapidMRC(machine, ProbeConfig(warmup="none", anchor_color=4))
        trace = [random.Random(1).randrange(1000) for _ in range(3000)]
        result = engine.compute_calibrated(
            trace, instructions=60_000, measured_anchor_mpki=9.0
        )
        assert result.calibrated_mrc is not None
        assert result.calibrated_mrc.value_at(4) == pytest.approx(9.0)
