"""Tests for the sub-linear MRC estimator backend (SHARDS).

The per-access range-list reference is the executable specification:
at sampling rate 1.0 SHARDS must reproduce its boundary-quantized
histogram bit for bit, and at realistic rates it must stay within a
small MPKI envelope of the exact curve while tracking an order of
magnitude fewer entries.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.estimators import (
    ESTIMATORS,
    EstimatorConfig,
    ShardsEstimator,
    is_estimator,
    make_estimator,
    _MASK64,
    _mix64,
    _prefilter,
    _TWO64,
)
from repro.core.rapidmrc import ProbeConfig, RapidMRC
from repro.core.stack import RangeListLRUStack, reference_histogram
from repro.core.warmup import HybridWarmup, NoWarmup, StaticWarmup
from repro.reliability.quality import assess_probe
from repro.sim.machine import MachineConfig

MACHINE = MachineConfig.scaled(16)  # 960 L2 lines, 16 colors
BOUNDS = MACHINE.color_sizes_in_lines()
DEPTH = MACHINE.l2_lines


def mixed_trace(n, num_lines, seed=0):
    """Hot-set reuse plus a long cold tail: curved MRC, some cold misses."""
    rng = random.Random(seed)
    hot = max(1, num_lines // 2)
    trace = []
    for _ in range(n):
        if rng.random() < 0.6:
            trace.append(rng.randrange(hot))
        else:
            trace.append(hot + rng.randrange(8 * num_lines))
    return trace


def exact_histogram(trace, warmup=None):
    stack = RangeListLRUStack(DEPTH, boundaries=BOUNDS)
    return reference_histogram(stack, trace, warmup=warmup)


def curve_values(result):
    return [result.mrc.value_at(c) for c in range(1, MACHINE.num_colors + 1)]


class TestRegistry:
    def test_registry_names(self):
        assert set(ESTIMATORS) == {"shards"}

    @pytest.mark.parametrize("name", ["shards"])
    def test_is_estimator(self, name):
        assert is_estimator(name)

    @pytest.mark.parametrize("name", ["rangelist", "batch", None, 42])
    def test_is_not_estimator(self, name):
        assert not is_estimator(name)

    def test_make_estimator_unknown_name(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            make_estimator("bogus", DEPTH)

    @pytest.mark.parametrize("kwargs", [
        {"sampling_rate": 0.0},
        {"sampling_rate": 1.5},
        {"sampling_rate": -0.1},
        {"max_tracked": 0},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorConfig(**kwargs)


class TestProbeConfigWiring:
    def test_sampling_rate_requires_estimator_engine(self):
        with pytest.raises(ValueError, match="sampling_rate"):
            ProbeConfig(stack_engine="batch", sampling_rate=0.5)

    def test_sampling_rate_range(self):
        with pytest.raises(ValueError):
            ProbeConfig(stack_engine="shards", sampling_rate=0.0)
        with pytest.raises(ValueError):
            ProbeConfig(stack_engine="shards", sampling_rate=1.0001)

    def test_resolved_rate_exact_engine_is_one(self):
        assert ProbeConfig().resolved_sampling_rate() == 1.0

    def test_resolved_rate_estimator_default(self):
        config = ProbeConfig(stack_engine="shards")
        assert config.resolved_sampling_rate() == pytest.approx(
            EstimatorConfig().sampling_rate
        )


class TestShardsExactParity:
    """At R = 1.0 every line is sampled: SHARDS must be bit-identical."""

    @pytest.mark.parametrize("warmup_factory", [
        lambda: None,
        lambda: NoWarmup(),
        lambda: StaticWarmup(500),
        lambda: HybridWarmup(fallback_entries=1000),
    ])
    def test_full_rate_matches_rangelist(self, warmup_factory):
        trace = mixed_trace(6000, 400, seed=1)
        exact = exact_histogram(trace, warmup=warmup_factory())
        estimator = ShardsEstimator(
            DEPTH, boundaries=BOUNDS,
            config=EstimatorConfig(sampling_rate=1.0),
        )
        estimate = estimator.estimate(trace, warmup=warmup_factory())
        assert estimate.histogram.counts == exact.counts
        assert estimate.histogram.cold_misses == exact.cold_misses
        for bound in BOUNDS:
            assert estimate.histogram.misses_at(bound) == exact.misses_at(bound)

    def test_full_rate_warmup_bookkeeping_matches(self):
        trace = mixed_trace(6000, 2000, seed=3)
        exact_warmup = HybridWarmup(fallback_entries=3000)
        exact_histogram(trace, warmup=exact_warmup)
        sampled_warmup = HybridWarmup(fallback_entries=3000)
        estimate = ShardsEstimator(
            DEPTH, boundaries=BOUNDS,
            config=EstimatorConfig(sampling_rate=1.0),
        ).estimate(trace, warmup=sampled_warmup)
        assert estimate.warmup_entries == exact_warmup.warmup_entries
        assert sampled_warmup.warmup_entries == exact_warmup.warmup_entries
        assert (sampled_warmup.automatic_triggered
                == exact_warmup.automatic_triggered)


class TestShardsSampled:
    def test_close_to_exact_at_low_rate(self):
        machine = MACHINE
        trace = mixed_trace(20_000, 600, seed=4)
        engine_exact = RapidMRC(machine, ProbeConfig(warmup="static"))
        engine_est = RapidMRC(machine, ProbeConfig(
            stack_engine="shards", sampling_rate=0.1, warmup="static",
        ))
        instructions = len(trace) * 48
        exact = engine_exact.compute(trace, instructions)
        approx = engine_est.compute(trace, instructions)
        deltas = [
            abs(a - b)
            for a, b in zip(curve_values(exact), curve_values(approx))
        ]
        assert max(deltas) < 2.0  # MPKI; measured ~0.6 at this scale

    def test_tracks_ten_x_fewer_entries(self):
        trace = mixed_trace(20_000, 900, seed=5)
        exact = RangeListLRUStack(DEPTH)
        for line in trace:
            exact.access(line)
        estimate = ShardsEstimator(
            DEPTH, boundaries=BOUNDS,
            config=EstimatorConfig(sampling_rate=0.1),
        ).estimate(trace)
        assert estimate.tracked_peak * 10 <= exact.occupancy
        assert estimate.tracked_peak <= DEPTH // 10 + 1

    def test_histogram_mass_matches_recorded_window(self):
        # dR correction: sampled mass is topped up to the full
        # post-warmup window, so MPKI denominators match the exact path.
        trace = mixed_trace(10_000, 500, seed=6)
        estimate = ShardsEstimator(
            DEPTH, boundaries=BOUNDS,
            config=EstimatorConfig(sampling_rate=0.1),
        ).estimate(trace, warmup=StaticWarmup(2000))
        assert estimate.histogram.total_accesses == pytest.approx(
            len(trace) - 2000, abs=1
        )

    def test_dr_correction_tops_up_the_sampling_shortfall(self):
        trace = mixed_trace(10_000, 500, seed=6)
        uncorrected = ShardsEstimator(
            DEPTH, boundaries=BOUNDS,
            config=EstimatorConfig(sampling_rate=0.1, dr_correction=False),
        ).estimate(trace)
        corrected = ShardsEstimator(
            DEPTH, boundaries=BOUNDS,
            config=EstimatorConfig(sampling_rate=0.1, dr_correction=True),
        ).estimate(trace)
        # Uncorrected mass is the weighted sample count; the correction
        # adds exactly the shortfall to reach the recorded window, and
        # only ever in the smallest bucket (misses_at beyond it agree).
        assert uncorrected.histogram.total_accesses <= len(trace)
        assert (corrected.histogram.total_accesses
                >= uncorrected.histogram.total_accesses)
        assert corrected.histogram.total_accesses == pytest.approx(
            len(trace), abs=1
        )
        for bound in BOUNDS[1:]:
            assert (corrected.histogram.misses_at(bound)
                    == uncorrected.histogram.misses_at(bound))

    def test_deterministic_under_fixed_seed(self):
        trace = mixed_trace(8000, 400, seed=7)
        config = EstimatorConfig(sampling_rate=0.2, seed=99)
        first = ShardsEstimator(DEPTH, BOUNDS, config).estimate(trace)
        second = ShardsEstimator(DEPTH, BOUNDS, config).estimate(trace)
        assert first.histogram.counts == second.histogram.counts
        assert first.histogram.cold_misses == second.histogram.cold_misses
        assert first.sampled_refs == second.sampled_refs

    def test_seed_changes_sampled_set(self):
        trace = mixed_trace(8000, 400, seed=7)
        a = ShardsEstimator(
            DEPTH, BOUNDS, EstimatorConfig(sampling_rate=0.1, seed=1)
        ).estimate(trace)
        b = ShardsEstimator(
            DEPTH, BOUNDS, EstimatorConfig(sampling_rate=0.1, seed=2)
        ).estimate(trace)
        assert a.sampled_refs != b.sampled_refs

    def test_adaptive_threshold_caps_tracked_entries(self):
        trace = mixed_trace(20_000, 2000, seed=8)
        estimate = ShardsEstimator(
            DEPTH, BOUNDS,
            EstimatorConfig(sampling_rate=0.5, max_tracked=32),
        ).estimate(trace)
        assert estimate.tracked_peak <= 33  # one transient over the cap
        assert estimate.sampling_rate < 0.5  # threshold adapted down

    def test_curve_is_monotone(self):
        trace = mixed_trace(20_000, 600, seed=9)
        engine = RapidMRC(MACHINE, ProbeConfig(
            stack_engine="shards", sampling_rate=0.1,
        ))
        result = engine.compute(trace, instructions=len(trace) * 48)
        assert result.mrc.monotone_violations() == 0


class TestLargeTraceParity:
    def test_160k_within_epsilon_of_exact(self):
        trace = mixed_trace(160_000, 2000, seed=15)
        instructions = len(trace) * 48
        exact = RapidMRC(MACHINE, ProbeConfig(
            warmup="static", correct_prefetch_repetitions=False,
        )).compute(trace, instructions)
        approx = RapidMRC(MACHINE, ProbeConfig(
            stack_engine="shards", sampling_rate=0.1, warmup="static",
            correct_prefetch_repetitions=False,
        )).compute(trace, instructions)
        deltas = [
            abs(a - b)
            for a, b in zip(curve_values(exact), curve_values(approx))
        ]
        assert max(deltas) < 1.5, max(deltas)
        assert approx.estimator == "shards"
        assert approx.sampling_rate == pytest.approx(0.1)
        assert approx.tracked_entries * 10 <= DEPTH


class TestQualityWiring:
    def test_assess_probe_records_estimator(self):
        from repro.pmu.sampling import ProbeTrace

        trace_lines = mixed_trace(4000, 300, seed=16)
        result = RapidMRC(MACHINE, ProbeConfig(
            stack_engine="shards", sampling_rate=0.2,
        )).compute(trace_lines, instructions=len(trace_lines) * 48)
        probe = ProbeTrace(
            entries=trace_lines,
            instructions=len(trace_lines) * 48,
            l1d_misses=len(trace_lines),
            dropped_events=0,
            stale_entries=0,
            exceptions=len(trace_lines),
        )
        quality = assess_probe(probe, result, len(trace_lines))
        assert quality.estimator == "shards"
        assert quality.sampling_rate == pytest.approx(0.2)

    def test_exact_probe_has_no_estimator(self):
        from repro.pmu.sampling import ProbeTrace

        trace_lines = mixed_trace(4000, 300, seed=17)
        result = RapidMRC(MACHINE, ProbeConfig()).compute(
            trace_lines, instructions=len(trace_lines) * 48
        )
        probe = ProbeTrace(
            entries=trace_lines,
            instructions=len(trace_lines) * 48,
            l1d_misses=len(trace_lines),
            dropped_events=0,
            stale_entries=0,
            exceptions=len(trace_lines),
        )
        quality = assess_probe(probe, result, len(trace_lines))
        assert quality.estimator is None
        assert quality.sampling_rate == 1.0


class TestPrefilter:
    def test_python_fallback_matches_numpy(self):
        # The vectorized hash is splitmix64 exactly: pin it to _mix64.
        trace = mixed_trace(3000, 400, seed=18)
        threshold = _TWO64 // 7
        want = ([], [], [])
        for index, line in enumerate(trace):
            h = _mix64((line & _MASK64) ^ 12345)
            if h < threshold:
                for column, value in zip(want, (index, line, h)):
                    column.append(value)
        assert _prefilter(trace, 12345, threshold) == want

    def test_full_threshold_passes_everything(self):
        trace = mixed_trace(500, 100, seed=19)
        idxs, lines, _hashes = _prefilter(trace, 7, _TWO64)
        assert idxs == list(range(len(trace)))
        assert lines == [int(x) for x in trace]


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=400))
    num_lines = draw(st.integers(min_value=1, max_value=200))
    return [
        draw(st.integers(min_value=0, max_value=num_lines - 1))
        for _ in range(n)
    ]


class TestHypothesis:
    @settings(max_examples=40, deadline=None)
    @given(trace=traces())
    def test_full_rate_shards_always_matches_rangelist(self, trace):
        depth = 64
        bounds = [8, 16, 32, 64]
        exact = reference_histogram(RangeListLRUStack(depth, bounds), trace)
        estimate = ShardsEstimator(
            depth, bounds, EstimatorConfig(sampling_rate=1.0)
        ).estimate(trace)
        assert estimate.histogram.counts == exact.counts
        assert estimate.histogram.cold_misses == exact.cold_misses

    @settings(max_examples=40, deadline=None)
    @given(trace=traces(), rate=st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    def test_shards_mass_and_monotonicity(self, trace, rate):
        depth = 64
        bounds = [8, 16, 32, 64]
        estimate = ShardsEstimator(
            depth, bounds, EstimatorConfig(sampling_rate=rate)
        ).estimate(trace)
        hist = estimate.histogram
        # The dR correction tops mass up to at least the recorded window
        # (rounding may shave half a count per bucket); an over-sampled
        # small trace can legitimately overshoot, it is never trimmed.
        assert hist.total_accesses >= len(trace) - (len(bounds) + 1)
        # misses_at is non-increasing in size.
        misses = [hist.misses_at(b) for b in bounds]
        assert misses == sorted(misses, reverse=True)
