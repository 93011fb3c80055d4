"""Differential tests for the batched vectorized exact path.

The contract of :mod:`repro.core.fastpath` is *bit-identical* output:
the C pass must reproduce the scalar references exactly -- the exact
distances of the naive stack, the quantized histograms and warmup
bookkeeping of :func:`~repro.core.stack.reference_histogram` over the
range-list stack -- and the vectorized repair the corrections of
:mod:`repro.core.correction`, on any trace.  Without the native engine
the histograms come from that reference itself, and the exact-distance
cases skip.
These tests enforce that with hand-built cases and hypothesis-generated
traces, including the boundary ``b[0] == 1``, eviction-heavy, and
single-line-run shapes called out in the fast-path design.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import correction as scalar
from repro.core import fastpath as fp
from repro.core.rapidmrc import RapidMRC
from repro.core.stack import (
    LRUStackSimulator,
    NaiveLRUStack,
    RangeListLRUStack,
    reference_histogram,
)
from repro.core.warmup import (
    AutomaticWarmup,
    HybridWarmup,
    NoWarmup,
    StaticWarmup,
    warmup_fraction_used,
)
from repro.sim import native

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="no C compiler / native engine disabled",
)


def naive_distances(trace, depth):
    stack = NaiveLRUStack(depth)
    return [stack.access(line) for line in trace]


def c_distances(trace, max_depth):
    distances, _ = native.stack_distances(
        native.native_lib(), fp.as_trace_array(trace), max_depth
    )
    return distances.tolist()


class TestVectorizedCorrections:
    def test_stale_repair_matches_scalar(self):
        trace = [5, 5, 5, 9, 9, 5, 1, 1, 1, 1]
        want = scalar.correct_stale_repetitions(trace)
        got = fp.correct_stale_repetitions(trace)
        assert got.trace.tolist() == want.trace
        assert got.converted == want.converted
        assert got.converted_fraction() == want.converted_fraction()

    def test_stale_repair_empty(self):
        got = fp.correct_stale_repetitions([])
        assert got.trace.size == 0 and got.converted == 0
        assert got.converted_fraction() == 0.0

    @settings(max_examples=60, deadline=None)
    @given(trace=st.lists(st.integers(min_value=0, max_value=6), max_size=200))
    def test_property_stale_repair_matches_scalar(self, trace):
        want = scalar.correct_stale_repetitions(trace)
        got = fp.correct_stale_repetitions(trace)
        assert got.trace.tolist() == want.trace
        assert got.converted == want.converted


class TestBatchDistances:
    """The C pass's exact distances against the naive stack, and the
    trace checks the histogram makes on either path."""

    @needs_native
    def test_hand_cases(self):
        for trace, depth in [
            ([10, 20, 10], 4),
            ([1, 2, 2, 1], 4),
            ([1, 1], 4),
            ([1, 2, 3, 2, 1], 2),  # eviction-heavy
            ([7] * 10, 1),  # single-line run
            ([], 4),
            ([3], 4),
        ]:
            got = c_distances(trace, max_depth=depth)
            assert got == naive_distances(trace, depth), (trace, depth)

    def test_rejects_bad_max_depth(self):
        with pytest.raises(ValueError):
            fp.batch_histogram([1, 2], max_depth=0)

    def test_rejects_multidimensional_trace(self):
        with pytest.raises(ValueError):
            fp.batch_histogram([[1, 2], [3, 4]], max_depth=4)

    @needs_native
    @settings(max_examples=80, deadline=None)
    @given(
        trace=st.lists(st.integers(min_value=0, max_value=60), max_size=400),
        depth=st.integers(min_value=1, max_value=32),
    )
    def test_property_matches_naive(self, trace, depth):
        got = c_distances(trace, max_depth=depth)
        assert got == naive_distances(trace, depth)


def draw_boundaries(data, depth):
    num = data.draw(st.integers(min_value=1, max_value=min(4, depth)))
    return sorted(
        data.draw(
            st.sets(
                st.integers(min_value=1, max_value=depth),
                min_size=num,
                max_size=num,
            )
        )
    )


class TestDifferentialHistogram:
    """The differential property: the kernel and both references agree."""

    @settings(max_examples=60, deadline=None)
    @given(
        trace=st.lists(st.integers(min_value=0, max_value=60), max_size=400),
        data=st.data(),
    )
    def test_property_four_engines_identical_quantized(self, trace, data):
        depth = data.draw(st.integers(min_value=2, max_value=32))
        bounds = draw_boundaries(data, depth)
        rangelist = RangeListLRUStack(depth, boundaries=bounds)
        reference = reference_histogram(rangelist, trace)
        rangelist.check_invariants()
        naive = reference_histogram(NaiveLRUStack(depth), trace)
        for got in (
            fp.batch_histogram(trace, max_depth=depth, boundaries=bounds),
            LRUStackSimulator(depth, boundaries=bounds).process(trace),
        ):
            assert got.counts == reference.counts
            assert got.cold_misses == reference.cold_misses
        for bound in rangelist.boundaries:
            assert naive.misses_at(bound) == reference.misses_at(bound)

    def test_boundary_one(self):
        # b[0] == 1: the tightest range, distance-1 hits only.
        trace = [1, 1, 2, 2, 1, 2, 1, 1]
        got = fp.batch_histogram(trace, max_depth=8, boundaries=[1, 8])
        ref = reference_histogram(RangeListLRUStack(8, [1, 8]), trace)
        assert got.counts == ref.counts
        assert got.cold_misses == ref.cold_misses

    def test_eviction_heavy(self):
        rng = random.Random(3)
        trace = [rng.randrange(50) for _ in range(600)]  # depth 4: evicts a lot
        ref = reference_histogram(RangeListLRUStack(4, [2, 4]), trace)
        got = fp.batch_histogram(trace, max_depth=4, boundaries=[2, 4])
        assert got.counts == ref.counts and got.cold_misses == ref.cold_misses

    def test_single_line_run(self):
        trace = [9] * 64
        ref = reference_histogram(RangeListLRUStack(8, [1, 8]), trace)
        got = fp.batch_histogram(trace, max_depth=8, boundaries=[1, 8])
        assert got.counts == ref.counts and got.cold_misses == ref.cold_misses

    @settings(max_examples=40, deadline=None)
    @given(
        trace=st.lists(st.integers(min_value=0, max_value=40), max_size=300),
        depth=st.integers(min_value=1, max_value=24),
    )
    def test_property_exact_matches_naive(self, trace, depth):
        # One boundary per depth: quantization degenerates to exact.
        want = reference_histogram(NaiveLRUStack(depth), trace)
        got = fp.batch_histogram(
            trace, max_depth=depth, boundaries=range(1, depth + 1)
        )
        assert got.counts == want.counts
        assert got.cold_misses == want.cold_misses

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ValueError):
            fp.batch_histogram([1], max_depth=4, boundaries=[0, 2])
        with pytest.raises(ValueError):
            fp.batch_histogram([1], max_depth=4, boundaries=[8])


class TestWarmupParity:
    POLICIES = [
        lambda n: None,
        lambda n: NoWarmup(),
        lambda n: StaticWarmup(n // 3),
        lambda n: StaticWarmup(10 * n + 1),  # longer than the trace
        lambda n: AutomaticWarmup(),
        lambda n: HybridWarmup(fallback_entries=n // 2),
        lambda n: HybridWarmup(fallback_entries=1),
    ]

    @settings(max_examples=40, deadline=None)
    @given(
        trace=st.lists(st.integers(min_value=0, max_value=30), max_size=250),
        data=st.data(),
    )
    def test_property_warmup_matches_scalar_simulator(self, trace, data):
        depth = data.draw(st.integers(min_value=1, max_value=16))
        bounds = draw_boundaries(data, depth)
        policy = data.draw(st.sampled_from(self.POLICIES))
        scalar_warmup = policy(len(trace))
        batch_warmup = policy(len(trace))
        ref = reference_histogram(
            RangeListLRUStack(depth, bounds), trace, warmup=scalar_warmup
        )
        got = fp.batch_histogram(
            trace, max_depth=depth, boundaries=bounds, warmup=batch_warmup
        )
        assert got.counts == ref.counts
        assert got.cold_misses == ref.cold_misses
        assert warmup_fraction_used(batch_warmup, len(trace)) == (
            warmup_fraction_used(scalar_warmup, len(trace))
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(TypeError):
            fp.batch_histogram([1, 2], max_depth=4, warmup=object())


class TestEndToEndRapidMRC:
    def test_batch_engine_bit_identical_to_rangelist(
        self, small_machine, range_list_reference
    ):
        rng = random.Random(21)
        # Stale runs included so the corrections diverge if buggy.
        trace = []
        line = 0
        for _ in range(4000):
            if rng.random() < 0.2:
                trace.append(line)
            else:
                line = rng.randrange(300)
                trace.append(line)
        got = RapidMRC(small_machine).compute(trace, instructions=100_000)
        ref = range_list_reference(small_machine, trace, 100_000)
        assert got.histogram.counts == ref.histogram.counts
        assert got.histogram.cold_misses == ref.histogram.cold_misses
        assert dict(got.mrc) == dict(ref.mrc)
        assert got.warmup_fraction == ref.warmup_fraction
        assert got.stack_hit_rate == ref.histogram.hit_rate()
        assert got.correction.converted == ref.correction.converted
        assert got.recorded_entries == ref.histogram.total_accesses


class TestSimulatorBatchEngine:
    def test_process_dispatches_to_batch(self):
        sim = LRUStackSimulator(8, engine="batch", boundaries=[2, 8])
        trace = [1, 2, 3, 1, 2, 3, 4, 4]
        got = sim.process(trace)
        want = reference_histogram(RangeListLRUStack(8, [2, 8]), trace)
        assert got.counts == want.counts and got.cold_misses == want.cold_misses


class TestArrayCoercion:
    def test_no_copy_for_int64_arrays(self):
        arr = np.array([1, 2, 3], dtype=np.int64)
        assert fp.as_trace_array(arr) is arr

    def test_lists_and_generators_unsupported_shapes_rejected(self):
        with pytest.raises(ValueError):
            fp.as_trace_array(np.zeros((2, 2), dtype=np.int64))
