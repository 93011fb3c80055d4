"""Tests for the Mattson LRU stacks and the pipeline's stack simulator.

The naive stack is trusted as the executable specification; the
range-list stack is cross-validated against it, both on hand-built
cases and under hypothesis-generated traces, and the simulator's batch
kernel against both through :func:`reference_histogram`.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.histogram import COLD_MISS, StackDistanceHistogram
from repro.core.stack import (
    LRUStackSimulator,
    NaiveLRUStack,
    RangeListLRUStack,
    reference_histogram,
)


class TestNaive:
    def test_first_touch_is_cold(self):
        stack = NaiveLRUStack(4)
        assert stack.access(10) == COLD_MISS

    def test_immediate_reaccess_distance_one(self):
        stack = NaiveLRUStack(4)
        stack.access(10)
        assert stack.access(10) == 1

    def test_classic_sequence(self):
        stack = NaiveLRUStack(8)
        for line in [1, 2, 3]:
            stack.access(line)
        # Stack (top->bottom): 3 2 1.  Access 1 -> distance 3.
        assert stack.access(1) == 3
        # Now: 1 3 2.  Access 3 -> distance 2.
        assert stack.access(3) == 2

    def test_eviction_at_bound(self):
        stack = NaiveLRUStack(2)
        stack.access(1)
        stack.access(2)
        stack.access(3)  # evicts 1
        assert stack.access(1) == COLD_MISS

    def test_occupancy_and_full(self):
        stack = NaiveLRUStack(2)
        assert stack.occupancy == 0 and not stack.is_full
        stack.access(1)
        stack.access(2)
        assert stack.occupancy == 2 and stack.is_full
        stack.access(3)
        assert stack.occupancy == 2

    def test_resident_lines_order(self):
        stack = NaiveLRUStack(4)
        for line in [1, 2, 3, 1]:
            stack.access(line)
        assert stack.resident_lines() == [1, 3, 2]

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            NaiveLRUStack(0)


class TestRangeList:
    def test_boundaries_default_to_max_depth(self):
        stack = RangeListLRUStack(16)
        assert stack.boundaries == [16]

    def test_max_depth_appended_to_boundaries(self):
        stack = RangeListLRUStack(16, boundaries=[4, 8])
        assert stack.boundaries == [4, 8, 16]

    def test_boundary_beyond_depth_rejected(self):
        with pytest.raises(ValueError):
            RangeListLRUStack(8, boundaries=[16])

    def test_quantized_distance_is_range_upper_bound(self):
        stack = RangeListLRUStack(8, boundaries=[2, 4, 8])
        for line in [1, 2, 3]:
            stack.access(line)
        # line 1 is at true depth 3 -> range (2,4] -> reported as 4.
        assert stack.access(1) == 4

    def test_top_of_stack_reports_first_boundary(self):
        stack = RangeListLRUStack(8, boundaries=[2, 4, 8])
        stack.access(5)
        assert stack.access(5) == 2

    def test_eviction_matches_naive(self):
        stack = RangeListLRUStack(2)
        stack.access(1)
        stack.access(2)
        stack.access(3)
        assert stack.access(1) == COLD_MISS

    def test_invariants_after_mixed_traffic(self):
        stack = RangeListLRUStack(16, boundaries=[4, 8, 12, 16])
        rng = random.Random(42)
        for _ in range(500):
            stack.access(rng.randrange(40))
            stack.check_invariants()

    def test_boundary_depth_one(self):
        stack = RangeListLRUStack(4, boundaries=[1, 2, 4])
        stack.access(1)
        assert stack.access(1) == 1
        stack.access(2)
        # 1 now at depth 2 -> range (1,2] -> reported 2.
        assert stack.access(1) == 2
        stack.check_invariants()


def _distance_bucket(distance, boundaries):
    """Quantize an exact distance the way the range-list engine reports."""
    if distance == COLD_MISS:
        return COLD_MISS
    for bound in boundaries:
        if distance <= bound:
            return bound
    return COLD_MISS


@settings(max_examples=60, deadline=None)
@given(
    trace=st.lists(st.integers(min_value=0, max_value=60), max_size=400),
    data=st.data(),
)
def test_property_rangelist_matches_quantized_naive(trace, data):
    depth = data.draw(st.integers(min_value=2, max_value=32))
    num_bounds = data.draw(st.integers(min_value=1, max_value=min(4, depth)))
    bounds = sorted(
        data.draw(
            st.sets(
                st.integers(min_value=1, max_value=depth),
                min_size=num_bounds,
                max_size=num_bounds,
            )
        )
    )
    rangelist = RangeListLRUStack(depth, boundaries=bounds)
    naive = NaiveLRUStack(depth)
    boundaries = rangelist.boundaries
    for line in trace:
        expected = _distance_bucket(naive.access(line), boundaries)
        assert rangelist.access(line) == expected
    rangelist.check_invariants()


@settings(max_examples=30, deadline=None)
@given(trace=st.lists(st.integers(min_value=0, max_value=40), max_size=300))
def test_property_all_engines_agree_on_miss_counts(trace):
    """Both reference stacks and the batch kernel must induce identical
    Miss(size) at the shared boundary sizes -- the quantity MRCs are
    built from."""
    depth = 24
    boundaries = [6, 12, 18, 24]
    hists = {
        "naive": reference_histogram(NaiveLRUStack(depth), trace),
        "rangelist": reference_histogram(
            RangeListLRUStack(depth, boundaries=boundaries), trace
        ),
        "batch": LRUStackSimulator(depth, boundaries=boundaries).process(trace),
    }
    for size in boundaries:
        counts = {
            name: hist.misses_at(size) for name, hist in hists.items()
        }
        assert len(set(counts.values())) == 1, counts


class TestSimulatorFacade:
    def test_unknown_engine_rejected(self):
        # The per-access stacks are references, not simulator engines.
        for engine in ("btree", "rangelist", "naive"):
            with pytest.raises(ValueError, match="batch"):
                LRUStackSimulator(8, engine=engine)

    def test_process_without_warmup_records_everything(self):
        sim = LRUStackSimulator(8)
        hist = sim.process([1, 2, 1, 3])
        assert hist.total_accesses == 4
        assert hist.cold_misses == 3

    def test_process_with_warmup_skips_prefix(self):
        from repro.core.warmup import StaticWarmup

        sim = LRUStackSimulator(8)
        hist = sim.process([1, 2, 1, 3], warmup=StaticWarmup(2))
        assert hist.total_accesses == 2

