"""Edge cases for the reference stacks beyond the cross-validation suite."""

import pytest

from repro.core.histogram import COLD_MISS
from repro.core.stack import NaiveLRUStack, RangeListLRUStack

STACKS = {"naive": NaiveLRUStack, "rangelist": RangeListLRUStack}


class TestDepthOne:
    @pytest.mark.parametrize("engine", ["naive", "rangelist"])
    def test_depth_one_stack(self, engine):
        sim = STACKS[engine](1)
        assert sim.access(5) == COLD_MISS
        assert sim.access(5) == 1
        assert sim.access(6) == COLD_MISS
        assert sim.access(5) == COLD_MISS  # evicted by 6


class TestRangeListMarkers:
    def test_single_boundary_equals_bounded_stack(self):
        rangelist = RangeListLRUStack(4)
        naive = NaiveLRUStack(4)
        for line in [1, 2, 3, 4, 1, 5, 2, 2, 6, 1]:
            expected = naive.access(line)
            got = rangelist.access(line)
            if expected == COLD_MISS:
                assert got == COLD_MISS
            else:
                assert got == 4  # quantized to the single boundary
        rangelist.check_invariants()

    def test_dense_boundaries_give_exact_distances(self):
        # One boundary per depth: the range list degenerates to exact.
        depth = 6
        rangelist = RangeListLRUStack(depth, boundaries=range(1, depth + 1))
        naive = NaiveLRUStack(depth)
        for line in [1, 2, 3, 1, 2, 4, 5, 6, 3, 1, 1, 7, 2]:
            assert rangelist.access(line) == naive.access(line)
            rangelist.check_invariants()

    def test_repeated_head_access(self):
        stack = RangeListLRUStack(8, boundaries=[2, 8])
        stack.access(1)
        for _ in range(5):
            assert stack.access(1) == 2  # top of stack, first range
        stack.check_invariants()


class TestSimulatorOccupancy:
    @pytest.mark.parametrize("engine", ["naive", "rangelist"])
    def test_occupancy_tracks_distinct_lines(self, engine):
        sim = STACKS[engine](10)
        for line in [1, 2, 3, 2, 1]:
            sim.access(line)
        assert sim.occupancy == 3
        assert not sim.is_full

    @pytest.mark.parametrize("engine", ["naive", "rangelist"])
    def test_is_full_saturates(self, engine):
        sim = STACKS[engine](3)
        for line in range(10):
            sim.access(line)
        assert sim.is_full
        assert sim.occupancy == 3
