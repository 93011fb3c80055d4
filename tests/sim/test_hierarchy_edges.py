"""Edge-case tests for hierarchy semantics the main suite glosses over."""

import pytest

from repro.sim.hierarchy import AccessResult, MemoryHierarchy


@pytest.fixture()
def hierarchy(tiny_machine):
    return MemoryHierarchy(tiny_machine, num_cores=1)


class TestWriteThrough:
    def test_store_hit_keeps_line_in_l2(self, hierarchy):
        """The L1D is write-through: a store hitting the L1 still
        touches the L2, so the line stays L2-resident (and the paper's
        'L1 data write-through accesses' reach the L2)."""
        hierarchy.access(0, 7)                 # load: fills L1 + L2
        hierarchy.l2.invalidate(7)             # knock it out of L2 only
        hierarchy.access(0, 7, is_store=True)  # store hits L1
        assert hierarchy.l2.probe(7)           # write-through re-filled L2

    def test_store_miss_counts_as_l1d_miss(self, hierarchy):
        result = hierarchy.access(0, 9, is_store=True)
        assert result.l1_miss
        assert hierarchy.counters[0].l1d_misses == 1
        assert hierarchy.counters[0].stores == 1


class TestAccessResultSemantics:
    def test_l2_miss_property_requires_l1_miss(self):
        result = AccessResult(core=0, line=1, l1_hit=True)
        assert not result.l2_miss

    def test_demand_l2_miss(self):
        result = AccessResult(core=0, line=1, l1_hit=False, l2_hit=False)
        assert result.l2_miss

    def test_l1_hit_after_l2_only_prefetch(self, hierarchy):
        hierarchy.prefetch_fill(0, 33, install_l1=False)
        result = hierarchy.access(0, 33)
        assert result.l1_miss           # not in L1
        assert result.l2_hit            # but the prefetch put it in L2


class TestCounters:
    def test_mpki_with_zero_instructions(self, hierarchy):
        assert hierarchy.counters[0].mpki() == 0.0

    def test_l2_demand_accesses_counted_once_per_l1_miss(self, hierarchy):
        hierarchy.access(0, 1)
        hierarchy.access(0, 1)  # L1 hit: no L2 demand access
        assert hierarchy.counters[0].l2_demand_accesses == 1


class TestVictimInteraction:
    def test_l3_hit_refills_l2(self, hierarchy):
        hierarchy.l3.insert_victim(50)
        result = hierarchy.access(0, 50)
        assert result.l3_hit
        assert hierarchy.l2.probe(50)
        # The victim copy was consumed.
        assert not hierarchy.l3.lookup(50)
