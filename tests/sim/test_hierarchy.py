"""Tests for the composed memory hierarchy."""

import pytest

from repro.sim.hierarchy import CoreCounters, MemoryHierarchy


@pytest.fixture()
def hierarchy(tiny_machine):
    return MemoryHierarchy(tiny_machine, num_cores=1)


class TestDemandPath:
    def test_cold_access_reaches_memory(self, hierarchy):
        result = hierarchy.access(0, 100)
        assert result.l1_miss and result.l2_miss
        assert not result.l3_hit
        assert result.memory_access

    def test_second_access_hits_l1(self, hierarchy):
        hierarchy.access(0, 100)
        result = hierarchy.access(0, 100)
        assert result.l1_hit

    def test_l2_hit_after_l1_eviction(self, hierarchy, tiny_machine):
        hierarchy.access(0, 0)
        # Walk enough distinct lines mapping to line 0's L1 set to evict
        # it from the L1 while staying within the L2.
        l1_sets = hierarchy.l1d[0].config.num_sets
        conflicting = [
            0 + k * l1_sets
            for k in range(1, hierarchy.l1d[0].config.associativity + 2)
        ]
        for line in conflicting:
            hierarchy.access(0, line)
        result = hierarchy.access(0, 0)
        assert result.l1_miss
        assert result.l2_hit

    def test_counters_accumulate(self, hierarchy):
        hierarchy.access(0, 1)
        hierarchy.access(0, 1)
        hierarchy.access(0, 2, is_store=True)
        counters = hierarchy.counters[0]
        assert counters.loads == 2
        assert counters.stores == 1
        assert counters.l1d_misses == 2
        assert counters.l2_demand_misses == 2

    def test_mpki(self, hierarchy):
        hierarchy.access(0, 1)
        hierarchy.counters[0].instructions = 1000
        assert hierarchy.counters[0].mpki() == pytest.approx(1.0)

    def test_reset_counters(self, hierarchy):
        hierarchy.access(0, 1)
        hierarchy.reset_counters()
        assert hierarchy.counters[0].l1d_misses == 0


class TestVictimPath:
    def test_l2_eviction_lands_in_l3(self, tiny_machine):
        hierarchy = MemoryHierarchy(tiny_machine)
        l2_sets = hierarchy.l2.config.num_sets
        assoc = hierarchy.l2.config.associativity
        # Fill one L2 set past capacity; the evicted line must hit in L3.
        lines = [k * l2_sets for k in range(assoc + 1)]
        for line in lines:
            hierarchy.access(0, line)
        # lines[0] was evicted from L2 (and from its tiny L1 long ago).
        result = hierarchy.access(0, lines[0])
        assert result.l3_hit or result.l2_hit  # L3 victim hit expected
        assert not result.memory_access

    def test_no_l3_machine_goes_to_memory(self, tiny_machine):
        bare = tiny_machine.without_l3()
        hierarchy = MemoryHierarchy(bare)
        l2_sets = hierarchy.l2.config.num_sets
        assoc = hierarchy.l2.config.associativity
        lines = [k * l2_sets for k in range(assoc + 1)]
        for line in lines:
            hierarchy.access(0, line)
        result = hierarchy.access(0, lines[0])
        if not result.l2_hit:
            assert result.memory_access


class TestSharedL2:
    def test_cores_share_l2(self, tiny_machine):
        hierarchy = MemoryHierarchy(tiny_machine, num_cores=2)
        hierarchy.access(0, 42)
        result = hierarchy.access(1, 42)
        # Core 1's L1 misses, but the line is already in the shared L2.
        assert result.l1_miss and result.l2_hit

    def test_l1s_are_private(self, tiny_machine):
        hierarchy = MemoryHierarchy(tiny_machine, num_cores=2)
        hierarchy.access(0, 42)
        assert hierarchy.l1d[0].probe(42)
        assert not hierarchy.l1d[1].probe(42)

    def test_per_core_counters(self, tiny_machine):
        hierarchy = MemoryHierarchy(tiny_machine, num_cores=2)
        hierarchy.access(0, 1)
        assert hierarchy.counters[0].l1d_misses == 1
        assert hierarchy.counters[1].l1d_misses == 0


class TestPrefetchFill:
    def test_prefetch_fill_installs_in_l1_and_l2(self, tiny_machine):
        hierarchy = MemoryHierarchy(tiny_machine)
        hierarchy.prefetch_fill(0, 1002)
        assert hierarchy.l1d[0].probe(1002)
        assert hierarchy.l2.probe(1002)

    def test_prefetched_line_hits_without_miss_event(self, tiny_machine):
        hierarchy = MemoryHierarchy(tiny_machine)
        hierarchy.prefetch_fill(0, 1002)
        misses_before = hierarchy.counters[0].l1d_misses
        result = hierarchy.access(0, 1002)
        assert result.l1_hit
        assert hierarchy.counters[0].l1d_misses == misses_before

    def test_prefetch_fill_counts_no_demand_traffic(self, tiny_machine):
        hierarchy = MemoryHierarchy(tiny_machine)
        hierarchy.prefetch_fill(0, 7)
        counters = hierarchy.counters[0]
        assert counters.l1d_misses == 0
        assert counters.l2_demand_accesses == 0

    def test_prefetch_consumes_l3_victim_copy(self, tiny_machine):
        hierarchy = MemoryHierarchy(tiny_machine)
        hierarchy.l3.insert_victim(40)
        hierarchy.prefetch_fill(0, 40)
        assert not hierarchy.l3.lookup(40)


class TestMaintenance:
    def test_requires_a_core(self, tiny_machine):
        with pytest.raises(ValueError):
            MemoryHierarchy(tiny_machine, num_cores=0)


class TestCoreCounters:
    def test_snapshot_and_mpki(self):
        counters = CoreCounters()
        counters.instructions = 2000
        counters.l2_demand_misses = 4
        snap = counters.snapshot()
        counters.reset()
        assert snap.mpki() == pytest.approx(2.0)
        assert counters.mpki() == 0.0
