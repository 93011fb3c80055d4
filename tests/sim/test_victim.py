"""Tests for the L3 victim cache."""

import pytest

from repro.sim.victim import VictimCache


def make_victim(size_bytes=4096, line_size=256, assoc=2, l2_line=128):
    return VictimCache(size_bytes, line_size, assoc, l2_line)


class TestVictimSemantics:
    def test_empty_lookup_misses(self):
        assert not make_victim().lookup(0)

    def test_inserted_victim_hits(self):
        cache = make_victim()
        cache.insert_victim(10)
        assert cache.lookup(10)

    def test_hit_consumes_line(self):
        cache = make_victim()
        cache.insert_victim(10)
        assert cache.lookup(10)
        assert not cache.lookup(10)  # moved back up to L2

    def test_two_l2_lines_share_one_l3_line(self):
        # 256B L3 lines over 128B L2 lines: lines 2k and 2k+1 coalesce.
        cache = make_victim()
        cache.insert_victim(10)
        assert cache.lookup(11)

    def test_distinct_l3_lines_do_not_alias(self):
        cache = make_victim()
        cache.insert_victim(10)
        assert not cache.lookup(12)

    def test_stats(self):
        cache = make_victim()
        cache.insert_victim(0)
        assert cache.occupancy == 1
        assert cache.lookup(0)
        assert not cache.lookup(8)
        assert cache.occupancy == 0


class TestDisabled:
    def test_zero_size_is_disabled(self):
        cache = make_victim(size_bytes=0)
        assert not cache.enabled
        cache.insert_victim(5)
        assert not cache.lookup(5)
        assert cache.occupancy == 0

    def test_disabled_counts_nothing(self):
        cache = make_victim(size_bytes=0)
        cache.insert_victim(1)
        assert not cache.lookup(1)
        assert cache.occupancy == 0


class TestGeometry:
    def test_line_ratio_validated(self):
        with pytest.raises(ValueError):
            VictimCache(4096, 100, 2, 128)

    def test_capacity_eviction(self):
        # 2 lines total (512B / 256B), direct-mapped-ish behaviour via
        # small associativity.
        cache = VictimCache(512, 256, 2, 128)
        cache.insert_victim(0)   # l3 line 0
        cache.insert_victim(4)   # l3 line 2 -> same set as line 0
        cache.insert_victim(8)   # l3 line 4 -> evicts oldest in set
        assert not cache.lookup(0)
        assert cache.lookup(8)
