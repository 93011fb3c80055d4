"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import CacheConfig, SetAssociativeCache


def small_cache(assoc=2, sets=4):
    config = CacheConfig(
        size_bytes=128 * assoc * sets,
        line_size=128,
        associativity=assoc,
    )
    return SetAssociativeCache(config)


class TestConfig:
    def test_geometry(self):
        config = CacheConfig(size_bytes=1024, line_size=128, associativity=4)
        assert config.num_lines == 8
        assert config.num_sets == 2

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_size=128, associativity=4)

    def test_nonpositive_dimensions(self):
        with pytest.raises(ValueError):
            CacheConfig(0, 128, 4)

    def test_fully_associative_constructor(self):
        config = CacheConfig.fully_associative(1024, 128)
        assert config.num_sets == 1
        assert config.associativity == 8


class TestBasicOperation:
    def test_miss_then_hit(self):
        cache = small_cache()
        hit, _ = cache.access(5)
        assert not hit
        hit, _ = cache.access(5)
        assert hit

    def test_stats(self):
        cache = small_cache()
        hits = [cache.access(line)[0] for line in (1, 1, 2)]
        assert hits == [False, True, False]  # one hit, two misses

    def test_set_mapping(self):
        cache = small_cache(assoc=2, sets=4)
        assert cache.set_index(0) == 0
        assert cache.set_index(5) == 1
        assert cache.set_index(7) == 3

    def test_probe_does_not_disturb(self):
        cache = small_cache(assoc=2, sets=1)
        assert not cache.probe(3)
        assert cache.occupancy == 0  # a probe miss installs nothing
        cache.access(3)
        cache.access(4)
        assert cache.probe(3)
        _, victim = cache.access(5)
        assert victim == 3  # the probe did not promote 3

    def test_invalidate(self):
        cache = small_cache()
        cache.access(3)
        assert cache.invalidate(3)
        assert not cache.invalidate(3)
        assert not cache.probe(3)


class TestLRUEviction:
    def test_lru_victim_within_set(self):
        cache = small_cache(assoc=2, sets=1)
        cache.access(1)
        cache.access(2)
        cache.access(1)       # 1 is now MRU
        _, victim = cache.access(3)
        assert victim == 2    # LRU evicted

    def test_eviction_counted(self):
        cache = small_cache(assoc=1, sets=1)
        victims = [cache.access(line)[1] for line in (1, 2)]
        assert victims == [None, 1]  # one eviction, of line 1
        assert not cache.probe(1)

    def test_sets_are_independent(self):
        cache = small_cache(assoc=1, sets=2)
        cache.access(0)  # set 0
        cache.access(1)  # set 1
        hit, _ = cache.access(0)
        assert hit  # line 1 did not evict line 0

    def test_loop_one_line_larger_than_the_set_never_hits(self):
        """Section 2.1's looping pathology: under LRU a loop one line
        larger than the cache evicts each line just before its reuse."""
        cache = small_cache(assoc=8, sets=1)
        hits = 0
        for _ in range(20):
            for line in range(9):
                hits += cache.access(line)[0]
        assert hits == 0


class TestLazySets:
    """The sets are built on first use."""

    def test_fresh_cache_builds_nothing(self):
        cache = small_cache()
        assert not cache.touched
        assert set(vars(cache)) == {"config"}

    def test_first_use_builds_the_sets(self):
        cache = small_cache(assoc=2, sets=4)
        assert cache.occupancy == 0
        assert cache.touched
        assert [list(bucket) for bucket in cache._sets] == [[]] * 4

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            small_cache().no_such_attribute

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
    def test_copies_behave_like_the_original(self, how, warm):
        import copy
        import pickle

        cache = small_cache(assoc=2, sets=2)
        if warm:
            for line in range(7):
                cache.access(line)
        clone = {
            "copy": copy.copy,
            "deepcopy": copy.deepcopy,
            "pickle": lambda c: pickle.loads(pickle.dumps(c)),
        }[how](cache)
        assert clone.touched == warm
        if how == "copy" and warm:
            # A shallow copy shares the built sets, as it always did.
            assert clone._sets is cache._sets
            return
        for line in (3, 9, 4, 11, 3, 20):
            assert clone.access(line) == cache.access(line)
        assert ([list(b) for b in clone._sets]
                == [list(b) for b in cache._sets])


@settings(max_examples=40, deadline=None)
@given(
    trace=st.lists(st.integers(min_value=0, max_value=100), max_size=300),
    assoc=st.integers(min_value=1, max_value=8),
    sets=st.sampled_from([1, 2, 4, 8]),
)
def test_property_occupancy_bounded(trace, assoc, sets):
    cache = small_cache(assoc=assoc, sets=sets)
    for line in trace:
        cache.access(line)
    assert cache.occupancy <= assoc * sets
    for set_index in range(sets):
        assert cache.set_occupancy(set_index) <= assoc


@settings(max_examples=40, deadline=None)
@given(trace=st.lists(st.integers(min_value=0, max_value=50), max_size=300))
def test_property_fully_associative_lru_matches_stack(trace):
    """A fully-associative LRU cache of N lines hits exactly the accesses
    whose Mattson stack distance is <= N -- the equivalence the whole MRC
    method rests on."""
    from repro.core.histogram import COLD_MISS
    from repro.core.stack import NaiveLRUStack

    capacity = 8
    cache = SetAssociativeCache(
        CacheConfig.fully_associative(capacity * 128, 128)
    )
    stack = NaiveLRUStack(max_depth=10_000)  # unbounded reference
    for line in trace:
        hit, _ = cache.access(line)
        distance = stack.access(line)
        expected_hit = distance != COLD_MISS and distance <= capacity
        assert hit == expected_hit
