"""Tests for the stream prefetcher."""

import pytest

from repro.sim.prefetcher import (
    DEPTH,
    NUM_STREAMS,
    PrefetcherConfig,
    StreamPrefetcher,
)


class TestStreamDetection:
    def test_isolated_miss_prefetches_nothing(self):
        prefetcher = StreamPrefetcher()
        assert prefetcher.observe_miss(100) == []

    def test_ascending_stream_confirms_and_prefetches(self):
        prefetcher = StreamPrefetcher()
        assert prefetcher.observe_miss(100) == []   # allocate
        fetched = prefetcher.observe_miss(101)      # confirm + fetch
        assert fetched == [102, 103]

    def test_stream_keeps_running_ahead(self):
        prefetcher = StreamPrefetcher()
        prefetcher.observe_miss(50)
        assert prefetcher.observe_miss(51) == [52, 53]
        # The stream now expects 54 (one past the prefetched 53).
        assert prefetcher.observe_miss(54) == [55, 56]

    def test_descending_misses_never_confirm(self):
        prefetcher = StreamPrefetcher()
        for line in range(100, 80, -1):
            assert prefetcher.observe_miss(line) == []

    def test_random_misses_never_confirm(self):
        prefetcher = StreamPrefetcher()
        for line in [7, 93, 12, 55, 4, 78]:
            assert prefetcher.observe_miss(line) == []
        assert prefetcher.confirmed_streams == 0

    def test_disabled_prefetcher_is_inert(self):
        prefetcher = StreamPrefetcher(PrefetcherConfig(enabled=False))
        for line in range(100, 120):
            assert prefetcher.observe_miss(line) == []
        assert prefetcher.active_streams == 0


class TestStreamTable:
    def test_table_capacity_bounded(self):
        prefetcher = StreamPrefetcher()
        for index in range(NUM_STREAMS + 1):
            prefetcher.observe_miss(10 ** (index + 1))
        assert prefetcher.active_streams == NUM_STREAMS

    def test_interleaved_streams_tracked_independently(self):
        prefetcher = StreamPrefetcher()
        prefetcher.observe_miss(100)
        prefetcher.observe_miss(5000)
        assert prefetcher.observe_miss(101) == [102, 103]
        assert prefetcher.observe_miss(5001) == [5002, 5003]

    def test_issued_counter(self):
        """Every miss a confirmed stream expects issues DEPTH lines."""
        prefetcher = StreamPrefetcher()
        assert prefetcher.observe_miss(10) == []
        line, issued = 11, []
        for _ in range(4):
            fetched = prefetcher.observe_miss(line)
            issued += fetched
            line = fetched[-1] + 1
        assert len(issued) == 4 * DEPTH

    def test_reset(self):
        prefetcher = StreamPrefetcher()
        prefetcher.observe_miss(1)
        prefetcher.reset()
        assert prefetcher.active_streams == 0
        # The stream table is empty: the old stream's next miss allocates
        # afresh instead of confirming it.
        assert prefetcher.observe_miss(2) == []
        assert prefetcher.confirmed_streams == 0
