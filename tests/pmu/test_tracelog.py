"""Tests for the bounded trace log."""

import numpy as np
import pytest

from repro.pmu.tracelog import TraceLog


class TestTraceLog:
    def test_append_until_full(self):
        log = TraceLog(3)
        assert log.append(1)
        assert log.append(2)
        assert log.append(3)
        assert log.is_full
        assert not log.append(4)  # dropped
        assert log.entries().tolist() == [1, 2, 3]

    def test_entries_are_the_int64_filled_prefix(self):
        """One format: the log is a preallocated int64 buffer and
        entries() is its filled prefix, nothing past it."""
        log = TraceLog(5)
        for value in [7, 8]:
            log.append(value)
        assert len(log) == 2
        assert log.buffer.dtype == np.int64 and log.buffer.size == 5
        entries = log.entries()
        assert entries.dtype == np.int64
        assert entries.flags.c_contiguous
        assert entries.tolist() == [7, 8]

    def test_entries_returns_copy(self):
        log = TraceLog(2)
        log.append(1)
        entries = log.entries()
        entries[0] = 99
        log.append(2)
        assert log.entries().tolist() == [1, 2]
        assert entries.tolist() == [99]

    def test_fill_fraction(self):
        log = TraceLog(4)
        log.append(0)
        assert log.fill_fraction() == pytest.approx(0.25)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceLog(0)
