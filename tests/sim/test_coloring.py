"""Tests for page-color arithmetic."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.coloring import ColorMapper
from repro.sim.machine import MachineConfig


@pytest.fixture(scope="module")
def mapper():
    return ColorMapper(MachineConfig.scaled(16))


class TestColorOfPage:
    def test_colors_cycle(self, mapper):
        group = mapper.machine.pages_per_color_group
        colors = [mapper.color_of_page(p) for p in range(2 * group)]
        assert colors[:group] == colors[group:]
        assert set(colors) == set(range(16))

    def test_negative_page_rejected(self, mapper):
        with pytest.raises(ValueError):
            mapper.color_of_page(-1)

    def test_full_machine_mapping(self, full_machine):
        mapper = ColorMapper(full_machine)
        # 1536 sets / 32 lines-per-page = 48 pages per color group, so
        # 3 consecutive pages share a color.
        assert mapper.color_of_page(0) == 0
        assert mapper.color_of_page(2) == 0
        assert mapper.color_of_page(3) == 1
        assert mapper.color_of_page(47) == 15
        assert mapper.color_of_page(48) == 0


class TestColorOfSet:
    def test_sets_partition_into_colors(self, mapper):
        machine = mapper.machine
        for color in range(machine.num_colors):
            sets = mapper.sets_of_color(color)
            assert len(sets) == machine.sets_per_color
            assert all(mapper.color_of_set(s) == color for s in sets)

    def test_out_of_range_set(self, mapper):
        with pytest.raises(ValueError):
            mapper.color_of_set(mapper.machine.l2_sets)


class TestNthPage:
    def test_enumeration_is_consistent(self, mapper):
        for color in (0, 5, 15):
            for n in range(10):
                page = mapper.nth_page_of_color(color, n)
                assert mapper.color_of_page(page) == color

    def test_pages_are_distinct_and_increasing(self, mapper):
        pages = [mapper.nth_page_of_color(3, n) for n in range(20)]
        assert pages == sorted(set(pages))

    def test_bad_args(self, mapper):
        with pytest.raises(ValueError):
            mapper.nth_page_of_color(16, 0)
        with pytest.raises(ValueError):
            mapper.nth_page_of_color(0, -1)


@settings(max_examples=50, deadline=None)
@given(page=st.integers(min_value=0, max_value=10_000))
def test_property_page_color_matches_line_color(page):
    """Every line of a page must map to an L2 set of the page's color --
    the invariant software partitioning depends on."""
    machine = MachineConfig.scaled(16)
    mapper = ColorMapper(machine)
    color = mapper.color_of_page(page)
    first_line = page * machine.lines_per_page
    for offset in range(machine.lines_per_page):
        assert mapper.color_of_line(first_line + offset) == color
