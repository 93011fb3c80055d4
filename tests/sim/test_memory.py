"""Tests for the color-aware page allocator."""

import pytest

from repro.sim.coloring import ColorMapper
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator


@pytest.fixture()
def machine():
    return MachineConfig.scaled(16)


@pytest.fixture()
def allocator(machine):
    return PageAllocator(machine)


class TestTranslation:
    def test_translation_is_stable(self, allocator):
        a = allocator.translate(0, 0x1234)
        b = allocator.translate(0, 0x1234)
        assert a == b

    def test_same_page_same_frame(self, allocator, machine):
        base = allocator.translate(0, 0)
        later = allocator.translate(0, machine.page_size - 1)
        assert later - base == machine.page_size - 1

    def test_offsets_preserved(self, allocator, machine):
        paddr = allocator.translate(0, machine.page_size + 17)
        assert paddr % machine.page_size == 17

    def test_distinct_processes_distinct_frames(self, allocator, machine):
        a = allocator.translate(0, 0) // machine.page_size
        b = allocator.translate(1, 0) // machine.page_size
        assert a != b


class TestColorRestriction:
    def test_confined_process_stays_in_colors(self, allocator, machine):
        mapper = ColorMapper(machine)
        allocator.set_colors(0, [2, 5])
        for vpage in range(50):
            paddr = allocator.translate(0, vpage * machine.page_size)
            color = mapper.color_of_page(paddr // machine.page_size)
            assert color in (2, 5)

    def test_round_robin_spreads_over_colors(self, allocator, machine):
        allocator.set_colors(0, [0, 1, 2, 3])
        for vpage in range(40):
            allocator.translate(0, vpage * machine.page_size)
        footprint = allocator.footprint_colors(0)
        assert set(footprint) == {0, 1, 2, 3}
        assert all(count == 10 for count in footprint.values())

    def test_unrestricted_uses_all_colors(self, allocator, machine):
        for vpage in range(4 * machine.num_colors):
            allocator.translate(0, vpage * machine.page_size)
        assert set(allocator.footprint_colors(0)) == set(range(16))

    def test_empty_colors_rejected(self, allocator):
        with pytest.raises(ValueError):
            allocator.set_colors(0, [])

    def test_out_of_range_color_rejected(self, allocator):
        with pytest.raises(ValueError):
            allocator.set_colors(0, [16])

    def test_colors_of_default(self, allocator, machine):
        assert allocator.colors_of(9) == list(range(machine.num_colors))


class TestResize:
    def test_resize_migrates_disallowed_pages(self, allocator, machine):
        mapper = ColorMapper(machine)
        allocator.set_colors(0, [0, 1])
        for vpage in range(20):
            allocator.translate(0, vpage * machine.page_size)
        assert allocator.resize(0, [2, 3]) == 20
        for vpage in range(20):
            paddr = allocator.translate(0, vpage * machine.page_size)
            assert mapper.color_of_page(paddr // machine.page_size) in (2, 3)
        assert allocator.take_migration_debt(0) == (
            20 * allocator.migration_cost_cycles
        )
        assert allocator.lazy_migrations == 20

    def test_resize_keeps_still_allowed_pages(self, allocator, machine):
        allocator.set_colors(0, [0])
        frames_before = [
            allocator.translate(0, vpage * machine.page_size)
            for vpage in range(5)
        ]
        # Grow: color 0 is still allowed, so nothing is stale.
        assert allocator.resize(0, [0, 1]) == 0
        frames_after = [
            allocator.translate(0, vpage * machine.page_size)
            for vpage in range(5)
        ]
        assert frames_before == frames_after
        assert allocator.take_migration_debt(0) == 0
        assert allocator.lazy_migrations == 0

    def test_resize_does_not_touch_other_processes(self, allocator, machine):
        allocator.set_colors(0, [0])
        allocator.set_colors(1, [0])
        other = allocator.translate(1, 0)
        allocator.resize(0, [1])
        assert allocator.translate(1, 0) == other

    def test_migration_cost_matches_paper_scale(self):
        # 7.3 us per 4 kB page at 1.5 GHz ~ 11k cycles on the full
        # machine; scaled machines scale the copy cost with page size.
        full = PageAllocator(MachineConfig.power5())
        us = full.migration_cost_cycles / full.machine.frequency_hz * 1e6
        assert us == pytest.approx(7.3, rel=0.05)
        small = PageAllocator(MachineConfig.scaled(16))
        assert small.migration_cost_cycles < full.migration_cost_cycles

    def test_lazy_resize_defers_and_charges_on_touch(self, allocator, machine):
        allocator.set_colors(0, [0])
        for vpage in range(10):
            allocator.translate(0, vpage * machine.page_size)
        assert allocator.resize(0, [1]) == 10
        assert allocator.take_migration_debt(0) == 0
        # Touch three pages: they migrate and accrue debt.
        mapper = ColorMapper(machine)
        for vpage in range(3):
            paddr = allocator.translate(0, vpage * machine.page_size)
            assert mapper.color_of_page(paddr // machine.page_size) == 1
        assert allocator.take_migration_debt(0) == (
            3 * allocator.migration_cost_cycles
        )
        # Debt is collected once.
        assert allocator.take_migration_debt(0) == 0
        assert allocator.lazy_migrations == 3

    def test_lazy_marking_cleared_if_colors_return(self, allocator, machine):
        allocator.set_colors(0, [0])
        allocator.translate(0, 0)
        allocator.resize(0, [1])
        # Resize back before any touch: the stale mark must be dropped.
        allocator.resize(0, [0, 1])
        allocator.translate(0, 0)
        assert allocator.take_migration_debt(0) == 0

    def test_resident_pages(self, allocator, machine):
        assert allocator.resident_pages(0) == 0
        allocator.translate(0, 0)
        allocator.translate(0, machine.page_size)
        assert allocator.resident_pages(0) == 2
