"""Tests for machine geometry (paper Table 1) and scaling."""

import pytest

from repro.sim.machine import MachineConfig


class TestPower5Geometry:
    """Table 1 numbers must be reproduced exactly."""

    def test_table1_spec(self, full_machine):
        assert full_machine.frequency_hz == 1_500_000_000
        assert full_machine.l1i_size == 64 * 1024
        assert full_machine.l1i_assoc == 2
        assert full_machine.l1d_size == 32 * 1024
        assert full_machine.l1d_assoc == 4
        assert full_machine.l2_size == 1_920 * 1024  # 1.875 MB
        assert full_machine.l2_assoc == 10
        assert full_machine.l3_size == 36 * 1024 * 1024
        assert full_machine.l3_line_size == 256
        assert full_machine.l3_assoc == 12
        assert full_machine.line_size == 128

    def test_lru_stack_bound_is_15360(self, full_machine):
        """Section 5.2.3: 'our LRU stack is 15,360 in length'."""
        assert full_machine.l2_lines == 15_360

    def test_16_colors_of_960_lines(self, full_machine):
        assert full_machine.num_colors == 16
        assert full_machine.lines_per_color == 960

    def test_l2_sets(self, full_machine):
        assert full_machine.l2_sets == 1536
        assert full_machine.sets_per_color == 96

    def test_page_spans_at_most_one_color(self, full_machine):
        assert full_machine.lines_per_page == 32
        assert full_machine.sets_per_color % full_machine.lines_per_page == 0

    def test_color_sizes_ascending(self, full_machine):
        sizes = full_machine.color_sizes_in_lines()
        assert sizes[0] == 960
        assert sizes[-1] == 15_360
        assert sizes == sorted(sizes)
        assert len(sizes) == 16

    def test_cycles_to_ms(self, full_machine):
        # The paper's 221 M cycles = 147 ms at 1.5 GHz.
        assert full_machine.cycles_to_ms(221e6) == pytest.approx(147.3, abs=0.1)


class TestScaling:
    @pytest.mark.parametrize("factor", [1, 2, 4, 8, 16, 32])
    def test_valid_factors(self, factor):
        machine = MachineConfig.scaled(factor)
        assert machine.l2_lines == 15_360 // factor
        assert machine.num_colors == 16
        assert machine.l2_sets % machine.num_colors == 0

    def test_scale_one_is_full_machine(self):
        assert MachineConfig.scaled(1) == MachineConfig.power5()

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            MachineConfig.scaled(0)

    def test_geometrically_impossible_factor_rejected(self):
        # 1536/64 = 24 sets, not divisible by 16 colors.
        with pytest.raises(ValueError):
            MachineConfig.scaled(64)

    def test_page_shrinks_with_machine(self):
        machine = MachineConfig.scaled(16)
        assert machine.page_size == 256
        assert machine.sets_per_color % machine.lines_per_page == 0

    def test_page_floored_at_line_size(self):
        machine = MachineConfig.scaled(32)
        assert machine.page_size >= machine.line_size


class TestVariants:
    def test_without_l3(self, full_machine):
        bare = full_machine.without_l3()
        assert not bare.has_l3
        assert bare.l3_size == 0
        assert full_machine.has_l3  # original untouched

    def test_validation_rejects_bad_l1(self):
        with pytest.raises(ValueError):
            MachineConfig(l1d_size=1000)  # not divisible by line*assoc

    def test_validation_rejects_page_not_multiple_of_line(self):
        with pytest.raises(ValueError):
            MachineConfig(page_size=100)
