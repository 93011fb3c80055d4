"""Tests for the processor issue modes."""

from repro.sim.cpu import IssueMode


class TestIssueMode:
    def test_complex_overlaps_latency(self):
        assert IssueMode.COMPLEX.overlap_factor < 1.0
        assert IssueMode.SIMPLIFIED.overlap_factor == 1.0

    def test_complex_has_lower_base_cpi(self):
        assert IssueMode.COMPLEX.base_cpi < IssueMode.SIMPLIFIED.base_cpi

    def test_dual_lsu_only_in_complex(self):
        assert IssueMode.COMPLEX.dual_lsu
        assert not IssueMode.SIMPLIFIED.dual_lsu
