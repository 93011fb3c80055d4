"""Tests for the post-probe quality gates."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.mrc import MissRateCurve
from repro.core.rapidmrc import ProbeConfig, RapidMRC
from repro.pmu.sampling import ProbeTrace
from repro.reliability.quality import (
    ProbeQuality,
    QualityCheck,
    QualityConfig,
    _unique_count,
    assess_anchor,
    assess_probe,
)
from repro.sim.machine import MachineConfig

MACHINE = MachineConfig.scaled(32)
LOG = 1000


def make_trace(entries, instructions=50_000, l1d_misses=None,
               dropped=0, stale=0):
    if l1d_misses is None:
        l1d_misses = len(entries) + dropped
    return ProbeTrace(
        entries=list(entries),
        instructions=instructions,
        l1d_misses=l1d_misses,
        dropped_events=dropped,
        stale_entries=stale,
        exceptions=len(entries),
    )


def compute(entries, instructions=50_000):
    engine = RapidMRC(MACHINE, ProbeConfig())
    return engine.compute(list(entries), instructions)


def healthy_entries(n=LOG):
    # A reuse-heavy footprint well inside the plausible address range.
    return [i % 200 for i in range(n)]


class TestQualityConfig:
    def test_defaults_valid(self):
        QualityConfig()

    @pytest.mark.parametrize("kwargs", [
        {"min_fill_fraction": 1.5},
        {"max_drop_fraction": -0.1},
        {"min_unique_lines": 0},
        {"max_plausible_line": 0},
        {"max_plausible_mpki": 0.0},
    ])
    def test_bad_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            QualityConfig(**kwargs)


class TestGates:
    def test_healthy_probe_passes_every_gate(self):
        entries = healthy_entries()
        quality = assess_probe(make_trace(entries), compute(entries), LOG)
        assert quality.ok
        assert not quality.failures

    def test_log_fill_gate(self):
        entries = healthy_entries(200)  # 20% of the log
        quality = assess_probe(make_trace(entries), compute(entries), LOG)
        assert not quality.ok
        assert not quality.check("log-fill").passed

    def test_zero_instruction_probe(self):
        trace = make_trace(healthy_entries(), instructions=0)
        quality = assess_probe(trace, None, LOG)
        assert not quality.check("instructions").passed
        assert not quality.check("computed").passed

    def test_unique_lines_gate(self):
        entries = [7] * LOG
        quality = assess_probe(make_trace(entries), compute(entries), LOG)
        assert not quality.check("unique-lines").passed

    def test_address_range_gate(self):
        entries = healthy_entries()
        # 10% garbage 48-bit reads, above the 5% tolerance.
        for i in range(0, LOG, 10):
            entries[i] = (1 << 40) + i
        quality = assess_probe(make_trace(entries), compute(entries), LOG)
        assert not quality.check("address-range").passed

    def test_drop_fraction_gate(self):
        entries = healthy_entries()
        trace = make_trace(entries, dropped=7 * LOG, l1d_misses=8 * LOG)
        quality = assess_probe(trace, compute(entries), LOG)
        assert not quality.check("drop-fraction").passed

    def test_stale_fraction_gate(self):
        entries = healthy_entries()
        trace = make_trace(entries, stale=int(0.9 * LOG))
        quality = assess_probe(trace, compute(entries), LOG)
        assert not quality.check("stale-fraction").passed

    def test_cold_fraction_gate_fires_on_inflated_distances(self):
        # Lines repeat (visible reuse) but every reuse distance exceeds
        # the stack depth: the histogram is all cold misses even though
        # the log is clearly not a stream.
        span = 2 * MACHINE.l2_lines
        entries = [i % span for i in range(3 * span)]
        quality = assess_probe(
            make_trace(entries), compute(entries), len(entries)
        )
        assert not quality.check("cold-fraction").passed

    def test_streaming_probe_exempt_from_cold_gate(self):
        entries = list(range(LOG))  # all unique: a pure stream
        quality = assess_probe(make_trace(entries), compute(entries), LOG)
        check = quality.check("cold-fraction")
        assert check.passed
        assert "streaming" in check.detail

    @pytest.mark.parametrize("entries", [
        healthy_entries(),
        list(range(LOG)),
        [5, 5, 6, 5, 7, 7, 1 << 40, 6] * (LOG // 8),
    ])
    def test_unique_count_same_for_list_and_array(self, entries):
        """One sort counts exactly the distinct lines a set of the same
        entries holds, so the unique-lines gate keeps its value."""
        arr = np.asarray(entries, dtype=np.int64)
        expected = len(set(arr.tolist()))
        assert _unique_count(arr) == expected
        quality = assess_probe(make_trace(entries), compute(entries), LOG)
        assert quality.check("unique-lines").value == expected

    def test_monotonicity_gate_catches_broken_curve(self):
        # Stack-distance MRCs are monotone by construction, so a rising
        # curve can only mean an engine bug -- fake one to prove the
        # gate notices.
        rising = MissRateCurve(
            {size: float(size) for size in range(1, 17)}
        )
        entries = healthy_entries()
        real = compute(entries)
        fake = SimpleNamespace(
            warmup_fraction=real.warmup_fraction,
            histogram=real.histogram,
            correction=real.correction,
            mrc=rising,
        )
        quality = assess_probe(make_trace(entries), fake, LOG)
        assert not quality.check("monotonicity").passed

    def test_log_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            assess_probe(make_trace(healthy_entries()), None, 0)


class TestVerdict:
    def test_contains_and_lookup(self):
        entries = healthy_entries()
        quality = assess_probe(make_trace(entries), compute(entries), LOG)
        assert "log-fill" in quality
        assert "no-such-gate" not in quality
        with pytest.raises(KeyError):
            quality.check("no-such-gate")

    def test_describe_lists_failures(self):
        quality = ProbeQuality(checks=(
            QualityCheck("log-fill", False, 0.1, 0.5),
            QualityCheck("instructions", True, 10.0, 1.0),
        ))
        assert not quality.ok
        assert "log-fill" in quality.describe()
        assert "instructions" not in quality.describe()

    def test_check_describe_marks_failures(self):
        check = QualityCheck("drop-fraction", False, 0.9, 0.6, "9/10 lost")
        assert "FAIL" in check.describe()
        assert "9/10 lost" in check.describe()


class TestAnchor:
    def test_plausible_anchor_passes(self):
        assert assess_anchor(42.0).passed

    def test_missing_anchor_fails(self):
        check = assess_anchor(None)
        assert not check.passed
        assert "no anchor" in check.detail

    @pytest.mark.parametrize("mpki", [
        -3.0, float("nan"), float("inf"), 1e9,
    ])
    def test_garbage_anchor_fails(self, mpki):
        assert not assess_anchor(mpki).passed

    def test_bound_configurable(self):
        config = QualityConfig(max_plausible_mpki=10.0)
        assert not assess_anchor(50.0, config).passed
        assert assess_anchor(5.0, config).passed


class TestReuseGate:
    def _curve(self, top=40.0):
        return MissRateCurve({i: top / i for i in range(1, 17)})

    def test_good_reuse_passes(self):
        from repro.reliability.quality import assess_reuse

        quality = assess_reuse(self._curve(), anchor_size=8, anchor_mpki=6.0)
        assert quality.ok
        assert {c.name for c in quality.checks} == {
            "anchor", "reuse-shift", "monotonicity", "warmup-fraction",
        }

    def test_excessive_shift_rejected(self):
        from repro.reliability.quality import assess_reuse

        config = QualityConfig(max_reuse_shift_mpki=10.0)
        # Curve says 5 MPKI at 8 colors; the machine measures 40: this
        # is not the phase the cache remembers.
        quality = assess_reuse(
            self._curve(), anchor_size=8, anchor_mpki=40.0, config=config
        )
        assert not quality.ok
        assert quality.failures[0].name == "reuse-shift"

    def test_missing_anchor_rejected(self):
        from repro.reliability.quality import assess_reuse

        quality = assess_reuse(self._curve(), anchor_size=8, anchor_mpki=None)
        assert not quality.ok
        assert quality.failures[0].name == "anchor"

    def test_non_monotone_disk_curve_rejected(self):
        from repro.reliability.quality import assess_reuse

        sawtooth = MissRateCurve(
            {i: 10.0 + (5.0 if i % 2 else -5.0) for i in range(1, 17)}
        )
        quality = assess_reuse(sawtooth, anchor_size=8, anchor_mpki=10.0)
        assert not quality.ok
        assert any(c.name == "monotonicity" for c in quality.failures)

    def test_stored_warmup_metadata_still_gated(self):
        from repro.reliability.quality import assess_reuse

        quality = assess_reuse(
            self._curve(), anchor_size=8, anchor_mpki=6.0,
            warmup_fraction=0.99,
        )
        assert not quality.ok
        assert any(c.name == "warmup-fraction" for c in quality.failures)

    def test_bad_shift_bound_rejected(self):
        with pytest.raises(ValueError):
            QualityConfig(max_reuse_shift_mpki=0.0)
