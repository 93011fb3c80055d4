"""Tests for the probe overhead cost model."""

import pytest

from repro.analysis.overhead import CALC_CYCLES_PER_ENTRY, OverheadModel
from repro.pmu.sampling import ProbeTrace
from repro.sim.machine import MachineConfig


def probe(entries=1000, exceptions=1000, instructions=50_000):
    return ProbeTrace(
        entries=list(range(entries)),
        instructions=instructions,
        l1d_misses=exceptions,
        dropped_events=0,
        stale_entries=0,
        exceptions=exceptions,
    )


@pytest.fixture(scope="module")
def machine():
    return MachineConfig.power5()


@pytest.fixture(scope="module")
def model(machine):
    return OverheadModel(machine)


class TestProbeOverhead:
    def test_logging_cost_scales_with_exceptions(self, model):
        cheap = model.probe_overhead(probe(exceptions=100), 1e6)
        costly = model.probe_overhead(probe(exceptions=10_000), 1e6)
        assert costly.logging_cycles > cheap.logging_cycles

    def test_calculation_cost_linear_in_log(self, model):
        short = model.probe_overhead(probe(entries=1000), 1e6)
        long = model.probe_overhead(probe(entries=10_000), 1e6)
        assert long.calculation_cycles == pytest.approx(
            10 * short.calculation_cycles
        )

    def test_total_is_sum(self, model):
        overhead = model.probe_overhead(probe(), 1e6)
        assert overhead.total_cycles == pytest.approx(
            overhead.logging_cycles + overhead.calculation_cycles
        )

    def test_paper_scale_reproduced(self, machine):
        """The paper's 160k-entry probe: ~221 M cycles logging and
        ~124 M cycles calculation.  The model should land in the same
        order of magnitude with POWER5-like inputs."""
        model = OverheadModel(machine)
        paper_probe = probe(
            entries=160_000, exceptions=160_000, instructions=54_000_000
        )
        # The application ran at 24% IPC during logging; with ~1 IPC
        # normally, 54M instructions ~ 54M cycles of app progress.
        overhead = model.probe_overhead(paper_probe, application_cycles=13e6)
        assert 1e8 < overhead.logging_cycles < 1e9
        assert overhead.calculation_cycles == pytest.approx(
            160_000 * CALC_CYCLES_PER_ENTRY
        )
        assert 0.5e8 < overhead.calculation_cycles < 2.5e8

    def test_ms_conversion(self, machine, model):
        overhead = model.probe_overhead(probe(), 1.5e6)
        assert model.logging_ms(overhead) == pytest.approx(
            machine.cycles_to_ms(overhead.logging_cycles)
        )
        assert model.calculation_ms(overhead) > 0


class TestAmortization:
    def test_long_phases_negligible_overhead(self, model):
        """Section 5.2.2: long phases make the probe cost vanish."""
        overhead = model.probe_overhead(probe(), 1e6)
        long_phase = overhead.amortized_overhead(1e12)
        short_phase = overhead.amortized_overhead(1e7)
        assert long_phase < 0.001
        assert short_phase > long_phase

    def test_bad_phase_length(self, model):
        overhead = model.probe_overhead(probe(), 1e6)
        with pytest.raises(ValueError):
            overhead.amortized_overhead(0)


class TestValidation:
    def test_bad_exception_cost(self, machine):
        with pytest.raises(ValueError):
            OverheadModel(machine, exception_cost_cycles=-1)

    def test_bad_slowdown(self, machine):
        with pytest.raises(ValueError):
            OverheadModel(machine, slowdown_ipc_fraction=0.0)
