"""Cycle cost model for RapidMRC's runtime overhead (Section 5.2.2).

The paper reports, per probe: ~221 M cycles of trace logging (the
application keeps running at ~24% of its normal IPC while every L1D miss
takes an exception) and ~124 M cycles of MRC calculation, for ~345 M
cycles (230 ms) per probe; the *amortized* overhead then depends on how
often phase transitions force recomputation (Table 2 column d).

We cannot measure wall-clock on a simulated machine, so the same
quantities are produced by a cost model:

- logging cycles = application cycles during the probe (supplied by
  the caller) + exceptions x per-exception cost
  (pipeline flush + kernel entry/exit + handler; ~1200 cycles is
  representative of the POWER5 numbers);
- calculation cycles = trace length x the paper's per-entry stack cost
  on the POWER5 (the range-list optimization is exactly what makes
  this constant small).

The model reproduces the paper's *structure*: logging dominated by
exception count, calculation linear in log size, amortized overhead
inversely proportional to phase length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.pmu.sampling import ProbeTrace
from repro.sim.machine import MachineConfig

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.obs.report import RunReport

__all__ = ["OverheadModel", "ProbeOverhead", "measured_split"]

#: Per-entry MRC-calculation cost: the paper's 124 M cycles / 160 k
#: entries ~ 775 cycles for its range-list engine on the POWER5.  It
#: models that machine, not this repository's Python kernel.
CALC_CYCLES_PER_ENTRY = 775

#: Default per-exception cost (pipeline flush + privilege switch + SDAR
#: read + log append) -- representative of the POWER5 numbers.
DEFAULT_EXCEPTION_COST_CYCLES = 1200

#: Application progress rate while trace logging, relative to normal
#: (the paper measured 24%).
DEFAULT_SLOWDOWN_IPC_FRACTION = 0.24


def measured_split(report: Optional["RunReport"]) -> Optional[Tuple[float, float]]:
    """Measured (logging_seconds, calculation_seconds) from a run report.

    Returns ``None`` when no report is available or the capture holds no
    probe spans, so callers can fall back to the analytic cycle model.
    """
    if report is None:
        return None
    logging_s, calc_s = report.logging_calculation_split()
    if logging_s <= 0.0 and calc_s <= 0.0:
        return None
    return logging_s, calc_s


@dataclass(frozen=True)
class ProbeOverhead:
    """Cycle accounting for one probe (Table 2 columns a and b).

    The ``measured_*`` fields are wall-clock seconds taken from telemetry
    spans (``trace_collect`` for logging; ``correction`` +
    ``stack_distance`` + ``calibration`` for calculation) when a
    :class:`~repro.obs.report.RunReport` was supplied; they stay ``None``
    under the pure analytic model, letting Table 2 render model-only or
    model-vs-measured columns from the same object.
    """

    logging_cycles: float
    calculation_cycles: float
    probe_instructions: int
    measured_logging_seconds: Optional[float] = None
    measured_calculation_seconds: Optional[float] = None

    @property
    def total_cycles(self) -> float:
        return self.logging_cycles + self.calculation_cycles

    def amortized_overhead(self, phase_length_instructions: float,
                           cycles_per_instruction: float = 1.0) -> float:
        """Runtime overhead fraction if one probe runs per phase.

        ``total_probe_cycles / phase_cycles`` -- the Section 5.2.2
        argument that all but two applications stay under 2%.
        """
        if phase_length_instructions <= 0:
            raise ValueError("phase length must be positive")
        phase_cycles = phase_length_instructions * cycles_per_instruction
        return self.total_cycles / phase_cycles


class OverheadModel:
    """Computes probe overheads for a machine.

    Args:
        machine: for cycle/ms conversion.
        exception_cost_cycles: pipeline flush + privilege switch + SDAR
            read + log append, per overflow exception.
        slowdown_ipc_fraction: application progress rate while logging
            relative to normal (the paper measured 24%).
    """

    def __init__(
        self,
        machine: MachineConfig,
        exception_cost_cycles: int = DEFAULT_EXCEPTION_COST_CYCLES,
        slowdown_ipc_fraction: float = DEFAULT_SLOWDOWN_IPC_FRACTION,
    ):
        if exception_cost_cycles < 0:
            raise ValueError("exception cost cannot be negative")
        if not 0 < slowdown_ipc_fraction <= 1:
            raise ValueError("slowdown fraction must be in (0, 1]")
        self.machine = machine
        self.exception_cost_cycles = exception_cost_cycles
        self.slowdown_ipc_fraction = slowdown_ipc_fraction

    def probe_overhead(
        self,
        probe: ProbeTrace,
        application_cycles: float,
        run_report: Optional["RunReport"] = None,
    ) -> ProbeOverhead:
        """Cycle costs of one probing period.

        Args:
            probe: the collected trace (supplies exception count and
                log length).
            application_cycles: cycles the application itself consumed
                during the probe window (cost-model output).
            run_report: a telemetry capture of the probing run; when
                given and it holds probe spans, the returned overhead
                also carries the *measured* logging/calculation wall
                times, so Table 2 can print model-vs-measured columns.
                Without one (or with an empty capture) the result is the
                analytic model alone.
        """
        logging = (
            application_cycles / self.slowdown_ipc_fraction
            + probe.exceptions * self.exception_cost_cycles
        )
        calculation = len(probe.entries) * CALC_CYCLES_PER_ENTRY
        measured = measured_split(run_report)
        return ProbeOverhead(
            logging_cycles=logging,
            calculation_cycles=float(calculation),
            probe_instructions=probe.instructions,
            measured_logging_seconds=measured[0] if measured else None,
            measured_calculation_seconds=measured[1] if measured else None,
        )

    def logging_ms(self, overhead: ProbeOverhead) -> float:
        return self.machine.cycles_to_ms(overhead.logging_cycles)

    def calculation_ms(self, overhead: ProbeOverhead) -> float:
        return self.machine.cycles_to_ms(overhead.calculation_cycles)
