"""Benchmark-harness fixtures.

Every benchmark regenerates one paper table/figure on the benchmark
machine (default: 1/16-scale POWER5; override with REPRO_BENCH_SCALE)
and writes a text report to ``benchmarks/results/`` -- those reports are
the source for EXPERIMENTS.md.
"""

from __future__ import annotations

import os
import pathlib
from types import SimpleNamespace

import pytest

from repro.core.correction import correct_stale_repetitions
from repro.core.rapidmrc import ProbeConfig
from repro.core.stack import RangeListLRUStack, reference_histogram
from repro.core.warmup import warmup_fraction_used
from repro.runner.offline import OfflineConfig
from repro.sim.machine import MachineConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_machine() -> MachineConfig:
    scale = int(os.environ.get("REPRO_BENCH_SCALE", "16"))
    return MachineConfig.scaled(scale)


@pytest.fixture(scope="session")
def bench_offline() -> OfflineConfig:
    """Offline measurement windows for benchmark runs (machine-relative
    defaults are applied per machine inside the runners)."""
    return OfflineConfig()


@pytest.fixture(scope="session")
def report_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def save_report(report_dir):
    """Write one experiment's text report to benchmarks/results/."""

    def _save(name: str, text: str) -> pathlib.Path:
        path = report_dir / f"{name}.txt"
        path.write_text(text + "\n")
        return path

    return _save


def _range_list_reference(machine, trace, instructions, warmup="hybrid"):
    """One exact probe computed the per-access way, the pipeline's reference.

    Scalar stale-SDAR repair, then the range-list stack one access at a
    time through :func:`repro.core.stack.reference_histogram`, then the
    MRC normalization of :meth:`repro.core.rapidmrc.RapidMRC.compute`.
    """
    correction = correct_stale_repetitions(list(trace))
    lines = correction.trace
    policy = ProbeConfig(warmup=warmup).make_warmup(len(lines))
    stack = RangeListLRUStack(
        machine.l2_lines, machine.color_sizes_in_lines()
    )
    histogram = reference_histogram(stack, lines, warmup=policy)
    recorded = histogram.total_accesses
    mrc = histogram.to_mrc(
        lines_per_color=machine.lines_per_color,
        num_colors=machine.num_colors,
        instructions=max(1, round(instructions * recorded / max(1, len(lines)))),
        label="rapidmrc",
    )
    return SimpleNamespace(
        histogram=histogram,
        mrc=mrc,
        correction=correction,
        warmup_fraction=warmup_fraction_used(policy, len(lines)),
    )


@pytest.fixture(scope="session")
def range_list_reference():
    """``(machine, trace, instructions, warmup="hybrid") -> reference``
    with ``histogram``, ``mrc``, ``correction`` and ``warmup_fraction``."""
    return _range_list_reference
