"""Shared fixtures: small machines so tests stay fast, and the
per-access reference every exact probe is pinned to."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.correction import correct_stale_repetitions
from repro.core.rapidmrc import ProbeConfig
from repro.core.stack import RangeListLRUStack, reference_histogram
from repro.core.warmup import warmup_fraction_used
from repro.sim.machine import MachineConfig


@pytest.fixture(scope="session")
def tiny_machine() -> MachineConfig:
    """Smallest valid scaled POWER5 (1/32): L2 = 480 lines, 16 colors."""
    return MachineConfig.scaled(32)


@pytest.fixture(scope="session")
def small_machine() -> MachineConfig:
    """1/16-scale POWER5: L2 = 960 lines; used by slower integration tests."""
    return MachineConfig.scaled(16)


@pytest.fixture(scope="session")
def full_machine() -> MachineConfig:
    """The Table 1 POWER5 (geometry checks only -- too big to simulate)."""
    return MachineConfig.power5()


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
