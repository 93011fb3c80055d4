"""Phase composition: applications whose behaviour changes over time.

Section 3.2 / Figure 2: many applications alternate between a small
number of phases with very different cache behaviour (mcf's two phases
need respectively ~all and ~few partitions).  A :class:`PhasedWorkload`
cycles through a schedule of (pattern, duration) phases, exposing the
phase index so experiments can align measurements with ground truth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.workloads.base import (
    AccessBatch,
    AccessPattern,
    MemoryAccess,
    TakeFn,
    Workload,
)

__all__ = ["Phase", "PhasedWorkload", "PhaseSchedule"]


@dataclass(frozen=True)
class Phase:
    """One phase of a phased application.

    Args:
        pattern: access pattern active during the phase.
        duration_accesses: accesses before moving to the next phase.
        label: optional name ('pointer-heavy', 'streaming', ...).
    """

    pattern: AccessPattern
    duration_accesses: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.duration_accesses <= 0:
            raise ValueError("phase duration must be positive")


class PhaseSchedule(AccessPattern):
    """An :class:`AccessPattern` that cycles through phases.

    The schedule repeats forever: phase 0, 1, ..., N-1, 0, 1, ...
    ``phase_at(access_index)`` reports which phase an access belongs to,
    giving experiments ground-truth phase boundaries (Figure 2c compares
    the detector against exactly this).
    """

    def __init__(self, phases: Sequence[Phase]):
        if not phases:
            raise ValueError("need at least one phase")
        self.phases = list(phases)
        self._period = sum(phase.duration_accesses for phase in self.phases)

    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:
        streams = [
            phase.pattern.generate(random.Random(rng.random() + index))
            for index, phase in enumerate(self.phases)
        ]
        while True:
            for stream, phase in zip(streams, self.phases):
                for _ in range(phase.duration_accesses):
                    yield next(stream)

    def batch_stream(self, rng: random.Random) -> TakeFn:
        # Per-phase seeds are drawn from the shared RNG up front in the
        # scalar order; after that the schedule is deterministic, so each
        # chunk is spliced from exactly the accesses each phase supplies.
        takes = [
            phase.pattern.batch_stream(random.Random(rng.random() + index))
            for index, phase in enumerate(self.phases)
        ]
        durations = [phase.duration_accesses for phase in self.phases]
        phase_index = 0
        left_in_phase = durations[0]

        def take(count: int) -> AccessBatch:
            nonlocal phase_index, left_in_phase
            vaddrs = np.empty(count, dtype=np.int64)
            stores = np.empty(count, dtype=np.bool_)
            filled = 0
            while filled < count:
                chunk = min(left_in_phase, count - filled)
                sub_v, sub_s = takes[phase_index](chunk)
                vaddrs[filled:filled + chunk] = sub_v
                stores[filled:filled + chunk] = sub_s
                filled += chunk
                left_in_phase -= chunk
                if left_in_phase == 0:
                    phase_index = (phase_index + 1) % len(takes)
                    left_in_phase = durations[phase_index]
            return vaddrs, stores

        return take

    def footprint_bytes(self) -> int:
        return max(phase.pattern.footprint_bytes() for phase in self.phases)

    @property
    def period_accesses(self) -> int:
        return self._period

    def phase_at(self, access_index: int) -> int:
        """Ground-truth phase index for the access at ``access_index``."""
        if access_index < 0:
            raise ValueError("access index must be non-negative")
        position = access_index % self._period
        for index, phase in enumerate(self.phases):
            if position < phase.duration_accesses:
                return index
            position -= phase.duration_accesses
        raise AssertionError("unreachable: position within period")

    def boundaries_in(self, num_accesses: int) -> List[int]:
        """Access indices where the phase changes, within ``num_accesses``."""
        boundaries: List[int] = []
        position = 0
        while position < num_accesses:
            for phase in self.phases:
                position += phase.duration_accesses
                if position < num_accesses:
                    boundaries.append(position)
        return boundaries


class PhasedWorkload(Workload):
    """A :class:`~repro.workloads.base.Workload` built from a phase schedule."""

    def __init__(
        self,
        name: str,
        phases: Sequence[Phase],
        instructions_per_access: int = 48,
        store_fraction: float = 0.3,
        seed: int = 7,
        description: str = "",
    ):
        schedule = PhaseSchedule(phases)
        super().__init__(
            name=name,
            pattern=schedule,
            instructions_per_access=instructions_per_access,
            store_fraction=store_fraction,
            seed=seed,
            description=description,
        )
        self.schedule = schedule

    def phase_boundaries_in_instructions(self, num_instructions: int) -> List[int]:
        """Ground-truth phase boundaries in *instruction* coordinates."""
        per_access = self.instructions_per_access
        num_accesses = num_instructions // per_access
        return [
            boundary * per_access
            for boundary in self.schedule.boundaries_in(num_accesses)
        ]
