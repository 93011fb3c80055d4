"""Trace-replay workloads: recorded captures as first-class workloads.

A parsed ``perf script`` capture is a finite list of cache-line numbers.
Wrapping it as a :class:`~repro.workloads.base.Workload` lets a real
trace flow through every runner the synthetic models use -- the online
probe (:func:`repro.runner.online.collect_trace`, with the PMU drop
model and seeds applied on top of the recorded stream) and the
exhaustive offline measurement (:func:`repro.runner.offline.real_mrc`)
-- so campaign matrices can mix captures and models freely.

Raw perf addresses can exceed ``int64`` (kernel addresses start at
``0xffff...``), and their absolute values carry no information the MRC
cares about; only the *reuse structure* does.  The pattern therefore
remaps recorded lines to dense indices in first-touch order and replays
``index * line_size`` byte addresses, which also keeps the footprint
proportional to the number of distinct lines actually touched.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.workloads.base import (
    AccessPattern,
    MemoryAccess,
    TakeFn,
    Workload,
    cyclic_stream,
)

__all__ = ["ReplayPattern", "replay_workload"]


class ReplayPattern(AccessPattern):
    """Cycle a recorded cache-line sequence forever.

    The runners drive a bounded number of accesses, so an infinite
    cyclic replay gives every probe/measurement window the capture's
    steady-state reuse behaviour regardless of where the window lands.
    """

    def __init__(self, lines: Sequence[int], line_size: int = 128):
        if line_size <= 0:
            raise ValueError("line size must be positive")
        if len(lines) == 0:
            raise ValueError("cannot replay an empty trace")
        remap: Dict[int, int] = {}
        dense: List[int] = []
        for line in lines:
            index = remap.get(line)
            if index is None:
                index = remap[line] = len(remap)
            dense.append(index)
        self._line_size = line_size
        self._distinct = len(remap)
        self._vaddrs = np.asarray(dense, dtype=np.int64) * line_size

    def __len__(self) -> int:
        return self._vaddrs.size

    @property
    def distinct_lines(self) -> int:
        return self._distinct

    def generate(self, rng: random.Random) -> Iterator[MemoryAccess]:  # noqa: ARG002 - replay is deterministic
        vaddrs = self._vaddrs
        while True:
            for vaddr in vaddrs:
                yield MemoryAccess(int(vaddr))

    def batch_stream(self, rng: random.Random) -> TakeFn:  # noqa: ARG002
        return cyclic_stream(self._vaddrs)

    def footprint_bytes(self) -> int:
        return self._distinct * self._line_size


def replay_workload(
    name: str,
    lines: Sequence[int],
    line_size: int = 128,
    instructions_per_access: int = 48,
    description: str = "",
) -> Workload:
    """A workload replaying recorded cache-line numbers.

    ``store_fraction`` is zero: the capture is replayed verbatim, with
    no synthetic store promotion, so the stream is identical across
    seeds and across the scalar/batch drivers.
    """
    return Workload(
        name=name,
        pattern=ReplayPattern(lines, line_size=line_size),
        instructions_per_access=instructions_per_access,
        store_fraction=0.0,
        description=description or f"replay of {len(lines)} recorded accesses",
    )
