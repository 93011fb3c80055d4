"""The in-memory access trace log (paper Section 3.2).

The exception handler appends SDAR values here until the log fills; the
probing period ends when it does.  The paper's log is 160k entries
(about 10x the 15360-line LRU stack, Section 5.2.3); scaled machines use
proportionally smaller logs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TraceLog"]


class TraceLog:
    """Bounded append-only log of sampled cache-line numbers.

    The entries live in one preallocated int64 ``buffer`` of the full
    capacity; the first ``len(log)`` slots are filled.  The scalar
    collectors :meth:`append` one entry at a time, and the native trace
    channel writes straight into the free tail of the same buffer (see
    :class:`repro.sim.native.TraceChannel`).
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("trace log capacity must be positive")
        self.capacity = capacity
        self.buffer = np.empty(capacity, dtype=np.int64)
        self._length = 0

    def append(self, line: int) -> bool:
        """Append one entry.  Returns False (and drops) once full."""
        length = self._length
        if length >= self.capacity:
            return False
        self.buffer[length] = line
        self._length = length + 1
        return True

    @property
    def is_full(self) -> bool:
        return self._length >= self.capacity

    def __len__(self) -> int:
        return self._length

    def entries(self) -> np.ndarray:
        """A copy of the logged entries, in arrival order."""
        return self.buffer[: self._length].copy()

    def fill_fraction(self) -> float:
        return self._length / self.capacity
