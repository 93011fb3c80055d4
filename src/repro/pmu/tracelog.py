"""The in-memory access trace log (paper Section 3.2).

The exception handler appends SDAR values here until the log fills; the
probing period ends when it does.  The paper's log is 160k entries
(about 10x the 15360-line LRU stack, Section 5.2.3); scaled machines use
proportionally smaller logs.
"""

from __future__ import annotations

from typing import Iterator, List

__all__ = ["TraceLog"]


class TraceLog:
    """Bounded append-only buffer of sampled cache-line numbers."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("trace log capacity must be positive")
        self.capacity = capacity
        self._entries: List[int] = []

    def append(self, line: int) -> bool:
        """Append one entry.  Returns False (and drops) once full."""
        if self.is_full:
            return False
        self._entries.append(line)
        return True

    def extend(self, lines: List[int]) -> None:
        """Append entries in order, dropping those that arrive once full."""
        self._entries.extend(lines[: self.capacity - len(self._entries)])

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    def entries(self) -> List[int]:
        """A copy of the logged entries, in arrival order."""
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def fill_fraction(self) -> float:
        return len(self._entries) / self.capacity
