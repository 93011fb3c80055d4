"""Page-color arithmetic for software cache partitioning.

The software partitioning mechanism the paper builds on (Tam et al. [42])
divides the shared L2 into *colors* by exploiting the overlap between
physical page numbers and L2 set-index bits: all lines of a physical page
map to a contiguous block of L2 sets, so restricting a process to pages
of certain colors restricts it to the corresponding sets.

:class:`ColorMapper` centralizes the arithmetic: page -> color,
set -> color, and enumeration of the physical pages of a color.
"""

from __future__ import annotations

from typing import List

from repro.sim.machine import MachineConfig

__all__ = ["ColorMapper"]


class ColorMapper:
    """Maps physical pages and L2 sets to partition colors.

    The machine validates that one page never spans two colors, so the
    mapping is well-defined.
    """

    def __init__(self, machine: MachineConfig):
        self.machine = machine
        self.num_colors = machine.num_colors
        self._sets_per_color = machine.sets_per_color
        self._lines_per_page = machine.lines_per_page
        # Physical pages cycle through colors with this period.
        self._pages_per_group = machine.pages_per_color_group
        self._pages_per_color = self._pages_per_group // machine.num_colors
        if self._pages_per_color == 0:
            raise ValueError(
                "machine geometry leaves no whole page per color; "
                "use a smaller page or larger L2"
            )

    def color_of_page(self, phys_page: int) -> int:
        """Partition color that all lines of ``phys_page`` map to."""
        if phys_page < 0:
            raise ValueError("physical page must be non-negative")
        return (phys_page % self._pages_per_group) // self._pages_per_color

    def color_of_set(self, set_index: int) -> int:
        """Partition color owning L2 set ``set_index``."""
        if not 0 <= set_index < self.machine.l2_sets:
            raise ValueError("set index out of range")
        return set_index // self._sets_per_color

    def color_of_line(self, phys_line: int) -> int:
        """Partition color of a physical line (via its L2 set)."""
        return self.color_of_set(phys_line % self.machine.l2_sets)

    def nth_page_of_color(self, color: int, n: int) -> int:
        """The ``n``-th physical page (0-based) whose color is ``color``.

        O(1): pages of one color recur in runs of ``pages_per_color``
        every ``pages_per_group`` pages.
        """
        self._check_color(color)
        if n < 0:
            raise ValueError("n must be non-negative")
        group, offset = divmod(n, self._pages_per_color)
        return (
            group * self._pages_per_group
            + color * self._pages_per_color
            + offset
        )

    def sets_of_color(self, color: int) -> List[int]:
        """All L2 set indices belonging to ``color``."""
        self._check_color(color)
        start = color * self._sets_per_color
        return list(range(start, start + self._sets_per_color))

    def _check_color(self, color: int) -> None:
        if not 0 <= color < self.num_colors:
            raise ValueError(
                f"color {color} out of range [0, {self.num_colors})"
            )
