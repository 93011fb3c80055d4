"""Physical memory model: color-aware page allocation and translation.

Processes address *virtual* memory; the OS-level partitioning mechanism
materializes as the page allocator's choice of physical frames.  A
process confined to colors {2, 5} only ever receives frames whose lines
map into the L2 sets of colors 2 and 5, which is the entire partitioning
mechanism (paper Section 4 / [42]).

Also implements the page-migration primitive of Section 5.3 (used when a
partition is resized online), lazily: a resize only marks the pages its
new colors exclude, and each moves to an allowed frame, at a cycle cost
per page, on its next touch.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.sim.coloring import ColorMapper
from repro.sim.machine import MachineConfig

__all__ = ["PageAllocator"]


class PageAllocator:
    """Per-process virtual-to-physical mapping with color restrictions.

    Frames are handed out round-robin across the process's allowed colors
    so its footprint spreads evenly over its partition, mirroring the
    paper's mechanism.  Distinct processes receive distinct frames.

    Migrating one page costs ``migration_cost_cycles``: the paper
    measured 7.3 us per 4 kB page (~11k cycles at 1.5 GHz), scaled here
    with the machine's (possibly scaled-down) page size, since the cost
    is the copy.
    """

    def __init__(self, machine: MachineConfig):
        self.machine = machine
        self.mapper = ColorMapper(machine)
        self.migration_cost_cycles = max(
            200, round(11_000 * machine.page_size / 4096)
        )
        # process -> {vpage: frame}.  A stale page (one a resize left
        # outside the process's colors) holds ~frame, which is negative:
        # it migrates, and is charged, on its next touch, and a resize
        # that gives its color back restores the frame.  Only ever
        # updated in place, so a process may hold its own (see
        # page_table).
        self._page_tables: Dict[int, Dict[int, int]] = {}
        self._migration_debt: Dict[int, int] = {}
        self.lazy_migrations = 0
        # color -> index of the next unallocated frame of that color
        self._next_frame_of_color: Dict[int, int] = {
            c: 0 for c in range(machine.num_colors)
        }
        # process -> allowed colors (round-robin cursor kept alongside)
        self._allowed: Dict[int, List[int]] = {}
        self._cursor: Dict[int, int] = {}
        # The native engine's session while it holds page tables,
        # cursors, frame counters and migration debt
        # (repro.sim.native.NativeSession); every method below that
        # touches them hands them back first.
        self._native = None

    # -- policy -------------------------------------------------------------

    def set_colors(self, process: int, colors: Iterable[int]) -> None:
        """Restrict ``process`` to the given partition colors."""
        if self._native is not None:
            self._native.materialize("set_colors")
        allowed = sorted(set(colors))
        if not allowed:
            raise ValueError("a process needs at least one color")
        for color in allowed:
            if not 0 <= color < self.machine.num_colors:
                raise ValueError(f"color {color} out of range")
        self._allowed[process] = allowed
        self._cursor.setdefault(process, 0)

    def colors_of(self, process: int) -> List[int]:
        if process not in self._allowed:
            # Unrestricted: all colors (uncontrolled sharing).
            return list(range(self.machine.num_colors))
        return list(self._allowed[process])

    # -- translation ----------------------------------------------------------

    def translate(self, process: int, vaddr: int) -> int:
        """Translate a virtual byte address to a physical byte address,
        allocating a frame on first touch."""
        page_size = self.machine.page_size
        vpage, offset = divmod(vaddr, page_size)
        return self.frame_for(process, vpage) * page_size + offset

    def page_table(self, process: int) -> Dict[int, int]:
        """The process's ``{vpage: frame}`` map; a stale page holds
        ``~frame``.

        The map is created once and only updated in place, so a held
        reference stays current.  A vpage mapped to a non-negative frame
        translates by a plain read of the map; anything else goes
        through :meth:`frame_for`.
        """
        if self._native is not None:
            self._native.materialize("page_table")
        return self._table(process)

    def _table(self, process: int) -> Dict[int, int]:
        table = self._page_tables.get(process)
        if table is None:
            table = self._page_tables[process] = {}
        return table

    def frame_for(self, process: int, vpage: int) -> int:
        """Physical frame of ``vpage``, allocated on first touch.

        A stale page moves to an allowed frame here, and its migration
        cost is added to the process's debt (:meth:`take_migration_debt`).
        """
        if self._native is not None:
            self._native.materialize("frame_for")
        table = self._table(process)
        frame = table.get(vpage)
        if frame is not None and frame >= 0:
            return frame
        if frame is not None:
            # Stale: it migrates now, and the process owes the copy.
            self._migration_debt[process] = (
                self._migration_debt.get(process, 0)
                + self.migration_cost_cycles
            )
            self.lazy_migrations += 1
        frame = table[vpage] = self._allocate(process)
        return frame

    def take_migration_debt(self, process: int) -> int:
        """Collect (and clear) cycles owed for lazy migrations performed
        since the last call -- the caller charges them to the process."""
        if self._native is not None:
            self._native.materialize("take_migration_debt")
        return self._migration_debt.pop(process, 0)

    def _allocate(self, process: int) -> int:
        colors = self.colors_of(process)
        cursor = self._cursor.get(process, 0)
        color = colors[cursor % len(colors)]
        self._cursor[process] = cursor + 1
        n = self._next_frame_of_color[color]
        self._next_frame_of_color[color] = n + 1
        return self.mapper.nth_page_of_color(color, n)

    # -- resizing ---------------------------------------------------------------

    def resize(self, process: int, new_colors: Iterable[int]) -> int:
        """Change a process's colors; returns how many of its pages are
        now stale.

        Nothing moves here.  Each page whose frame the new colors
        exclude is marked stale, and migrates -- charged
        ``migration_cost_cycles`` via :meth:`take_migration_debt`
        (Section 5.3: 7.3 us per 4 kB page) -- on its next touch, so
        cold pages (a streaming application's history) cost nothing.
        A stale page whose color comes back keeps its frame.
        """
        if self._native is not None:
            self._native.materialize("resize")
        self.set_colors(process, new_colors)
        allowed = set(self._allowed[process])
        color_of_page = self.mapper.color_of_page
        table = self._table(process)
        stale = 0
        for vpage, frame in table.items():
            if frame < 0:
                frame = ~frame
            if color_of_page(frame) in allowed:
                table[vpage] = frame
            else:
                table[vpage] = ~frame
                stale += 1
        return stale

    # -- introspection ----------------------------------------------------------

    def resident_pages(self, process: int) -> int:
        if self._native is not None:
            self._native.materialize("resident_pages")
        return len(self._page_tables.get(process, ()))

    def footprint_colors(self, process: int) -> Dict[int, int]:
        """Histogram of the process's frames by color (for tests)."""
        if self._native is not None:
            self._native.materialize("footprint_colors")
        hist: Dict[int, int] = {}
        for frame in self._page_tables.get(process, {}).values():
            color = self.mapper.color_of_page(frame if frame >= 0 else ~frame)
            hist[color] = hist.get(color, 0) + 1
        return hist
