"""Physical memory model: color-aware page allocation and translation.

Processes address *virtual* memory; the OS-level partitioning mechanism
materializes as the page allocator's choice of physical frames.  A
process confined to colors {2, 5} only ever receives frames whose lines
map into the L2 sets of colors 2 and 5, which is the entire partitioning
mechanism (paper Section 4 / [42]).

Also implements the page-migration primitive of Section 5.3 (used when a
partition is resized online): remapping a virtual page to a new frame of
an allowed color, with an attendant cycle cost per page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.sim.coloring import ColorMapper
from repro.sim.machine import MachineConfig

__all__ = ["PageAllocator", "MigrationReport"]


@dataclass
class MigrationReport:
    """Result of a partition resize (Section 5.3 page migration).

    With lazy resizing, ``pages_migrated``/``cycles`` count only the
    eager work; ``pages_marked_stale`` counts mappings that will migrate
    (and be charged) on their next touch.
    """

    pages_migrated: int
    cycles: int
    pages_marked_stale: int = 0


class PageAllocator:
    """Per-process virtual-to-physical mapping with color restrictions.

    Frames are handed out round-robin across the process's allowed colors
    so its footprint spreads evenly over its partition, mirroring the
    paper's mechanism.  Distinct processes receive distinct frames.

    Args:
        machine: machine geometry.
        migration_cost_cycles: cycles to migrate one page when resizing.
            The paper measured 7.3 us per 4 kB page (~11k cycles at
            1.5 GHz); the default scales that copy-dominated cost with
            the machine's (possibly scaled-down) page size.
    """

    def __init__(
        self,
        machine: MachineConfig,
        migration_cost_cycles: Optional[int] = None,
    ):
        self.machine = machine
        self.mapper = ColorMapper(machine)
        if migration_cost_cycles is None:
            migration_cost_cycles = max(
                200, round(11_000 * machine.page_size / 4096)
            )
        self.migration_cost_cycles = migration_cost_cycles
        # process -> {vpage: frame}, in allocation order (the order an
        # eager resize walks), and process -> its stale vpages (mappings a
        # lazy resize invalidated: migrated, and charged, on next touch).
        # Both are only ever updated in place, so a process may hold its
        # own (see page_table).
        self._page_tables: Dict[int, Dict[int, int]] = {}
        self._stale: Dict[int, Set[int]] = {}
        self._migration_debt: Dict[int, int] = {}
        self.lazy_migrations = 0
        # color -> index of the next unallocated frame of that color
        self._next_frame_of_color: Dict[int, int] = {
            c: 0 for c in range(machine.num_colors)
        }
        # process -> allowed colors (round-robin cursor kept alongside)
        self._allowed: Dict[int, List[int]] = {}
        self._cursor: Dict[int, int] = {}
        # The native engine's session while it holds page tables, stale
        # sets, cursors, frame counters and migration debt
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

    def translate_line(self, process: int, vaddr: int) -> int:
        """Translate a virtual byte address to a physical *line* number."""
        return self.translate(process, vaddr) // self.machine.line_size

    def page_table(self, process: int) -> Tuple[Dict[int, int], Set[int]]:
        """The process's ``{vpage: frame}`` map and its set of stale
        vpages.

        Both are created once and only updated in place, so a held
        reference stays current.  A vpage that is mapped and not stale
        translates by a plain read of the map; anything else goes
        through :meth:`frame_for`.
        """
        if self._native is not None:
            self._native.materialize("page_table")
        return self._maps(process)

    def _maps(self, process: int) -> Tuple[Dict[int, int], Set[int]]:
        table = self._page_tables.get(process)
        if table is None:
            table = self._page_tables[process] = {}
            self._stale[process] = set()
        return table, self._stale[process]

    def frame_for(self, process: int, vpage: int) -> int:
        """Physical frame of ``vpage``, allocated on first touch.

        A page a lazy resize marked stale moves to an allowed frame here,
        and its migration cost is added to the process's debt
        (:meth:`take_migration_debt`).
        """
        if self._native is not None:
            self._native.materialize("frame_for")
        table, stale = self._maps(process)
        if vpage in stale:
            stale.discard(vpage)
            frame = table[vpage] = self._allocate(process)
            self._migration_debt[process] = (
                self._migration_debt.get(process, 0)
                + self.migration_cost_cycles
            )
            self.lazy_migrations += 1
            return frame
        frame = table.get(vpage)
        if frame is None:
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

    def resize(
        self, process: int, new_colors: Iterable[int], lazy: bool = False
    ) -> MigrationReport:
        """Change a process's colors, migrating now-disallowed pages.

        Eager mode remaps every disallowed page immediately, each costing
        ``migration_cost_cycles`` (Section 5.3: 7.3 us per 4 kB page).
        Lazy mode only *marks* them; each migrates -- and is charged via
        :meth:`take_migration_debt` -- on its next touch, so cold pages
        (a streaming application's history) cost nothing.
        """
        if self._native is not None:
            self._native.materialize("resize")
        new_allowed = sorted(set(new_colors))
        self.set_colors(process, new_allowed)
        allowed_set = set(new_allowed)
        table, stale = self._maps(process)
        migrated = 0
        marked = 0
        for vpage, frame in list(table.items()):
            if self.mapper.color_of_page(frame) in allowed_set:
                stale.discard(vpage)
                continue
            if lazy:
                stale.add(vpage)
                marked += 1
            else:
                # Migrated now: an earlier lazy mark must not move it again.
                stale.discard(vpage)
                table[vpage] = self._allocate(process)
                migrated += 1
        return MigrationReport(
            pages_migrated=migrated,
            cycles=migrated * self.migration_cost_cycles,
            pages_marked_stale=marked,
        )

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
            color = self.mapper.color_of_page(frame)
            hist[color] = hist.get(color, 0) + 1
        return hist
