"""Machine geometry: the POWER5 of Table 1, plus scaled variants.

Pure-Python simulation of the full 36 MB L3 machine is tractable but
slow, so experiments default to a *geometrically scaled* machine: every
capacity is divided by a scale factor while associativities, the line
size, and the 16-color partitioning are preserved.  Scaling shrinks
working sets and caches together (the workload models take their sizes
from the machine), so MRC shapes survive.

The page size shrinks with the machine so that page coloring keeps
working: a page must not span more L2 sets than one color owns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["MachineConfig"]


@dataclass(frozen=True)
class MachineConfig:
    """Geometry of the simulated machine (paper Table 1).

    All sizes are in bytes.  ``num_colors`` is the number of page-coloring
    partitions the shared L2 is divided into (16 throughout the paper).
    ``l1i_size``/``l1i_assoc`` record Table 1's instruction cache only:
    no instruction stream is simulated (RapidMRC samples L1D misses).
    """

    name: str = "POWER5"
    frequency_hz: int = 1_500_000_000
    line_size: int = 128

    l1i_size: int = 64 * 1024
    l1i_assoc: int = 2
    l1d_size: int = 32 * 1024
    l1d_assoc: int = 4

    l2_size: int = 1_920 * 1024  # 1.875 MB
    l2_assoc: int = 10

    l3_size: int = 36 * 1024 * 1024
    l3_line_size: int = 256
    l3_assoc: int = 12

    page_size: int = 4096
    num_colors: int = 16

    # Latency model (cycles) for the IPC cost model; representative
    # POWER5-era numbers, not microarchitecturally exact.  An L1 hit
    # costs no cycles beyond the issue mode's base CPI.
    l2_latency: int = 13
    l3_latency: int = 87
    memory_latency: int = 220

    def __post_init__(self) -> None:
        for attr in ("l1i", "l1d", "l2"):
            size = getattr(self, f"{attr}_size")
            assoc = getattr(self, f"{attr}_assoc")
            if size % (self.line_size * assoc) != 0:
                raise ValueError(
                    f"{attr}: size {size} not divisible by line*assoc"
                )
        if self.l3_size % (self.l3_line_size * self.l3_assoc) != 0:
            raise ValueError("l3: size not divisible by line*assoc")
        if self.page_size % self.line_size != 0:
            raise ValueError("page size must be a multiple of the line size")
        if self.l2_sets % self.num_colors != 0:
            raise ValueError("L2 sets must divide evenly into colors")
        if self.sets_per_color % self.lines_per_page != 0:
            raise ValueError(
                "a page may not span more L2 sets than one color owns "
                f"(page spans {self.lines_per_page} sets, color owns "
                f"{self.sets_per_color})"
            )

    # -- derived geometry ----------------------------------------------------

    @property
    def l2_lines(self) -> int:
        """Total L2 cache lines (the LRU stack bound: 15360 on POWER5)."""
        return self.l2_size // self.line_size

    @property
    def l2_sets(self) -> int:
        return self.l2_lines // self.l2_assoc

    @property
    def sets_per_color(self) -> int:
        return self.l2_sets // self.num_colors

    @property
    def lines_per_color(self) -> int:
        """L2 lines per partition color (960 on POWER5)."""
        return self.l2_lines // self.num_colors

    @property
    def lines_per_page(self) -> int:
        return self.page_size // self.line_size

    @property
    def pages_per_color_group(self) -> int:
        """Distinct physical-page colors repeat with this page period."""
        return self.l2_sets // self.lines_per_page

    def color_sizes_in_lines(self) -> list:
        """The 16 candidate cache sizes in lines, ascending (MRC x-axis)."""
        return [c * self.lines_per_color for c in range(1, self.num_colors + 1)]

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert simulated cycles to milliseconds at the machine clock."""
        return 1000.0 * cycles / self.frequency_hz

    # -- constructors ----------------------------------------------------------

    @classmethod
    def power5(cls) -> "MachineConfig":
        """The full-size POWER5 of Table 1."""
        return cls()

    @classmethod
    def scaled(cls, factor: int = 8, name: str = "") -> "MachineConfig":
        """A machine with every capacity divided by ``factor``.

        Line size, associativities and the 16-way coloring are preserved;
        the page size shrinks by the same factor (floored at one line per
        page) so coloring granularity still works.
        """
        if factor < 1:
            raise ValueError("scale factor must be >= 1")
        base = cls()
        if factor == 1:
            return base
        page = max(base.line_size, base.page_size // factor)
        return cls(
            name=name or f"POWER5/{factor}",
            l1i_size=base.l1i_size // factor,
            l1d_size=base.l1d_size // factor,
            l2_size=base.l2_size // factor,
            l3_size=base.l3_size // factor,
            page_size=page,
        )

    def without_l3(self) -> "MachineConfig":
        """The Section 5.3 configuration: L3 victim cache disabled.

        Modeled as a zero-size L3; the hierarchy treats it as absent.
        """
        return replace(self, l3_size=0, name=self.name + "-noL3")

    @property
    def has_l3(self) -> bool:
        return self.l3_size > 0
