"""Miss-rate-curve value type and curve metrics.

An MRC maps an allocated cache size -- expressed in *colors* (partition
units, paper Section 2.1) -- to a miss rate in MPKI (misses per kilo
instruction).  The paper evaluates 16 colors on a 1.875 MB L2, so a color
is 1/16th of the cache.

Two curve operations from the paper live here:

- *v-offset matching* (Section 3.2): the calculated curve is shifted
  vertically so it agrees with the measured miss rate at one anchor size
  (the paper uses the 8-color point).  The shift is uniform, preserving
  curve shape.
- *MPKI distance* (Section 5.2.1): the similarity metric
  ``1/16 * sum_i |real(i) - calc(i)|`` used in Table 2 columns (i)/(j).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Tuple

__all__ = [
    "MissRateCurve",
    "mpki_distance",
    "max_mpki_distance",
]


@dataclass(frozen=True)
class MissRateCurve:
    """An L2 miss-rate curve: ``MPKI`` as a function of cache size in colors.

    Instances are immutable; transformations return new curves.

    Attributes:
        mpki: mapping from size (number of colors, ``1..num_colors``) to
            the miss rate in misses per kilo-instruction at that size.
        label: free-form description (workload name, probe id, ...).
    """

    mpki: Mapping[int, float]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.mpki:
            raise ValueError("an MRC needs at least one (size, mpki) point")
        clean: Dict[int, float] = {}
        for size, value in self.mpki.items():
            if size < 1:
                raise ValueError(f"cache size must be >= 1 color, got {size}")
            if value < 0 or math.isnan(value):
                raise ValueError(f"MPKI must be non-negative, got {value!r}")
            clean[int(size)] = float(value)
        object.__setattr__(self, "mpki", dict(sorted(clean.items())))
        # Cached once: value_at() sits on the partition selectors' inner
        # loops (O(N*C^2) calls) and on the cache-reuse re-anchor path,
        # where rebuilding the tuple and linear-scanning for neighbours
        # dominated the lookup.
        object.__setattr__(self, "_sizes", tuple(self.mpki.keys()))

    # -- basic accessors ---------------------------------------------------

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Cache sizes (in colors) at which the curve is defined, ascending."""
        return self._sizes

    @property
    def num_points(self) -> int:
        return len(self.mpki)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return iter(self.mpki.items())

    def __getitem__(self, size: int) -> float:
        return self.mpki[size]

    def __contains__(self, size: int) -> bool:
        return size in self.mpki

    def value_at(self, size: int) -> float:
        """MPKI at ``size`` colors, interpolating linearly between points.

        Sizes outside the defined range clamp to the nearest endpoint --
        MRCs are defined on a closed size interval and extrapolating a
        monotone-ish curve past its endpoints is not meaningful.
        """
        if size in self.mpki:
            return self.mpki[size]
        sizes = self._sizes
        if size <= sizes[0]:
            return self.mpki[sizes[0]]
        if size >= sizes[-1]:
            return self.mpki[sizes[-1]]
        index = bisect_left(sizes, size)
        lo = sizes[index - 1]
        hi = sizes[index]
        frac = (size - lo) / (hi - lo)
        return self.mpki[lo] + frac * (self.mpki[hi] - self.mpki[lo])

    # -- paper operations --------------------------------------------------

    def shifted(self, delta: float) -> "MissRateCurve":
        """Return the curve uniformly shifted vertically by ``delta`` MPKI.

        Values are floored at zero: a miss rate cannot be negative, and
        the paper's v-offset matching may otherwise push near-zero tails
        below zero.
        """
        return MissRateCurve(
            {size: max(0.0, value + delta) for size, value in self.mpki.items()},
            label=self.label,
        )

    def v_offset_matched(
        self, anchor_size: int, anchor_mpki: float
    ) -> Tuple["MissRateCurve", float]:
        """V-offset match the curve at one anchor point (paper Section 3.2).

        The whole curve is transposed so that ``curve[anchor_size] ==
        anchor_mpki``.  The paper obtains ``anchor_mpki`` from the PMU at
        the currently-configured partition size (8 colors in Section 5.2.1).

        Returns:
            ``(matched_curve, shift)`` where ``shift`` is the applied delta
            (Table 2 column h).
        """
        shift = anchor_mpki - self.value_at(anchor_size)
        return self.shifted(shift), shift

    def affine_matched(
        self,
        anchor_a: int,
        mpki_a: float,
        anchor_b: int,
        mpki_b: float,
    ) -> Tuple["MissRateCurve", float, float]:
        """Two-point (scale + shift) calibration.

        An extension of the paper's one-point v-offset matching: with
        *two* measured points -- cheap to obtain online, e.g. the miss
        rates before and after a partition resize -- the curve can be
        affinely corrected, fixing not only its level but also a
        uniformly compressed/stretched dynamic range (the flat-tail
        artifact dropped PMU events cause, Section 5.2.5).

        The transform ``v -> scale * v + shift`` maps the curve's values
        at the two anchors onto the measured ones.  If the curve is flat
        across the anchors (no slope information), this degenerates to
        v-offset matching at ``anchor_a``.

        Returns:
            ``(matched_curve, scale, shift)``.
        """
        if anchor_a == anchor_b:
            raise ValueError("anchors must be two different sizes")
        value_a = self.value_at(anchor_a)
        value_b = self.value_at(anchor_b)
        if abs(value_a - value_b) < 1e-12:
            matched, shift = self.v_offset_matched(anchor_a, mpki_a)
            return matched, 1.0, shift
        scale = (mpki_a - mpki_b) / (value_a - value_b)
        if scale <= 0:
            # Measurements disagree with the curve's direction; scaling
            # would mirror the shape.  Fall back to pure shift.
            matched, shift = self.v_offset_matched(anchor_a, mpki_a)
            return matched, 1.0, shift
        shift = mpki_a - scale * value_a
        matched = MissRateCurve(
            {
                size: max(0.0, scale * value + shift)
                for size, value in self.mpki.items()
            },
            label=self.label,
        )
        return matched, scale, shift

    # -- shape analysis ----------------------------------------------------

    def is_flat(self, tolerance_mpki: float = 0.5) -> bool:
        """True if the curve is horizontally flat within ``tolerance_mpki``.

        Flat MRCs indicate cache-insensitive applications; the paper's
        footnote 4 pools all such applications into one shared partition.
        """
        values = list(self.mpki.values())
        return (max(values) - min(values)) <= tolerance_mpki

    def dynamic_range(self) -> float:
        """MPKI spread between the smallest and largest defined size."""
        values = list(self.mpki.values())
        return max(values) - min(values)

    def knee(self, fraction: float = 0.9) -> int:
        """Smallest size capturing ``fraction`` of the curve's total drop.

        A crude working-set indicator: the size at which adding more cache
        stops paying.  For a flat curve this is the smallest size.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        sizes = self.sizes
        top = self.mpki[sizes[0]]
        bottom = self.mpki[sizes[-1]]
        drop = top - bottom
        if drop <= 0:
            return sizes[0]
        target = top - fraction * drop
        for size in sizes:
            if self.mpki[size] <= target:
                return size
        return sizes[-1]

    def monotone_violations(self) -> int:
        """Count of adjacent size pairs where MPKI *increases* with size.

        Real measured MRCs are near-monotone decreasing ("the general trend
        in nearly all MRCs", Section 2.1); violations flag noisy curves.
        """
        values = list(self.mpki.values())
        return sum(1 for a, b in zip(values, values[1:]) if b > a + 1e-12)

    # -- construction helpers ----------------------------------------------

    @classmethod
    def from_points(
        cls, points: Iterable[Tuple[int, float]], label: str = ""
    ) -> "MissRateCurve":
        return cls(dict(points), label=label)

    def with_label(self, label: str) -> "MissRateCurve":
        return MissRateCurve(self.mpki, label=label)


def mpki_distance(real: MissRateCurve, calculated: MissRateCurve) -> float:
    """Average absolute MPKI distance between two curves (Section 5.2.1).

    ``Distance = 1/N * sum_i |MPKI_real(i) - MPKI_calc(i)|`` over the sizes
    where *both* curves are defined (the paper uses all 16).
    """
    common = sorted(set(real.sizes) & set(calculated.sizes))
    if not common:
        raise ValueError("curves share no common sizes")
    total = sum(abs(real[size] - calculated[size]) for size in common)
    return total / len(common)


def max_mpki_distance(real: MissRateCurve, calculated: MissRateCurve) -> float:
    """Worst-case pointwise MPKI gap over the common sizes."""
    common = sorted(set(real.sizes) & set(calculated.sizes))
    if not common:
        raise ValueError("curves share no common sizes")
    return max(abs(real[size] - calculated[size]) for size in common)
