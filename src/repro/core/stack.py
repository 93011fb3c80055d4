"""Mattson LRU stack simulation.

The Mattson stack algorithm (paper Section 2.1) computes, for each access
in a trace, its *stack distance*: the current depth of the accessed line
on an LRU-ordered stack of all resident lines (1 = top).  An access with
distance ``d`` hits in any fully-associative LRU cache of size >= ``d``
lines and misses in any smaller one, so a single pass yields the whole
miss-rate curve.

The pipeline's :class:`LRUStackSimulator` runs whole traces through the
exact C pass of :mod:`repro.core.fastpath` or a sampling estimator.  Two
per-access stacks stay here as the references that pass is pinned
bit-identical to, driven by :func:`reference_histogram`; the range-list
one is also what runs where the native engine is unavailable:

- :class:`NaiveLRUStack` -- a literal list-based stack, O(depth) per
  access.  The executable specification of exact distances.
- :class:`RangeListLRUStack` -- Kim, Hill & Wood's *range list*
  optimization [20], the one the paper's MRC engine uses (Section 3.2).
  Distances are resolved only to the granularity of the cache sizes of
  interest (the 16 partition boundaries), which cuts the per-access cost
  to O(#boundaries) pointer operations.

Every stack is bounded to ``max_depth`` lines, as the paper bounds its
stack to the L2 size: any access whose distance exceeds the bound is
indistinguishable from a cold miss for every cache size under study and
is reported as :data:`repro.core.histogram.COLD_MISS`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.estimators import (
    ESTIMATORS,
    EstimatorConfig,
    is_estimator,
    make_estimator,
)
from repro.core.fastpath import batch_histogram
from repro.core.histogram import COLD_MISS, StackDistanceHistogram

__all__ = [
    "NaiveLRUStack",
    "RangeListLRUStack",
    "LRUStackSimulator",
    "check_engine",
    "reference_histogram",
]


class NaiveLRUStack:
    """Reference list-based LRU stack.  O(depth) per access.

    Position 0 of the internal list is the top of the stack (most recently
    used).  Only suitable for tests and small traces.
    """

    def __init__(self, max_depth: int):
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        self.max_depth = max_depth
        self._stack: List[int] = []

    @property
    def occupancy(self) -> int:
        return len(self._stack)

    @property
    def is_full(self) -> bool:
        return len(self._stack) >= self.max_depth

    def access(self, line: int) -> int:
        """Touch ``line``; return its stack distance or ``COLD_MISS``."""
        try:
            index = self._stack.index(line)
        except ValueError:
            self._stack.insert(0, line)
            if len(self._stack) > self.max_depth:
                self._stack.pop()
            return COLD_MISS
        del self._stack[index]
        self._stack.insert(0, line)
        return index + 1  # distances are 1-based

    def resident_lines(self) -> List[int]:
        """Lines currently on the stack, most-recent first (for tests)."""
        return list(self._stack)


class _Node:
    """Doubly-linked-list node for the range-list engine."""

    __slots__ = ("line", "prev", "next", "range_index")

    def __init__(self, line: int):
        self.line = line
        self.prev: Optional["_Node"] = None
        self.next: Optional["_Node"] = None
        self.range_index = 0


class RangeListLRUStack:
    """Kim et al.'s range-list LRU stack [20].

    Stack depths are partitioned into ranges by ``boundaries`` (ascending
    depths, e.g. the 16 partition sizes in lines).  Each resident line
    knows only which range it currently occupies; *marker* pointers track
    the node sitting exactly at each boundary depth.  Moving an accessed
    node to the top demotes by one position exactly the nodes above it, so
    only the markers above it need adjusting -- O(#boundaries) per access.

    Reported distances are quantized to the *upper boundary* of the range
    the line was found in.  This is exact for every cache size that is a
    boundary: a line in range ``(b[r-1], b[r]]`` hits at sizes >= ``b[r]``
    and misses at sizes <= ``b[r-1]``, which is precisely what the
    quantized distance ``b[r]`` encodes.
    """

    def __init__(self, max_depth: int, boundaries: Optional[Sequence[int]] = None):
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        if boundaries is None:
            boundaries = [max_depth]
        bounds = sorted(set(int(b) for b in boundaries))
        if not bounds or bounds[0] < 1:
            raise ValueError("boundaries must be positive depths")
        if bounds[-1] != max_depth:
            if bounds[-1] > max_depth:
                raise ValueError("boundaries cannot exceed max_depth")
            bounds.append(max_depth)
        self.max_depth = max_depth
        self.boundaries = bounds
        # _markers[i] is the node at depth boundaries[i], or None while the
        # stack has not yet grown that deep.
        self._markers: List[Optional[_Node]] = [None] * len(bounds)
        self._nodes: Dict[int, _Node] = {}
        self._head: Optional[_Node] = None
        self._tail: Optional[_Node] = None

    @property
    def occupancy(self) -> int:
        return len(self._nodes)

    @property
    def is_full(self) -> bool:
        return len(self._nodes) >= self.max_depth

    # -- linked-list primitives --------------------------------------------

    def _push_front(self, node: _Node) -> None:
        node.prev = None
        node.next = self._head
        if self._head is not None:
            self._head.prev = node
        self._head = node
        if self._tail is None:
            self._tail = node

    def _unlink(self, node: _Node) -> None:
        if node.prev is not None:
            node.prev.next = node.next
        else:
            self._head = node.next
        if node.next is not None:
            node.next.prev = node.prev
        else:
            self._tail = node.prev
        node.prev = None
        node.next = None

    # -- marker maintenance --------------------------------------------------

    def _demote_markers_above(self, limit_range: int) -> None:
        """Shift markers ``0..limit_range-1`` down one position.

        Called when a node is inserted at the top (every shallower node
        sinks one position) or when a node from range ``limit_range`` is
        moved to the top (only nodes above it sink).

        A marker at depth 1 (possible only when ``boundaries[0] == 1``) has
        no predecessor; it is left ``None`` here and reclaimed by the
        caller once the new top-of-stack node is linked in.
        """
        for i in range(limit_range):
            marker = self._markers[i]
            if marker is None:
                continue
            # The old boundary node sinks past the boundary into range i+1;
            # its predecessor becomes the new boundary node.
            marker.range_index = i + 1
            self._markers[i] = marker.prev

    def _reclaim_head_marker(self) -> None:
        """Point a depth-1 boundary marker at the new head after a push."""
        if self.boundaries[0] == 1 and self._nodes:
            self._markers[0] = self._head

    def _settle_new_markers(self) -> None:
        """Claim markers for boundaries the stack has just grown to reach."""
        for i, bound in enumerate(self.boundaries):
            if self._markers[i] is None and len(self._nodes) == bound:
                self._markers[i] = self._tail

    def access(self, line: int) -> int:
        """Touch ``line``; return its quantized distance or ``COLD_MISS``."""
        node = self._nodes.get(line)
        if node is None:
            return self._access_cold(line)

        range_index = node.range_index
        distance = self.boundaries[range_index]

        if self._head is node:
            # Already on top; markers are unaffected.
            return distance

        # Markers strictly above the node's position sink by one.  If the
        # node *is* a boundary node, its own marker must be handed to its
        # predecessor as well.
        if range_index < len(self._markers) and self._markers[range_index] is node:
            self._demote_markers_above(range_index)
            self._markers[range_index] = node.prev
        else:
            self._demote_markers_above(range_index)

        self._unlink(node)
        node.range_index = 0
        self._push_front(node)
        self._reclaim_head_marker()
        return distance

    def _access_cold(self, line: int) -> int:
        node = _Node(line)
        # Every resident node sinks one position: demote all markers.
        self._demote_markers_above(len(self._markers))
        self._push_front(node)
        self._nodes[line] = node
        if len(self._nodes) > self.max_depth:
            victim = self._tail
            assert victim is not None
            self._unlink(victim)
            del self._nodes[victim.line]
            # The deepest marker pointed above the victim, so no marker
            # adjustment is needed on eviction.
        self._reclaim_head_marker()
        self._settle_new_markers()
        return COLD_MISS

    def resident_lines(self) -> List[int]:
        """Lines currently on the stack, most-recent first (for tests)."""
        lines = []
        node = self._head
        while node is not None:
            lines.append(node.line)
            node = node.next
        return lines

    def check_invariants(self) -> None:
        """Verify marker positions against a full walk (tests only)."""
        depth = 0
        node = self._head
        positions: Dict[int, int] = {}
        while node is not None:
            depth += 1
            positions[id(node)] = depth
            node = node.next
        if depth != len(self._nodes):
            raise AssertionError("linked list length != node-map size")
        for i, bound in enumerate(self.boundaries):
            marker = self._markers[i]
            if depth >= bound:
                if marker is None or positions[id(marker)] != bound:
                    raise AssertionError(
                        f"marker {i} not at depth {bound}: "
                        f"{None if marker is None else positions[id(marker)]}"
                    )
            elif marker is not None:
                raise AssertionError(f"marker {i} set before depth {bound} reached")
        # Range indices must match true depths.
        node = self._head
        depth = 0
        while node is not None:
            depth += 1
            expected = self._range_of_depth(depth)
            if node.range_index != expected:
                raise AssertionError(
                    f"node at depth {depth} has range {node.range_index}, "
                    f"expected {expected}"
                )
            node = node.next

    def _range_of_depth(self, depth: int) -> int:
        for i, bound in enumerate(self.boundaries):
            if depth <= bound:
                return i
        raise AssertionError("depth beyond max_depth")


def reference_histogram(
    stack, trace: Iterable[int], warmup: "object" = None
) -> StackDistanceHistogram:
    """Histogram ``trace`` through a per-access ``stack``, one access at a time.

    The scalar reference the batch kernel and the estimators are pinned
    against: ``stack`` is a :class:`NaiveLRUStack` or a
    :class:`RangeListLRUStack`, and ``warmup`` a policy from
    :mod:`repro.core.warmup` (anything with ``should_record(index,
    stack) -> bool``) or ``None`` to record every access.
    """
    histogram = StackDistanceHistogram(max_depth=stack.max_depth)
    record_all = warmup is None
    for index, line in enumerate(trace):
        distance = stack.access(line)
        if record_all or warmup.should_record(index, stack):
            histogram.record(distance)
    return histogram


def check_engine(name: object) -> None:
    """Raise ``ValueError`` unless ``name`` is ``batch`` or an estimator."""
    if name != "batch" and not is_estimator(name):
        raise ValueError(
            f"unknown stack engine {name!r}; options: "
            f"{', '.join(['batch'] + sorted(ESTIMATORS))}"
        )


class LRUStackSimulator:
    """Runs a whole trace through the stack and returns its histogram.

    This is the paper's 'LRU stack simulator' (Section 3.2): it consumes a
    corrected access trace, handles the warmup phase, and produces a
    :class:`~repro.core.histogram.StackDistanceHistogram`.

    Args:
        max_depth: stack bound in lines (the L2 size: 15360 on POWER5).
        engine: ``batch`` -- the exact whole-trace kernel of
            :mod:`repro.core.fastpath` (C, or the range-list reference
            without the native engine), bit-identical to
            :func:`reference_histogram` over a :class:`RangeListLRUStack`
            -- or a sampling estimator from :mod:`repro.core.estimators`
            (``shards``), which leaves its cost accounting in
            :attr:`last_estimate`.
        boundaries: the depths (in lines) at which distances must be
            resolvable -- normally the 16 partition sizes.  Distances
            are quantized to exactly these (``max_depth`` is appended).
    """

    def __init__(
        self,
        max_depth: int,
        engine: str = "batch",
        boundaries: Optional[Sequence[int]] = None,
        estimator_config: "object" = None,
    ):
        check_engine(engine)
        self.engine_name = engine
        self.boundaries = list(boundaries) if boundaries is not None else None
        self.estimator_config = estimator_config
        #: Populated by :meth:`process` when an estimator engine runs.
        self.last_estimate = None
        self.max_depth = max_depth

    def process(
        self,
        trace: Iterable[int],
        warmup: "object" = None,
    ) -> StackDistanceHistogram:
        """Run ``trace`` through the stack and histogram post-warmup accesses.

        Args:
            trace: iterable of cache-line numbers.
            warmup: a warmup policy from :mod:`repro.core.warmup`, or
                ``None`` to record every access.

        Returns:
            The stack-distance histogram of all recorded accesses.
        """
        if self.engine_name == "batch":
            return batch_histogram(
                trace,
                max_depth=self.max_depth,
                boundaries=self.boundaries,
                warmup=warmup,
            )
        estimator = make_estimator(
            self.engine_name,
            max_depth=self.max_depth,
            boundaries=self.boundaries,
            config=self.estimator_config or EstimatorConfig(),
        )
        estimate = estimator.estimate(trace, warmup=warmup)
        self.last_estimate = estimate
        return estimate.histogram
