"""Core RapidMRC algorithms.

This package contains the paper's primary contribution: generating L2
miss-rate curves (MRCs) online from short, imperfect PMU-captured traces
of L2 accesses.

The pipeline (paper Section 3) is::

    trace log  --correction-->  corrected trace  --LRU stack-->
    stack-distance histogram  --normalize-->  MRC (MPKI per size)
    --v-offset match-->  calibrated MRC

Public entry points:

- :class:`repro.core.rapidmrc.RapidMRC` -- the full online pipeline.
- :class:`repro.core.mrc.MissRateCurve` -- the MRC value type.
- :class:`repro.core.stack.LRUStackSimulator` -- the Mattson stack.
- :class:`repro.core.phase.PhaseDetector` -- online phase detection.
- :func:`repro.core.partition.choose_partition_sizes` -- cache sizing.
"""

from repro.core.histogram import StackDistanceHistogram
from repro.core.mrc import MissRateCurve, mpki_distance
from repro.core.partition import PartitionAssignment, choose_partition_sizes
from repro.core.phase import PhaseDetector, PhaseEvent
from repro.core.rapidmrc import ProbeConfig, RapidMRC, RapidMRCResult
from repro.core.stack import LRUStackSimulator

__all__ = [
    "StackDistanceHistogram",
    "MissRateCurve",
    "mpki_distance",
    "PartitionAssignment",
    "choose_partition_sizes",
    "PhaseDetector",
    "PhaseEvent",
    "ProbeConfig",
    "RapidMRC",
    "RapidMRCResult",
    "LRUStackSimulator",
]
