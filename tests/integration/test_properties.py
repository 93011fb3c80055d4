"""Property-based tests on pipeline-level invariants.

These check the mathematical facts RapidMRC rests on, under
hypothesis-generated traces:

- MRCs are monotone non-increasing in cache size (LRU inclusion);
- stack-distance histograms are invariant under any relabeling of line
  numbers (why MRCs are independent of the configured partition, and
  why virtual vs physical addressing does not matter to the stack);
- v-offset matching changes level, never shape;
- the stale-repetition repair rewrites exactly the repeats, each as its
  predecessor's output + 1 (it is *not* idempotent: a repaired repeat
  can equal the entry after it);
- thinning a trace never *increases* recorded misses.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import fastpath
from repro.core.correction import (
    correct_stale_repetitions,
    count_repetitions,
    thin_trace,
)
from repro.core.rapidmrc import ProbeConfig, RapidMRC
from repro.core.stack import LRUStackSimulator
from repro.sim.machine import MachineConfig

MACHINE = MachineConfig.scaled(32)

traces = st.lists(
    st.integers(min_value=0, max_value=2000), min_size=10, max_size=800
)


def compute_mrc(trace, warmup="none"):
    engine = RapidMRC(MACHINE, ProbeConfig(warmup=warmup))
    return engine.compute(trace, instructions=50 * max(1, len(trace))).mrc


@settings(max_examples=40, deadline=None)
@given(trace=traces)
def test_mrc_monotone_nonincreasing(trace):
    mrc = compute_mrc(trace)
    values = [v for _s, v in mrc]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


@settings(max_examples=40, deadline=None)
@given(trace=traces, seed=st.integers(min_value=0, max_value=10_000))
def test_histogram_invariant_under_line_relabeling(trace, seed):
    """Stack distances depend only on the reuse structure, not on the
    actual line numbers -- the key to partition-independence."""
    distinct = sorted(set(trace))
    rng = random.Random(seed)
    relabeled_ids = rng.sample(range(100_000), len(distinct))
    mapping = dict(zip(distinct, relabeled_ids))
    relabeled = [mapping[line] for line in trace]

    # One boundary per depth: the pipeline's kernel at exact distances.
    sim = LRUStackSimulator(
        MACHINE.l2_lines, boundaries=range(1, MACHINE.l2_lines + 1)
    )
    hist_a = sim.process(trace)
    hist_b = sim.process(relabeled)
    assert hist_a.counts == hist_b.counts
    assert hist_a.cold_misses == hist_b.cold_misses


# LRU-friendly traces: looping reuse over a bounded footprint, the
# pattern the stack simulation is built for.  Monotonicity must hold for
# arbitrary traces too (tested above), but these exercise the histogram
# at small, dense stack distances where an off-by-one would bite.
lru_friendly = st.builds(
    lambda footprint, laps: [i % footprint for i in range(footprint * laps)],
    footprint=st.integers(min_value=2, max_value=300),
    laps=st.integers(min_value=2, max_value=6),
)


@settings(max_examples=40, deadline=None)
@given(trace=lru_friendly)
def test_mrc_monotone_for_lru_friendly_traces(trace):
    mrc = compute_mrc(trace)
    values = [v for _s, v in mrc]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert mrc.monotone_violations() == 0


@settings(max_examples=40, deadline=None)
@given(
    trace=traces,
    anchor_size=st.integers(min_value=1, max_value=16),
    anchor_mpki=st.floats(min_value=0.0, max_value=200),
)
def test_calibration_preserves_monotonicity(trace, anchor_size, anchor_mpki):
    """V-offset calibration shifts the curve and clips at zero -- both
    operations keep a monotone non-increasing curve monotone, so the
    reliability layer's monotonicity gate never rejects a probe for
    having been calibrated."""
    engine = RapidMRC(MACHINE, ProbeConfig())
    result = engine.compute(trace, instructions=50 * max(1, len(trace)))
    calibrated = result.calibrate(anchor_size, anchor_mpki)
    assert calibrated.monotone_violations() == 0


@settings(max_examples=40, deadline=None)
@given(trace=traces, anchor_mpki=st.floats(min_value=0.1, max_value=100))
def test_v_offset_preserves_pairwise_shape(trace, anchor_mpki):
    mrc = compute_mrc(trace)
    matched, _shift = mrc.v_offset_matched(8, anchor_mpki)
    # Pairwise differences (the shape) are preserved wherever no value
    # clipped at zero.
    for a in mrc.sizes:
        for b in mrc.sizes:
            if matched[a] > 0 and matched[b] > 0:
                assert (matched[a] - matched[b]) == pytest.approx(
                    mrc[a] - mrc[b], abs=1e-9
                )


#: Traces over a few lines, so runs of repeats are common.
repeat_heavy = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=200
)
#: The scalar reference and the vectorized repair every probe runs.
REPAIRS = (correct_stale_repetitions, fastpath.correct_stale_repetitions)


@settings(max_examples=60, deadline=None)
@given(trace=st.one_of(traces, repeat_heavy))
@example(trace=[0, 0, 0, 0, 0, 0, 1, 0, 0, 1])
def test_stale_repair_rewrites_exactly_the_repeats(trace):
    """Every entry equal to its predecessor (in the input) becomes the
    previous output + 1, every other entry is kept, and the converted
    count is the number of repeats.  The pinned example repairs to
    ``[0, 1, 2, 3, 4, 5, 1, 0, 1, 1]``: its last two outputs are equal,
    so repair is not idempotent."""
    for repair in REPAIRS:
        result = repair(trace)
        out = [int(line) for line in result.trace]
        assert result.converted == count_repetitions(trace)
        assert len(out) == len(trace)
        for index, line in enumerate(trace):
            if index and line == trace[index - 1]:
                assert out[index] == out[index - 1] + 1
            else:
                assert out[index] == line


@settings(max_examples=40, deadline=None)
@given(trace=st.one_of(traces, repeat_heavy))
def test_stale_repair_keeps_repeat_free_trace(trace):
    distinct = [line for index, line in enumerate(trace)
                if not index or line != trace[index - 1]]
    for repair in REPAIRS:
        result = repair(distinct)
        assert [int(line) for line in result.trace] == distinct
        assert result.converted == 0


@settings(max_examples=40, deadline=None)
@given(trace=traces, keep=st.integers(min_value=1, max_value=8))
def test_thinning_never_increases_total_misses(trace, keep):
    """Fewer recorded events -> fewer recorded misses at every size --
    the mechanism behind the Figure 5c downward shift."""
    full = compute_mrc(trace)
    thinned_trace = thin_trace(trace, keep)
    engine = RapidMRC(MACHINE, ProbeConfig(warmup="none"))
    # Same instruction window: the thinned probe covers the same time.
    thinned = engine.compute(
        thinned_trace, instructions=50 * max(1, len(trace))
    ).mrc
    for size in full.sizes:
        assert thinned[size] <= full[size] + 1e-9
