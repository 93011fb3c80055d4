"""Ablation: LRU-stack engine cost (the paper's range-list appeal).

The paper's MRC calculation engine uses Kim et al.'s range-list
optimization [20] precisely because a naive stack walk is too slow for
online use.  This is a genuine microbenchmark (multiple rounds): the
two per-access engines process the same trace; the range-list engine
must beat the naive engine by a wide margin at L2-realistic depths.
"""

import random

import pytest

from repro.core.stack import LRUStackSimulator

DEPTH = 960           # 1/16-scale L2 lines
TRACE_LENGTH = 20_000
BOUNDARIES = [60 * k for k in range(1, 17)]


@pytest.fixture(scope="module")
def trace():
    rng = random.Random(42)
    # Zipf-ish mix: hot lines plus a long tail past the stack bound.
    hot = [rng.randrange(DEPTH // 2) for _ in range(TRACE_LENGTH // 2)]
    cold = [rng.randrange(8 * DEPTH) for _ in range(TRACE_LENGTH // 2)]
    mixed = hot + cold
    rng.shuffle(mixed)
    return mixed


def run_engine(engine, trace):
    simulator = LRUStackSimulator(DEPTH, engine=engine, boundaries=BOUNDARIES)
    return simulator.process(trace)


@pytest.mark.parametrize("engine", ["rangelist", "naive"])
def test_stack_engine_throughput(benchmark, trace, engine):
    histogram = benchmark.pedantic(
        run_engine, args=(engine, trace), rounds=3, iterations=1,
    )
    # Sanity: every engine consumed the whole trace.
    assert histogram.total_accesses == TRACE_LENGTH


def test_rangelist_beats_naive(trace):
    """Direct head-to-head timing assertion (not just reported numbers)."""
    import time

    def timed(engine):
        start = time.perf_counter()
        run_engine(engine, trace)
        return time.perf_counter() - start

    naive = timed("naive")
    rangelist = timed("rangelist")
    assert rangelist < naive, (rangelist, naive)
