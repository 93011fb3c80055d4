"""Batch streams equal the scalar generators, pattern by pattern.

Every pattern's ``batch_stream(rng)`` must produce exactly the stream
``generate(rng)`` produces -- same addresses, same store flags -- at any
chunk size or sequence of chunk sizes, and after every chunk the RNG it
was handed must hold the state the scalar generator leaves after as many
accesses.  ``Workload.access_batches`` is held to ``Workload.accesses``
the same way, including store promotion.  The C fill kernels
(``BatchRandom``) are swept against ``random.Random`` directly, and the
Python fallback paths are shown to give identical output.

Under ``REPRO_NATIVE=0`` this whole file runs on the Python draw path.
"""

import itertools
import random

import numpy as np
import pytest

from repro.sim import native
from repro.workloads.base import BatchRandom, Workload
from repro.workloads.patterns import (
    LoopingScan,
    MixedPattern,
    PointerChase,
    RandomWorkingSet,
    RegionOffset,
    SequentialStream,
    StridedSweep,
    ZipfWorkingSet,
)
from repro.workloads.phased import Phase, PhaseSchedule
from repro.workloads.replay import ReplayPattern

LINE = 128

PATTERNS = {
    "sequential": lambda: SequentialStream(300 * LINE),
    "looping": lambda: LoopingScan(97 * LINE, base=5 * LINE),
    "zipf": lambda: ZipfWorkingSet(500 * LINE, alpha=0.9),
    "pointer_chase": lambda: PointerChase(211 * LINE),
    "strided": lambda: StridedSweep(400 * LINE, stride_lines=3),
    "random_one_line": lambda: RandomWorkingSet(LINE),
    "random_non_pow2": lambda: RandomWorkingSet(960 * LINE),
    "mixed_one_part": lambda: MixedPattern([(1.0, RandomWorkingSet(77 * LINE))]),
    "mixed_three_parts": lambda: MixedPattern([
        (0.5, PointerChase(90 * LINE)),
        (0.3, StridedSweep(300 * LINE, stride_lines=3, base=1 << 34)),
        (0.2, RandomWorkingSet(60 * LINE, base=1 << 35)),
    ]),
    "region_offset": lambda: RegionOffset(
        ZipfWorkingSet(200 * LINE, alpha=1.1), 1 << 30
    ),
    "phase_schedule": lambda: PhaseSchedule([
        Phase(RandomWorkingSet(150 * LINE), 5_000),
        Phase(SequentialStream(700 * LINE, base=1 << 33), 3_001),
    ]),
    "replay": lambda: ReplayPattern([9, 4, 9, 1 << 40, 4, 7, 9], line_size=LINE),
}

#: Chunk size -> number of chunks drawn at that size.
CHUNKINGS = {1: 150, 7: 60, 8192: 3, 65536: 2}
#: A varying demand sequence, cycled.
VARYING = (1, 7, 8192, 3, 65536, 11, 2048, 1, 640)


def _scalar(stream, rng, boundaries):
    """Walk a scalar stream to the last boundary; return its addresses,
    store flags and the RNG state at every boundary."""
    total = boundaries[-1]
    vaddrs = np.empty(total, dtype=np.int64)
    stores = np.empty(total, dtype=np.bool_)
    states = []
    marks = iter(boundaries)
    mark = next(marks)
    for index, access in enumerate(itertools.islice(stream, total), 1):
        vaddrs[index - 1] = access.vaddr
        stores[index - 1] = access.is_store
        if index == mark:
            states.append(rng.getstate())
            mark = next(marks, None)
    return vaddrs, stores, states


def _sizes_for(chunking):
    if chunking == "varying":
        return list(itertools.islice(itertools.cycle(VARYING), 12))
    return [chunking] * CHUNKINGS[chunking]


def _check_pattern(pattern, sizes, seed=11):
    boundaries = list(itertools.accumulate(sizes))
    scalar_rng = random.Random(seed)
    want_v, want_s, want_states = _scalar(
        pattern.generate(scalar_rng), scalar_rng, boundaries
    )
    rng = random.Random(seed)
    take = pattern.batch_stream(rng)
    start = 0
    for size, state in zip(sizes, want_states):
        vaddrs, stores = take(size)
        assert vaddrs.dtype == np.int64 and stores.dtype == np.bool_
        assert vaddrs.size == stores.size == size
        assert np.array_equal(vaddrs, want_v[start:start + size])
        assert np.array_equal(stores, want_s[start:start + size])
        assert rng.getstate() == state, f"rng diverged after {start + size}"
        start += size


@pytest.mark.parametrize("chunking", [1, 7, 8192, 65536, "varying"])
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_pattern_batch_equals_scalar(name, chunking):
    _check_pattern(PATTERNS[name](), _sizes_for(chunking))


@pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("chunking", [1, 7, 8192, 65536, "varying"])
def test_access_batches_equal_accesses(fraction, chunking):
    workload = Workload(
        "parity", PATTERNS["mixed_three_parts"](), store_fraction=fraction,
        seed=5,
    )
    sizes = _sizes_for(chunking)
    total = sum(sizes)
    scalar = list(itertools.islice(workload.accesses(2), total))
    want_v = np.array([a.vaddr for a in scalar], dtype=np.int64)
    want_s = np.array([a.is_store for a in scalar], dtype=np.bool_)
    demand = [0]
    batches = workload.access_batches(2, demand=demand)
    start = 0
    for size in sizes:
        demand[0] = size
        vaddrs, stores = next(batches)
        assert np.array_equal(vaddrs, want_v[start:start + size])
        assert np.array_equal(stores, want_s[start:start + size])
        start += size
    if fraction == 1.0:
        assert want_s.all()
    elif fraction == 0.0:
        assert not want_s.any()


def test_access_batches_fixed_demand():
    workload = Workload("parity", PATTERNS["zipf"](), seed=3)
    scalar = list(itertools.islice(workload.accesses(), 3 * 1000))
    batches = workload.access_batches(0, demand=[1000])
    vaddrs = np.concatenate([next(batches)[0] for _ in range(3)])
    assert vaddrs.tolist() == [a.vaddr for a in scalar]


RANDBELOW_BOUNDS = [1, 2, 3, 255, 256, 257, 960, 153600,
                    2**31 - 1, 2**31, 2**32 - 1]


@pytest.mark.parametrize("bound", RANDBELOW_BOUNDS)
def test_randbelow_matches_randrange(bound):
    rng = random.Random(f"bound/{bound}")
    reference = random.Random(f"bound/{bound}")
    draws = BatchRandom(rng)
    engine = "native" if native.native_available() else "python"
    assert draws.engine == engine
    for count in (1, 5, 3000):
        got = draws.randbelow(bound, count)
        assert got.tolist() == [reference.randrange(bound) for _ in range(count)]
        assert rng.getstate() == reference.getstate()
    assert draws.engine == engine


def test_random_matches_random():
    rng = random.Random("doubles")
    reference = random.Random("doubles")
    draws = BatchRandom(rng)
    for count in (0, 1, 623, 625, 5000):
        assert draws.random(count).tolist() == [
            reference.random() for _ in range(count)
        ]
        assert rng.getstate() == reference.getstate()


def test_wide_bound_takes_python_path():
    """Bounds of 2**32 and up need two words per draw: the stream hands
    over to ``randrange`` for good, without losing its place."""
    rng = random.Random("wide")
    reference = random.Random("wide")
    draws = BatchRandom(rng)
    first = draws.randbelow(1000, 50)
    assert first.tolist() == [reference.randrange(1000) for _ in range(50)]
    for bound in (2**32, 2**40 + 3):
        got = draws.randbelow(bound, 200)
        assert got.tolist() == [reference.randrange(bound) for _ in range(200)]
        assert draws.engine == "python"
    assert draws.randbelow(7, 100).tolist() == [
        reference.randrange(7) for _ in range(100)
    ]
    assert draws.random(10).tolist() == [reference.random() for _ in range(10)]
    assert rng.getstate() == reference.getstate()


def test_missing_library_takes_python_path(monkeypatch):
    """With no native library the fallback draws give the same streams."""
    monkeypatch.setattr(native, "native_lib", lambda: None)
    assert BatchRandom(random.Random(0)).engine == "python"
    for name in ("random_non_pow2", "zipf", "mixed_three_parts",
                 "phase_schedule"):
        _check_pattern(PATTERNS[name](), _sizes_for("varying"))
    rng = random.Random(4)
    reference = random.Random(4)
    got = BatchRandom(rng).randbelow(153600, 1000)
    assert got.tolist() == [reference.randrange(153600) for _ in range(1000)]
    assert rng.getstate() == reference.getstate()


def test_bad_bound_rejected():
    with pytest.raises(ValueError):
        BatchRandom(random.Random(0)).randbelow(0, 3)
