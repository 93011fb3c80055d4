"""Differential tests: the C stack pass, the range-list and naive stacks.

:mod:`repro.core.fastpath` histograms a trace with the native engine's
one-pass kernel whenever that library loads, and with
:func:`~repro.core.stack.reference_histogram` over a
:class:`~repro.core.stack.RangeListLRUStack` otherwise
(``REPRO_NATIVE=0``, no compiler).  The C pass must return
:class:`~repro.core.stack.NaiveLRUStack`'s distances element for element
and resolve every warmup policy exactly as the reference does, and both
paths must reject the same bad arguments.  Every histogram case pins the
path that ran through the ``mrc.stack_kernel`` counter; without the
native engine only the reference runs and the exact-distance cases skip.
"""

import contextlib
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import fastpath as fp
from repro.core.histogram import COLD_MISS
from repro.core.stack import (
    LRUStackSimulator,
    NaiveLRUStack,
    RangeListLRUStack,
    reference_histogram,
)
from repro.core.warmup import (
    AutomaticWarmup,
    HybridWarmup,
    StaticWarmup,
    warmup_fraction_used,
)
from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.sim import native

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1
HAS_NATIVE = native.native_available()
KERNELS = ("native", "reference") if HAS_NATIVE else ("reference",)

needs_native = pytest.mark.skipif(
    not HAS_NATIVE, reason="no C compiler / native engine disabled"
)

#: Lines from the whole int64 range, with small ones mixed in so that
#: sentinel-like values (-1, -2) and dense reuse both show up.
LINES = st.one_of(
    st.integers(min_value=-3, max_value=40),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX]),
)


@contextlib.contextmanager
def on_kernel(kernel):
    """Run the block on one kernel and check that only it was counted.

    The reference is selected the way a user selects it, with
    ``REPRO_NATIVE=0``.
    """
    telemetry = Telemetry.in_memory()
    with pytest.MonkeyPatch.context() as patch, use_telemetry(telemetry):
        if kernel == "reference":
            patch.setenv("REPRO_NATIVE", "0")
        yield
    counted = RunReport.from_telemetry(telemetry).counter_by_label(
        "mrc.stack_kernel", "kernel"
    )
    assert set(counted) == {kernel}, counted


def per_kernel(compute):
    """``{kernel: compute()}`` over every kernel this process can run."""
    results = {}
    for kernel in KERNELS:
        with on_kernel(kernel):
            results[kernel] = compute()
    return results


def naive_distances(trace, depth):
    stack = NaiveLRUStack(depth)
    return [stack.access(line) for line in trace]


def distances(trace, depth):
    """The C pass's exact distances of ``trace``."""
    got, _ = native.stack_distances(
        native.native_lib(), fp.as_trace_array(trace), depth
    )
    return got.tolist()


def assert_all_naive(trace, depth):
    assert distances(trace, depth) == naive_distances(trace, depth), (
        trace, depth)


@needs_native
class TestDistances:
    @settings(max_examples=80, deadline=None)
    @given(
        pool=st.lists(LINES, min_size=1, max_size=30, unique=True),
        data=st.data(),
        depth=st.integers(min_value=1, max_value=24),
    )
    def test_property_kernels_match_naive(self, pool, data, depth):
        trace = data.draw(st.lists(st.sampled_from(pool), max_size=300))
        assert_all_naive(trace, depth)

    @pytest.mark.parametrize("line", [0, -1, INT64_MIN, INT64_MAX])
    def test_empty_and_one_entry(self, line):
        assert distances([], 4) == []
        assert distances([line], 4) == [COLD_MISS]
        for kernel, hist in per_kernel(
            lambda: fp.batch_histogram([line], max_depth=4)
        ).items():
            assert (hist.counts, hist.cold_misses) == ({}, 1), kernel

    def test_depth_one(self):
        trace = [7, 7, 8, 7, 7, 8, 8]
        assert distances(trace, 1) == [
            COLD_MISS, 1, COLD_MISS, COLD_MISS, 1, COLD_MISS, 1
        ]

    @pytest.mark.parametrize("depth", [1, 2, 3, 16, 100])
    def test_reuse_exactly_at_and_one_past_depth(self, depth):
        lines = [INT64_MAX - 7 * i for i in range(depth + 1)]
        at_depth = lines[:depth] + [lines[0]]
        past_depth = lines + [lines[0]]
        assert distances(at_depth, depth)[-1] == depth
        assert distances(past_depth, depth)[-1] == COLD_MISS
        assert_all_naive(at_depth, depth)
        assert_all_naive(past_depth, depth)

    def test_int64_extremes(self):
        trace = [INT64_MIN, INT64_MAX, -5, INT64_MIN, -5, INT64_MAX]
        assert distances(trace, 3) == [-1, -1, -1, 3, 2, 3]

    def test_long_trace_with_deep_stack(self):
        rng = random.Random(5)
        trace = [
            rng.randrange(300) if rng.random() < 0.5 else rng.randrange(6000)
            for _ in range(30_000)
        ]
        assert_all_naive(trace, 2048)
        assert_all_naive(trace[:3000], 64)

    @settings(max_examples=60, deadline=None)
    @given(
        trace=st.lists(st.integers(min_value=-2, max_value=30), max_size=200),
        depth=st.integers(min_value=1, max_value=40),
    )
    @example(trace=[], depth=1)
    @example(trace=[1, 2, 3], depth=3)
    @example(trace=[1, 1, 1], depth=2)
    def test_property_fill_index_matches_distinct_count(self, trace, depth):
        # The C pass reports the index at which the stack fills (n when
        # it never does): the access that brings the distinct lines seen
        # to ``depth``.  Warmup resolution relies on it.
        arr = np.asarray(trace, dtype=np.int64)
        _, fill = native.stack_distances(native.native_lib(), arr, depth)
        seen = set()
        want = len(trace)
        for index, line in enumerate(trace):
            seen.add(line)
            if len(seen) >= depth:
                want = index
                break
        assert fill == want

    @pytest.mark.parametrize("trace", [
        np.arange(10, dtype=np.int64)[::2],  # not contiguous
        np.arange(10, dtype=np.int32),
        np.zeros((2, 3), dtype=np.int64),
    ])
    def test_kernel_rejects_arrays_it_cannot_read(self, trace):
        with pytest.raises(ValueError):
            native.stack_distances(native.native_lib(), trace, 4)


WARMUPS = [
    lambda n: StaticWarmup(n // 3),
    lambda n: StaticWarmup(10 * n + 1),  # longer than the trace
    lambda n: AutomaticWarmup(),
    lambda n: HybridWarmup(fallback_entries=n // 2),
    lambda n: HybridWarmup(fallback_entries=0),
    lambda n: HybridWarmup(fallback_entries=10 * n + 1),
]


def bookkeeping(policy):
    return {
        name: getattr(policy, name)
        for name in ("warmup_entries", "automatic_triggered", "_warmed")
        if hasattr(policy, name)
    }


def assert_warmup_parity(trace, depth, bounds, make_policy):
    n = len(trace)
    ref_policy = make_policy(n)
    ref = reference_histogram(
        RangeListLRUStack(depth, bounds), trace, warmup=ref_policy
    )

    def compute():
        policy = make_policy(n)
        hist = fp.batch_histogram(
            trace, max_depth=depth, boundaries=bounds, warmup=policy
        )
        return hist, policy

    for kernel, (hist, policy) in per_kernel(compute).items():
        assert hist.counts == ref.counts, kernel
        assert hist.cold_misses == ref.cold_misses, kernel
        assert bookkeeping(policy) == bookkeeping(ref_policy), kernel
        assert warmup_fraction_used(policy, n) == warmup_fraction_used(
            ref_policy, n
        ), kernel


class TestWarmupAcrossKernels:
    @settings(max_examples=60, deadline=None)
    @given(
        trace=st.lists(st.integers(min_value=0, max_value=30), max_size=250),
        data=st.data(),
    )
    def test_property_bookkeeping_matches_reference(self, trace, data):
        depth = data.draw(st.integers(min_value=1, max_value=16))
        bounds = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=depth), min_size=1, max_size=4
        )))
        make_policy = data.draw(st.sampled_from(WARMUPS))
        assert_warmup_parity(trace, depth, bounds, make_policy)

    @pytest.mark.parametrize("make_policy", WARMUPS)
    def test_stack_that_never_fills(self, make_policy):
        trace = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5] * 4  # 7 lines
        assert_warmup_parity(trace, 16, [4, 8, 16], make_policy)

    @pytest.mark.parametrize("make_policy", WARMUPS)
    def test_stack_fills_on_the_last_entry(self, make_policy):
        trace = [1, 2, 1, 3, 2, 4]
        assert_warmup_parity(trace, 4, [2, 4], make_policy)

    @pytest.mark.parametrize("make_policy", WARMUPS)
    def test_empty_trace(self, make_policy):
        assert_warmup_parity([], 4, [2, 4], make_policy)


class TestKernelSelection:
    @needs_native
    def test_simulator_process_runs_the_native_kernel(self):
        # The repository benchmark attributes the stack layer by
        # wrapping LRUStackSimulator.process; the kernel runs under it.
        with on_kernel("native"):
            got = LRUStackSimulator(8, boundaries=[2, 8]).process(
                [1, 2, 3, 1, 2, 3, 4, 4]
            )
        want = reference_histogram(
            RangeListLRUStack(8, [2, 8]), [1, 2, 3, 1, 2, 3, 4, 4]
        )
        assert (got.counts, got.cold_misses) == (want.counts, want.cold_misses)

    def test_kill_switch_takes_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            fp.batch_histogram([1, 2, 1], max_depth=4)
        counted = RunReport.from_telemetry(telemetry).counter_by_label(
            "mrc.stack_kernel", "kernel"
        )
        assert counted == {"reference": 1}

    def test_missing_compiler_takes_reference(self, monkeypatch):
        # An engine that cannot be built leaves every histogram on the
        # range-list reference, still exact.
        monkeypatch.setattr(native, "_LIB", None)
        monkeypatch.setattr(native, "_LIB_TRIED", True)
        monkeypatch.setattr(native, "_LIB_FAILURE", "no_compiler")
        monkeypatch.setattr(native, "_WARNED", True)
        trace = [5, 6, 7, 5, 6, 8, 5]
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            got = fp.batch_histogram(trace, max_depth=3, boundaries=[1, 3])
        counted = RunReport.from_telemetry(telemetry).counter_by_label(
            "mrc.stack_kernel", "kernel"
        )
        assert counted == {"reference": 1}
        want = reference_histogram(RangeListLRUStack(3, [1, 3]), trace)
        assert (got.counts, got.cold_misses) == (want.counts, want.cold_misses)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_same_rejections_on_every_kernel(self, kernel, monkeypatch):
        # Arguments are checked before the path is chosen, so a bad call
        # fails the same way with or without the native engine.
        if kernel == "reference":
            monkeypatch.setenv("REPRO_NATIVE", "0")
        with pytest.raises(ValueError, match="max_depth must be positive"):
            fp.batch_histogram([1, 2], max_depth=0)
        with pytest.raises(ValueError, match="positive depths"):
            fp.batch_histogram([1], max_depth=4, boundaries=[0, 2])
        with pytest.raises(ValueError, match="cannot exceed max_depth"):
            fp.batch_histogram([1], max_depth=4, boundaries=[8])
        with pytest.raises(ValueError, match="one-dimensional"):
            fp.batch_histogram([[1, 2], [3, 4]], max_depth=4)
        with pytest.raises(TypeError, match="warmup policy"):
            fp.batch_histogram([1, 2], max_depth=4, warmup=object())
