"""Benchmark: the exact MRC path vs the per-access range-list reference.

Times the *full* exact pipeline (stale-repair correction, warmup, stack
simulation, MRC construction) on the paper's full-scale POWER5 L2
(15360 lines) two ways, and writes machine-readable results to
``benchmarks/results/BENCH_mrc_engine.json``:

* ``rangelist`` -- the per-access reference: scalar
  :func:`~repro.core.correction.correct_stale_repetitions`, then
  :func:`~repro.core.stack.reference_histogram` over a
  :class:`~repro.core.stack.RangeListLRUStack` (the paper's engine);
* ``batch`` -- ``RapidMRC.compute``, the vectorized kernel every exact
  probe runs.

Two hard gates ride along with the timings:

* **Parity** -- at every trace size the pipeline's histogram and MRC
  must be bit-identical to the range-list reference's.  A fast path that
  drifts is worse than no fast path; CI fails on any divergence.
* **Speedup** -- on the 160k-entry trace the pipeline must sustain at
  least 5x the accesses/sec of the per-access range-list reference (the
  design target of the vectorized kernel).

Trace sizes default to 10k / 160k / 1M entries; override with a
comma-separated ``REPRO_BENCH_MRC_SIZES`` (CI uses ``10000,160000`` to
keep the smoke job short).
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.core.rapidmrc import RapidMRC
from repro.obs import Telemetry, use_telemetry
from repro.sim.machine import MachineConfig

ENGINES = ["rangelist", "batch"]
DEFAULT_SIZES = [10_000, 160_000, 1_000_000]
SPEEDUP_SIZE = 160_000
MIN_SPEEDUP = 5.0
STALE_FRACTION = 0.15  # exercise the correction kernel, like a real probe

# Telemetry gate: an enabled in-memory telemetry may cost at most 3%
# over the no-op default on the 160k batch compute, plus a small
# absolute slack so sub-millisecond timer jitter cannot fail the gate.
MAX_TELEMETRY_OVERHEAD = 1.03
TELEMETRY_ABS_SLACK_S = 0.005


def bench_sizes():
    spec = os.environ.get("REPRO_BENCH_MRC_SIZES")
    if not spec:
        return DEFAULT_SIZES
    return [int(part) for part in spec.split(",") if part.strip()]


def make_trace(size, num_lines, seed=42):
    """Zipf-ish reuse mix with stale-SDAR repetition runs."""
    rng = random.Random(seed)
    trace = []
    line = 0
    while len(trace) < size:
        if trace and rng.random() < STALE_FRACTION:
            trace.append(line)  # stale repeat of the previous entry
        elif rng.random() < 0.5:
            line = rng.randrange(num_lines // 2)  # hot set
            trace.append(line)
        else:
            line = rng.randrange(8 * num_lines)  # long tail, evicts
            trace.append(line)
    return trace


def best_of(compute, trace):
    """Best wall time of ``compute(trace, instructions)`` and its result."""
    instructions = 48 * len(trace)
    rounds = 3 if len(trace) <= 200_000 else 1
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = compute(trace, instructions)
        best = min(best, time.perf_counter() - start)
    return result, best


def timed_compute(machine, trace):
    return best_of(RapidMRC(machine).compute, trace)


@pytest.fixture(scope="module")
def machine():
    # Full-scale POWER5 L2: the configuration the paper's online numbers
    # (and the fast path's 5x target) are stated against.
    return MachineConfig()


def test_bench_mrc_engine(machine, report_dir, range_list_reference):
    sizes = bench_sizes()
    report = {
        "machine": machine.name,
        "l2_lines": machine.l2_lines,
        "stale_fraction": STALE_FRACTION,
        "sizes": sizes,
        "engines": {engine: {} for engine in ENGINES},
        "speedup_vs_rangelist": {},
        "parity": True,
    }
    for size in sizes:
        trace = make_trace(size, machine.l2_lines)
        ref, ref_seconds = best_of(
            lambda t, n: range_list_reference(machine, t, n), trace
        )
        got, seconds = timed_compute(machine, trace)
        for engine, elapsed in (("rangelist", ref_seconds), ("batch", seconds)):
            report["engines"][engine][str(size)] = {
                "seconds": round(elapsed, 6),
                "accesses_per_sec": round(size / elapsed),
            }
        # Parity gate: the pipeline must be bit-identical to the
        # range-list reference -- histogram and final curve.
        assert got.histogram.counts == ref.histogram.counts, size
        assert got.histogram.cold_misses == ref.histogram.cold_misses, size
        assert dict(got.mrc) == dict(ref.mrc), size
        assert got.correction.converted == ref.correction.converted, size
        base = report["engines"]["rangelist"][str(size)]["accesses_per_sec"]
        fast = report["engines"]["batch"][str(size)]["accesses_per_sec"]
        report["speedup_vs_rangelist"][str(size)] = round(fast / base, 2)

    path = report_dir / "BENCH_mrc_engine.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    # Speedup gate: >= 5x accesses/sec on the 160k-entry trace.
    if SPEEDUP_SIZE in sizes:
        speedup = report["speedup_vs_rangelist"][str(SPEEDUP_SIZE)]
        assert speedup >= MIN_SPEEDUP, (
            f"batch engine only {speedup}x vs the range-list reference at "
            f"{SPEEDUP_SIZE} entries (need >= {MIN_SPEEDUP}x); see {path}"
        )


def test_bench_telemetry_overhead(machine, report_dir):
    """Gate: telemetry instrumentation stays out of the engine's way.

    The hot compute path carries span and counter calls; with the no-op
    default those must cost nothing measurable, and even a fully enabled
    in-memory telemetry must stay within a few percent, because the
    instrumentation is per-*compute*, never per-access.
    """
    trace = make_trace(SPEEDUP_SIZE, machine.l2_lines)
    # Warm caches/allocators once so neither timed run pays first-touch.
    timed_compute(machine, trace)

    noop_result, noop_seconds = timed_compute(machine, trace)
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry):
        traced_result, traced_seconds = timed_compute(machine, trace)

    # Sanity: the enabled run actually recorded, and changed nothing.
    assert telemetry.registry.counter_total("mrc.computes") == 3
    assert {span.name for span in telemetry.tracer.spans} == {
        "correction", "stack_distance",
    }
    assert dict(traced_result.mrc) == dict(noop_result.mrc)

    budget = noop_seconds * MAX_TELEMETRY_OVERHEAD + TELEMETRY_ABS_SLACK_S
    report = {
        "size": SPEEDUP_SIZE,
        "engine": "batch",
        "noop_seconds": round(noop_seconds, 6),
        "telemetry_seconds": round(traced_seconds, 6),
        "overhead": round(traced_seconds / noop_seconds - 1.0, 4),
        "max_overhead": MAX_TELEMETRY_OVERHEAD - 1.0,
        "abs_slack_seconds": TELEMETRY_ABS_SLACK_S,
    }
    path = report_dir / "BENCH_telemetry_overhead.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    assert traced_seconds <= budget, (
        f"enabled telemetry cost {traced_seconds:.4f}s vs "
        f"{noop_seconds:.4f}s no-op (> {MAX_TELEMETRY_OVERHEAD}x "
        f"+ {TELEMETRY_ABS_SLACK_S}s); see {path}"
    )
