"""Benchmark: access generation, C fill kernels vs the Python draw path.

Times ``batch_stream(rng)`` -- the array producer behind
``Workload.access_batches`` -- for every pattern class at the benchmark
machine's scale (default 1/16; override with ``REPRO_BENCH_SCALE``) and
writes ``benchmarks/results/BENCH_workloads.json``.

Each row is one pattern class, generated in drive-sized chunks
(``DEFAULT_SLAB``) twice: with the native engine's MT19937 fill kernels
(``repro_mt_fill`` / ``repro_mt_randbelow``) and with ``REPRO_NATIVE=0``,
which is the Python reference: one scalar ``rng.random()`` or
``rng.randrange`` call per draw.  No drive runs that reference, since
without the engine every drive steps the scalar generators; the column
only measures what the kernels save.  The JSON records ns/access for
both, the speedup, and which engine the kernel run actually took.  Patterns that draw no random numbers
(sequential, looping, pointer chase, strided, replay) run the same
code either way and are recorded for scale.

It also drives one offline ``real_mrc`` each for twolf and mcf and
records the accesses generated and replayed against the accesses
simulated: the curve's first size generates its stream, asking for
exactly the chunks it runs, and the other 15 replay that recording.

Gates: both paths produce the identical stream for every class, and
its first ``SCALAR_PREFIX`` accesses equal the scalar ``generate()``
stream (the parity gate).  When the native engine ran, each curve must
also generate exactly one size's run (warmup plus measurement) and
generate plus replay exactly the simulated count, and
``RandomWorkingSet`` must run at least ``MIN_RANDOM_SPEEDUP`` (5) times
faster on the kernels than on the Python path.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import time

import numpy as np

from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.runner.offline import OfflineConfig, real_mrc
from repro.sim.fastsim import DEFAULT_SLAB
from repro.workloads.base import BatchRandom
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
from repro.workloads.spec import make_workload

#: Accesses per timed stream.
ACCESSES = 1 << 20
MIN_RANDOM_SPEEDUP = 5.0
ROUNDS = 3
#: Leading accesses of each stream also checked against ``generate()``.
SCALAR_PREFIX = 10_000
CURVE_WORKLOADS = ("twolf", "mcf")


def _patterns(machine):
    """One representative instance per pattern class, sized like the
    application models (fractions of the L2)."""
    l2 = machine.l2_size

    def frac(fraction):
        return max(machine.line_size, int(l2 * fraction))

    trace_rng = random.Random(0)
    recorded = [trace_rng.randrange(machine.l2_lines) for _ in range(50_000)]
    return {
        "SequentialStream": SequentialStream(frac(4.0)),
        "LoopingScan": LoopingScan(frac(0.18)),
        "RandomWorkingSet": RandomWorkingSet(frac(1.05)),
        "ZipfWorkingSet": ZipfWorkingSet(frac(1.5), alpha=1.0),
        "PointerChase": PointerChase(frac(0.375)),
        "StridedSweep": StridedSweep(frac(1.2), stride_lines=3),
        "MixedPattern(3 parts)": MixedPattern([
            (0.5, PointerChase(frac(0.375))),
            (0.3, StridedSweep(frac(1.2), stride_lines=3, base=1 << 34)),
            (0.2, RandomWorkingSet(frac(0.2), base=1 << 35)),
        ]),
        "RegionOffset": RegionOffset(RandomWorkingSet(frac(0.6)), 1 << 30),
        "PhaseSchedule": PhaseSchedule([
            Phase(ZipfWorkingSet(frac(1.2), alpha=0.7), 3 * machine.l2_lines),
            Phase(RandomWorkingSet(frac(0.3), base=1 << 34),
                  2 * machine.l2_lines),
        ]),
        "ReplayPattern": ReplayPattern(recorded, line_size=machine.line_size),
    }


@contextlib.contextmanager
def _native_off():
    """The Python reference: ``REPRO_NATIVE=0`` for the block."""
    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = saved


def _time_stream(pattern):
    """Best-of-ROUNDS ns/access over ACCESSES, plus the stream itself."""
    # Untimed warm-up: the first chunk-sized allocations page-fault
    # fresh memory, which would penalize whichever path runs first.
    pattern.batch_stream(random.Random(7))(DEFAULT_SLAB)
    best = float("inf")
    vaddrs = None
    for _ in range(ROUNDS):
        take = pattern.batch_stream(random.Random(7))
        chunks = []
        start = time.perf_counter()
        left = ACCESSES
        while left:
            size = min(DEFAULT_SLAB, left)
            chunks.append(take(size)[0])
            left -= size
        best = min(best, time.perf_counter() - start)
        vaddrs = np.concatenate(chunks)
    return best / ACCESSES * 1e9, vaddrs


def _generation_rows(patterns):
    engine = BatchRandom(random.Random(0)).engine
    rows = {}
    for name, pattern in patterns.items():
        kernel_ns, kernel_stream = _time_stream(pattern)
        with _native_off():
            python_ns, python_stream = _time_stream(pattern)
        # Parity gate: the kernels replay the Python draws exactly, and
        # both replay the scalar generator.
        assert np.array_equal(kernel_stream, python_stream), name
        scalar = pattern.generate(random.Random(7))
        prefix = [next(scalar).vaddr for _ in range(SCALAR_PREFIX)]
        assert kernel_stream[:SCALAR_PREFIX].tolist() == prefix, name
        rows[name] = {
            "kernel_ns_per_access": round(kernel_ns, 1),
            "python_ns_per_access": round(python_ns, 1),
            "speedup": round(python_ns / kernel_ns, 2),
        }
    return engine, rows


def _count_generation(workload):
    counted = [0]
    original = workload.access_batches

    def counting(*args, **kwargs):
        for chunk in original(*args, **kwargs):
            counted[0] += chunk[0].size
            yield chunk

    workload.access_batches = counting
    return counted


def _curve_rows(machine):
    rows = {}
    for name in CURVE_WORKLOADS:
        workload = make_workload(name, machine)
        generated = _count_generation(workload)
        telemetry = Telemetry.in_memory()
        start = time.perf_counter()
        with use_telemetry(telemetry):
            real_mrc(workload, machine, OfflineConfig())
        seconds = time.perf_counter() - start
        report = RunReport.from_telemetry(telemetry)
        simulated = report.counter_total("sim.batch_accesses")
        sources = report.counter_by_label(
            "workloads.stream_accesses", "source"
        )
        rows[name] = {
            "generated_accesses": generated[0],
            "replayed_accesses": sources.get("replayed", 0),
            "simulated_accesses": int(simulated),
            "ratio": round(generated[0] / simulated, 4),
            "seconds": round(seconds, 3),
        }
    return rows


def test_bench_workloads(bench_machine, report_dir):
    engine, rows = _generation_rows(_patterns(bench_machine))
    report = {
        "machine": bench_machine.name,
        "l2_lines": bench_machine.l2_lines,
        "accesses_per_stream": ACCESSES,
        "chunk": DEFAULT_SLAB,
        "engine": engine,
        "patterns": rows,
        "real_mrc": _curve_rows(bench_machine),
        "parity": True,
    }
    path = report_dir / "BENCH_workloads.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    if engine != "native":
        return  # every drive ran the scalar loop: nothing was batched
    config = OfflineConfig()
    one_run = (config.resolved_warmup(bench_machine)
               + config.resolved_measure(bench_machine))
    for name, row in report["real_mrc"].items():
        assert row["generated_accesses"] == one_run, (
            f"{name}: generated {row['generated_accesses']} accesses, "
            f"not one size's run of {one_run}; see {path}"
        )
        streamed = row["generated_accesses"] + row["replayed_accesses"]
        assert streamed == row["simulated_accesses"], (
            f"{name}: generated + replayed {streamed} accesses for "
            f"{row['simulated_accesses']} simulated; see {path}"
        )
    speedup = rows["RandomWorkingSet"]["speedup"]
    assert speedup >= MIN_RANDOM_SPEEDUP, (
        f"RandomWorkingSet kernels only {speedup}x the Python path "
        f"(need >= {MIN_RANDOM_SPEEDUP}x); see {path}"
    )
