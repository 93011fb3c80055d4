"""Benchmark: sub-linear estimator backends vs the exact MRC path.

Times the full ``RapidMRC.compute`` pipeline on the paper's full-scale
POWER5 L2 for the SHARDS and AET estimator backends alongside the
per-access range-list reference (scalar correction, then
:func:`~repro.core.stack.reference_histogram` over a
:class:`~repro.core.stack.RangeListLRUStack`) and the exact ``batch``
kernel every exact probe runs, and writes machine-readable results to
``benchmarks/results/BENCH_estimators.json``.

Three hard gates ride along with the timings, all stated against the
range-list reference:

* **Accuracy** -- at every trace size each estimator's curve must stay
  within a documented MPKI envelope of the exact range-list curve at
  every partition boundary.  An estimator that drifts past its envelope
  is returning garbage, not an approximation; CI fails on any breach.
* **Footprint** -- at R = 0.1 SHARDS must keep at least 10x fewer
  entries resident than the exact distinct-line footprint (the
  sub-linear-memory design target).
* **Speedup** -- on the 160k-entry trace both estimators must sustain
  at least 5x the accesses/sec of the per-access range-list reference.

``speedup_vs_batch`` records each estimator against the exact kernel
too, ungated: that is the exact path a sampled probe actually replaces.

Trace sizes default to 10k / 160k entries; override with a
comma-separated ``REPRO_BENCH_ESTIMATOR_SIZES``.
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.core.rapidmrc import ProbeConfig, RapidMRC
from repro.sim.machine import MachineConfig

ESTIMATORS = ["shards", "aet"]
DEFAULT_SIZES = [10_000, 160_000]
SPEEDUP_SIZE = 160_000
MIN_SPEEDUP = 5.0
MIN_FOOTPRINT_RATIO = 10.0
SAMPLING_RATE = 0.1
STALE_FRACTION = 0.15  # exercise the correction kernel, like a real probe

# Accuracy envelopes (max |MPKI - rangelist| over the partition
# boundaries).  SHARDS resolves individual reuses so it sits close to
# exact even at R = 0.1; AET reconstructs the curve from reuse-time
# statistics, so its envelope is looser.
MAX_MPKI_ERROR = {"shards": 2.0, "aet": 3.0}


def bench_sizes():
    spec = os.environ.get("REPRO_BENCH_ESTIMATOR_SIZES")
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


@pytest.fixture(scope="module")
def machine():
    # Full-scale POWER5 L2: the configuration the 5x target and the
    # BENCH_mrc_engine baselines are stated against.
    return MachineConfig()


def test_bench_estimators(machine, report_dir, range_list_reference):
    sizes = bench_sizes()
    report = {
        "machine": machine.name,
        "l2_lines": machine.l2_lines,
        "stale_fraction": STALE_FRACTION,
        "sampling_rate": SAMPLING_RATE,
        "sizes": sizes,
        "engines": {
            name: {} for name in ["rangelist", "batch"] + ESTIMATORS
        },
        "speedup_vs_rangelist": {name: {} for name in ESTIMATORS},
        "speedup_vs_batch": {name: {} for name in ESTIMATORS},
        "max_mpki_error": {name: {} for name in ESTIMATORS},
        "footprint_ratio": {},
    }
    for size in sizes:
        trace = make_trace(size, machine.l2_lines)
        distinct = len(set(trace))
        results = {}
        computes = {
            "rangelist": lambda t, n: range_list_reference(machine, t, n),
            "batch": RapidMRC(machine).compute,
        }
        for name in ESTIMATORS:
            computes[name] = RapidMRC(machine, ProbeConfig(
                stack_engine=name, sampling_rate=SAMPLING_RATE
            )).compute
        for name, compute in computes.items():
            result, seconds = best_of(compute, trace)
            results[name] = result
            report["engines"][name][str(size)] = {
                "seconds": round(seconds, 6),
                "accesses_per_sec": round(size / seconds),
                "tracked_entries": getattr(result, "tracked_entries", 0),
            }
        exact = dict(results["rangelist"].mrc)
        rates = {
            name: report["engines"][name][str(size)]["accesses_per_sec"]
            for name in computes
        }
        for name in ESTIMATORS:
            approx = dict(results[name].mrc)
            error = max(
                abs(approx[color] - exact[color]) for color in exact
            )
            report["max_mpki_error"][name][str(size)] = round(error, 4)
            # Accuracy gate: the estimator stays inside its envelope.
            assert error <= MAX_MPKI_ERROR[name], (
                f"{name} off by {error:.2f} MPKI vs rangelist at {size} "
                f"entries (envelope {MAX_MPKI_ERROR[name]})"
            )
            for base in ("rangelist", "batch"):
                report[f"speedup_vs_{base}"][name][str(size)] = round(
                    rates[name] / rates[base], 2
                )
        # Footprint gate: SHARDS tracks >= 10x fewer entries than the
        # exact distinct-line footprint at R = 0.1.  Gated at
        # the 160k working point (short traces are warmup-dominated);
        # the ratio is recorded for every size.
        tracked = results["shards"].tracked_entries
        report["footprint_ratio"][str(size)] = round(distinct / tracked, 2)
        if size == SPEEDUP_SIZE:
            assert tracked * MIN_FOOTPRINT_RATIO <= distinct, (
                f"shards kept {tracked} entries vs {distinct} distinct "
                f"lines at {size} entries "
                f"(need >= {MIN_FOOTPRINT_RATIO}x headroom)"
            )

    path = report_dir / "BENCH_estimators.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    # Speedup gate: >= 5x accesses/sec vs the range-list reference on
    # the 160k trace.
    if SPEEDUP_SIZE in sizes:
        for name in ESTIMATORS:
            speedup = report["speedup_vs_rangelist"][name][str(SPEEDUP_SIZE)]
            assert speedup >= MIN_SPEEDUP, (
                f"{name} only {speedup}x vs rangelist at {SPEEDUP_SIZE} "
                f"entries (need >= {MIN_SPEEDUP}x); see {path}"
            )
