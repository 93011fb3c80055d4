"""Benchmark: hierarchy simulation throughput, native engine vs scalar.

Times the simulation drivers end to end on the paper's full-scale
POWER5 (15360-line L2) and writes machine-readable results to
``benchmarks/results/BENCH_sim.json``.

Five paths are measured, one row each:

* **solo** -- one process, prefetch off: ``drive_batch`` on the
  compiled native engine (``repro.sim._native``).  Gate: >= 5x the
  scalar ``drive`` loop's accesses/sec on every measured workload.
* **prefetch_on** -- one process with the stream prefetcher enabled:
  the compiled native engine (``repro.sim._native``).  Gate: >= 5x
  scalar.
* **corun** -- two processes sharing the L2 under the cycle-fair
  scheduler with prefetching on: the native co-run kernel
  (``fastsim.NativeCorun``).  Gate: >= 10x the scalar interleave, which
  runs with ``REPRO_NATIVE=0``.
* **managed** -- the same two processes under the dynamic partition
  manager's closed loop (``DynamicPartitionManager.run``): native legs
  that stop only at the accesses where one of its hooks fires.  Gates:
  the report equals the ``REPRO_NATIVE=0`` scalar loop's field for
  field, and the speedup is at least the co-run's.
* **sharded** -- the offline ``real_mrc`` curve fanned out across
  worker processes (``--sim-workers`` plumbing).  Gate: the pooled
  curve and its folded telemetry counters equal the sequential run's
  exactly (wall-clock is reported but not gated: the pool only helps
  on multi-core hosts).

Each native row also records ``batch_step_ns_per_access``: the time
spent inside the C engine's run calls alone (the program's own
``sim.native_step_ns`` counter) per native access, over that row's
batch runs; the sharded row records it for the sequential and the
pooled curve.  It is reported, not gated.

A parity gate rides along with each timing: the batch run's counters,
cache contents (resident lines per set, in LRU order) and clocks must
be bit-identical to the scalar run's, and
every native drive in this file must complete with zero
``sim.batch_fallbacks`` (the engine covers every machine the simulator
builds, so it must never fall back to the scalar loop).  A fast engine that drifts
is worse than no fast engine; CI fails on any divergence.

Environment overrides (the CI smoke job shortens the runs):

* ``REPRO_BENCH_SIM_ACCESSES`` -- solo accesses per run (default 500k).
* ``REPRO_BENCH_SIM_QUOTA`` -- co-run per-process quota (default 250k).
* ``REPRO_BENCH_SIM_MRC_SIZES`` -- sharded-curve sizes (default 2,5,8,11).
* ``REPRO_BENCH_SIM_MIN_SOLO`` / ``REPRO_BENCH_SIM_MIN_PREFETCH`` /
  ``REPRO_BENCH_SIM_MIN_CORUN`` -- speedup gates (defaults 5 / 5 / 10;
  the co-run's gate also applies to the managed loop).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import time

import pytest

from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.runner.corun import CorunSpec, corun
from repro.runner.driver import Process, drive
from repro.runner.dynamic import DynamicPartitionManager
from repro.runner.offline import OfflineConfig, real_mrc
from repro.sim.fastsim import drive_batch
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.memory import PageAllocator
from repro.sim.prefetcher import PrefetcherConfig
from repro.workloads.spec import make_workload

SOLO_WORKLOADS = ["jbb", "mcf"]
SOLO_ACCESSES = int(os.environ.get("REPRO_BENCH_SIM_ACCESSES", "500000"))
CORUN_QUOTA = int(os.environ.get("REPRO_BENCH_SIM_QUOTA", "250000"))
CORUN_WARMUP = CORUN_QUOTA // 5
MRC_SIZES = [
    int(s) for s in os.environ.get(
        "REPRO_BENCH_SIM_MRC_SIZES", "2,5,8,11"
    ).split(",")
]
MIN_SOLO_SPEEDUP = float(os.environ.get("REPRO_BENCH_SIM_MIN_SOLO", "5.0"))
MIN_PREFETCH_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_SIM_MIN_PREFETCH", "5.0")
)
MIN_CORUN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SIM_MIN_CORUN", "10.0"))
ROUNDS = 2


@pytest.fixture(scope="module")
def machine():
    # Full-scale POWER5: the configuration the fast path's speedup
    # targets are stated against (scaled machines shrink the slabs).
    return MachineConfig()


def _build_solo(machine, name, prefetch):
    hierarchy = MemoryHierarchy(machine, num_cores=1)
    process = Process(
        pid=0,
        workload=make_workload(name, machine),
        core=0,
        allocator=PageAllocator(machine),
        prefetcher=PrefetcherConfig(enabled=prefetch),
    )
    return hierarchy, process


def _native_step(telemetry):
    """``(C-step ns, native accesses)`` counted in ``telemetry`` so far."""
    report = RunReport.from_telemetry(telemetry)
    return (
        report.counter_total("sim.native_step_ns"),
        report.counter_by_label("sim.batch_accesses", "engine").get(
            "native", 0),
    )


def _step_ns_per_access(before, after):
    """C-step nanoseconds per native access between two
    :func:`_native_step` readings."""
    return round((after[0] - before[0]) / (after[1] - before[1]), 1)


def _resident(cache):
    """A cache's resident lines per set, in LRU order."""
    return [list(bucket) for bucket in cache._sets]


def _solo_state(hierarchy, process):
    # Hand a live native session's caches back to Python first, so the
    # sets below can be read.
    for owner in (hierarchy, process):
        if owner._native is not None:
            owner._native.materialize("inspect")
    state = {
        "counters": dataclasses.asdict(hierarchy.counters[0]),
        "l1d": _resident(hierarchy.l1d[0]),
        "l2": _resident(hierarchy.l2),
        "cycles": process.cycles,
    }
    if hierarchy.l3._cache is not None:
        state["l3"] = _resident(hierarchy.l3._cache)
    return state


def _time_solo(machine, name, driver, prefetch):
    best, state = float("inf"), None
    for _ in range(ROUNDS):
        hierarchy, process = _build_solo(machine, name, prefetch)
        start = time.perf_counter()
        driver(process, hierarchy, SOLO_ACCESSES)
        best = min(best, time.perf_counter() - start)
        state = _solo_state(hierarchy, process)
    return best, state


def _solo_rows(machine, telemetry, prefetch):
    rows = {}
    for name in SOLO_WORKLOADS:
        scalar_s, scalar_state = _time_solo(machine, name, drive, prefetch)
        before = _native_step(telemetry)
        with use_telemetry(telemetry):
            batch_s, batch_state = _time_solo(
                machine, name, drive_batch, prefetch
            )
        step = _step_ns_per_access(before, _native_step(telemetry))
        # Parity gate: bit-identical counters, cache contents in LRU
        # order, and cycle clocks.
        assert batch_state == scalar_state, name
        rows[name] = {
            "scalar_seconds": round(scalar_s, 4),
            "batch_seconds": round(batch_s, 4),
            "scalar_accesses_per_sec": round(SOLO_ACCESSES / scalar_s),
            "batch_accesses_per_sec": round(SOLO_ACCESSES / batch_s),
            "speedup": round(scalar_s / batch_s, 2),
            "batch_step_ns_per_access": step,
        }
    return rows


def _time_corun(machine, telemetry):
    def specs(m):
        half = m.num_colors // 2
        return [
            CorunSpec(make_workload("jbb", m), colors=list(range(half))),
            CorunSpec(make_workload("mcf", m),
                      colors=list(range(half, m.num_colors))),
        ]

    results = {}
    for label in ("scalar", "batch"):
        best, outcome = float("inf"), None
        for _ in range(ROUNDS):
            start = time.perf_counter()
            with (_native_off() if label == "scalar"
                  else use_telemetry(telemetry)):
                outcome = corun(specs(machine), machine,
                                quota_accesses=CORUN_QUOTA,
                                warmup_accesses=CORUN_WARMUP)
            best = min(best, time.perf_counter() - start)
        results[label] = (best, dataclasses.asdict(outcome))
    return results


def _time_managed(machine, telemetry):
    results = {}
    for label in ("scalar", "batch"):
        best, report = float("inf"), None
        for _ in range(ROUNDS):
            start = time.perf_counter()
            with (_native_off() if label == "scalar"
                  else use_telemetry(telemetry)):
                manager = DynamicPartitionManager(
                    machine,
                    [make_workload("jbb", machine),
                     make_workload("mcf", machine)],
                )
                report = manager.run(CORUN_QUOTA,
                                     warmup_accesses=CORUN_WARMUP)
            best = min(best, time.perf_counter() - start)
        results[label] = (best, dataclasses.asdict(report))
    return results


@contextlib.contextmanager
def _native_off():
    """The scalar reference: ``REPRO_NATIVE=0`` for the block."""
    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = saved


def _time_sharded(machine):
    """Pooled vs sequential offline curve; parity over curve + counters.

    Uses its own telemetry sinks (one per run) so the counter
    comparison is exact rather than a delta against the earlier paths.
    """
    workload = make_workload("mcf", machine)
    config = OfflineConfig()

    seq_telemetry = Telemetry.in_memory()
    start = time.perf_counter()
    with use_telemetry(seq_telemetry):
        sequential = real_mrc(workload, machine, config, sizes=MRC_SIZES)
    seq_s = time.perf_counter() - start

    pool_telemetry = Telemetry.in_memory()
    start = time.perf_counter()
    with use_telemetry(pool_telemetry):
        pooled = real_mrc(workload, machine, config, sizes=MRC_SIZES,
                          max_workers=2)
    pool_s = time.perf_counter() - start

    # Sharding gate: the pooled curve is the sequential curve, and the
    # workers' folded telemetry equals the in-process run's counters.
    assert dict(pooled) == dict(sequential)
    seq_report = RunReport.from_telemetry(seq_telemetry)
    pool_report = RunReport.from_telemetry(pool_telemetry)
    seq_engines = seq_report.counter_by_label("sim.batch_accesses", "engine")
    pool_engines = pool_report.counter_by_label("sim.batch_accesses", "engine")
    assert pool_engines == seq_engines, (
        f"pooled fold-back drifted: {pool_engines} != {seq_engines}"
    )
    assert seq_report.counter_total("sim.batch_fallbacks") == 0
    assert pool_report.counter_total("sim.batch_fallbacks") == 0
    total = sum(seq_engines.values())
    return {
        "workload": "mcf",
        "sizes": MRC_SIZES,
        "workers": 2,
        "sequential_seconds": round(seq_s, 4),
        "pooled_seconds": round(pool_s, 4),
        "sequential_accesses_per_sec": round(total / seq_s),
        "pooled_accesses_per_sec": round(total / pool_s),
        "accesses": total,
        # The workers' step time folds back into the session counter.
        "sequential_step_ns_per_access": round(
            seq_report.native_step_ns_per_access(), 1),
        "pooled_step_ns_per_access": round(
            pool_report.native_step_ns_per_access(), 1),
    }


def test_bench_sim(machine, report_dir):
    # One shared sink for every native run in this benchmark: the
    # zero-fallback gate at the end covers all four paths at once.
    telemetry = Telemetry.in_memory()
    report = {
        "machine": machine.name,
        "l2_lines": machine.l2_lines,
        "solo_accesses": SOLO_ACCESSES,
        "corun_quota": CORUN_QUOTA,
        "solo": _solo_rows(machine, telemetry, prefetch=False),
        "prefetch_on": _solo_rows(machine, telemetry, prefetch=True),
        "corun": {},
        "managed": {},
        "sharded": {},
        "parity": True,
    }

    before = _native_step(telemetry)
    corun_results = _time_corun(machine, telemetry)
    corun_step = _step_ns_per_access(before, _native_step(telemetry))
    scalar_s, scalar_outcome = corun_results["scalar"]
    batch_s, batch_outcome = corun_results["batch"]
    assert batch_outcome == scalar_outcome
    corun_total = CORUN_QUOTA + CORUN_WARMUP
    report["corun"] = {
        "workloads": ["jbb", "mcf"],
        "scalar_seconds": round(scalar_s, 4),
        "batch_seconds": round(batch_s, 4),
        "scalar_accesses_per_sec": round(corun_total / scalar_s),
        "batch_accesses_per_sec": round(corun_total / batch_s),
        "speedup": round(scalar_s / batch_s, 2),
        "batch_step_ns_per_access": corun_step,
    }

    before = _native_step(telemetry)
    managed_results = _time_managed(machine, telemetry)
    managed_step = _step_ns_per_access(before, _native_step(telemetry))
    scalar_s, scalar_outcome = managed_results["scalar"]
    batch_s, batch_outcome = managed_results["batch"]
    # Parity gate: the same report, events and decisions included.
    assert batch_outcome == scalar_outcome
    report["managed"] = {
        "workloads": ["jbb", "mcf"],
        "scalar_seconds": round(scalar_s, 4),
        "batch_seconds": round(batch_s, 4),
        "scalar_accesses_per_sec": round(corun_total / scalar_s),
        "batch_accesses_per_sec": round(corun_total / batch_s),
        "speedup": round(scalar_s / batch_s, 2),
        "batch_step_ns_per_access": managed_step,
        "probes_run": batch_outcome["probes_run"],
        "events": len(batch_outcome["events"]),
    }

    report["sharded"] = _time_sharded(machine)

    path = report_dir / "BENCH_sim.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    for section, floor in (("solo", MIN_SOLO_SPEEDUP),
                           ("prefetch_on", MIN_PREFETCH_SPEEDUP)):
        for name in SOLO_WORKLOADS:
            speedup = report[section][name]["speedup"]
            assert speedup >= floor, (
                f"batch engine only {speedup}x vs scalar on {section} "
                f"{name} (need >= {floor}x); see {path}"
            )
    for section in ("corun", "managed"):
        speedup = report[section]["speedup"]
        assert speedup >= MIN_CORUN_SPEEDUP, (
            f"batch engine only {speedup}x vs scalar on the {section} "
            f"run (need >= {MIN_CORUN_SPEEDUP}x); see {path}"
        )

    # All configurations above are LRU: the native engine must never
    # have dropped to the per-access scalar loop.
    batch_report = RunReport.from_telemetry(telemetry)
    assert batch_report.counter_total("sim.batch_fallbacks") == 0, (
        batch_report.counter_by_label("sim.batch_fallbacks", "reason")
    )
