"""Benchmark: streaming-observability overhead on the fleet decision loop.

Runs the same deterministic fleet schedule in three modes, plus a
control:

* ``off`` -- bare decision loop: no series board, no health tracker,
  no drift monitor, telemetry disabled;
* ``stream`` -- the always-on observability plane this gate covers:
  per-tick time-series sampling into the service-owned board plus the
  health scorecard tracker.  A passive tap must cost under
  ``MAX_OVERHEAD`` and land on the identical canonical placement (same
  co-residency groups, same partition sizes), because a monitoring
  plane that perturbs decisions is measuring a different fleet than
  the one it reports on;
* ``full`` -- stream plus the online drift monitor plus a live
  in-memory telemetry capture (the opt-in ``--telemetry`` plane, which
  instruments the hot simulation paths and is priced separately).
  Drift detection is an *actuator*, not a tap: when it fires it evicts
  the suspect curve and re-solicits a probe, deliberately changing the
  trajectory.  Its cost and event count are recorded, not gated.

Each timed sample is ``RUNS_PER_SAMPLE`` back-to-back fleet runs of one
mode (the ``service.run()`` calls only; building each service is not
timed): one run lasts about a fifth of a second, too short to time
against the gate's 3% on a shared box, so a sample lasts at least 2 s.
The overhead statistic is the best over ``ROUNDS`` of the per-round
``stream/off`` ratio of sample times.  The samples of a round execute
back-to-back, so slow-machine episodes (thermal throttle, noisy
neighbours) inflate both sides of a ratio rather than one side of a
cross-round comparison; taking the best round then discards the
episodes entirely.  Every other round runs its modes in reverse
order, so neither side of a ratio always runs first.  A ``control``
sample -- ``off`` again -- is timed in every round too, and its
``control/off`` ratio, computed the same way, is recorded (not gated):
it is what the statistic reads on identical code.  One untimed warmup
run precedes the rounds.  Writes
``benchmarks/results/BENCH_obs_stream.json``.
"""

import json
import time

from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig
from repro.fleet.service import FleetConfig, FleetService
from repro.obs import Telemetry, use_telemetry
from repro.obs.drift import DriftConfig
from repro.runner.dynamic import DynamicConfig
from repro.workloads import make_workload

MEMBERS = ("gzip", "mcf", "art", "swim", "twolf", "equake")
NUM_DOMAINS = 2
TICKS = 10
ROUNDS = 3
#: Fleet runs per timed sample: an ``off`` run takes 0.19-0.22 s at 1/16
#: scale on a 2-vCPU Xeon, so a sample lasts at least 2 s there.
RUNS_PER_SAMPLE = 12
MAX_OVERHEAD = 0.03  # streaming observability must cost < 3%
#: Timed per round, in this order in even rounds and reversed in odd
#: ones; ``control`` is ``off`` timed a second time.
MODES = ("off", "stream", "control", "full")


def run_fleet(machine, mode: str):
    """One fleet run in ``mode``: its report and ``run()`` seconds."""
    observability = mode not in ("off", "control")
    dynamic = DynamicConfig(
        interval_instructions=8 * machine.l2_lines,
        probe=ProbeConfig(log_entries=1500),
        probe_cooldown_intervals=1,
        detector=PhaseDetectorConfig(threshold_mpki=15.0),
        drift=DriftConfig() if mode == "full" else None,
    )
    service = FleetService(
        machine,
        [make_workload(name, machine) for name in MEMBERS],
        FleetConfig(
            num_domains=NUM_DOMAINS, ticks=TICKS, dynamic=dynamic,
            observability=observability,
        ),
    )
    if mode != "full":
        start = time.perf_counter()
        report = service.run()
        return report, time.perf_counter() - start
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry):
        start = time.perf_counter()
        report = service.run()
        elapsed = time.perf_counter() - start
    return report, elapsed


def time_sample(machine, mode: str):
    """``RUNS_PER_SAMPLE`` back-to-back runs in ``mode``: the last run's
    report and the summed ``run()`` seconds."""
    total = 0.0
    for _ in range(RUNS_PER_SAMPLE):
        fleet_report, elapsed = run_fleet(machine, mode)
        total += elapsed
    return fleet_report, total


def best_ratio(rounds, mode: str) -> float:
    """The best round's ``mode/off`` sample-time ratio, minus one."""
    return min(seconds[mode] / seconds["off"] for seconds in rounds) - 1.0


def test_bench_obs_stream(bench_machine, report_dir):
    run_fleet(bench_machine, "off")  # untimed warmup
    rounds = []
    reports = {}
    for index in range(ROUNDS):
        seconds = {}
        for mode in MODES if index % 2 == 0 else MODES[::-1]:
            reports[mode], seconds[mode] = time_sample(bench_machine, mode)
        rounds.append(seconds)

    overhead = best_ratio(rounds, "stream")
    stream = reports["stream"]
    series_names = sorted(
        {entry["name"] for entry in stream.series["series"]}
    ) if stream.series else []

    report = {
        "machine": bench_machine.name,
        "processes": len(MEMBERS),
        "domains": NUM_DOMAINS,
        "ticks": TICKS,
        "runs_per_sample": RUNS_PER_SAMPLE,
        "rounds": [
            {mode: round(seconds[mode], 4) for mode in seconds}
            for seconds in rounds
        ],
        "stream_overhead_fraction": round(overhead, 4),
        "max_overhead_fraction": MAX_OVERHEAD,
        "control_overhead_fraction": round(best_ratio(rounds, "control"), 4),
        "full_overhead_fraction": round(best_ratio(rounds, "full"), 4),
        "series_names": series_names,
        "series_count": len(stream.series["series"]) if stream.series else 0,
        "health_status": stream.health["status"] if stream.health else None,
        "full_drift_events": reports["full"].drift_events,
        "placement_parity": (
            reports["off"].canonical_grouping() == stream.canonical_grouping()
        ),
    }
    path = report_dir / "BENCH_obs_stream.json"
    path.write_text(json.dumps(report, indent=2) + "\n")

    # The observability plane actually ran in the streaming modes.
    assert stream.series is not None and report["series_count"] > 0
    assert stream.health is not None
    assert reports["off"].series is None
    assert reports["control"].series is None
    assert reports["full"].series is not None
    # Passive tap: identical decisions with and without observers.
    assert report["placement_parity"], (
        f"observability perturbed fleet placement; see {path}"
    )
    # The streaming overhead gate itself.
    assert overhead < MAX_OVERHEAD, (
        f"observability overhead {overhead:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%}; see {path}"
    )
