"""The benchmark's four workloads.

Each workload is a fixed list of operations (a *round*).  The worker
repeats whole rounds while another one fits in the measuring time, so a
faster program measures more copies of the same operations, never a
different mix.  Every operation yields a digest of its outputs; repeated
rounds, and the traced and untraced passes, must produce the same
digests.

- ``probe-full``: the paper's online probe (collect the trace, compute
  the MRC with the default range-list stack, v-offset calibrate at 8
  colors) on the full-scale POWER5, once per application.
- ``probe-sampled``: the same probes through the SHARDS estimator at
  R=0.1, which bypasses the exact stack engine.
- ``figures-16``: the Figure 3 accuracy driver for all 30 applications
  and the Figure 7 partitioning driver for its two default pairs, on the
  1/16-scale machine.
- ``fleet-16``: the clean 8-process, 4-domain, 18-tick fleet schedule of
  ``benchmarks/test_fleet_service.py``.  Its operations are ticks.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig, RapidMRC
from repro.fleet import budget as fleet_budget
from repro.fleet import service as fleet_service
from repro.fleet.churn import ChurnSchedule
from repro.runner import experiments, offline, online
from repro.runner.dynamic import DynamicConfig
from repro.sim.machine import MachineConfig
from repro.workloads.spec import WORKLOAD_NAMES, make_workload

__all__ = [
    "WORKLOADS", "OpClock", "Round", "fastest", "make_workload_runner",
    "normalize", "reference_s",
]

_now = time.perf_counter

WORKLOADS = ("probe-full", "probe-sampled", "figures-16", "fleet-16")

#: The fleet benchmark's member set, reused for the probe workloads: one
#: run has room for 8 full-scale probes per round, not 30, and this set
#: was fixed by an earlier benchmark, not chosen for this one.
PROBE_APPS = ("gzip", "mcf", "art", "swim", "twolf", "equake",
              "libquantum", "mesa")
ANCHOR_COLORS = 8
FIG7_PAIRS = (("twolf", "equake"), ("vpr", "applu"))

# The clean schedule of benchmarks/test_fleet_service.py.
FLEET_POOL = ("applu",)
FLEET_DOMAINS = 4
FLEET_TICKS = 18
FLEET_CHURN = "join:applu@5,crash:mcf@9"

QUICK_SCALE = 32
QUICK_APPS = ("gzip", "mcf")
QUICK_TICKS = 2

#: Health status -> rank; 1-based so the metric is never 0.
HEALTH_RANK = {"ok": 1, "degraded": 2, "critical": 3}

#: Iterations of the host-speed reference loop, and the loop's time on
#: the reference host.  Normalized times are seconds on a host that
#: runs the loop in exactly ``REFERENCE_S``.
REFERENCE_LOOP = 300_000
REFERENCE_S = 0.02


def reference_s() -> float:
    """Wall time of the fixed pure-Python host-speed reference loop.

    The benchmark host is shared, and its speed drifts by tens of
    percent over a few seconds.  Dividing a wall time by this loop's
    time measured next to it cancels most of that drift; the loop never
    touches the program, so only program changes move the ratio.
    """
    start = _now()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += (i * i) % 7
    return _now() - start


def normalize(wall_s: float, ref_s: float) -> float:
    """``wall_s`` scaled to a host that runs the reference in REFERENCE_S."""
    return wall_s / ref_s * REFERENCE_S


def fastest(machine: MachineConfig) -> MachineConfig:
    """The machine on the fastest simulation engine the repo ships.

    Applied only while the engine knob exists, so removing the knob
    (automatic engine selection) needs no benchmark change.
    """
    with_engine = getattr(machine, "with_engine", None)
    return with_engine("batch") if with_engine is not None else machine


def digest(payload) -> str:
    """Short stable digest of a JSON-able payload (floats via repr)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _curve(mrc) -> List[Tuple[int, str]]:
    return [(size, repr(value)) for size, value in sorted(dict(mrc).items())]


@dataclass
class Round:
    """What one pass over a workload's operations produced."""

    #: Wall time of each operation.
    op_s: List[float] = field(default_factory=list)
    #: Host-speed reference time around each operation (see OpClock).
    ref_s: List[float] = field(default_factory=list)
    digests: List[str] = field(default_factory=list)
    failed: int = 0
    #: The workload's quality value (MPKI, lower is better).
    quality: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    def normalized_s(self) -> List[float]:
        """Operation times at the reference host speed (see OpClock)."""
        return [normalize(op, ref) for op, ref in zip(self.op_s, self.ref_s)]


class OpClock:
    """Times a round's operations and samples host speed between them.

    The reference loop runs at every operation boundary, and each
    operation is normalized by the mean of the loop times on either
    side.  In a traced round the loop is a ``reference`` span, so no
    layer is charged for it.
    """

    def __init__(self, out: Round, tracer=None):
        self.out = out
        self.tracer = tracer
        self._before = self._reference()
        self._start = _now()

    def _reference(self) -> float:
        if self.tracer is None:
            return reference_s()
        frame = self.tracer.enter("reference")
        try:
            return reference_s()
        finally:
            self.tracer.exit(frame)

    def start(self) -> None:
        self._start = _now()

    def stop(self) -> None:
        elapsed = _now() - self._start
        after = self._reference()
        self.out.op_s.append(elapsed)
        self.out.ref_s.append((self._before + after) / 2)
        self._before = after


class ProbeWorkload:
    """One online probe per application, calibrated at the anchor."""

    required_layers = (
        "workloads", "sim", "pmu", "core.correction", "core.stack",
        "core.calibration", "runner.online",
    )

    def __init__(self, name: str, sampled: bool, quick: bool):
        self.name = name
        self.sampled = sampled
        self.quick = quick
        self.first_probe = None

    def setup(self, seed: int) -> None:
        base = (MachineConfig.scaled(QUICK_SCALE) if self.quick
                else MachineConfig())
        self.machine = fastest(base)
        self.online_config = online.OnlineProbeConfig(seed=seed)
        self.probe_config = (
            ProbeConfig(stack_engine="shards", sampling_rate=0.1)
            if self.sampled else ProbeConfig()
        )
        self.targets = []
        for app in (QUICK_APPS if self.quick else PROBE_APPS):
            workload = make_workload(app, self.machine, seed=seed)
            anchor = offline.measure_mpki(
                workload, self.machine, list(range(ANCHOR_COLORS))
            )
            self.targets.append((workload, anchor))

    def run_round(self, tracer=None) -> Round:
        out = Round()
        clock = OpClock(out, tracer)
        shifts = []
        for index, (workload, anchor) in enumerate(self.targets):
            if tracer is not None:
                tracer.op = str(index)
            clock.start()
            probe = online.collect_trace(
                workload, self.machine, self.online_config, self.probe_config
            )
            probe.calibrate(ANCHOR_COLORS, anchor)
            clock.stop()
            if self.first_probe is None:
                self.first_probe = probe
            if not probe.ok:
                out.failed += 1
            result = probe.result
            shifts.append(abs(result.vertical_shift))
            out.digests.append(digest([
                workload.name, len(probe.probe.entries),
                probe.probe.instructions,
                sorted(result.histogram.counts.items()),
                result.histogram.cold_misses, _curve(result.best_mrc),
            ]))
        out.quality = sum(shifts) / len(shifts)
        return out

    def check(self) -> List[str]:
        """The pass's first probe: range-list and batch stacks agree."""
        probe = self.first_probe
        self.first_probe = None
        if probe is None:
            return ["no probe ran"]
        trace, instructions = probe.probe.entries, probe.probe.instructions
        if self.sampled:
            exact = RapidMRC(self.machine, ProbeConfig()).compute(
                trace, instructions).histogram
        else:
            exact = probe.result.histogram
        batch = RapidMRC(
            self.machine, ProbeConfig(stack_engine="batch")
        ).compute(trace, instructions).histogram
        if batch != exact:
            return ["batch stack histogram differs from range-list"]
        return []


class FiguresWorkload:
    """Figure 3 rows for every application, then the Figure 7 pairs."""

    name = "figures-16"
    required_layers = (
        "workloads", "sim", "pmu", "core.correction", "core.stack",
        "core.calibration", "core.partition", "runner.online",
        "runner.offline", "runner.corun",
    )

    def __init__(self, quick: bool):
        self.quick = quick

    def setup(self, seed: int) -> None:
        # The figure drivers build their workloads at their own fixed
        # seed, so the workload seed does not reach this workload.
        base = (MachineConfig.scaled(QUICK_SCALE) if self.quick
                else experiments.default_machine())
        self.machine = fastest(base)
        apps = QUICK_APPS if self.quick else WORKLOAD_NAMES
        pairs = FIG7_PAIRS[:1] if self.quick else FIG7_PAIRS
        self.ops = [("fig3", app) for app in apps]
        self.ops += [("fig7", pair) for pair in pairs]

    def _op(self, kind: str, arg, out: Round) -> str:
        if kind == "fig3":
            row = experiments.fig3_accuracy(self.machine, names=[arg])[0]
            out.details["fig3_distances"].append(row.distance)
            return digest([arg, _curve(row.real), _curve(row.calculated),
                           repr(row.distance)])
        res = experiments.fig7_partitioning(self.machine, pairs=[arg])[0]
        out.details["fig7_gains_pct"].append(res.gain_rapidmrc)
        out.details["fig7_rapidmrc_splits"].append(
            list(res.chosen_rapidmrc.colors))
        return digest([
            list(arg), list(res.chosen_real.colors),
            list(res.chosen_rapidmrc.colors),
            sorted((k, [repr(x) for x in v]) for k, v in res.spectrum.items()),
        ])

    def run_round(self, tracer=None) -> Round:
        out = Round(details={"fig3_distances": [], "fig7_gains_pct": [],
                             "fig7_rapidmrc_splits": []})
        clock = OpClock(out, tracer)
        for index, (kind, arg) in enumerate(self.ops):
            if tracer is not None:
                tracer.op = str(index)
            clock.start()
            try:
                value = self._op(kind, arg, out)
            except Exception:  # a failed figure row is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out.failed += 1
                value = f"error:{kind}"
            clock.stop()
            out.digests.append(value)
        distances = out.details["fig3_distances"]
        out.quality = sum(distances) / len(distances) if distances else 0.0
        return out

    def check(self) -> List[str]:
        return []


class FleetWorkload:
    """The clean fleet schedule; each tick is one operation."""

    name = "fleet-16"
    required_layers = (
        "sim", "pmu", "core.stack", "core.partition", "runner.dynamic",
        "fleet",
    )

    def __init__(self, quick: bool):
        self.quick = quick

    def setup(self, seed: int) -> None:
        base = (MachineConfig.scaled(QUICK_SCALE) if self.quick
                else experiments.default_machine())
        self.machine = fastest(base)
        self.members = [make_workload(name, self.machine, seed=seed)
                        for name in PROBE_APPS]
        self.pool = {name: make_workload(name, self.machine, seed=seed)
                     for name in FLEET_POOL}
        self.config = fleet_service.FleetConfig(
            num_domains=FLEET_DOMAINS,
            ticks=QUICK_TICKS if self.quick else FLEET_TICKS,
            dynamic=DynamicConfig(
                interval_instructions=8 * self.machine.l2_lines,
                probe=ProbeConfig(log_entries=1500),
                probe_cooldown_intervals=1,
                detector=PhaseDetectorConfig(threshold_mpki=15.0),
            ),
            replace_every_ticks=4,
        )

    def run_round(self, tracer=None) -> Round:
        out = Round()
        clocks: List[OpClock] = []
        budget_cls = fleet_budget.GlobalProbeBudget
        tick = budget_cls.tick

        def timed_tick(budget):
            # A tick runs from one budget tick to the next.
            if clocks:
                clocks[0].stop()
            else:
                clocks.append(OpClock(out, tracer))
            if tracer is not None:
                tracer.op = str(len(out.op_s))
            clocks[0].start()
            return tick(budget)

        service = fleet_service.FleetService(
            self.machine, self.members, self.config,
            churn=ChurnSchedule.parse(FLEET_CHURN), pool=self.pool,
        )
        budget_cls.tick = timed_tick
        try:
            report = service.run()
        finally:
            budget_cls.tick = tick
        clocks[0].stop()
        stats = report.budget_stats
        requested = stats["admitted"] + stats["denied"]
        status = report.health["status"] if report.health else "ok"
        sums = counts = 0.0
        for entry in (report.series or {}).get("series", ()):
            if entry["name"] == "fleet.mpki":
                for window in entry["windows"]:
                    sums += window["sum"]
                    counts += window["count"]
        out.quality = sums / counts if counts else 0.0
        out.details = {
            "probe_admit_rate": (
                stats["admitted"] / requested if requested else 0.0),
            "health_rank": HEALTH_RANK.get(str(status), len(HEALTH_RANK) + 1),
            "placement_groups": [list(g) for g in report.placement_groups()],
        }
        round_digest = digest([
            out.details, [list(g) for g in report.canonical_grouping()],
            sorted(stats.items()), sorted(report.rungs_served.items()),
            repr(out.quality),
        ])
        out.digests = [round_digest] * len(out.op_s)
        return out

    def check(self) -> List[str]:
        return []


def make_workload_runner(name: str, quick: bool = False):
    """The workload object for ``name`` (one of :data:`WORKLOADS`)."""
    if name == "probe-full":
        return ProbeWorkload(name, sampled=False, quick=quick)
    if name == "probe-sampled":
        return ProbeWorkload(name, sampled=True, quick=quick)
    if name == "figures-16":
        return FiguresWorkload(quick)
    if name == "fleet-16":
        return FleetWorkload(quick)
    raise ValueError(f"unknown workload {name!r}; options: {WORKLOADS}")
