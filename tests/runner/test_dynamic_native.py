"""The managed loop on the native engine against the scalar heap.

:class:`~repro.runner.dynamic.DynamicPartitionManager` runs its
processes in native legs that end right after the first access at which
one of its per-access hooks can fire; the hooks then run for exactly
that access.  The scalar heap -- every access stepped in Python and fed
to the hooks -- is the reference, and runs on its own under
``REPRO_NATIVE=0``.  Every differential case here runs twice, natively
and under ``REPRO_NATIVE=0``, and must produce the same report, the
same probe outcomes delivered at the same process state, and the same
clocks and counters after every ``step_accesses`` call.  Each also
checks which engine ran, so none passes by quietly falling back.  One
case counts legs: a held probe must not stop C on every access.

The workloads make the coincidences exact: ``streamer`` touches a new
line on every access, so with the prefetcher off and no drops each
access logs exactly one trace entry, and a probe started on access 1
fills its log on access ``1 + LOG``.
"""

import contextlib
import dataclasses
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.phase import PhaseDetectorConfig
from repro.core.rapidmrc import ProbeConfig
from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.reliability.faults import FaultPlan
from repro.reliability.supervisor import SupervisorConfig
from repro.runner.dynamic import DynamicConfig, DynamicPartitionManager
from repro.sim.fastsim import NativeCorun
from repro.sim.machine import MachineConfig
from repro.sim.native import native_available
from repro.sim.prefetcher import PrefetcherConfig
from repro.store.mrc_store import StoreConfig
from repro.workloads.base import Workload
from repro.workloads.patterns import (
    LoopingScan,
    RandomWorkingSet,
    SequentialStream,
)
from repro.workloads.phased import Phase, PhasedWorkload

MACHINE = MachineConfig.scaled(32)
LINE = 128
IPA = 10
LOG = 300
#: Accesses per monitoring interval in the default config.
INTERVAL = 384
TERMINAL = {"admitted", "rejected"}

pytestmark = pytest.mark.skipif(
    not native_available(), reason="no C compiler / native engine disabled"
)


def streamer():
    return Workload("streamer", SequentialStream(8 * MACHINE.l2_size),
                    instructions_per_access=IPA, store_fraction=0.0)


def hungry():
    return Workload("hungry", RandomWorkingSet(MACHINE.l2_size),
                    instructions_per_access=IPA, store_fraction=0.0)


def resident():
    """Four lines: fits the L1D, so its probes never fill their log."""
    return Workload("resident", LoopingScan(4 * LINE),
                    instructions_per_access=IPA, store_fraction=0.0)


def phased():
    lines = MACHINE.l2_lines
    return PhasedWorkload(
        "phased",
        [Phase(RandomWorkingSet(MACHINE.l2_size), 2 * lines, "big"),
         Phase(LoopingScan(32 * LINE), 2 * lines, "small")],
        instructions_per_access=IPA, store_fraction=0.0,
    )


def config(**overrides):
    defaults = dict(
        interval_instructions=INTERVAL * IPA,
        probe=ProbeConfig(log_entries=LOG),
        probe_cooldown_intervals=1,
        detector=PhaseDetectorConfig(threshold_mpki=15.0),
    )
    defaults.update(overrides)
    return DynamicConfig(**defaults)


def managed(workloads, cfg, steps, *, warmup=0, gate=None, between=None,
            prefetch=True):
    """A scenario: build a manager, step it, return everything it made."""

    def scenario():
        manager = DynamicPartitionManager(
            MACHINE, [make() for make in workloads], cfg,
            prefetcher=None if prefetch else PrefetcherConfig(enabled=False),
        )
        outcomes = []

        def listen(outcome):
            state = manager.managed[outcome.pid]
            outcomes.append((dataclasses.astuple(outcome),
                             state.process.accesses,
                             state.interval_instructions_seen))

        manager.probe_listener = listen
        manager.probe_gate = gate
        manager.begin(warmup)
        after_steps = []
        for index, step in enumerate(steps):
            manager.step_accesses(step)
            after_steps.append(_state(manager))
            if between is not None:
                between(manager, index)
        report = manager.finish()
        return {"report": dataclasses.asdict(report), "outcomes": outcomes,
                "after_steps": after_steps}

    return scenario


def _state(manager):
    return (
        [(m.process.cycles, m.process.instructions, m.process.accesses,
          m.interval_instructions_seen, len(m.timeline),
          m.collector is None, m.needs_probe, m.intervals_since_probe)
         for m in manager.managed],
        [dataclasses.astuple(c) for c in manager.hierarchy.counters],
    )


@contextlib.contextmanager
def scalar_engine():
    saved = os.environ.get("REPRO_NATIVE")
    os.environ["REPRO_NATIVE"] = "0"
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_NATIVE"]
        else:
            os.environ["REPRO_NATIVE"] = saved


@dataclasses.dataclass
class Run:
    outputs: dict
    engines: dict
    fallbacks: dict


def _captured(scenario) -> Run:
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry):
        outputs = scenario()
    report = RunReport.from_telemetry(telemetry)
    return Run(outputs,
               report.counter_by_label("sim.batch_accesses", "engine"),
               report.counter_by_label("sim.batch_fallbacks", "reason"))


def both(scenario):
    """Run ``scenario`` natively and on the scalar heap; they must agree."""
    native = _captured(scenario)
    with scalar_engine():
        scalar = _captured(scenario)
    assert native.outputs == scalar.outputs
    assert scalar.engines.get("native", 0) == 0
    assert set(scalar.fallbacks) == {"native_unavailable"}
    return native


def assert_all_native(run):
    assert run.engines.get("native", 0) > 0
    assert run.engines.get("scalar", 0) == 0
    assert run.fallbacks == {}


def outcomes_of(run, pid, kinds):
    return [(accesses, seen) for (kind, who, *_), accesses, seen
            in run.outputs["outcomes"] if who == pid and kind in kinds]


class TestCoincidences:
    def test_hook_and_quota_on_one_access(self):
        # One process, steps of one interval: every step ends on the
        # access that also ends an interval.
        run = both(managed([hungry], config(), [INTERVAL] * 4))
        assert_all_native(run)
        for index, (procs, _counters) in enumerate(run.outputs["after_steps"]):
            accesses, seen, samples = procs[0][2], procs[0][3], procs[0][4]
            assert (accesses, seen, samples) == (INTERVAL * (index + 1), 0,
                                                 index + 1)

    def test_probe_start_and_quota_on_one_access(self):
        # The initial probe starts on access 1, which is also the quota.
        run = both(managed([hungry, streamer], config(), [1, 1, 50, 700]))
        assert_all_native(run)
        started = outcomes_of(run, 0, {"started"})
        assert started[0] == (1, IPA)

    def test_log_fills_on_an_interval_end(self):
        cfg = config(interval_instructions=(1 + LOG) * IPA,
                     drop_probability=0.0)
        run = both(managed([streamer, hungry], cfg, [900, 900],
                           prefetch=False))
        assert_all_native(run)
        # Settled on access 1 + LOG with the interval not yet ended: the
        # probe's hook ran first, on the same access.
        assert outcomes_of(run, 0, TERMINAL)[0] == (1 + LOG, (1 + LOG) * IPA)

    def test_log_fills_on_its_deadline_access(self):
        cfg = config(drop_probability=0.0,
                     reliability=SupervisorConfig(deadline_log_multiple=1))
        run = both(managed([streamer, hungry], cfg, [900, 900],
                           prefetch=False))
        assert_all_native(run)
        # The fill and the deadline share access 1 + LOG: finish wins.
        assert outcomes_of(run, 0, TERMINAL)[0][0] == 1 + LOG
        assert not outcomes_of(run, 0, {"deadline"})

    def test_deadline_abort_mid_leg(self):
        cfg = config(reliability=SupervisorConfig(deadline_log_multiple=1))
        run = both(managed([resident, hungry], cfg, [1500]))
        assert_all_native(run)
        assert outcomes_of(run, 0, {"deadline"})[0] == (
            1 + LOG, (1 + LOG) * IPA)


class TestProbeStartChecks:
    def test_held_probe_waits_for_the_first_sample(self):
        run = both(managed([hungry, streamer], config(store=StoreConfig()),
                           [3 * INTERVAL]))
        assert_all_native(run)
        # Held until the first interval end fills the phase window; the
        # next access starts the probe.
        assert outcomes_of(run, 0, {"started"})[0][0] == INTERVAL + 1

    def test_held_probe_costs_no_stop(self, monkeypatch):
        legs = []
        run_until = NativeCorun.run_until

        def counting(self, *args, **kwargs):
            legs.append(args)
            return run_until(self, *args, **kwargs)

        monkeypatch.setattr(NativeCorun, "run_until", counting)
        manager = DynamicPartitionManager(
            MACHINE, [hungry()], config(store=StoreConfig()),
        )
        manager.begin()
        manager.step_accesses(INTERVAL - 10)
        # Nothing can fire before the first interval end: one leg.
        assert len(legs) == 1
        assert manager.managed[0].needs_probe

    def test_denying_gate_without_cooldown_checks_every_access(self):
        cfg = config(probe_cooldown_intervals=0)
        run = both(managed([hungry, streamer], cfg, [200, 300],
                           gate=lambda pid, cost: False))
        assert_all_native(run)
        report = run.outputs["report"]
        accesses = sum(procs[2] for procs in run.outputs["after_steps"][-1][0])
        assert report["probe_gate_denials"] == accesses

    def test_cooldown_and_gate_admissions(self):
        admitted = {"count": 0}

        def gate(pid, cost):
            admitted["count"] += 1
            return admitted["count"] % 3 == 0

        # The gate's state is part of the scenario: reset it per run.
        def scenario():
            admitted["count"] = 0
            return managed([hungry, streamer], config(), [2500, 2500],
                           gate=gate)()

        assert_all_native(both(scenario))


class TestProbeLifecycle:
    def test_phase_transition_mid_probe(self):
        cfg = config(interval_instructions=200 * IPA,
                     probe=ProbeConfig(log_entries=1500),
                     detector=PhaseDetectorConfig(threshold_mpki=10.0))
        run = both(managed([phased, hungry], cfg, [6000]))
        assert_all_native(run)
        assert outcomes_of(run, 0, {"invalidated"})

    def test_fault_wrapped_probe_runs_scalar_and_back(self):
        cfg = config(fault_plan=FaultPlan.parse("all", seed=0))
        run = both(managed([hungry, streamer], cfg, [3000, 3000]))
        # Scalar while a wrapped probe is in flight, native in between.
        assert run.engines.get("native", 0) > 0
        assert run.engines.get("scalar", 0) > 0
        assert set(run.fallbacks) == {"observer"}

    def test_external_calls_between_steps(self):
        def between(manager, index):
            if index == 0:
                manager.abort_inflight_probe(0, reason="test abort")
            elif index == 1:
                manager.request_probe(1, reason="test request")
            elif index == 2:
                manager.degrade_now(1, reason="test degrade")
            elif index == 3:
                manager.request_probe(0, reason="test request")
                manager.degrade_now(0, reason="test degrade")

        run = both(managed([hungry, streamer], config(), [150] * 8,
                           between=between))
        assert_all_native(run)
        kinds = {kind for (kind, *_), _a, _s in run.outputs["outcomes"]}
        assert {"aborted", "degraded"} <= kinds

    def test_warmup(self):
        run = both(managed([hungry, streamer], config(), [2000],
                           warmup=700))
        assert_all_native(run)


@settings(max_examples=25, deadline=None)
@given(
    interval=st.integers(1, 400),
    cooldown=st.integers(0, 2),
    log=st.integers(20, 400),
    store=st.booleans(),
    steps=st.lists(st.integers(1, 600), min_size=1, max_size=4),
)
def test_property_native_equals_scalar(interval, cooldown, log, store, steps):
    cfg = config(
        interval_instructions=interval * IPA,
        probe_cooldown_intervals=cooldown,
        probe=ProbeConfig(log_entries=log),
        store=StoreConfig() if store else None,
    )
    assert_all_native(both(managed([phased, streamer], cfg, steps)))
