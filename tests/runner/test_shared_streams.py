"""Figure drivers that share streams equal the same runs on fresh streams.

``real_mrc`` replays one recording across its sizes, a Fig. 3 row shares
it with the row's probe, and a Fig. 7 pair shares both streams across
its probe rows and co-runs.  Each case here is held to runs whose
streams are generated afresh, on the native engine and with
``REPRO_NATIVE=0`` (where nothing is recorded).
"""

import pytest

from repro.core.mrc import MissRateCurve, mpki_distance
from repro.core.partition import choose_partition_sizes
from repro.core.rapidmrc import ProbeConfig
from repro.obs import Telemetry, use_telemetry
from repro.obs.report import RunReport
from repro.runner import experiments
from repro.runner.corun import CorunSpec, corun, normalized_ipc
from repro.runner.offline import OfflineConfig, measure_mpki, real_mrc
from repro.runner.online import OnlineProbeConfig, collect_trace
from repro.sim.machine import MachineConfig
from repro.sim.native import native_available
from repro.workloads.base import recorded_stream, shared_streams
from repro.workloads.spec import make_workload

MACHINE = MachineConfig.scaled(32)
OFFLINE = OfflineConfig(warmup_accesses=1_500, measure_accesses=4_500)
SIZES = range(1, MACHINE.num_colors + 1)


@pytest.fixture(params=["native", "scalar"])
def engine(request, monkeypatch):
    if request.param == "scalar":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    elif not native_available():
        pytest.skip("no C compiler / native engine disabled")
    return request.param


def _sources(telemetry):
    return RunReport.from_telemetry(telemetry).counter_by_label(
        "workloads.stream_accesses", "source")


def _fresh_curve(name):
    """One ``measure_mpki`` per size, each on a newly built workload."""
    return {
        size: measure_mpki(make_workload(name, MACHINE), MACHINE,
                           list(range(size)), OFFLINE)
        for size in SIZES
    }


def _fresh_row(name):
    """A Fig. 3 row's real curve and calibrated probe, nothing shared."""
    real = _fresh_curve(name)
    probe = collect_trace(make_workload(name, MACHINE), MACHINE)
    probe.calibrate(8, real[8])
    return real, probe


@pytest.mark.parametrize("name", ["mcf", "twolf", "ammp"])
def test_real_mrc_equals_unshared_runs(engine, name):
    """mcf is a PhasedWorkload, ammp a MixedPattern."""
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry):
        curve = real_mrc(make_workload(name, MACHINE), MACHINE, OFFLINE)
    assert dict(curve) == _fresh_curve(name)
    run = OFFLINE.warmup_accesses + OFFLINE.measure_accesses
    if engine == "native":
        assert _sources(telemetry) == {
            "generated": run, "replayed": (len(SIZES) - 1) * run}
    else:
        assert _sources(telemetry) == {}


def test_fig3_row_equals_unshared_real_mrc_and_probe(engine):
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry):
        row = experiments._probe_and_compare(
            make_workload("mcf", MACHINE), MACHINE, OFFLINE,
            OnlineProbeConfig(), ProbeConfig())
    real, probe = _fresh_row("mcf")
    assert dict(row.real) == real
    assert row.probe.probe.entries.tolist() == probe.probe.entries.tolist()
    assert row.probe.probe.instructions == probe.probe.instructions
    assert dict(row.calculated) == dict(probe.result.best_mrc)
    assert row.distance == mpki_distance(row.real, probe.result.best_mrc)
    # The probe's warmup alone starts inside the recorded prefix.
    replayed = _sources(telemetry).get("replayed", 0)
    run = OFFLINE.warmup_accesses + OFFLINE.measure_accesses
    assert (replayed > (len(SIZES) - 1) * run) == (engine == "native")


def test_fig7_pair_equals_coruns_on_fresh_workloads(engine):
    names = ("twolf", "equake")
    quota, warm, splits = 3_000, 1_000, [4, 8, 12]
    (result,) = experiments.fig7_partitioning(
        MACHINE, pairs=[names], quota_accesses=quota, warmup_accesses=warm,
        offline=OFFLINE, splits=splits)

    corun_machine = MACHINE.without_l3()

    def fresh_run(split):
        colors = (None, None) if split is None else (
            list(range(split)), list(range(split, MACHINE.num_colors)))
        specs = [CorunSpec(make_workload(name, MACHINE), colors=part)
                 for name, part in zip(names, colors)]
        return corun(specs, corun_machine, quota, warmup_accesses=warm)

    baseline = fresh_run(None)
    assert result.spectrum == {
        split: normalized_ipc(fresh_run(split), baseline) for split in splits
    }
    (real_a, probe_a), (real_b, probe_b) = map(_fresh_row, names)
    assert result.chosen_real == choose_partition_sizes(
        MissRateCurve(real_a), MissRateCurve(real_b), MACHINE.num_colors)
    assert result.chosen_rapidmrc == choose_partition_sizes(
        probe_a.result.best_mrc, probe_b.result.best_mrc, MACHINE.num_colors)


def test_pooled_real_mrc_inside_a_scope():
    """Workers get pickled workloads and generate their own streams: a
    recording in the parent's scope neither travels nor replays."""
    mcf = make_workload("mcf", MACHINE)
    sequential = real_mrc(mcf, MACHINE, OFFLINE)
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry), shared_streams():
        measure_mpki(mcf, MACHINE, [0, 1], OFFLINE)
        native = recorded_stream(mcf, 0).vaddrs.size > 0
        pooled = real_mrc(mcf, MACHINE, OFFLINE, max_workers=2)
    assert dict(pooled) == dict(sequential)
    run = OFFLINE.warmup_accesses + OFFLINE.measure_accesses
    if native:
        assert _sources(telemetry) == {"generated": (len(SIZES) + 1) * run}
