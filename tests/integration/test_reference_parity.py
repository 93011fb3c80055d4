"""End-to-end parity of the exact probe with the per-access reference.

Every exact probe runs the vectorized kernel of :mod:`repro.core.fastpath`.
This pins it, on real probe logs, to what the paper's engine computes one
access at a time: the scalar stale-SDAR repair, then the range-list stack
through :func:`repro.core.stack.reference_histogram`.  The apps cover a
streamer (libquantum), reuse-heavy loops (twolf, vortex) and a phased
pointer chaser (mcf); the warmup settings cover the automatic fill, the
static fallback, none, and an explicit entry count.
"""

import pytest

from repro.core.rapidmrc import ProbeConfig, RapidMRC
from repro.runner.online import collect_trace
from repro.sim.machine import MachineConfig
from repro.workloads import make_workload

MACHINE = MachineConfig.scaled(32)
APPS = ("libquantum", "twolf", "vortex", "mcf")
WARMUPS = ("hybrid", "static", "none", 700)


@pytest.fixture(scope="module")
def probe_logs():
    logs = {}
    for app in APPS:
        probe = collect_trace(make_workload(app, MACHINE), MACHINE).probe
        logs[app] = (probe.entries, probe.instructions)
    return logs


@pytest.mark.parametrize("warmup", WARMUPS)
@pytest.mark.parametrize("app", APPS)
def test_probe_matches_range_list_reference(
    app, warmup, probe_logs, range_list_reference
):
    entries, instructions = probe_logs[app]
    got = RapidMRC(MACHINE, ProbeConfig(warmup=warmup)).compute(
        entries, instructions
    )
    want = range_list_reference(MACHINE, entries, instructions, warmup)
    assert got.histogram.counts == want.histogram.counts
    assert got.histogram.cold_misses == want.histogram.cold_misses
    assert dict(got.mrc) == dict(want.mrc)
    assert got.warmup_fraction == want.warmup_fraction
    assert got.correction.converted == want.correction.converted
