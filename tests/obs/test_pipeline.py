"""Telemetry against the real pipeline: bit-identity and pool merging.

Telemetry only observes: running the probe pipeline with an enabled
telemetry must produce bit-identical traces and curves to running it
with the no-op default.  The process-pool plumbing must make a pooled
offline run report the same counters as a sequential one.
"""

import pytest

from repro.obs import (
    NULL_TELEMETRY,
    Telemetry,
    absorb_payload,
    call_traced,
    get_telemetry,
    telemetry_enabled,
    use_telemetry,
)
from repro.obs.report import RunReport
from repro.runner.offline import OfflineConfig, measure_mpki, real_mrc
from repro.runner.online import collect_trace
from repro.workloads import make_workload


@pytest.fixture
def workload(tiny_machine):
    return make_workload("mcf", tiny_machine)


def test_default_telemetry_is_noop():
    telemetry = get_telemetry()
    assert telemetry is NULL_TELEMETRY
    assert not telemetry.enabled
    assert not telemetry_enabled()


def test_probe_outputs_bit_identical_with_telemetry(tiny_machine, workload):
    baseline = collect_trace(workload, tiny_machine)
    with use_telemetry(Telemetry.in_memory()):
        observed = collect_trace(
            make_workload("mcf", tiny_machine), tiny_machine
        )
    assert observed.probe.entries.tolist() == baseline.probe.entries.tolist()
    assert observed.probe.instructions == baseline.probe.instructions
    assert dict(observed.result.mrc) == dict(baseline.result.mrc)


def test_probe_records_spans_and_counters(tiny_machine, workload):
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry):
        probe = collect_trace(workload, tiny_machine)
    names = [span.name for span in telemetry.tracer.spans]
    for expected in ("trace_collect", "correction", "stack_distance"):
        assert expected in names
    assert names[-1] == "probe"  # the outermost span closes last
    registry = telemetry.registry
    assert registry.counter_total("pmu.probes") == 1
    assert registry.counter_total("pmu.log_entries") == len(
        probe.probe.entries
    )
    assert registry.counter_total("mrc.computes") == 1
    assert registry.counter_total("probe.assessed") == 1
    # Spans nest: the collection window sits under the probe span.
    spans = {span.name: span for span in telemetry.tracer.spans}
    assert spans["trace_collect"].parent_id == spans["probe"].span_id


def test_call_traced_payload_absorbs(tiny_machine):
    result, payload = call_traced(
        measure_mpki, make_workload("mcf", tiny_machine), tiny_machine,
        [0, 1], OfflineConfig(),
    )
    assert result >= 0.0
    assert payload["metrics"]["counters"]  # sim.* counters present
    parent = Telemetry.in_memory()
    with use_telemetry(parent):
        absorb_payload(payload)
    assert parent.registry.counter_total("sim.instructions") > 0
    # Absorbing into the no-op default silently drops the payload.
    absorb_payload(payload)


def test_pooled_real_mrc_matches_sequential_counters(tiny_machine):
    sizes = [1, 2]
    sequential = Telemetry.in_memory()
    with use_telemetry(sequential):
        curve_seq = real_mrc(
            make_workload("mcf", tiny_machine), tiny_machine,
            OfflineConfig(), sizes=sizes,
        )
    pooled = Telemetry.in_memory()
    with use_telemetry(pooled):
        curve_pool = real_mrc(
            make_workload("mcf", tiny_machine), tiny_machine,
            OfflineConfig(), sizes=sizes, max_workers=2,
        )
    assert dict(curve_pool) == dict(curve_seq)
    for name in ("sim.instructions", "sim.l2_demand_misses"):
        assert pooled.registry.counter_total(name) == \
            sequential.registry.counter_total(name)


def test_live_report_renders_probe_run(tiny_machine, workload):
    telemetry = Telemetry.in_memory()
    with use_telemetry(telemetry):
        collect_trace(workload, tiny_machine)
    text = RunReport.from_telemetry(telemetry).render()
    assert "trace_collect" in text
    assert "measured: logging" in text
    assert "pmu.probes = 1" in text
