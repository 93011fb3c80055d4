"""RunReport: JSONL round-trip, aggregation, and rendering."""

import json

import pytest

from repro.obs import Telemetry, use_telemetry
from repro.obs.report import CALCULATION_SPANS, LOGGING_SPANS, RunReport


def _capture_sample():
    """A small but representative live capture."""
    telemetry = Telemetry.in_memory()
    tracer, registry = telemetry.tracer, telemetry.registry
    with tracer.span("probe", workload="mcf"):
        with tracer.span("trace_collect"):
            pass
        with tracer.span("correction", engine="batch"):
            pass
        with tracer.span("stack_distance", engine="batch"):
            pass
    registry.counter("pmu.probes").inc()
    registry.counter("pmu.probe_instructions").inc(68750)
    registry.counter("pmu.log_entries").inc(4800)
    registry.counter("pmu.exceptions").inc(4800)
    registry.counter("mrc.computes", engine="batch").inc()
    registry.gauge("sim.mpki", core=0).set(12.5)
    registry.histogram("mrc.trace_length").observe(4800)
    return telemetry


class TestRoundTrip:
    def test_jsonl_roundtrip_preserves_report(self, tmp_path):
        report = RunReport.from_telemetry(_capture_sample())
        path = str(tmp_path / "run.jsonl")
        report.to_jsonl(path)
        again = RunReport.from_jsonl(path)
        assert [s.to_dict() for s in again.spans] == [
            s.to_dict() for s in report.spans
        ]
        assert again.metrics == report.metrics

    def test_flush_writes_metrics_line(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        telemetry = Telemetry.with_sink(path)
        with use_telemetry(telemetry):
            telemetry.registry.counter("pmu.probes").inc(2)
            with telemetry.tracer.span("probe"):
                pass
        telemetry.flush()
        report = RunReport.from_jsonl(path)
        assert report.counter_total("pmu.probes") == 2
        assert [span.name for span in report.spans] == ["probe"]

    def test_multiple_metrics_lines_merge(self, tmp_path):
        path = tmp_path / "run.jsonl"
        snapshot = {
            "counters": [{"name": "pmu.probes", "labels": {}, "value": 3}],
            "gauges": [], "histograms": [],
        }
        with open(path, "w") as handle:
            for _ in range(2):
                handle.write(json.dumps(
                    {"type": "metrics", "snapshot": snapshot}) + "\n")
            handle.write(json.dumps({"type": "future-record"}) + "\n")
        report = RunReport.from_jsonl(str(path))
        assert report.counter_total("pmu.probes") == 6

    def test_bad_json_skipped_with_warning(self, tmp_path):
        # A truncated/corrupt line (e.g. from a crash mid-write) must
        # not make the rest of the capture unreadable.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "future"}\nnot json\n')
        with pytest.warns(RuntimeWarning, match="bad.jsonl:2"):
            report = RunReport.from_jsonl(str(path))
        assert report.skipped == 1

    def test_malformed_span_skipped_with_warning(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\n')
        with pytest.warns(RuntimeWarning, match="bad.jsonl:1"):
            report = RunReport.from_jsonl(str(path))
        assert report.skipped == 1
        assert report.spans == []

    def test_corrupt_lines_do_not_drop_good_records(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        snapshot = {
            "counters": [{"name": "pmu.probes", "labels": {}, "value": 3}],
            "gauges": [], "histograms": [],
        }
        with open(path, "w") as handle:
            handle.write(json.dumps(
                {"type": "metrics", "snapshot": snapshot}) + "\n")
            handle.write('{"type": "metrics", "snapsho')  # truncated
            handle.write("\n")
            handle.write(json.dumps(
                {"type": "metrics", "snapshot": snapshot}) + "\n")
        with pytest.warns(RuntimeWarning):
            report = RunReport.from_jsonl(str(path))
        assert report.counter_total("pmu.probes") == 6
        assert report.skipped == 1

    def test_skip_counter_lands_in_live_registry(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("garbage\n")
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            with pytest.warns(RuntimeWarning):
                RunReport.from_jsonl(str(path))
        snapshot = telemetry.registry.snapshot()
        totals = {
            counter["name"]: counter["value"]
            for counter in snapshot["counters"]
        }
        assert totals.get("obs.jsonl_skipped") == 1

    def test_render_mentions_skipped_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("garbage\n")
        with pytest.warns(RuntimeWarning):
            report = RunReport.from_jsonl(str(path))
        assert "skipped records: 1" in report.render()


class TestAggregation:
    def test_span_stats_counts_and_totals(self):
        report = RunReport.from_telemetry(_capture_sample())
        stats = report.span_stats()
        assert stats["probe"][0] == 1
        assert stats["trace_collect"][0] == 1
        assert all(total >= 0.0 for _, total in stats.values())

    def test_split_uses_designated_span_names(self):
        report = RunReport.from_telemetry(_capture_sample())
        logging_s, calc_s = report.logging_calculation_split()
        stats = report.span_stats()
        assert logging_s == pytest.approx(
            sum(stats[name][1] for name in LOGGING_SPANS if name in stats)
        )
        assert calc_s == pytest.approx(
            sum(stats[name][1] for name in CALCULATION_SPANS if name in stats)
        )

    def test_counter_helpers(self):
        report = RunReport.from_telemetry(_capture_sample())
        assert report.counter_total("pmu.log_entries") == 4800
        assert report.counter_by_label("mrc.computes", "engine") == {
            "batch": 1,
        }
        assert report.gauges("sim.mpki") == {"core=0": 12.5}

    def test_modeled_split_matches_overhead_constants(self):
        from repro.analysis.overhead import (
            CALC_CYCLES_PER_ENTRY,
            DEFAULT_EXCEPTION_COST_CYCLES,
            DEFAULT_SLOWDOWN_IPC_FRACTION,
        )

        report = RunReport.from_telemetry(_capture_sample())
        logging_c, calc_c = report._modeled_split()
        assert logging_c == pytest.approx(
            68750 / DEFAULT_SLOWDOWN_IPC_FRACTION
            + 4800 * DEFAULT_EXCEPTION_COST_CYCLES
        )
        assert calc_c == pytest.approx(4800 * CALC_CYCLES_PER_ENTRY)

    def test_modeled_split_absent_without_pmu_counters(self):
        assert RunReport()._modeled_split() is None


class TestRender:
    def test_render_contains_breakdown_and_split(self):
        text = RunReport.from_telemetry(_capture_sample()).render()
        assert "per-stage cost breakdown" in text
        assert "trace_collect" in text
        assert "measured: logging" in text
        assert "modeled (cycle model)" in text
        assert "pmu.log_entries = 4800" in text
        assert "sim.mpki{core=0} = 12.500" in text
        assert "mrc.trace_length" in text

    def test_render_empty_capture(self):
        text = RunReport().render()
        assert "no probe spans recorded" in text
        assert "pmu channel engine" not in text

    def test_render_pmu_channel_engine_next_to_sim_engine(self):
        telemetry = _capture_sample()
        telemetry.registry.counter("pmu.channel", engine="native").inc(3)
        telemetry.registry.counter("pmu.channel", engine="python").inc()
        lines = RunReport.from_telemetry(telemetry).render().splitlines()
        at = next(i for i, line in enumerate(lines)
                  if line.startswith("simulation engine:"))
        assert lines[at + 1] == (
            "pmu channel engine: native 3 probes, python 1 probe")

    def test_render_engine_line_names_fallback_reasons(self):
        telemetry = _capture_sample()
        registry = telemetry.registry
        registry.counter("sim.batch_accesses", engine="native").inc(900)
        registry.counter("sim.batch_accesses", engine="scalar").inc(100)
        registry.counter("sim.batch_fallbacks", reason="observer").inc(2)
        registry.counter("sim.batch_fallbacks",
                         reason="native_unavailable").inc()
        text = RunReport.from_telemetry(telemetry).render()
        assert ("simulation engine: native 900, scalar 100 accesses; "
                "fallbacks: native_unavailable=1, observer=2") in text
        assert "fallbacks: none" in RunReport().render()

    def test_render_stack_kernel_after_native_state(self):
        telemetry = _capture_sample()
        registry = telemetry.registry
        registry.counter("mrc.stack_kernel", kernel="native").inc(3)
        registry.counter("mrc.stack_kernel", kernel="reference").inc()
        lines = RunReport.from_telemetry(telemetry).render().splitlines()
        at = next(i for i, line in enumerate(lines)
                  if line.startswith("native state:"))
        assert lines[at + 1] == "stack kernel: native 3, reference 1"
        assert "stack kernel: native 0, reference 0" in RunReport().render()

    def test_render_access_streams_after_stack_kernel(self):
        telemetry = _capture_sample()
        registry = telemetry.registry
        registry.counter("workloads.stream_accesses",
                         source="generated").inc(30_720)
        registry.counter("workloads.stream_accesses",
                         source="replayed").inc(460_800)
        lines = RunReport.from_telemetry(telemetry).render().splitlines()
        at = next(i for i, line in enumerate(lines)
                  if line.startswith("stack kernel:"))
        assert lines[at + 1] == (
            "access streams: generated 30720, replayed 460800")
        assert "access streams: generated 0, replayed 0" in (
            RunReport().render())
