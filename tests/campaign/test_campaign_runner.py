"""Tests for the campaign runner: fan-out, fold-back, resume, failures."""

import json
import os

import pytest

from repro.campaign import (
    CampaignManifest,
    CampaignSpec,
    build_aggregate,
    render_report,
    run_campaign,
)
from repro.campaign.spec import MachineSpec, TraceFileTarget, WorkloadTarget
from repro.obs import Telemetry, use_telemetry


def tiny_spec(**overrides):
    """A spec small enough to probe in well under a second per cell."""
    defaults = dict(
        name="tiny",
        targets=(WorkloadTarget("mcf"),),
        machines=(MachineSpec(scale=32),),
        engines=("rangelist", "batch"),
        seeds=(0, 1),
        log_entries=400,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def cell_payloads(out_dir):
    manifest = CampaignManifest.load(out_dir)
    payloads = {}
    for cell_id, entry in manifest.cells.items():
        with open(os.path.join(out_dir, entry["file"])) as source:
            payloads[cell_id] = json.load(source)
    return payloads


def deterministic(folded):
    """Folded metrics minus wall-clock counters (``*_ns``), which differ
    between any two runs."""
    return {
        kind: [entry for entry in entries
               if not str(entry.get("name", "")).endswith("_ns")]
        if kind == "counters" else entries
        for kind, entries in folded.items()
    }


def deterministic_totals(totals):
    return {name: value for name, value in totals.items()
            if not name.endswith("_ns")}


class TestSequentialRun:
    def test_full_matrix_runs_and_aggregates(self, tmp_path):
        out = str(tmp_path / "out")
        report = run_campaign(tiny_spec(), out)
        assert report.cells_total == 4
        assert report.cells_run == 4
        assert report.cells_failed == 0
        assert os.path.exists(report.bench_path)
        manifest = CampaignManifest.load(out)
        assert manifest.verify(out) == []
        assert manifest.counts() == {"total": 4, "ok": 4, "failed": 0}

    def test_cell_payload_contents(self, tmp_path):
        out = str(tmp_path / "out")
        run_campaign(tiny_spec(engines=("rangelist",), seeds=(0,)), out)
        (payload,) = cell_payloads(out).values()
        assert payload["status"] == "ok"
        assert payload["cell"]["engine"] == "rangelist"
        assert payload["mpki_at_anchor"] >= 0.0
        assert len(payload["mrc"]) == 16
        assert payload["probe"]["log_entries"] == 400
        assert payload["wall_seconds"] > 0.0
        assert "metrics" in payload

    def test_batch_and_rangelist_cells_agree(self, tmp_path):
        # The batch engine is bit-identical to rangelist, so the same
        # (target, machine, seed) cell must produce the same curve.
        out = str(tmp_path / "out")
        run_campaign(tiny_spec(seeds=(0,)), out)
        payloads = cell_payloads(out)
        curves = {
            payload["cell"]["engine"]: payload["mrc"]
            for payload in payloads.values()
        }
        assert curves["batch"] == curves["rangelist"]

    def test_measure_real_records_error(self, tmp_path):
        out = str(tmp_path / "out")
        run_campaign(
            tiny_spec(engines=("rangelist",), seeds=(0,),
                      measure_real=True),
            out,
        )
        (payload,) = cell_payloads(out).values()
        assert payload["mpki_error"] is not None
        assert payload["mpki_error"] >= 0.0
        assert len(payload["real_mrc"]) == 16

    def test_refuses_to_clobber_without_resume(self, tmp_path):
        out = str(tmp_path / "out")
        run_campaign(tiny_spec(engines=("rangelist",), seeds=(0,)), out)
        with pytest.raises(ValueError, match="already holds"):
            run_campaign(tiny_spec(engines=("rangelist",), seeds=(0,)), out)


class TestPoolEquivalence:
    def test_pool_matches_sequential_fold(self, tmp_path):
        spec = tiny_spec()
        seq_dir = str(tmp_path / "seq")
        pool_dir = str(tmp_path / "pool")
        run_campaign(spec, seq_dir, max_workers=1)
        run_campaign(spec, pool_dir, max_workers=2)

        seq = build_aggregate(seq_dir)
        pooled = build_aggregate(pool_dir)
        # The folded telemetry is an associative merge of per-cell
        # snapshots, so pooled and sequential runs fold to equal totals.
        assert deterministic(pooled["folded_metrics"]) == deterministic(
            seq["folded_metrics"])
        assert deterministic_totals(pooled["counter_totals"]) == (
            deterministic_totals(seq["counter_totals"]))
        # And the science is deterministic cell by cell.
        seq_cells = cell_payloads(seq_dir)
        pool_cells = cell_payloads(pool_dir)
        assert seq_cells.keys() == pool_cells.keys()
        for cell_id in seq_cells:
            assert seq_cells[cell_id]["mrc"] == pool_cells[cell_id]["mrc"]

    def test_parent_telemetry_fold_back(self, tmp_path):
        spec = tiny_spec(engines=("rangelist",))
        telemetry = Telemetry.in_memory()
        with use_telemetry(telemetry):
            run_campaign(spec, str(tmp_path / "out"), max_workers=2)
        # One MRC compute per cell folded into the parent registry.
        assert telemetry.registry.counter_total("mrc.computes") == 2


class TestResume:
    def test_resume_skips_complete_cells(self, tmp_path):
        out = str(tmp_path / "out")
        spec = tiny_spec()
        first = run_campaign(spec, out)
        assert first.cells_run == 4
        second = run_campaign(spec, out, resume=True)
        assert second.cells_run == 0
        assert second.cells_skipped == 4
        assert second.cells_failed == 0

    def test_resume_reruns_missing_cell(self, tmp_path):
        out = str(tmp_path / "out")
        spec = tiny_spec()
        run_campaign(spec, out)
        manifest = CampaignManifest.load(out)
        victim = sorted(manifest.cells)[0]
        os.remove(os.path.join(out, manifest.cells[victim]["file"]))
        second = run_campaign(spec, out, resume=True)
        assert second.cells_run == 1
        assert second.cells_skipped == 3
        assert CampaignManifest.load(out).verify(out) == []

    def test_resume_with_changed_spec_refuses(self, tmp_path):
        out = str(tmp_path / "out")
        run_campaign(tiny_spec(), out)
        with pytest.raises(ValueError, match="different spec"):
            run_campaign(tiny_spec(seeds=(0, 1, 2)), out, resume=True)


class TestFailureRecording:
    def failing_spec(self, tmp_path):
        # Parseable at spec level (split_pids=False defers parsing to
        # the worker), unparseable in the worker: the cell must fail
        # and be recorded, not dropped.
        capture = tmp_path / "empty.txt"
        capture.write_text("# no samples at all\n")
        return tiny_spec(
            targets=(
                WorkloadTarget("mcf"),
                TraceFileTarget(str(capture), split_pids=False),
            ),
            engines=("rangelist",),
            seeds=(0,),
        )

    def test_failed_cells_recorded_not_dropped(self, tmp_path):
        out = str(tmp_path / "out")
        report = run_campaign(self.failing_spec(tmp_path), out)
        assert report.cells_total == 2
        assert report.cells_failed == 1
        manifest = CampaignManifest.load(out)
        assert manifest.counts() == {"total": 2, "ok": 1, "failed": 1}
        failed = [
            payload for payload in cell_payloads(out).values()
            if payload["status"] == "failed"
        ]
        assert len(failed) == 1
        assert "no samples" in failed[0]["error"]

    def test_failed_cells_appear_in_aggregate(self, tmp_path):
        out = str(tmp_path / "out")
        run_campaign(self.failing_spec(tmp_path), out)
        aggregate = build_aggregate(out)
        assert aggregate["summary"]["failed"] == 1
        failed_rows = [
            row for row in aggregate["cells"] if row["status"] == "failed"
        ]
        assert len(failed_rows) == 1
        assert "error" in failed_rows[0]
        # The report renders without tripping over failed rows.
        assert "failed" in render_report(aggregate)

    def test_resume_reruns_failed_cells(self, tmp_path):
        out = str(tmp_path / "out")
        spec = self.failing_spec(tmp_path)
        run_campaign(spec, out)
        second = run_campaign(spec, out, resume=True)
        assert second.cells_run == 1  # the failed trace cell only
        assert second.cells_skipped == 1


class TestAggregateIntegrity:
    def test_strict_aggregate_refuses_tampered_tree(self, tmp_path):
        out = str(tmp_path / "out")
        run_campaign(tiny_spec(engines=("rangelist",), seeds=(0,)), out)
        manifest = CampaignManifest.load(out)
        (entry,) = manifest.cells.values()
        with open(os.path.join(out, entry["file"]), "a") as handle:
            handle.write("tampered\n")
        with pytest.raises(ValueError, match="failed verification"):
            build_aggregate(out)
        relaxed = build_aggregate(out, strict=False)
        assert relaxed["verification_problems"]
