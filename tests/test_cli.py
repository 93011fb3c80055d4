"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_probe_command(self):
        args = build_parser().parse_args(["--scale", "32", "probe", "mcf"])
        assert args.workload == "mcf"
        assert args.scale == 32

    def test_probe_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["probe", "gcc"])

    def test_partition_command(self):
        args = build_parser().parse_args(["partition", "twolf", "equake"])
        assert args.workload_a == "twolf"
        assert args.workload_b == "equake"

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestExecution:
    def test_list_prints_thirty(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 30
        assert "mcf" in out

    def test_probe_runs(self, capsys):
        assert main(["--scale", "32", "probe", "crafty"]) == 0
        out = capsys.readouterr().out
        assert "rapidmrc" in out
        assert "log entries" in out

    def test_probe_with_real(self, capsys):
        assert main(["--scale", "32", "probe", "crafty", "--real"]) == 0
        out = capsys.readouterr().out
        assert "MPKI distance" in out
        assert "real" in out

    def test_analyze_native_trace(self, capsys, tmp_path):
        from repro.io.tracefile import save_trace

        path = str(tmp_path / "trace.txt")
        save_trace(path, list(range(100)) * 30)
        assert main(["--scale", "32", "analyze", path,
                     "--format", "native"]) == 0
        out = capsys.readouterr().out
        assert "loaded 3000 trace entries" in out
        assert "mrc" in out

    def test_analyze_perf_trace_with_output(self, capsys, tmp_path):
        from repro.io.mrcfile import load_mrc

        trace = tmp_path / "perf.txt"
        lines = [
            f"app 1 {i / 1e6:.6f}: mem-loads: {(i % 50) * 128:x}"
            for i in range(2000)
        ]
        trace.write_text("\n".join(lines) + "\n")
        out_path = str(tmp_path / "curve.json")
        assert main(["--scale", "32", "analyze", str(trace),
                     "--output", out_path]) == 0
        curve, metadata = load_mrc(out_path)
        assert curve.num_points == 16
        assert metadata["machine"] == "POWER5/32"

    def test_analyze_empty_trace_fails(self, capsys, tmp_path):
        trace = tmp_path / "empty.txt"
        trace.write_text("# nothing\n")
        assert main(["analyze", str(trace)]) == 1

    def test_compare_curves(self, capsys, tmp_path):
        from repro.core.mrc import MissRateCurve
        from repro.io.mrcfile import save_mrc

        path_a = str(tmp_path / "a.json")
        path_b = str(tmp_path / "b.json")
        save_mrc(path_a, MissRateCurve(
            {s: float(20 - s) for s in range(1, 17)}, label="real"
        ))
        save_mrc(path_b, MissRateCurve(
            {s: float(25 - s) for s in range(1, 17)}, label="calc"
        ))
        assert main(["compare", path_a, path_b, "--anchor", "8"]) == 0
        out = capsys.readouterr().out
        assert "MPKI distance:     0.000" in out
        assert "shape correlation: 1.000" in out


class TestFastPath:
    def test_probe_fast_flag_parsed(self):
        args = build_parser().parse_args(["--sim-workers", "2", "probe",
                                          "mcf", "--fast"])
        assert args.fast is True
        assert args.sim_workers == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["probe", "mcf", "--workers", "2"])

    def test_probe_fast_runs(self, capsys):
        assert main(["--scale", "32", "probe", "crafty", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "rapidmrc" in out

    def test_analyze_fast_matches_scalar(self, capsys, tmp_path):
        from repro.io.tracefile import save_trace

        path = str(tmp_path / "trace.txt")
        save_trace(path, list(range(100)) * 30)
        assert main(["--scale", "32", "analyze", path,
                     "--format", "native"]) == 0
        scalar_out = capsys.readouterr().out
        assert main(["--scale", "32", "analyze", path,
                     "--format", "native", "--fast"]) == 0
        fast_out = capsys.readouterr().out
        # Identical curves, identical rendering: bit-identical fast path.
        assert fast_out == scalar_out


class TestTelemetry:
    def test_telemetry_flag_parsed(self):
        args = build_parser().parse_args(
            ["probe", "mcf", "--telemetry", "out.jsonl"]
        )
        assert args.telemetry == "out.jsonl"

    def test_obs_report_command_parsed(self):
        args = build_parser().parse_args(["obs", "report", "run.jsonl"])
        assert args.telemetry_file == "run.jsonl"

    def test_obs_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_probe_then_report(self, capsys, tmp_path):
        path = str(tmp_path / "run.jsonl")
        assert main(["--scale", "32", "probe", "crafty", "--fast",
                     "--telemetry", path]) == 0
        capsys.readouterr()
        assert main(["obs", "report", path]) == 0
        out = capsys.readouterr().out
        assert "per-stage cost breakdown" in out
        assert "trace_collect" in out
        assert "measured: logging" in out
        assert "pmu.probes = 1" in out

    def test_probe_output_identical_with_telemetry(self, capsys, tmp_path):
        assert main(["--scale", "32", "probe", "crafty", "--fast"]) == 0
        plain = capsys.readouterr().out
        path = str(tmp_path / "run.jsonl")
        assert main(["--scale", "32", "probe", "crafty", "--fast",
                     "--telemetry", path]) == 0
        observed = capsys.readouterr().out
        assert observed == plain

    def test_obs_report_missing_file(self, capsys, tmp_path):
        assert main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_obs_report_bad_file(self, capsys, tmp_path):
        # A capture with no decodable record at all is an error ...
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.warns(RuntimeWarning, match="not JSON"):
            assert main(["obs", "report", str(path)]) == 2
        assert "no usable telemetry records" in capsys.readouterr().err

    def test_obs_report_partially_corrupt_file(self, capsys, tmp_path):
        # ... but one corrupt line among good records only warns: the
        # decodable remainder still renders, with the drop tallied.
        path = tmp_path / "partial.jsonl"
        path.write_text(
            '{"type": "span", "id": 1, "parent": null, "name": "probe", '
            '"start_ns": 0, "end_ns": 1000000}\n'
            "garbage\n"
        )
        with pytest.warns(RuntimeWarning, match="not JSON"):
            assert main(["obs", "report", str(path)]) == 0
        assert "skipped records: 1" in capsys.readouterr().out


class TestCampaign:
    def spec_file(self, tmp_path):
        import json

        spec = {
            "name": "cli-demo",
            "targets": [{"kind": "workload", "name": "mcf"}],
            "machines": [{"scale": 32}],
            "engines": ["rangelist"],
            "seeds": [0, 1],
            "log_entries": 400,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_run_command_parsed(self):
        args = build_parser().parse_args(
            ["--sim-workers", "2", "campaign", "run", "spec.json",
             "--out", "results", "--resume"]
        )
        assert args.spec == "spec.json"
        assert args.out == "results"
        assert args.sim_workers == 2
        assert args.resume is True

    def test_run_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "run", "spec.json"])

    def test_campaign_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_report_command_parsed(self):
        args = build_parser().parse_args(["campaign", "report", "results"])
        assert args.campaign_dir == "results"

    def test_run_then_report(self, capsys, tmp_path):
        import os

        spec = self.spec_file(tmp_path)
        out = str(tmp_path / "results")
        assert main(["campaign", "run", spec, "--out", out]) == 0
        run_out = capsys.readouterr().out
        assert "# campaign: cli-demo (2 cells, 2 run, 0 skipped, " \
               "0 failed)" in run_out
        assert "# manifest:" in run_out
        assert os.path.exists(os.path.join(out, "BENCH_campaign.json"))
        assert main(["campaign", "report", out]) == 0
        report_out = capsys.readouterr().out
        assert "campaign: cli-demo" in report_out
        assert "2 total, 2 ok, 0 failed" in report_out
        assert "per-engine:" in report_out

    def test_run_resume_skips(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        out = str(tmp_path / "results")
        assert main(["campaign", "run", spec, "--out", out]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", spec, "--out", out,
                     "--resume"]) == 0
        assert "2 cells, 0 run, 2 skipped" in capsys.readouterr().out

    def test_run_missing_spec(self, capsys, tmp_path):
        assert main(["campaign", "run", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_run_refuses_clobber(self, capsys, tmp_path):
        spec = self.spec_file(tmp_path)
        out = str(tmp_path / "results")
        assert main(["campaign", "run", spec, "--out", out]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", spec, "--out", out]) == 2
        assert "already holds" in capsys.readouterr().err

    def test_report_detects_tampering(self, capsys, tmp_path):
        import os

        from repro.campaign import CampaignManifest

        spec = self.spec_file(tmp_path)
        out = str(tmp_path / "results")
        assert main(["campaign", "run", spec, "--out", out]) == 0
        capsys.readouterr()
        manifest = CampaignManifest.load(out)
        entry = next(iter(manifest.cells.values()))
        with open(os.path.join(out, entry["file"]), "a") as handle:
            handle.write("tampered\n")
        assert main(["campaign", "report", out]) == 1
        assert "verification problems" in capsys.readouterr().out


class TestMrcCache:
    def test_flags_parsed(self):
        args = build_parser().parse_args(
            ["probe", "mcf", "--mrc-cache", "cache.json", "--no-mrc-reuse"]
        )
        assert args.mrc_cache == "cache.json"
        assert args.no_mrc_reuse

    def test_probe_cold_then_warm(self, capsys, tmp_path):
        path = str(tmp_path / "cache.json")
        assert main(["--scale", "32", "probe", "crafty", "--fast",
                     "--mrc-cache", path]) == 0
        cold = capsys.readouterr().out
        assert "cached under crafty@" in cold
        assert main(["--scale", "32", "probe", "crafty", "--fast",
                     "--mrc-cache", path]) == 0
        warm = capsys.readouterr().out
        assert "cache hit: crafty@" in warm
        # The served curve is the probed one, verbatim.
        assert cold.splitlines()[-1] == warm.splitlines()[-1]

    def test_no_reuse_probes_again(self, capsys, tmp_path):
        path = str(tmp_path / "cache.json")
        assert main(["--scale", "32", "probe", "crafty", "--fast",
                     "--mrc-cache", path]) == 0
        capsys.readouterr()
        assert main(["--scale", "32", "probe", "crafty", "--fast",
                     "--mrc-cache", path, "--no-mrc-reuse"]) == 0
        out = capsys.readouterr().out
        assert "cache hit" not in out
        assert "log entries" in out

    def test_partition_reuses_probe_cache(self, capsys, tmp_path):
        path = str(tmp_path / "cache.json")
        assert main(["--scale", "32", "partition", "crafty", "gzip",
                     "--fast", "--mrc-cache", path]) == 0
        cold = capsys.readouterr().out
        assert "mrc cache saved" in cold
        assert main(["--scale", "32", "partition", "crafty", "gzip",
                     "--fast", "--mrc-cache", path]) == 0
        warm = capsys.readouterr().out
        assert "cache hit: crafty@" in warm
        assert "cache hit: gzip@" in warm
        assert cold.splitlines()[-1] == warm.splitlines()[-1]
