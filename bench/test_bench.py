"""Quick-mode smoke test of the benchmark (1/32 scale, 2 apps, 2 ticks).

Run with ``python -m pytest bench -q`` from the repository root; it is
not part of the tier-1 suite.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = compare.load_spec()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(tmp_path, name, trace):
    result = run.run_workload(name, seed=7, seconds=1.0, trace=trace,
                              quick=True, out=str(tmp_path / "r.json"))
    assert result["correct"], result["errors"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(entry["value"] != 0 for entry in result["metrics"].values())
    saved = json.loads((tmp_path / "r.json").read_text())
    assert saved["metrics"] == result["metrics"]


def test_coverage_guard_reports_a_layer_that_records_nothing(monkeypatch):
    # Point core.stack at a function no probe calls: the traced pass
    # must flag the layer instead of reporting zero time.
    monkeypatch.setitem(layers.LAYERS, "core.stack", (
        ("repro.core.partition", "choose_partition_sizes_optimal"),))
    workload = workloads.make_workload_runner("probe-full", quick=True)
    workload.setup(7)
    out = worker._measure_traced(workload, 0.1, os.devnull)
    assert any("coverage guard" in e and "core.stack" in e
               for e in out["errors"])


def test_renamed_entry_point_fails_the_traced_pass(monkeypatch):
    monkeypatch.setitem(layers.LAYERS, "core.stack", (
        ("repro.core.stack", "LRUStackSimulator.no_such_method"),))
    with pytest.raises(AttributeError, match="no_such_method"):
        with layers.TracePatch(layers.LayerTracer()):
            pass
    # Layers installed before the failure are restored.
    from repro.sim import fastsim
    assert not hasattr(fastsim.drive_batch, "__wrapped__")


def test_wrappers_reach_import_time_bindings_and_restore():
    from repro.core.partition import choose_partition_sizes
    from repro.runner import experiments

    original = experiments.choose_partition_sizes
    tracer = layers.LayerTracer()
    with layers.TracePatch(tracer):
        # The name experiments bound at import time is wrapped too.
        assert experiments.choose_partition_sizes is not original
    assert experiments.choose_partition_sizes is original
    assert choose_partition_sizes is original


def test_compare_verdicts_on_synthetic_runs():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    slower = [v * 1.2 for v in parent]
    close = [v * 1.03 for v in parent]
    faster = [v * 0.8 for v in parent]
    noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.5, 1.5, 0.8, 1.2, 1.0]
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "regression"
    assert compare.verdict(parent, close, "lower", 0.1)[0] == "within bound"
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "gain"
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
    # "higher is better" flips the direction.
    assert compare.verdict(parent, faster, "higher", 0.1)[0] == "regression"


def test_compare_sets_end_to_end(tmp_path):
    def write(side, seed, value):
        directory = tmp_path / side
        directory.mkdir(exist_ok=True)
        metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        (directory / f"w-s{seed}-t0.json").write_text(json.dumps({
            "workload": "probe-full", "seed": seed, "trace": 0,
            "correct": True, "metrics": metrics}))

    for seed in range(10):
        write("a", seed, 1.0 + 0.001 * seed)
        write("b", seed, 1.0 + 0.001 * seed)
    rows = compare.compare_sets(str(tmp_path / "a"), str(tmp_path / "b"),
                                SPEC)
    assert {r["verdict"] for r in rows} == {"within bound"}
    assert compare.main(["repeat", str(tmp_path / "a"),
                         str(tmp_path / "b")]) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "probe-full",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
