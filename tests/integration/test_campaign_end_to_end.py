"""End to end: a fixture perf-script capture through the full campaign.

One interleaved two-process capture must flow
``parse_perf_script -> samples_to_lines -> replay workload ->
collect_trace`` per pid and come out the other side as one nonempty,
quality-assessed MRC per process in the campaign results tree.
"""

import json
import os

import pytest

from repro.campaign import CampaignManifest, CampaignSpec, run_campaign
from repro.campaign.spec import MachineSpec, TraceFileTarget, WorkloadTarget


@pytest.fixture()
def capture(tmp_path, tiny_machine):
    """An interleaved capture: pid 1111 loops over 4 colors' worth of L2
    lines (misses at small partitions), pid 2222 loops over half a
    color (bigger than L1, so it logs, but hits in any L2 partition).
    Lines use the classic perf layout with a leading weight column --
    the layout the old parser misparsed."""
    path = tmp_path / "capture.txt"
    big_lines = 4 * tiny_machine.lines_per_color
    small_lines = tiny_machine.lines_per_color // 2
    rows = ["# captured with: perf mem record"]
    clock = 0
    for _ in range(60):
        for index in range(big_lines):
            address = 0x7F0000000000 + index * tiny_machine.line_size
            rows.append(
                f"big  1111 [000] {clock / 1e6:.6f}:  mem-loads:  "
                f"1 {address:x}"
            )
            clock += 1
        for index in range(small_lines):
            address = 0x10000000 + index * tiny_machine.line_size
            rows.append(
                f"small  2222 [001] {clock / 1e6:.6f}:  mem-loads:  "
                f"{address:x} level hit"
            )
            clock += 1
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_capture_to_per_pid_mrcs(tmp_path, capture):
    spec = CampaignSpec(
        name="ingest-e2e",
        targets=(
            TraceFileTarget(capture, events=("mem-loads",)),
            WorkloadTarget("mcf"),
        ),
        machines=(MachineSpec(scale=32),),
        engines=("batch",),
        seeds=(0,),
        log_entries=400,
    )
    out = str(tmp_path / "out")
    report = run_campaign(spec, out)
    assert report.cells_failed == 0
    # One capture became two targets: one cell per pid (plus mcf).
    assert report.cells_total == 3

    manifest = CampaignManifest.load(out)
    assert manifest.verify(out) == []
    by_label = {}
    for entry in manifest.cells.values():
        with open(os.path.join(out, entry["file"])) as source:
            payload = json.load(source)
        by_label[payload["cell"]["label"]] = payload

    assert set(by_label) == {"capture-pid1111", "capture-pid2222", "mcf"}
    for label in ("capture-pid1111", "capture-pid2222"):
        payload = by_label[label]
        assert payload["status"] == "ok"
        mrc = {int(size): value for size, value in payload["mrc"].items()}
        assert len(mrc) == 16
        assert all(value >= 0.0 for value in mrc.values())
        ingestion = payload["ingestion"]
        assert ingestion["samples"] > 0
        assert ingestion["skipped_lines"] == 0

    # The big looping pid misses where the small resident pid does not:
    # per-pid splitting preserved each process's own locality.
    big = {int(s): v
           for s, v in by_label["capture-pid1111"]["mrc"].items()}
    small = {int(s): v
             for s, v in by_label["capture-pid2222"]["mrc"].items()}
    assert big[1] > 0.0
    assert big[1] > small[1]
    # The big loop's footprint (4 colors' worth of lines) fits well
    # before the full cache, so its curve must fall off sharply past
    # the knee.  The raw (uncalibrated) probe keeps a small residual
    # floor from warmup and the PMU drop model, so assert the ratio
    # rather than exact zero.
    assert big[5] < 0.2 * big[1]
    assert big[16] <= big[5]

    # Distinct working sets were preserved through line remapping.
    assert (by_label["capture-pid1111"]["ingestion"]["distinct_lines"]
            > by_label["capture-pid2222"]["ingestion"]["distinct_lines"])
