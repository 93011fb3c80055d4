"""Benchmark: the campaign harness end to end, pooled vs sequential.

Runs one small but real campaign matrix (workloads x engines x seeds)
twice -- once sequentially, once on a two-worker process pool -- and
gates the harness's core contract: the pooled run's folded telemetry
counters and per-cell curves are identical to the sequential replay,
because every cell runs under its own fresh telemetry and the
aggregate is a pure associative merge of the recorded per-cell
snapshots.  Also records per-cell MPKI, wall-clock, and the pool
speedup, and writes ``benchmarks/results/BENCH_campaign.json``.

Environment knobs (for CI smoke runs):

* ``REPRO_BENCH_SCALE`` -- machine scale divisor (default 16);
* ``REPRO_BENCH_CAMPAIGN_LOG`` -- probe log entries (default 1500).
"""

import json
import os

from repro.campaign import CampaignSpec, build_aggregate, run_campaign
from repro.campaign.spec import MachineSpec, WorkloadTarget

WORKLOADS = ("mcf", "swim")
ENGINES = ("rangelist", "batch")
SEEDS = (0, 1)


def campaign_spec(scale: int, log_entries: int) -> CampaignSpec:
    return CampaignSpec(
        name="bench-campaign",
        targets=tuple(WorkloadTarget(name) for name in WORKLOADS),
        machines=(MachineSpec(scale=scale),),
        engines=ENGINES,
        seeds=SEEDS,
        log_entries=log_entries,
    )


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


def cell_curves(aggregate):
    return {
        row["id"]: (row["mpki_at_anchor"], row["status"])
        for row in aggregate["cells"]
    }


def test_bench_campaign(bench_machine, report_dir, tmp_path, save_report):
    scale = int(os.environ.get("REPRO_BENCH_SCALE", "16"))
    log_entries = int(os.environ.get("REPRO_BENCH_CAMPAIGN_LOG", "1500"))
    spec = campaign_spec(scale, log_entries)

    seq_dir = str(tmp_path / "seq")
    pool_dir = str(tmp_path / "pool")
    seq_report = run_campaign(spec, seq_dir, max_workers=1)
    pool_report = run_campaign(spec, pool_dir, max_workers=2)

    assert seq_report.cells_failed == 0
    assert pool_report.cells_failed == 0
    assert seq_report.cells_total == pool_report.cells_total == spec.size

    seq_agg = build_aggregate(seq_dir)
    pool_agg = build_aggregate(pool_dir)

    # The gate: fan-out must not change the science or the accounting.
    assert deterministic(pool_agg["folded_metrics"]) == deterministic(
        seq_agg["folded_metrics"])
    assert deterministic_totals(pool_agg["counter_totals"]) == (
        deterministic_totals(seq_agg["counter_totals"]))
    assert cell_curves(pool_agg) == cell_curves(seq_agg)

    speedup = (
        seq_report.wall_seconds / pool_report.wall_seconds
        if pool_report.wall_seconds > 0 else None
    )
    payload = {
        "campaign": spec.name,
        "scale": scale,
        "log_entries": log_entries,
        "matrix": {
            "targets": list(WORKLOADS),
            "engines": list(ENGINES),
            "seeds": list(SEEDS),
            "cells": spec.size,
        },
        "sequential_wall_seconds": round(seq_report.wall_seconds, 6),
        "pooled_wall_seconds": round(pool_report.wall_seconds, 6),
        "pool_speedup": round(speedup, 3) if speedup else None,
        "fold_equal": True,
        "counter_totals": seq_agg["counter_totals"],
        "cells": [
            {
                "id": row["id"],
                "engine": row["engine"],
                "seed": row["seed"],
                "mpki_at_anchor": row["mpki_at_anchor"],
                "wall_seconds": row["wall_seconds"],
            }
            for row in seq_agg["cells"]
        ],
    }
    with open(report_dir / "BENCH_campaign.json", "w") as out:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")

    lines = [
        f"campaign harness: {spec.size} cells "
        f"({len(WORKLOADS)} workloads x {len(ENGINES)} engines x "
        f"{len(SEEDS)} seeds) at scale {scale}",
        f"sequential: {seq_report.wall_seconds:.2f}s, "
        f"pooled (2 workers): {pool_report.wall_seconds:.2f}s"
        + (f", speedup {speedup:.2f}x" if speedup else ""),
        "pooled folded counters == sequential: yes",
    ]
    for row in seq_agg["cells"]:
        lines.append(
            f"  {row['id']}: {row['mpki_at_anchor']:.3f} MPKI@anchor "
            f"in {row['wall_seconds']:.2f}s"
        )
    save_report("BENCH_campaign", "\n".join(lines))
