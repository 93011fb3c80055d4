"""The campaign runner: bounded fan-out, fold-back, resume.

Every cell executes :func:`run_cell` -- in-process for the sequential
path, in a ``ProcessPoolExecutor`` worker otherwise.  Both paths run the
cell under :func:`repro.obs.call_traced` (a fresh per-cell telemetry),
so the parent always folds identical per-cell snapshots through the
associative merge: a pooled campaign's folded counters equal a
sequential replay's by construction, whatever the completion order.

Failure policy: a cell that raises, or whose probe yields no computable
curve, is *recorded* as a failed cell (with the error) in the results
tree and manifest -- never dropped -- and resume re-runs exactly the
cells that are not manifest-complete.  A pool worker that dies breaks
the pool: every cell not completed by then is recorded failed with
``worker died``, and the campaign still returns its report.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.aggregate import write_aggregate
from repro.campaign.manifest import (
    SPEC_NAME,
    CampaignManifest,
    file_sha256,
    load_or_create,
)
from repro.campaign.spec import CampaignSpec, MachineSpec
from repro.core.estimators import is_estimator
from repro.core.mrc import mpki_distance
from repro.core.rapidmrc import ProbeConfig
from repro.io.perf_script import parse_perf_script, samples_to_lines
from repro.obs import absorb_payload, call_traced
from repro.obs.metrics import empty_snapshot
from repro.runner.offline import OfflineConfig, real_mrc
from repro.runner.pool import get_pool
from repro.runner.online import OnlineProbeConfig, collect_trace
from repro.workloads import make_workload
from repro.workloads.replay import replay_workload

__all__ = ["CampaignReport", "run_campaign", "run_cell"]

CELLS_DIR = "cells"


def _cell_summary(cell: Dict[str, object]) -> Dict[str, object]:
    return {
        "id": cell["id"],
        "label": cell["label"],
        "target": cell["target"],
        "machine": cell["machine"],
        "engine": cell["engine"],
        "seed": cell["seed"],
    }


def _build_workload(cell: Dict[str, object], machine):
    """The cell's workload plus (for traces) the ingestion accounting."""
    target = cell["target"]
    if target["kind"] == "workload":
        return make_workload(str(target["name"]), machine), None
    events = target.get("events")
    report = parse_perf_script(
        str(target["path"]),
        events=tuple(events) if events is not None else None,
        pid=target.get("pid"),
    )
    lines = samples_to_lines(report.samples, machine.line_size)
    if not lines:
        raise ValueError(
            f"{target['path']}: no samples for cell {cell['id']} "
            f"({report.skipped_lines} skipped, "
            f"{report.filtered_events} event-filtered, "
            f"{report.filtered_pids} pid-filtered "
            f"of {report.total_lines} lines)"
        )
    workload = replay_workload(
        str(cell["label"]),
        lines,
        line_size=machine.line_size,
        instructions_per_access=int(target.get("instructions_per_access", 48)),
    )
    ingestion = {
        "samples": len(report.samples),
        "distinct_lines": workload.pattern.distinct_lines,
        "skipped_lines": report.skipped_lines,
        "filtered_events": report.filtered_events,
        "filtered_pids": report.filtered_pids,
        "total_lines": report.total_lines,
    }
    return workload, ingestion


def _execute_cell(cell: Dict[str, object]) -> Dict[str, object]:
    started = time.perf_counter()
    machine = MachineSpec.from_dict(cell["machine"]).build()
    engine = str(cell["engine"])
    workload, ingestion = _build_workload(cell, machine)

    log_entries = cell.get("log_entries")
    sampling_rate = (
        cell.get("sampling_rate") if is_estimator(engine) else None
    )
    probe_config = ProbeConfig(
        stack_engine=engine,
        log_entries=int(log_entries) if log_entries is not None else None,
        sampling_rate=(
            float(sampling_rate) if sampling_rate is not None else None
        ),
    )
    online = OnlineProbeConfig(seed=int(cell["seed"]))
    probe = collect_trace(workload, machine, online, probe_config)

    result: Dict[str, object] = {
        "cell": _cell_summary(cell),
        "probe": {
            "instructions": probe.probe.instructions,
            "log_entries": len(probe.probe.entries),
            "dropped_events": probe.probe.dropped_events,
            "stale_entries": probe.probe.stale_entries,
            "log_filled": probe.log_filled,
        },
        "quality": {
            "ok": probe.ok,
            "verdict": probe.quality.describe(),
        },
    }
    if ingestion is not None:
        result["ingestion"] = ingestion
    if probe.result is None:
        result["status"] = "failed"
        result["error"] = (
            f"probe produced no curve ({probe.quality.describe()})"
        )
        result["wall_seconds"] = time.perf_counter() - started
        return result

    anchor = probe_config.anchor_color
    mrc = probe.result.mrc
    result["status"] = "ok"
    result["mrc"] = {str(size): value for size, value in mrc}
    result["mpki_at_anchor"] = mrc.value_at(anchor)
    result["anchor_color"] = anchor
    result["estimator"] = probe.result.estimator
    result["sampling_rate"] = probe.result.sampling_rate
    result["mpki_error"] = None
    if cell.get("measure_real"):
        real_workers = cell.get("real_workers")
        real = real_mrc(
            workload, machine, OfflineConfig(),
            max_workers=int(real_workers) if real_workers else None,
        )
        calibrated = probe.calibrate(anchor, real[anchor])
        result["real_mrc"] = {str(size): value for size, value in real}
        result["mpki_error"] = mpki_distance(real, calibrated)
    result["wall_seconds"] = time.perf_counter() - started
    return result


def run_cell(
    cell: Dict[str, object],
) -> Tuple[str, Dict[str, object], Optional[Dict[str, object]]]:
    """One cell, end to end: ``(cell_id, result, telemetry_payload)``.

    Always runs under a fresh per-cell telemetry (:func:`call_traced`),
    in-process and in pool workers alike, so fold-back is identical on
    both paths.  Never raises: an exception becomes a failed-cell
    record.
    """
    try:
        result, payload = call_traced(_execute_cell, cell)
    except Exception as error:  # noqa: BLE001 - failed cells are data
        return _failed_cell(cell, f"{type(error).__name__}: {error}")
    result["metrics"] = payload.get("metrics") or empty_snapshot()
    return str(cell["id"]), result, payload


def _failed_cell(
    cell: Dict[str, object], error: str,
) -> Tuple[str, Dict[str, object], None]:
    result = {
        "cell": _cell_summary(cell),
        "status": "failed",
        "error": error,
        "wall_seconds": 0.0,
        "metrics": empty_snapshot(),
    }
    return str(cell["id"]), result, None


@dataclass
class CampaignReport:
    """What one ``run_campaign`` call did."""

    out_dir: str
    manifest_path: str
    bench_path: str
    cells_total: int
    cells_run: int
    cells_skipped: int
    cells_failed: int
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return self.cells_failed == 0


def run_campaign(
    spec: CampaignSpec,
    out_dir: str,
    max_workers: Optional[int] = None,
    resume: bool = False,
    progress: Optional[Callable[[str, Dict[str, object]], None]] = None,
) -> CampaignReport:
    """Run the matrix, write the results tree, build the aggregate.

    Args:
        max_workers: fan cells out across this many worker processes;
            ``None`` or ``1`` runs sequentially in-process (identical
            results and folded telemetry either way).
        resume: continue a previous run in ``out_dir``: cells whose
            manifest entry is ok and whose result file still matches its
            checksum are skipped; failed or missing cells re-run.  The
            spec must be byte-identical to the recorded one.
        progress: called as ``progress(cell_id, result)`` after each
            cell completes (CLI narration hook).
    """
    started = time.perf_counter()
    cells = spec.expand()
    os.makedirs(os.path.join(out_dir, CELLS_DIR), exist_ok=True)
    spec_json = spec.to_json()
    manifest = load_or_create(out_dir, spec.name, spec_json, resume)
    with open(os.path.join(out_dir, SPEC_NAME), "w", encoding="utf-8") as out:
        out.write(spec_json)

    pending = [
        cell for cell in cells
        if not manifest.is_complete(str(cell["id"]), out_dir)
    ]
    skipped = len(cells) - len(pending)

    def handle(
        cell_id: str,
        result: Dict[str, object],
        payload: Optional[Dict[str, object]],
    ) -> None:
        rel = os.path.join(CELLS_DIR, f"{cell_id}.json")
        path = os.path.join(out_dir, rel)
        with open(path, "w", encoding="utf-8") as out:
            json.dump(result, out, indent=2, sort_keys=True)
            out.write("\n")
        manifest.record(
            cell_id,
            "ok" if result.get("status") == "ok" else "failed",
            rel,
            file_sha256(path),
            float(result.get("wall_seconds", 0.0)),
        )
        # Saving after every cell makes a crashed campaign resumable at
        # cell granularity.
        manifest.save(out_dir)
        absorb_payload(payload)
        if progress is not None:
            progress(cell_id, result)

    pool = get_pool(max_workers)
    if pool is not None and len(pending) > 1:
        from concurrent.futures.process import BrokenProcessPool

        handled = set()
        try:
            # run_cell manages its own per-cell telemetry payload
            # (handle() absorbs it), so the cells go through the
            # untraced fan-out.
            for triple in pool.imap_unordered(
                run_cell, [(cell,) for cell in pending]
            ):
                handle(*triple)
                handled.add(triple[0])
        except BrokenProcessPool:
            # A worker died and took the pool with it (the next get_pool
            # builds a fresh one).  Every cell that had not completed is
            # recorded failed, so --resume re-runs exactly those.
            for cell in pending:
                if str(cell["id"]) not in handled:
                    handle(*_failed_cell(cell, "worker died"))
    else:
        for cell in pending:
            handle(*run_cell(cell))

    manifest.save(out_dir)
    bench_path = write_aggregate(out_dir)
    matrix_ids = {str(cell["id"]) for cell in cells}
    failed = sum(
        1 for cell_id, entry in manifest.cells.items()
        if cell_id in matrix_ids and entry.get("status") != "ok"
    )
    return CampaignReport(
        out_dir=out_dir,
        manifest_path=os.path.join(out_dir, "manifest.json"),
        bench_path=bench_path,
        cells_total=len(cells),
        cells_run=len(pending),
        cells_skipped=skipped,
        cells_failed=failed,
        wall_seconds=time.perf_counter() - started,
    )
