"""Run reports: a finished telemetry capture rendered for operators.

:class:`RunReport` is the read side of the telemetry layer.  It loads a
capture either live (:meth:`RunReport.from_telemetry`) or from the JSONL
written by ``--telemetry out.jsonl`` (:meth:`RunReport.from_jsonl`), and
renders the Table-2-style per-stage cost breakdown -- trace logging vs
MRC calculation, the split paper Section 5.2.2 accounts for in cycles --
next to the analytic cycle model of :mod:`repro.analysis.overhead`, plus
the reliability statistics (retries, ladder degradations, gate failures,
fault injections) and the PMU-channel and simulated-hierarchy counters.

The measured split is wall-clock over *this* reproduction's Python
pipeline, the modeled split is POWER5 cycles; the report compares their
*shares*, which is the structural claim the paper makes (logging
dominated by exception cost, calculation linear in log size).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import empty_snapshot, merge_snapshots
from repro.obs.timeseries import merge_board_snapshots
from repro.obs.tracing import STAGE_NAMES, Span

__all__ = ["RunReport", "LOGGING_SPANS", "CALCULATION_SPANS"]

#: Span names whose durations count as trace logging (Table 2 col a).
LOGGING_SPANS = ("trace_collect",)

#: Span names whose durations count as MRC calculation (Table 2 col b).
CALCULATION_SPANS = ("correction", "stack_distance", "calibration")


@dataclass
class RunReport:
    """One run's spans and metrics, ready to aggregate and render."""

    spans: List[Span] = field(default_factory=list)
    metrics: Dict[str, List[Dict[str, object]]] = field(
        default_factory=empty_snapshot
    )
    series: Optional[Dict[str, object]] = None
    #: Lines the loader dropped as truncated/corrupt (also counted on
    #: the live registry as ``obs.jsonl_skipped``).
    skipped: int = 0
    #: Records the loader parsed successfully.  ``records == 0`` with
    #: ``skipped > 0`` means the whole capture was garbage -- callers
    #: that want to distinguish "partially corrupt" from "unusable"
    #: (the CLI does) check this pair.
    records: int = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_telemetry(cls, telemetry) -> "RunReport":
        """Capture a live :class:`~repro.obs.Telemetry` instance."""
        board = getattr(telemetry, "board", None)
        return cls(
            spans=list(telemetry.tracer.spans),
            metrics=telemetry.registry.snapshot(),
            series=board.snapshot() if board is not None and len(board)
            else None,
        )

    @classmethod
    def from_jsonl(cls, path: str) -> "RunReport":
        """Load a ``--telemetry`` JSONL capture.

        Multiple ``metrics``/``series`` lines (e.g. several sessions
        appended to one file) are merged with their associative merges.

        Truncated or corrupt lines are *skipped*, not fatal -- a run
        that died mid-write (or a disk that clipped the tail of the
        file) still yields every decodable record, the same
        degrade-don't-raise contract as ``MRCStore.load``.  Each drop
        warns, increments the live ``obs.jsonl_skipped`` counter, and
        is tallied on the report's ``skipped`` attribute.
        """
        from repro.obs import get_telemetry

        spans: List[Span] = []
        snapshots = []
        series_snapshots: List[Dict[str, object]] = []
        skipped = 0

        def drop(line_number: int, reason: str) -> None:
            nonlocal skipped
            skipped += 1
            get_telemetry().registry.counter("obs.jsonl_skipped").inc()
            warnings.warn(
                f"{path}:{line_number}: skipping bad telemetry record "
                f"({reason})",
                RuntimeWarning,
                stacklevel=3,
            )

        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError as error:
                    drop(line_number, f"not JSON: {error}")
                    continue
                if not isinstance(payload, dict):
                    drop(line_number, "not a JSON object")
                    continue
                kind = payload.get("type")
                if kind == "span":
                    try:
                        spans.append(Span.from_dict(payload))
                    except (KeyError, TypeError, ValueError) as error:
                        drop(line_number, f"bad span record: {error!r}")
                elif kind == "metrics":
                    snapshot = payload.get("snapshot") or empty_snapshot()
                    try:
                        merge_snapshots(snapshot)
                    except (KeyError, TypeError, ValueError) as error:
                        drop(line_number, f"bad metrics record: {error!r}")
                        continue
                    snapshots.append(snapshot)
                elif kind == "series":
                    snapshot = payload.get("snapshot")
                    if not snapshot:
                        drop(line_number, "series record without snapshot")
                        continue
                    try:
                        merge_board_snapshots(snapshot)
                    except (KeyError, TypeError, ValueError) as error:
                        drop(line_number, f"bad series record: {error!r}")
                        continue
                    series_snapshots.append(snapshot)
                # Unknown record types are skipped: forward compatibility.
        series: Optional[Dict[str, object]] = None
        if series_snapshots:
            series = merge_board_snapshots(*series_snapshots)
        return cls(
            spans=spans,
            metrics=merge_snapshots(*snapshots),
            series=series,
            skipped=skipped,
            records=len(spans) + len(snapshots) + len(series_snapshots),
        )

    def to_jsonl(self, path: str) -> None:
        """Write the capture back out in the ``--telemetry`` format."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")
            handle.write(
                json.dumps({"type": "metrics", "snapshot": self.metrics})
                + "\n"
            )
            if self.series is not None:
                handle.write(
                    json.dumps({"type": "series", "snapshot": self.series})
                    + "\n"
                )

    # -- aggregation --------------------------------------------------------

    def span_stats(self) -> Dict[str, Tuple[int, float]]:
        """Per-name ``(count, total_seconds)`` over finished spans."""
        stats: Dict[str, Tuple[int, float]] = {}
        for span in self.spans:
            if span.end_ns is None:
                continue
            count, total = stats.get(span.name, (0, 0.0))
            stats[span.name] = (count + 1, total + span.duration_seconds)
        return stats

    def counter_total(self, name: str) -> int:
        """Sum of one counter over every label set."""
        return sum(
            int(entry["value"])
            for entry in self.metrics.get("counters", ())
            if entry["name"] == name
        )

    def counter_by_label(self, name: str, label: str) -> Dict[str, int]:
        """One counter's totals keyed by a label's values."""
        out: Dict[str, int] = {}
        for entry in self.metrics.get("counters", ()):
            if entry["name"] != name:
                continue
            key = str(entry["labels"].get(label, ""))
            out[key] = out.get(key, 0) + int(entry["value"])
        return out

    def gauges(self, name: str) -> Dict[str, float]:
        """One gauge's values keyed by their full label rendering."""
        out: Dict[str, float] = {}
        for entry in self.metrics.get("gauges", ()):
            if entry["name"] != name:
                continue
            labels = ",".join(
                f"{k}={v}" for k, v in sorted(entry["labels"].items())
            )
            out[labels] = float(entry["value"])
        return out

    def logging_calculation_split(self) -> Tuple[float, float]:
        """Measured (logging_seconds, calculation_seconds) from spans.

        This is the wall-clock twin of Table 2 columns (a) and (b):
        logging is the armed trace-collection window, calculation is
        correction + stack simulation + calibration.
        """
        stats = self.span_stats()
        logging = sum(stats.get(name, (0, 0.0))[1] for name in LOGGING_SPANS)
        calculation = sum(
            stats.get(name, (0, 0.0))[1] for name in CALCULATION_SPANS
        )
        return logging, calculation

    def accesses_per_sec(self) -> Dict[str, float]:
        """Batched-drive throughput per engine, derived at report time.

        Computed from the ``sim.batch_accesses`` / ``sim.batch_ns``
        counter pair rather than sampled into a gauge: counters survive
        the worker-pool fold-back additively (a gauge would keep only
        one worker's last write), so pooled and sequential runs report
        the same rates.  The ``""`` key is the all-engine aggregate.
        """
        accesses = self.counter_by_label("sim.batch_accesses", "engine")
        nanos = self.counter_by_label("sim.batch_ns", "engine")
        rates: Dict[str, float] = {}
        for engine, count in accesses.items():
            ns = nanos.get(engine, 0)
            if count and ns:
                rates[engine] = count / (ns / 1e9)
        total_ns = sum(nanos.values())
        total = sum(accesses.values())
        if total and total_ns:
            rates[""] = total / (total_ns / 1e9)
        return rates

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """The operator-facing report (what ``repro obs report`` prints)."""
        lines: List[str] = []
        out = lines.append
        stats = self.span_stats()
        total_seconds = sum(total for _, total in stats.values())

        out("== telemetry run report ==")
        out(f"spans: {len(self.spans)} recorded, "
            f"{total_seconds * 1e3:.2f} ms total span time")
        if self.skipped:
            out(f"skipped records: {self.skipped} "
                f"(truncated/corrupt JSONL lines dropped)")
        if self.series is not None:
            names = sorted({
                entry["name"] for entry in self.series.get("series", ())
            })
            out(f"time series: {len(self.series.get('series', ()))} series "
                f"({', '.join(names[:6])}"
                f"{', ...' if len(names) > 6 else ''})")
        by_engine = self.counter_by_label("sim.batch_accesses", "engine")
        fallbacks = self.counter_by_label("sim.batch_fallbacks", "reason")
        reasons = ", ".join(
            f"{reason}={count}" for reason, count in sorted(fallbacks.items())
        )
        out(f"simulation engine: native {by_engine.get('native', 0)}, "
            f"scalar {by_engine.get('scalar', 0)} accesses; "
            f"fallbacks: {reasons or 'none'}")
        rates = self.accesses_per_sec()
        if "" in rates:
            per_engine = ", ".join(
                f"{path} {rate:,.0f}/s"
                for path, rate in sorted(rates.items()) if path
            )
            out(f"batched throughput: {rates['']:,.0f} accesses/s "
                f"({per_engine})")
        channels = self.counter_by_label("pmu.channel", "engine")
        if channels:
            detail = ", ".join(
                f"{engine} {count} probe{'' if count == 1 else 's'}"
                for engine, count in sorted(channels.items())
            )
            out(f"pmu channel engine: {detail}")
        copybacks = self.counter_by_label("sim.native_copybacks", "reason")
        why = ", ".join(
            f"{reason}={count}" for reason, count in sorted(copybacks.items())
        )
        out(f"native state: adopted "
            f"{self.counter_total('sim.native_adopts')}, copied back "
            f"{sum(copybacks.values())}{f' ({why})' if why else ''}")
        kernels = self.counter_by_label("mrc.stack_kernel", "kernel")
        out(f"stack kernel: native {kernels.get('native', 0)}, "
            f"numpy {kernels.get('numpy', 0)}")
        streams = self.counter_by_label("workloads.stream_accesses", "source")
        out(f"access streams: generated {streams.get('generated', 0)}, "
            f"replayed {streams.get('replayed', 0)}")
        out("")
        out("per-stage cost breakdown (paper Table 2 structure):")
        out(f"  {'stage':<20} {'count':>7} {'total ms':>12} "
            f"{'mean ms':>10} {'share':>7}")
        ordered = [name for name in STAGE_NAMES if name in stats]
        ordered += sorted(name for name in stats if name not in STAGE_NAMES)
        for name in ordered:
            count, total = stats[name]
            share = total / total_seconds if total_seconds else 0.0
            out(f"  {name:<20} {count:>7} {total * 1e3:>12.3f} "
                f"{total * 1e3 / count:>10.3f} {share:>6.1%}")

        logging_s, calc_s = self.logging_calculation_split()
        split_total = logging_s + calc_s
        out("")
        out("trace-logging vs MRC-calculation split (Table 2 cols a/b):")
        if split_total > 0:
            out(f"  measured: logging {logging_s * 1e3:.3f} ms "
                f"({logging_s / split_total:.1%}) / "
                f"calculation {calc_s * 1e3:.3f} ms "
                f"({calc_s / split_total:.1%})")
        else:
            out("  measured: no probe spans recorded")
        model = self._modeled_split()
        if model is not None:
            model_logging, model_calc = model
            model_total = model_logging + model_calc
            out(f"  modeled (cycle model): logging {model_logging:.3g} cycles "
                f"({model_logging / model_total:.1%}) / "
                f"calculation {model_calc:.3g} cycles "
                f"({model_calc / model_total:.1%})")

        self._render_counters(out)
        return "\n".join(lines)

    def _modeled_split(self) -> Optional[Tuple[float, float]]:
        """The analytic cycle model over this run's counters.

        Uses :mod:`repro.analysis.overhead` constants so the printed
        model and the Table-2 model cannot drift apart.  Returns
        ``None`` when the capture lacks the PMU counters it needs.
        """
        from repro.analysis.overhead import (
            CALC_CYCLES_PER_ENTRY,
            DEFAULT_EXCEPTION_COST_CYCLES,
            DEFAULT_SLOWDOWN_IPC_FRACTION,
        )

        instructions = self.counter_total("pmu.probe_instructions")
        log_entries = self.counter_total("pmu.log_entries")
        if instructions <= 0 or log_entries <= 0:
            return None
        exceptions = self.counter_total("pmu.exceptions")
        # ~1 IPC of application progress during the probe, as the
        # Table-2 benchmark assumes.
        logging = (
            instructions / DEFAULT_SLOWDOWN_IPC_FRACTION
            + exceptions * DEFAULT_EXCEPTION_COST_CYCLES
        )
        calculation = float(log_entries * CALC_CYCLES_PER_ENTRY)
        return logging, calculation

    def _render_counters(self, out) -> None:
        sections = [
            ("pmu channel", "pmu.", None),
            ("reliability", "reliability.", None),
            ("fault injection", "faults.", None),
            ("probes & quality", "probe.", None),
            ("quality gate failures", "quality.", None),
            ("dynamic manager", "dynamic.", None),
            ("fleet service", "fleet.", None),
            ("analytic estimates", "analytic.", None),
            ("mrc store", "store.", None),
            ("mrc engine", "mrc.", None),
            ("observability", "obs.", None),
            ("fast path", "fastpath.", None),
            ("simulated hierarchy", "sim.", None),
        ]
        counters = self.metrics.get("counters", ())
        for title, prefix, _ in sections:
            matching = [
                entry for entry in counters
                if str(entry["name"]).startswith(prefix)
            ]
            if not matching:
                continue
            out("")
            out(f"{title}:")
            for entry in matching:
                labels = ",".join(
                    f"{k}={v}" for k, v in sorted(entry["labels"].items())
                )
                suffix = f"{{{labels}}}" if labels else ""
                out(f"  {entry['name']}{suffix} = {entry['value']}")
        gauges = self.metrics.get("gauges", ())
        if gauges:
            out("")
            out("gauges (latest values):")
            for entry in gauges:
                labels = ",".join(
                    f"{k}={v}" for k, v in sorted(entry["labels"].items())
                )
                suffix = f"{{{labels}}}" if labels else ""
                out(f"  {entry['name']}{suffix} = {float(entry['value']):.3f}")
        histograms = self.metrics.get("histograms", ())
        if histograms:
            out("")
            out("histograms:")
            for entry in histograms:
                labels = ",".join(
                    f"{k}={v}" for k, v in sorted(entry["labels"].items())
                )
                suffix = f"{{{labels}}}" if labels else ""
                count = int(entry["count"])
                mean = float(entry["sum"]) / count if count else 0.0
                out(f"  {entry['name']}{suffix}: count={count} mean={mean:.1f}")
