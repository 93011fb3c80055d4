"""Command-line interface: probe a workload model and print its MRCs.

Examples::

    rapidmrc probe mcf --scale 16
    rapidmrc list
    rapidmrc partition twolf equake --scale 16
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from repro.analysis.report import render_curves, render_table
from repro.core.estimators import ESTIMATORS
from repro.core.mrc import mpki_distance
from repro.core.partition import choose_partition_sizes
from repro.obs import telemetry_session
from repro.runner.offline import OfflineConfig, real_mrc
from repro.reliability.faults import FAULT_KINDS, FaultPlan
from repro.runner.online import OnlineProbeConfig, collect_trace
from repro.sim.machine import MachineConfig
from repro.store.mrc_store import MRCStore
from repro.store.signature import workload_signature
from repro.workloads import WORKLOAD_NAMES, make_workload

__all__ = ["main"]


def _machine(args: argparse.Namespace) -> MachineConfig:
    return (
        MachineConfig.scaled(args.scale) if args.scale > 1 else MachineConfig()
    )


def _open_store(args: argparse.Namespace) -> Optional[MRCStore]:
    """Load (or create) the one-shot MRC cache behind ``--mrc-cache``."""
    if not getattr(args, "mrc_cache", None):
        return None
    if os.path.exists(args.mrc_cache):
        store = MRCStore.load(args.mrc_cache)
        print(f"# mrc cache: {args.mrc_cache} ({len(store)} entries)")
    else:
        store = MRCStore()
        print(f"# mrc cache: {args.mrc_cache} (new)")
    return store


def _cmd_list(_args: argparse.Namespace) -> int:
    for name in WORKLOAD_NAMES:
        print(name)
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    machine = _machine(args)
    workload = make_workload(args.workload, machine)
    print(f"# machine: {machine.name} (L2 {machine.l2_lines} lines, "
          f"{machine.num_colors} colors)")
    store = _open_store(args)
    signature = (
        workload_signature(args.workload, machine.name)
        if store is not None else None
    )
    if store is not None and not args.no_mrc_reuse:
        entry = store.get(signature)
        if entry is not None:
            # One-shot runs key on workload identity alone: a cached
            # curve for this (workload, machine) skips the probe.
            print(f"# cache hit: {entry.signature.key()} "
                  f"(reuse #{entry.reuses})")
            curves = {"rapidmrc": entry.mrc}
            if args.real:
                real = real_mrc(workload, machine, OfflineConfig())
                matched, shift = entry.mrc.v_offset_matched(8, real[8])
                curves = {"real": real, "rapidmrc": matched}
                print(f"# v-offset shift: {shift:+.3f} MPKI")
                print(f"# MPKI distance: "
                      f"{mpki_distance(real, matched):.3f}")
            print(render_curves(curves))
            store.save(args.mrc_cache)
            return 0
    plan = None
    if args.inject_faults:
        try:
            plan = FaultPlan.parse(args.inject_faults, seed=args.fault_seed)
        except ValueError as error:
            print(f"error: --inject-faults: {error}", file=sys.stderr)
            return 2
        print(f"# injecting faults: {plan.describe()} (seed {plan.seed})")
    from repro.core.rapidmrc import ProbeConfig

    if args.sampling_rate is not None and args.estimator is None:
        print("error: --sampling-rate requires --estimator", file=sys.stderr)
        return 2
    probe_config = ProbeConfig()
    if args.estimator is not None:
        try:
            probe_config = ProbeConfig(
                stack_engine=args.estimator, sampling_rate=args.sampling_rate
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    probe = collect_trace(
        workload, machine, probe_config=probe_config, fault_plan=plan,
    )
    print(f"# probe: {probe.probe.instructions} instructions, "
          f"{len(probe.probe.entries)} log entries, "
          f"{probe.probe.dropped_events} dropped, "
          f"{probe.probe.stale_entries} stale")
    if probe.result is not None and probe.result.estimator is not None:
        print(f"# estimator: {probe.result.estimator} "
              f"(sampling rate {probe.result.sampling_rate:.2f}, "
              f"tracked {probe.result.tracked_entries} entries)")
    if probe.injection is not None:
        print(f"# injected: {probe.injection.summary()}")
    if args.quality or not probe.ok:
        for check in probe.quality.checks:
            print(f"# gate {check.describe()}")
    print(f"# verdict: {probe.quality.describe()}")
    if probe.result is None:
        print("probe failed: no MRC could be computed", file=sys.stderr)
        return 1
    if store is not None and probe.ok:
        # Only admitted probes are worth reusing later.
        store.put_result(signature, probe.result)
        store.save(args.mrc_cache)
        print(f"# cached under {signature.key()} -> {args.mrc_cache}")
    curves = {"rapidmrc": probe.result.mrc}
    if args.real:
        real = real_mrc(workload, machine, OfflineConfig())
        probe.calibrate(8, real[8])
        curves = {"real": real, "rapidmrc": probe.result.best_mrc}
        print(f"# MPKI distance: {mpki_distance(real, probe.result.best_mrc):.3f}")
    print(render_curves(curves))
    return 0 if probe.ok else 1


def _cmd_partition(args: argparse.Namespace) -> int:
    machine = _machine(args)
    names = [args.workload_a, args.workload_b]
    store = _open_store(args)
    curves = {}
    for name in names:
        workload = make_workload(name, machine)
        real = real_mrc(workload, machine, OfflineConfig())
        signature = (
            workload_signature(name, machine.name)
            if store is not None else None
        )
        if store is not None and not args.no_mrc_reuse:
            entry = store.get(signature)
            if entry is not None:
                matched, _shift = entry.mrc.v_offset_matched(8, real[8])
                curves[name] = matched
                print(f"# cache hit: {entry.signature.key()} "
                      f"(reuse #{entry.reuses})")
                continue
        probe = collect_trace(workload, machine)
        probe.calibrate(8, real[8])
        curves[name] = probe.result.best_mrc
        if store is not None and probe.ok:
            store.put_result(signature, probe.result)
    if store is not None:
        store.save(args.mrc_cache)
        print(f"# mrc cache saved: {args.mrc_cache} ({len(store)} entries)")
    decision = choose_partition_sizes(
        curves[names[0]], curves[names[1]], machine.num_colors
    )
    print(render_curves(curves))
    print(f"# chosen split: {names[0]}={decision.colors[0]} colors, "
          f"{names[1]}={decision.colors[1]} colors "
          f"(predicted combined {decision.total_mpki:.2f} MPKI)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.rapidmrc import RapidMRC
    from repro.io.mrcfile import save_mrc
    from repro.io.perf_script import parse_perf_script, samples_to_lines
    from repro.io.tracefile import load_trace

    machine = _machine(args)
    if args.format == "perf":
        report = parse_perf_script(args.trace, events=args.event, pid=args.pid)
        trace = samples_to_lines(report.samples, machine.line_size)
        print(f"# parsed {len(report.samples)} samples "
              f"({report.skipped_lines} lines skipped)")
    else:
        trace = load_trace(args.trace)
        print(f"# loaded {len(trace)} trace entries")
    if len(trace) == 0:
        print("no samples to analyze", file=sys.stderr)
        return 1
    instructions = args.instructions or 48 * len(trace)
    engine = RapidMRC(machine)
    result = engine.compute(trace, instructions, label=args.trace)
    print(f"# stack hit rate {result.stack_hit_rate:.1%}, "
          f"warmup {result.warmup_fraction:.0%}, "
          f"repaired {result.prefetch_conversion_fraction:.1%}")
    print(render_curves({"mrc": result.mrc}))
    if args.output:
        save_mrc(args.output, result.mrc, metadata={
            "source": args.trace,
            "machine": machine.name,
            "instructions": instructions,
            "stack_hit_rate": result.stack_hit_rate,
        })
        print(f"# curve written to {args.output}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.core.phase import PhaseDetectorConfig
    from repro.core.rapidmrc import ProbeConfig
    from repro.fleet import BudgetConfig, ChurnSchedule, FleetConfig, FleetService
    from repro.obs import get_telemetry, telemetry_enabled
    from repro.obs.drift import DriftConfig
    from repro.obs.export import prometheus_text
    from repro.obs.metrics import empty_snapshot
    from repro.reliability.faults import ServiceFaultPlan
    from repro.runner.dynamic import DynamicConfig

    machine = _machine(args)
    names = args.workloads
    if len(set(names)) != len(names):
        print("error: workload names must be unique", file=sys.stderr)
        return 2
    workloads = [make_workload(name, machine) for name in names]
    pool = {
        name: make_workload(name, machine)
        for name in WORKLOAD_NAMES if name not in names
    }
    churn = None
    if args.churn:
        try:
            churn = ChurnSchedule.parse(args.churn)
        except ValueError as error:
            print(f"error: --churn: {error}", file=sys.stderr)
            return 2
    service_plan = None
    if args.inject_faults:
        try:
            service_plan = ServiceFaultPlan.parse(args.inject_faults)
        except ValueError as error:
            print(f"error: --inject-faults: {error}", file=sys.stderr)
            return 2
        print(f"# injecting service faults: {service_plan.describe()}")
    probe_plan = None
    if args.inject_probe_faults:
        try:
            probe_plan = FaultPlan.parse(
                args.inject_probe_faults, seed=args.fault_seed
            )
        except ValueError as error:
            print(f"error: --inject-probe-faults: {error}", file=sys.stderr)
            return 2
        print(f"# injecting probe faults: {probe_plan.describe()} "
              f"(seed {probe_plan.seed})")
    dynamic = DynamicConfig(
        interval_instructions=8 * machine.l2_lines,
        probe=ProbeConfig(log_entries=args.log_entries),
        probe_cooldown_intervals=1,
        detector=PhaseDetectorConfig(threshold_mpki=15.0),
        fault_plan=probe_plan,
        drift=DriftConfig() if args.drift else None,
    )
    config = FleetConfig(
        num_domains=args.domains,
        ticks=args.ticks,
        budget=(
            BudgetConfig(capacity_accesses=args.budget)
            if args.budget else None
        ),
        dynamic=dynamic,
        replace_every_ticks=args.replace_every,
    )
    print(f"# machine: {machine.name} (per domain: {machine.l2_lines} L2 "
          f"lines, {machine.num_colors} colors) x {args.domains} domains")
    if churn is not None:
        print(f"# churn: {churn.describe()}")
    service = FleetService(
        machine, workloads, config,
        churn=churn, fault_plan=service_plan, pool=pool,
    )
    report = service.run()
    print(f"# ticks: {report.ticks_run}, placements: {len(report.placements)}, "
          f"churn applied/ignored: {report.churn_applied}/{report.churn_ignored}")
    for domain, members in enumerate(report.assignments):
        counts = [report.final_counts.get(name, 0) for name in members]
        breaker = report.breaker_stats[domain]
        print(f"# domain {domain}: "
              + (", ".join(f"{n}={c}" for n, c in zip(members, counts))
                 or "(empty)")
              + f" | breaker {breaker['state']} ({breaker['opens']} opens)")
    budget = report.budget_stats
    print(f"# budget: {budget['admitted']} admitted, {budget['denied']} denied, "
          f"utilization {budget['utilization']:.1%}")
    if report.rungs_served:
        served = ", ".join(
            f"{rung}={count}"
            for rung, count in sorted(report.rungs_served.items())
        )
        print(f"# ladder rungs served: {served}")
    if report.quarantines:
        print(f"# quarantines: {report.quarantines}")
    optimized = sum(
        1 for decision in report.all_decisions()
        if decision.mode == "optimized"
    )
    uniform = sum(
        1 for decision in report.all_decisions()
        if decision.mode == "uniform"
    )
    print(f"# decisions: {optimized} optimized, {uniform} uniform fallback")
    if args.drift:
        print(f"# drift events: {report.drift_events}")
    if report.health is not None:
        domains = ", ".join(
            f"domain {card['domain']}={card['status']}"
            for card in report.health["domains"]
        )
        print(f"# health: {report.health['status']}"
              + (f" ({domains})" if domains else ""))
    if args.metrics_out:
        metrics = (
            get_telemetry().registry.snapshot()
            if telemetry_enabled() else empty_snapshot()
        )
        text = prometheus_text(metrics, report.series, report.health)
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"# metrics written to {args.metrics_out}")
    if args.check_convergence:
        # The baseline must be genuinely fault-free: no service-level
        # windows AND no per-probe injection.
        clean_config = dataclasses.replace(
            config,
            dynamic=dataclasses.replace(dynamic, fault_plan=None),
        )
        baseline = FleetService(
            machine,
            [make_workload(name, machine) for name in names],
            clean_config,
            churn=churn,
            pool={
                name: make_workload(name, machine)
                for name in WORKLOAD_NAMES if name not in names
            },
        ).run()
        converged = (
            report.placement_groups() == baseline.placement_groups()
        )
        print(f"# convergence vs fault-free run: "
              f"{'MATCH' if converged else 'DIVERGED'}")
        if not converged:
            print(f"#   faulted:    {report.placement_groups()}")
            print(f"#   fault-free: {baseline.placement_groups()}")
            return 1
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec, run_campaign

    try:
        spec = CampaignSpec.from_json_file(args.spec)
    except OSError as error:
        print(f"error: cannot read {args.spec}: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {args.spec}: {error}", file=sys.stderr)
        return 2

    def progress(cell_id: str, result: dict) -> None:
        status = result.get("status")
        wall = float(result.get("wall_seconds") or 0.0)
        suffix = ""
        if status != "ok":
            suffix = f" ({result.get('error', 'unknown failure')})"
        print(f"# cell {cell_id}: {status} [{wall:.2f}s]{suffix}")

    try:
        report = run_campaign(
            spec, args.out,
            resume=args.resume,
            progress=progress,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"# campaign: {spec.name} ({report.cells_total} cells, "
          f"{report.cells_run} run, {report.cells_skipped} skipped, "
          f"{report.cells_failed} failed) in {report.wall_seconds:.2f}s")
    print(f"# manifest: {report.manifest_path}")
    print(f"# aggregate: {report.bench_path}")
    return 0 if report.ok else 1


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import build_aggregate, render_report

    try:
        aggregate = build_aggregate(args.campaign_dir, strict=False)
    except OSError as error:
        print(f"error: cannot read {args.campaign_dir}: {error}",
              file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_report(aggregate))
    return 1 if aggregate.get("verification_problems") else 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.report import RunReport

    try:
        report = RunReport.from_jsonl(args.telemetry_file)
    except OSError as error:
        print(f"error: cannot read {args.telemetry_file}: {error}",
              file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if report.skipped and not report.records:
        print(f"error: {args.telemetry_file}: no usable telemetry records "
              f"({report.skipped} corrupt line(s) skipped)", file=sys.stderr)
        return 2
    print(report.render())
    return 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        event_stream_lines,
        parse_prometheus_text,
        prometheus_text,
    )
    from repro.obs.report import RunReport

    try:
        report = RunReport.from_jsonl(args.telemetry_file)
    except OSError as error:
        print(f"error: cannot read {args.telemetry_file}: {error}",
              file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if report.skipped and not report.records:
        print(f"error: {args.telemetry_file}: no usable telemetry records "
              f"({report.skipped} corrupt line(s) skipped)", file=sys.stderr)
        return 2
    if report.skipped:
        print(f"# skipped {report.skipped} corrupt record(s)",
              file=sys.stderr)
    if args.format == "prom":
        text = prometheus_text(report.metrics, report.series)
        if args.check:
            try:
                samples = parse_prometheus_text(text)
            except ValueError as error:
                print(f"error: exposition self-check failed: {error}",
                      file=sys.stderr)
                return 1
            total = sum(len(series) for series in samples.values())
            print(f"# check ok: {len(samples)} metrics, {total} samples",
                  file=sys.stderr)
    else:
        text = "\n".join(event_stream_lines(report.metrics, report.series))
        if text:
            text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"# exported to {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.validation import knee_error, shape_correlation
    from repro.io.mrcfile import load_mrc

    curve_a, _meta_a = load_mrc(args.curve_a)
    curve_b, _meta_b = load_mrc(args.curve_b)
    if args.anchor is not None:
        curve_b, shift = curve_b.v_offset_matched(
            args.anchor, curve_a.value_at(args.anchor)
        )
        print(f"# v-offset matched at {args.anchor}: shift {shift:+.3f} MPKI")
    print(render_curves({
        curve_a.label or "A": curve_a,
        curve_b.label or "B": curve_b,
    }))
    print(f"# MPKI distance:     {mpki_distance(curve_a, curve_b):.3f}")
    print(f"# shape correlation: {shape_correlation(curve_a, curve_b):.3f}")
    print(f"# knee error:        {knee_error(curve_a, curve_b)} colors")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``rapidmrc`` argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="rapidmrc",
        description="RapidMRC reproduction: online L2 MRC approximation",
    )
    parser.add_argument(
        "--scale", type=int, default=16,
        help="machine scale divisor (1 = full POWER5; default 16)",
    )
    parser.add_argument(
        "--sim-workers", type=int, default=None, metavar="N",
        help="default worker-process count for every parallel "
             "simulation path (offline curves, probes, campaign cells)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workload models").set_defaults(fn=_cmd_list)

    probe = sub.add_parser("probe", help="probe one workload's MRC")
    probe.add_argument("workload", choices=WORKLOAD_NAMES)
    probe.add_argument(
        "--real", action="store_true",
        help="also measure the exhaustive real MRC and calibrate against it",
    )
    probe.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="inject channel faults: comma-separated 'kind' or 'kind:rate' "
             f"items, or 'all'; kinds: {', '.join(FAULT_KINDS)}",
    )
    probe.add_argument(
        "--fault-seed", type=int, default=0,
        help="root seed for deterministic fault injection (default 0)",
    )
    probe.add_argument(
        "--quality", action="store_true",
        help="print every reliability gate, not just failures",
    )
    probe.add_argument(
        "--estimator", choices=sorted(ESTIMATORS), default=None,
        help="approximate the MRC with a sub-linear sampling estimator "
             "instead of an exact stack engine",
    )
    probe.add_argument(
        "--sampling-rate", type=float, default=None, metavar="R",
        help="spatial sampling rate for --estimator, in (0, 1] "
             "(default 0.1)",
    )
    probe.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="record spans and metrics to this JSONL file "
             "(render with 'rapidmrc obs report PATH')",
    )
    probe.add_argument(
        "--mrc-cache", metavar="PATH", default=None,
        help="reuse/record probed curves in this JSON cache file "
             "(created if missing; a hit skips the probe)",
    )
    probe.add_argument(
        "--no-mrc-reuse", action="store_true",
        help="with --mrc-cache: never serve cached curves, only "
             "record fresh probes (cache priming)",
    )
    probe.set_defaults(fn=_cmd_probe)

    part = sub.add_parser("partition", help="size a 2-way cache partition")
    part.add_argument("workload_a", choices=WORKLOAD_NAMES)
    part.add_argument("workload_b", choices=WORKLOAD_NAMES)
    part.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="record spans and metrics to this JSONL file",
    )
    part.add_argument(
        "--mrc-cache", metavar="PATH", default=None,
        help="reuse/record probed curves in this JSON cache file "
             "(created if missing; a hit skips that workload's probe)",
    )
    part.add_argument(
        "--no-mrc-reuse", action="store_true",
        help="with --mrc-cache: never serve cached curves, only "
             "record fresh probes (cache priming)",
    )
    part.set_defaults(fn=_cmd_partition)

    analyze = sub.add_parser(
        "analyze",
        help="compute an MRC offline from a perf-script or native trace file",
    )
    analyze.add_argument("trace", help="trace file path")
    analyze.add_argument(
        "--format", choices=["perf", "native"], default="perf",
        help="trace format: 'perf' (perf-script text) or 'native' "
             "(one line number per line)",
    )
    analyze.add_argument(
        "--event", action="append", default=None,
        help="perf event filter substring (repeatable)",
    )
    analyze.add_argument("--pid", type=int, default=None, help="pid filter")
    analyze.add_argument(
        "--instructions", type=int, default=None,
        help="instructions in the trace window (MPKI denominator); "
             "defaults to 48 per sample",
    )
    analyze.add_argument(
        "--output", default=None, help="write the curve as JSON here",
    )
    analyze.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="record spans and metrics to this JSONL file",
    )
    analyze.set_defaults(fn=_cmd_analyze)

    compare = sub.add_parser(
        "compare", help="compare two saved MRC JSON files",
    )
    compare.add_argument("curve_a")
    compare.add_argument("curve_b")
    compare.add_argument(
        "--anchor", type=int, default=None,
        help="v-offset match curve B onto curve A at this size first",
    )
    compare.set_defaults(fn=_cmd_compare)

    fleet = sub.add_parser(
        "fleet",
        help="run the fault-tolerant multi-domain partition service",
    )
    fleet.add_argument(
        "workloads", nargs="+", choices=WORKLOAD_NAMES, metavar="WORKLOAD",
        help="initial fleet members (unique names)",
    )
    fleet.add_argument(
        "--domains", type=int, default=2,
        help="number of cache domains (default 2)",
    )
    fleet.add_argument(
        "--ticks", type=int, default=30,
        help="service ticks to run (default 30)",
    )
    fleet.add_argument(
        "--budget", type=int, default=None, metavar="ACCESSES",
        help="global probe budget capacity in accesses "
             "(default: two probe deadlines)",
    )
    fleet.add_argument(
        "--log-entries", type=int, default=1500,
        help="probe trace-log length (default 1500)",
    )
    fleet.add_argument(
        "--churn", metavar="SPEC", default=None,
        help="churn schedule: comma-separated kind:workload@tick items, "
             "e.g. 'join:gzip@5,crash:mcf@12'",
    )
    fleet.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="service-level faults: 'domain-blackout[:D]@T+N', "
             "'budget-storm@T+N', 'churn-delay[:N]', "
             "'churn-duplicate[:N]', or 'all'",
    )
    fleet.add_argument(
        "--inject-probe-faults", metavar="SPEC", default=None,
        help="per-probe channel faults (same spec as 'probe "
             "--inject-faults'); used to exercise the circuit breaker",
    )
    fleet.add_argument(
        "--fault-seed", type=int, default=0,
        help="root seed for deterministic probe-fault injection",
    )
    fleet.add_argument(
        "--replace-every", type=int, default=None, metavar="TICKS",
        help="re-evaluate MRC placement every N ticks (not only on "
             "churn); the reconvergence knob for chaos runs",
    )
    fleet.add_argument(
        "--check-convergence", action="store_true",
        help="re-run the same schedule fault-free and verify both runs "
             "reach the same placement (exit 1 on divergence)",
    )
    fleet.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="record spans and metrics to this JSONL file",
    )
    fleet.add_argument(
        "--drift", action="store_true",
        help="monitor served-curve accuracy online (CUSUM over the "
             "free monitoring residual) and re-solicit probes on drift",
    )
    fleet.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the run's metrics, time series, and health "
             "scorecards as a Prometheus text-exposition file",
    )
    fleet.set_defaults(fn=_cmd_fleet)

    campaign = sub.add_parser(
        "campaign",
        help="run a declarative experiment matrix "
             "(targets x machines x engines x seeds)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)
    campaign_run = campaign_sub.add_parser(
        "run",
        help="execute a campaign spec on a process pool and write a "
             "manifest-checked results tree plus BENCH_campaign.json",
    )
    campaign_run.add_argument("spec", help="campaign spec JSON path")
    campaign_run.add_argument(
        "--out", required=True, metavar="DIR",
        help="results directory (created if missing)",
    )
    campaign_run.add_argument(
        "--resume", action="store_true",
        help="continue a previous run in --out: skip cells whose "
             "manifest entry is complete and checksum-intact, re-run "
             "failed or missing cells",
    )
    campaign_run.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="record spans and folded metrics to this JSONL file",
    )
    campaign_run.set_defaults(fn=_cmd_campaign_run)
    campaign_report = campaign_sub.add_parser(
        "report",
        help="render the summary table for a campaign results directory "
             "(re-verifies the manifest checksums)",
    )
    campaign_report.add_argument(
        "campaign_dir", help="campaign results directory",
    )
    campaign_report.set_defaults(fn=_cmd_campaign_report)

    obs = sub.add_parser(
        "obs", help="inspect telemetry recorded with --telemetry",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="render the per-stage cost breakdown from a telemetry JSONL",
    )
    obs_report.add_argument("telemetry_file", help="telemetry JSONL path")
    obs_report.set_defaults(fn=_cmd_obs_report)
    obs_export = obs_sub.add_parser(
        "export",
        help="export a telemetry JSONL as Prometheus text or a JSONL "
             "event stream",
    )
    obs_export.add_argument("telemetry_file", help="telemetry JSONL path")
    obs_export.add_argument(
        "--format", choices=["prom", "jsonl"], default="prom",
        help="output format: Prometheus text exposition (default) or "
             "JSONL event stream",
    )
    obs_export.add_argument(
        "--output", metavar="PATH", default=None,
        help="write here instead of stdout",
    )
    obs_export.add_argument(
        "--check", action="store_true",
        help="with --format prom: re-parse the exposition and fail on "
             "any malformed line",
    )
    obs_export.set_defaults(fn=_cmd_obs_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``rapidmrc`` console script."""
    args = build_parser().parse_args(argv)
    from repro.runner.pool import configure_sim_workers

    configure_sim_workers(args.sim_workers)
    with telemetry_session(getattr(args, "telemetry", None)):
        return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
