"""One benchmark interpreter: set up a workload, then measure it.

``run.py`` starts this script in fresh interpreters, one at a time:
twice with ``--setup-only`` (set-up time samples) and once to measure.
The last line of standard output is one JSON object.

Untraced (``--trace 0``): whole rounds run while another one fits in
``--seconds`` (the first always runs).  Traced (``--trace 1``): one
untraced round, then the layer wrappers and in-memory telemetry are
installed and traced rounds run in the same time.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from interpreter start

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

_now = time.perf_counter


def _prepare() -> None:
    """Build (or load) the native simulation engine, untimed."""
    try:
        from repro.sim import native
    except ImportError:
        print(json.dumps({"native": False}))
        return
    print(json.dumps({"native": native.native_lib() is not None}))


def _run_rounds(workload, seconds: float, start: float, tracer=None):
    """Whole rounds while the next is predicted (from the last) to end
    by ``start + seconds``; returns (rounds, wall time of each)."""
    deadline = start + seconds
    rounds, walls = [], []
    while not walls or _now() + walls[-1] <= deadline:
        began = _now()
        if tracer is None:
            rounds.append(workload.run_round())
        else:
            frame = tracer.enter("round")
            try:
                rounds.append(workload.run_round(tracer))
            finally:
                tracer.exit(frame)
        walls.append(_now() - began)
    return rounds, walls


def _determinism_errors(label: str, rounds) -> list:
    """Repeated rounds must reproduce the first round's outputs."""
    return [f"{label}: round {index + 2} outputs differ"
            for index, other in enumerate(rounds[1:])
            if other.digests != rounds[0].digests]


def _measure_untraced(workload, seconds: float) -> dict:
    rounds, walls = _run_rounds(workload, seconds, _now())
    per_round = [r.normalized_s() for r in rounds]
    ops = [s for times in per_round for s in times]
    wall_ops = [s for r in rounds for s in r.op_s]
    errors = _determinism_errors("untraced", rounds)
    errors += workload.check()
    return {
        "metrics": {
            "op_p50_norm_s": statistics.median(ops),
            # One round with every operation at its median over rounds.
            "round_norm_s": sum(
                statistics.median(times) for times in zip(*per_round)),
            "quality_mpki": rounds[0].quality,
        },
        "samples": {"ops": len(ops), "rounds": len(rounds)},
        "rounds_norm_s": per_round,
        # Raw wall-clock numbers, for reading next to the normalized ones.
        "wall": {
            "op_p50_s": statistics.median(wall_ops),
            "round_s": walls,
            "reference_p50_s": statistics.median(
                s for r in rounds for s in r.ref_s),
        },
        "attempted": len(ops),
        "failed": sum(r.failed for r in rounds),
        "digests": rounds[0].digests,
        "details": rounds[0].details,
        "errors": errors,
    }


def _measure_traced(workload, seconds: float, spans_path: str) -> dict:
    from repro.obs import Telemetry, use_telemetry
    from repro.obs.report import RunReport

    import layers
    import workloads

    start = _now()
    base = workload.run_round()
    errors = workload.check()
    tracer = layers.LayerTracer()
    telemetry = Telemetry.in_memory()
    with layers.TracePatch(tracer), use_telemetry(telemetry):
        rounds, walls = _run_rounds(workload, seconds, start, tracer)
    snapshot = tracer.snapshot()
    counters = RunReport(metrics=telemetry.registry.snapshot())
    errors += workload.check()
    # Traced rounds must reproduce the untraced round's outputs.
    errors += _determinism_errors("traced", [base] + rounds)

    engines = counters.counter_by_label("sim.batch_accesses", "engine")
    references = [s for r in rounds for s in r.ref_s]
    metrics = layers.layer_metrics(
        snapshot,
        rounds=len(rounds),
        time_scale=workloads.normalize(1.0, statistics.mean(references)),
        native_accesses=engines.get("native", 0),
        batch_accesses=sum(engines.values()),
        batch_fallbacks=counters.counter_total("sim.batch_fallbacks"),
    )
    pairs = zip(base.normalized_s(), rounds[0].normalized_s())
    metrics["trace_overhead"] = statistics.median(
        traced / untraced - 1.0 for untraced, traced in pairs)
    for key in ("probe_admit_rate", "health_rank"):
        metrics[f"fleet.{key}"] = rounds[0].details.get(key, 0)

    missing = layers.required_layers_missing(
        snapshot, workload.required_layers)
    if missing:
        errors.append(f"coverage guard: no calls recorded for {missing}")
    gap = layers.attribution_gap(snapshot, sum(walls))
    if gap > 0.05:
        errors.append(f"layer self times miss traced wall time by {gap:.1%}")
    if workload.name != "fleet-16":
        if metrics["sim.native_share"] != 1.0:
            errors.append(
                f"sim.native_share is {metrics['sim.native_share']}, not 1.0")
        if metrics["sim.fallbacks"]:
            errors.append(f"{metrics['sim.fallbacks']} simulation fallbacks")
    tracer.write_spans(spans_path)
    return {
        "metrics": metrics,
        "samples": {"ops": sum(len(r.op_s) for r in rounds),
                    "rounds": len(rounds)},
        "attempted": sum(len(r.op_s) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "digests": base.digests,
        "details": base.details,
        "attribution_gap": gap,
        "spans_dropped": tracer.spans_dropped,
        "errors": errors,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prepare", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans", default="spans.jsonl")
    args = parser.parse_args(argv)
    if args.prepare:
        _prepare()
        return 0

    import workloads

    workload = workloads.make_workload_runner(args.workload, quick=args.quick)
    workload.setup(args.seed)
    setup_wall_s = _now() - _T0
    setup = {"setup_wall_s": setup_wall_s, "setup_s": workloads.normalize(
        setup_wall_s, workloads.reference_s())}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    if args.trace:
        out = _measure_traced(workload, args.seconds, args.spans)
    else:
        out = _measure_untraced(workload, args.seconds)
    out.update(setup)
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
