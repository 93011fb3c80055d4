"""The repo benchmark: one command, four workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 bench/run.py --workload probe-full --seed 7 --seconds 24 --trace 0
    python3 bench/run.py --workload all            # every workload, in turn

Each run builds the native simulation engine first (untimed), then
starts fresh interpreters one after another: two that only set up the
workload and one that sets up and measures.  ``setup_s`` is the median
of the three set-up times.  ``--trace 0`` prints the end-to-end metrics
(telemetry off); ``--trace 1`` prints the per-layer metrics of a traced
pass (see ``bench/layers.py``).  Times are host-speed normalized (see
``workloads.reference_s``).  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

The full result, with digests, sample counts and errors, is written to
``bench/results/<workload>-s<seed>-t<trace>.json`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3
#: The native build may compile; it gets its own allowance, and the
#: rest of one run must finish within RUN_TIMEOUT_S.
PREPARE_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Anything the program puts in a temporary directory stays inside
    # the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    env["PYTHONHASHSEED"] = "0"
    return env


def _child(args: List[str], env: Dict[str, str], deadline: float) -> dict:
    """Run one worker interpreter to completion; its last line is JSON."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"worker {args} printed no result")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 quick: bool = False, out: Optional[str] = None) -> dict:
    """One benchmark run of one workload; returns the full result."""
    env = _child_env()
    prepared = _child(["--prepare"], env,
                      time.monotonic() + PREPARE_TIMEOUT_S)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload", workload, "--seed", str(seed)]
    if quick:
        common.append("--quick")
    setups = [_child(common + ["--setup-only"], env, deadline)
              for _ in range(SETUPS - 1)]
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.splitext(out)[0] if out else os.path.join(
        results_dir, f"{workload}-s{seed}-t{trace}")
    measured = _child(
        common + ["--seconds", str(seconds), "--trace", str(trace),
                  "--spans", stem + ".spans.jsonl"],
        env, deadline,
    )
    setups.append({key: measured[key]
                   for key in ("setup_s", "setup_wall_s")})
    spec = _spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    values = dict(measured["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        values["peak_rss_mb"] = measured["peak_rss_mb"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    errors = list(measured["errors"])
    if missing:
        errors.append(f"metrics not emitted: {missing}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": units[m["name"]]}
        for m in declared if m["name"] in values
    }
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "quick": quick,
        "native": prepared.get("native"),
        "correct": not errors,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
        "setup_samples": setups,
        "samples": measured["samples"],
        "digests": measured["digests"],
        "details": measured["details"],
        "errors": errors,
    }
    for key in ("rounds_norm_s", "wall", "attribution_gap", "spans_dropped"):
        if key in measured:
            result[key] = measured[key]
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(result, f, sort_keys=True)
        f.write("\n")
    return result


def _summary(result: dict) -> dict:
    return {key: result[key]
            for key in ("correct", "attempted", "failed", "metrics")}


def main(argv=None) -> int:
    spec = _spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="1/32-scale smoke mode (tests only)")
    parser.add_argument("--out", help="result file path (*.json)")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    seconds = args.seconds or spec["run_seconds"]
    names = workloads if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, args.trace,
                              quick=args.quick,
                              out=args.out if len(names) == 1 else None)
        for error in result["errors"]:
            print(f"{name}: {error}", file=sys.stderr)
        for metric, entry in result["metrics"].items():
            print(f"{name:14s} {metric:34s} {entry['value']:.6g} "
                  f"{entry['unit']}")
        results.append(result)
    if len(results) == 1:
        print(json.dumps(_summary(results[0])))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}.{metric}": entry
                for r in results for metric, entry in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
