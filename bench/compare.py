"""Compare benchmark result sets, and collect them.

Three commands::

    # Run every (seed, workload) on one or two checkouts, alternating
    # which checkout goes first from one seed to the next.
    python3 bench/compare.py run --out DIR --checkout PARENT --checkout CHANGE

    # Parent vs change: one verdict per (metric, workload).
    python3 bench/compare.py verdict DIR/PARENT DIR/CHANGE

    # Same code twice: spreads within bounds, medians agree.
    python3 bench/compare.py repeat SET1 SET2

Verdicts follow the benchmark's rules.  Runs are paired by seed.  A
*gain* needs the change to win at least 9 of 10 pairs (ties count for
neither side) and the medians to differ by more than the parent's
inter-quartile range.  A *regression* is a change median worse than the
parent's by more than the metric's bound.  A metric whose spread
(inter-quartile range over median) exceeds its bound is *unresolved*,
unless every change run reads better than every parent run; set-up time
is exempt, only its median is held to the bound.  Anything else is
*within bound*.  ``verdict`` and ``repeat`` exit 1 on any
regression, unresolved result or incorrect run.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WIN_SHARE = 0.9


def load_spec(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def load_set(directory: str, trace: int = 0) -> Dict[str, List[dict]]:
    """Result files of one set, keyed by workload, sorted by seed."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as f:
            result = json.load(f)
        if result.get("trace") != trace:
            continue
        runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda r: r["seed"])
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (the bound's unit)."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float,
            spread_bounded: bool = True) -> Tuple[str, dict]:
    """One (metric, workload) verdict plus the numbers behind it.

    ``parent[i]`` and ``change[i]`` are the runs of pair ``i``.  With
    ``spread_bounded`` False (set-up time) a wide spread does not make
    the verdict unresolved; only the medians are held to the bound.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    stats = {
        "parent_median": pm, "change_median": cm, "parent_iqr": p3 - p1,
        "parent_spread": spread(parent), "change_spread": spread(change),
        "wins": wins, "pairs": len(pairs), "worse_by": worse_by,
    }
    if (spread_bounded and not dominates
            and max(stats["parent_spread"], stats["change_spread"]) > bound):
        return "unresolved", stats
    if (pairs and wins >= WIN_SHARE * len(pairs)
            and sign * (cm - pm) > p3 - p1):
        return "gain", stats
    if worse_by > bound:
        return "regression", stats
    return "within bound", stats


def compare_sets(parent_dir: str, change_dir: str, spec: dict) -> List[dict]:
    """Verdict rows for every end-to-end (metric, workload) pair."""
    parent, change = load_set(parent_dir), load_set(change_dir)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        p_runs = parent.get(workload, [])
        c_runs = {r["seed"]: r for r in change.get(workload, [])}
        paired = [(p, c_runs[p["seed"]]) for p in p_runs if p["seed"] in c_runs]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not paired:
                rows.append({"workload": workload, "metric": name,
                             "verdict": "unresolved", "stats": {}})
                continue
            label, stats = verdict(
                [p["metrics"][name]["value"] for p, _ in paired],
                [c["metrics"][name]["value"] for _, c in paired],
                metric["better"], metric["bound"],
                spread_bounded=name != "setup_s",
            )
            rows.append({"workload": workload, "metric": name,
                         "verdict": label, "stats": stats,
                         "bound": metric["bound"]})
    return rows


def incorrect_runs(*directories: str) -> List[str]:
    bad = []
    for directory in directories:
        for trace in (0, 1):
            for runs in load_set(directory, trace).values():
                bad += [f"{directory}: {r['workload']} seed {r['seed']} "
                        f"trace {trace}: {r.get('errors')}"
                        for r in runs if not r["correct"]]
    return bad


def _print_rows(rows: List[dict]) -> None:
    print(f"{'workload':14s} {'metric':14s} {'parent':>11s} {'change':>11s} "
          f"{'worse_by':>9s} {'spread p/c':>13s} {'wins':>6s}  verdict")
    for row in rows:
        s = row["stats"]
        if not s:
            print(f"{row['workload']:14s} {row['metric']:14s} (no pairs)")
            continue
        print(f"{row['workload']:14s} {row['metric']:14s} "
              f"{s['parent_median']:11.5g} {s['change_median']:11.5g} "
              f"{s['worse_by']:+9.2%} "
              f"{s['parent_spread']:6.1%}/{s['change_spread']:<6.1%} "
              f"{s['wins']:>2d}/{s['pairs']:<3d} {row['verdict']}")


def _print_layers(parent_dir: str, change_dir: str) -> None:
    """Per-layer medians of the traced runs, for locating a change."""
    parent, change = load_set(parent_dir, 1), load_set(change_dir, 1)
    for workload in sorted(set(parent) & set(change)):
        print(f"\nper-layer medians, {workload} (parent -> change):")
        names = parent[workload][0]["metrics"]
        for name in names:
            if not name.endswith("self_s"):
                continue
            p = statistics.median(r["metrics"][name]["value"]
                                  for r in parent[workload])
            c = statistics.median(r["metrics"][name]["value"]
                                  for r in change[workload])
            if p or c:
                print(f"  {name:28s} {p:10.4g} -> {c:10.4g}")


def cmd_verdict(args) -> int:
    spec = load_spec()
    rows = compare_sets(args.parent, args.change, spec)
    _print_rows(rows)
    _print_layers(args.parent, args.change)
    bad = incorrect_runs(args.parent, args.change)
    for line in bad:
        print("incorrect:", line)
    failing = [r for r in rows if r["verdict"] in ("regression", "unresolved")]
    return 1 if failing or bad else 0


def cmd_repeat(args) -> int:
    """Two sets of the same code: the benchmark's repeatability check."""
    spec = load_spec()
    rows = compare_sets(args.first, args.second, spec)
    _print_rows(rows)
    problems = [f"{r['workload']} {r['metric']}: {r['verdict']}"
                for r in rows if r["verdict"] in ("regression", "unresolved")]
    for row in rows:
        s = row["stats"]
        if not s or row["metric"] == "setup_s":
            continue
        widest = max(s["parent_spread"], s["change_spread"])
        if widest > row["bound"] / 3:
            print(f"note: {row['workload']} {row['metric']} spread "
                  f"{widest:.1%} is above a third of its bound "
                  f"{row['bound']:.0%}")
    problems += incorrect_runs(args.first, args.second)
    for line in problems:
        print("FAIL:", line)
    print("repeatable" if not problems else "not repeatable")
    return 1 if problems else 0


def _parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def cmd_run(args) -> int:
    checkouts = args.checkout or [ROOT]
    labels = [os.path.basename(os.path.abspath(c)) or "root"
              for c in checkouts]
    if len(set(labels)) != len(labels):
        labels = [f"side{i}" for i in range(len(checkouts))]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in load_spec()["workloads"]]
    for index, seed in enumerate(_parse_seeds(args.seeds)):
        order = list(zip(checkouts, labels))
        if index % 2:
            order.reverse()
        for workload in workloads:
            for checkout, label in order:
                out_dir = (os.path.join(args.out, label)
                           if len(checkouts) > 1 else args.out)
                os.makedirs(out_dir, exist_ok=True)
                out = os.path.abspath(os.path.join(
                    out_dir, f"{workload}-s{seed}-t{args.trace}.json"))
                command = [sys.executable, "bench/run.py",
                           "--workload", workload, "--seed", str(seed),
                           "--trace", str(args.trace), "--out", out]
                if args.seconds:
                    command += ["--seconds", str(args.seconds)]
                print(f"[{label}] {workload} seed {seed}", flush=True)
                subprocess.run(command, cwd=checkout, check=True,
                               stdout=subprocess.DEVNULL)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="collect result sets")
    run.add_argument("--out", required=True)
    run.add_argument("--checkout", action="append",
                     help="repository checkout to run (repeat for two)")
    run.add_argument("--seeds", default="7-16", help="e.g. 7-16 or 7,9")
    run.add_argument("--workloads", help="comma-separated (default: all)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--seconds", type=float)
    run.set_defaults(func=cmd_run)
    ver = sub.add_parser("verdict", help="parent vs change")
    ver.add_argument("parent")
    ver.add_argument("change")
    ver.set_defaults(func=cmd_verdict)
    rep = sub.add_parser("repeat", help="same code twice")
    rep.add_argument("first")
    rep.add_argument("second")
    rep.set_defaults(func=cmd_repeat)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
