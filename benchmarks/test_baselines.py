"""Baseline comparisons the paper argues against (Sections 2.2 / 2.3).

Two benchmarks:

- **trial-and-error sizing** vs RapidMRC: the binary-search scheme needs
  a full co-run measurement per trial; RapidMRC needs one short probe
  per application.  We count simulated accesses spent by each to reach a
  decision of comparable quality.
- **StatCache** vs RapidMRC on MRC accuracy: sparse whole-execution
  sampling with a statistical model vs complete short-window capture.
  Both should recover the curve shape; the structural difference is the
  monitoring style (the paper's Section 2.2 contrast), which we surface
  via the modeled overheads: StatCache's ~39% for the whole run vs
  RapidMRC's one-off probe.
"""

from repro.analysis.report import render_table
from repro.baselines.statcache import StatCacheEstimator, StatCacheSampler
from repro.baselines.trial_search import binary_search_partition
from repro.core.mrc import mpki_distance
from repro.core.partition import choose_partition_sizes
from repro.core.rapidmrc import ProbeConfig
from repro.runner.driver import Process, drive
from repro.runner.offline import real_mrc
from repro.runner.online import OnlineProbeConfig, collect_trace
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.memory import PageAllocator
from repro.workloads import make_workload


def run_trial_comparison(machine, offline):
    names = ("twolf", "libquantum")
    quota = 10 * machine.l2_lines
    warm = 4 * machine.l2_lines

    trial = binary_search_partition(
        make_workload(names[0], machine), make_workload(names[1], machine),
        machine, quota_accesses=quota, warmup_accesses=warm,
    )

    rapid_cost = 0
    curves = []
    for name in names:
        workload = make_workload(name, machine)
        probe = collect_trace(workload, machine, OnlineProbeConfig(),
                              ProbeConfig())
        real = real_mrc(workload, machine, offline, sizes=[8])
        probe.calibrate(8, real[8])
        curves.append(probe.result.best_mrc)
        rapid_cost += probe.accesses_executed
    rapid = choose_partition_sizes(curves[0], curves[1], machine.num_colors)
    return trial, rapid, rapid_cost


def test_trial_search_vs_rapidmrc(benchmark, bench_machine, bench_offline,
                                  save_report):
    trial, rapid, rapid_cost = benchmark.pedantic(
        run_trial_comparison, args=(bench_machine, bench_offline),
        rounds=1, iterations=1,
    )
    save_report(
        "baseline_trial_search",
        "Trial-and-error sizing (Section 2.3 baseline) vs RapidMRC\n\n"
        + render_table(
            ["approach", "decision", "measurement runs",
             "accesses spent"],
            [
                ["binary-search trials", str(trial.colors), trial.trials,
                 trial.accesses_spent],
                ["rapidmrc", str(rapid.colors), 2, rapid_cost],
            ],
        ),
    )
    # The baseline needs several full co-run trials...
    assert trial.trials >= 4
    # ... while RapidMRC spends far less measured execution.
    assert rapid_cost < trial.accesses_spent / 2
    # Both give the sensitive app (twolf) the majority.
    assert trial.split >= 9
    assert rapid.colors[0] >= 9


def run_statcache_comparison(machine, offline):
    rows = {}
    for name in ("twolf", "crafty"):
        workload = make_workload(name, machine)
        real = real_mrc(workload, machine, offline)

        probe = collect_trace(workload, machine, OnlineProbeConfig(),
                              ProbeConfig())
        probe.calibrate(8, real[8])
        rapid_distance = mpki_distance(real, probe.result.best_mrc)

        # StatCache: sample reuse times over a long run of L2 accesses.
        hierarchy = MemoryHierarchy(machine)
        process = Process(0, workload, 0, PageAllocator(machine))
        sampler = StatCacheSampler(period=20, seed=9, max_watchpoints=4096)

        def feed(result):
            if result.l1_miss:
                sampler.observe(result.line)

        drive(process, hierarchy, 40 * machine.l2_lines, observer=feed)
        histogram = sampler.finish()
        counters = hierarchy.counters[0]
        accesses_pki = 1000.0 * counters.l1d_misses / max(1, counters.instructions)
        estimator = StatCacheEstimator(machine)
        statcache_mrc = estimator.to_mrc(histogram, accesses_pki)
        statcache_mrc, _shift = statcache_mrc.v_offset_matched(8, real[8])
        statcache_distance = mpki_distance(real, statcache_mrc)
        rows[name] = {
            "rapid": rapid_distance,
            "statcache": statcache_distance,
            "samples": histogram.total_samples,
        }
    return rows


def test_statcache_vs_rapidmrc(benchmark, bench_machine, bench_offline,
                               save_report):
    rows = benchmark.pedantic(
        run_statcache_comparison, args=(bench_machine, bench_offline),
        rounds=1, iterations=1,
    )
    save_report(
        "baseline_statcache",
        "StatCache (Section 2.2 baseline [6,7]) vs RapidMRC: MPKI "
        "distance to the real MRC\n\n"
        + render_table(
            ["workload", "rapidmrc dist", "statcache dist", "samples"],
            [[name, row["rapid"], row["statcache"], row["samples"]]
             for name, row in rows.items()],
        )
        + "\n\nnote: StatCache monitors the whole execution (~39% overhead"
        "\nper [7]); RapidMRC pays one bounded probe (Table 2 cols a-b).",
    )
    for name, row in rows.items():
        # Both methods recover the shape to within a few MPKI.
        assert row["statcache"] < 6.0, (name, row)
        assert row["rapid"] < 6.0, (name, row)
        assert row["samples"] > 50
