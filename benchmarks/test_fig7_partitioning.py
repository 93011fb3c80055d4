"""Figure 7 (+ its table): sizing cache partitions with RapidMRC.

Paper content: for twolf+equake, vpr+applu and ammp+3applu, partition
sizes chosen from RapidMRC improve combined performance over
uncontrolled sharing (27%/12%/14%), with the real-MRC choices doing as
well or better (50%/28%/14%).  Reproduction targets:

- the real-MRC choice beats uncontrolled sharing decisively;
- the real-MRC choice is at least as good as the RapidMRC choice
  (the paper's calculated-curve gaps reproduce here);
- the best split in the measured spectrum yields a large gain,
  confirming partitioning headroom exists.
"""

from repro.analysis.report import render_table
from repro.runner.experiments import fig7_ammp_3applu, fig7_partitioning


def _spectrum_rows(result):
    rows = []
    for split in sorted(result.spectrum):
        values = result.spectrum[split]
        rows.append([split] + list(values) + [sum(values) / len(values)])
    return rows


def test_fig7_pairs(benchmark, bench_machine, bench_offline, save_report):
    results = benchmark.pedantic(
        fig7_partitioning,
        kwargs={"machine": bench_machine, "offline": bench_offline},
        rounds=1, iterations=1,
    )

    sections = ["Figure 7: multiprogrammed partitioning (L3 disabled)",
                f"machine: {bench_machine.name}", ""]
    for result in results:
        name_a, name_b = result.names
        sections.append(f"--- {name_a} + {name_b} ---")
        sections.append(
            f"chosen sizes: real {result.chosen_real.colors}, "
            f"rapidmrc {result.chosen_rapidmrc.colors}"
        )
        sections.append(render_table(
            [f"{name_a} colors", f"{name_a} IPC %", f"{name_b} IPC %",
             "mean %"],
            _spectrum_rows(result),
        ))
        sections.append(
            f"gain @ real choice: {result.gain_real:+.1f}%   "
            f"gain @ rapidmrc choice: {result.gain_rapidmrc:+.1f}%"
        )
        sections.append("")
    save_report("fig7_pairs", "\n".join(sections))

    for result in results:
        means = {
            split: sum(v) / len(v) for split, v in result.spectrum.items()
        }
        best_gain = max(means.values()) - 100.0
        # Partitioning headroom exists (paper's gains reach +27%..+50%
        # in combined terms).
        assert best_gain > 5.0, (result.names, means)
        # The real-MRC choice captures a solid share of that headroom.
        assert result.gain_real > 0.3 * best_gain, (
            result.names, result.gain_real, best_gain
        )
        # And real-MRC sizing is at least as good as RapidMRC sizing
        # (paper: 50/28/14 vs 27/12/14) -- allow a small tolerance for
        # simulation noise.
        assert result.gain_real >= result.gain_rapidmrc - 2.0, (
            result.names, result.gain_real, result.gain_rapidmrc
        )


def test_fig7_ammp_3applu(benchmark, bench_machine, bench_offline, save_report):
    result = benchmark.pedantic(
        fig7_ammp_3applu,
        kwargs={"machine": bench_machine, "offline": bench_offline},
        rounds=1, iterations=1,
    )
    sections = [
        "Figure 7c: ammp + 3x applu (L3 enabled; the applus share one "
        "partition)",
        f"chosen sizes: real {result.chosen_real.colors}, "
        f"rapidmrc {result.chosen_rapidmrc.colors}",
        render_table(
            ["ammp colors", "ammp IPC %", "applu1 %", "applu2 %",
             "applu3 %", "mean %"],
            _spectrum_rows(result),
        ),
        f"gain @ real choice: {result.gain_real:+.1f}%   "
        f"gain @ rapidmrc choice: {result.gain_rapidmrc:+.1f}%",
    ]
    save_report("fig7_ammp_3applu", "\n".join(sections))

    # Both sizing sources must give ammp the larger share (paper: 13:3
    # real, 14:2 rapidmrc -- ammp is the cache-sensitive one).
    assert result.chosen_real.colors[0] > result.chosen_real.colors[1]
    # The spectrum is informative: its extremes differ measurably.
    means = {split: sum(v) / len(v) for split, v in result.spectrum.items()}
    assert max(means.values()) - min(means.values()) > 2.0
