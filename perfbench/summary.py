"""Checks and end-to-end metrics over a workload's repetitions."""

from __future__ import annotations

import math
import statistics

#: The end-to-end metrics: name -> unit.
END_TO_END_UNITS = {
    "setup_s": "s",
    "windows_per_s": "1/s",
    "cpu_s_per_window": "s",
    "decision_p50_ms": "ms",
    "decision_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "cumulative_utility": "utility",
    "rt_met_share": "share",
    "mean_power_w": "W",
    "clean_window_share": "share",
}

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


class BenchmarkError(Exception):
    """The program's outputs failed a correctness check."""


def tail_percentile(count: int) -> int:
    """The highest whole percentile with ``TAIL_BEYOND`` samples beyond
    it, among ``count`` samples, by the nearest-rank rule."""
    for percentile in range(99, 49, -1):
        if count - math.ceil(percentile * count / 100) >= TAIL_BEYOND:
            return percentile
    raise BenchmarkError(
        f"{count} decision samples: too few for a tail percentile"
    )


def nearest_rank(samples, percentile: int) -> float:
    ordered = sorted(samples)
    return ordered[math.ceil(percentile * len(ordered) / 100) - 1]


def check_runs(runs: list) -> None:
    """Every run has one sample and one decision per window, and every
    run executed the same actions."""
    for run in runs:
        if run["samples"] != run["expected_samples"]:
            raise BenchmarkError(
                f"{run['workload']}: {run['samples']} samples, "
                f"expected {run['expected_samples']}"
            )
        if len(run["decision_s"]) != run["samples"]:
            raise BenchmarkError(
                f"{run['workload']}: {len(run['decision_s'])} decisions "
                f"for {run['samples']} windows"
            )
    if len({run["digest"] for run in runs}) != 1:
        digests = [run["digest"][:12] for run in runs]
        raise BenchmarkError(f"action digests differ across runs: {digests}")


def end_to_end(runs: list) -> tuple[dict, str]:
    """The end-to-end metric values over the timed runs, and a line
    stating the tail percentile and its sample counts."""
    decisions = [value for run in runs for value in run["decision_s"]]
    percentile = tail_percentile(len(decisions))
    beyond = len(decisions) - math.ceil(percentile * len(decisions) / 100)

    def median_of(key):
        return statistics.median(run[key] for run in runs)

    values = {
        "setup_s": statistics.median(
            value for run in runs for value in run["setup_s"]
        ),
        "windows_per_s": statistics.median(
            run["samples"] / run["wall_s"] for run in runs
        ),
        "cpu_s_per_window": statistics.median(
            run["cpu_s"] / run["samples"] for run in runs
        ),
        "decision_p50_ms": 1000.0 * statistics.median(decisions),
        "decision_tail_ms": 1000.0 * nearest_rank(decisions, percentile),
        "peak_rss_mb": median_of("peak_rss_mb"),
        "cumulative_utility": median_of("cumulative_utility"),
        "rt_met_share": 1.0 - median_of("rt_miss_share"),
        "mean_power_w": median_of("mean_power_w"),
        "clean_window_share": 1.0 - statistics.median(
            len(run["flagged_windows"]) / run["samples"] for run in runs
        ),
    }
    note = (
        f"decision_tail_ms is p{percentile} of {len(decisions)} decision "
        f"samples ({beyond} beyond it)"
    )
    return values, note
