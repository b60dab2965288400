"""Bench: search strategies — polish parity and anytime behavior."""

from conftest import emit

from repro.experiments.report import format_table
from repro.experiments.search_strategies import (
    ANYTIME_DEADLINE_SECONDS,
    PARITY_FLOOR,
    comparison_checks,
    run_strategy_comparison,
)


def test_search_strategy_comparison(benchmark):
    rows = benchmark.pedantic(
        run_strategy_comparison, rounds=1, iterations=1
    )
    checks = comparison_checks(rows)

    table_rows = []
    for row in rows:
        table_rows.append(
            {
                "scenario": f"{row.scenario} ({row.host_count} hosts)",
                "backend": row.label,
                "wall_s": round(row.wall_seconds, 2),
                "U_pred": round(row.predicted_utility, 1),
                "U_null": round(row.null_utility, 1),
                "parity": (
                    round(row.parity, 3) if row.parity is not None else "-"
                ),
                "aborted": row.deadline_aborted,
                "plan_len": row.plan_actions,
            }
        )
    text = format_table(
        table_rows,
        title=(
            "Search strategies: utility parity vs self-aware A* "
            f"(floor {PARITY_FLOOR}), anytime tier under a "
            f"{ANYTIME_DEADLINE_SECONDS:.0f} s deadline"
        ),
    )
    text += "\nchecks: " + ", ".join(
        f"{name}={value}" for name, value in checks.items()
    )
    emit("search_strategies", text)

    assert checks["polish_reaches_astar_parity"]
    assert checks["naive_astar_hits_deadline"]
    assert checks["polish_completes_under_deadline"]
    assert checks["polish_beats_pruned_astar_at_scale"]
    assert checks["all_plans_beat_null"]
