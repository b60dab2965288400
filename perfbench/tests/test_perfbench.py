"""Tests of the control-window benchmark's own logic.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
They use synthetic repetition records, so no workload is simulated.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from layers import LayerTracer, layer_metrics, layer_unit  # noqa: E402
from summary import (  # noqa: E402
    END_TO_END_UNITS,
    BenchmarkError,
    check_runs,
    end_to_end,
    tail_percentile,
)
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

#: A name: a letter or digit, then up to 63 letters, digits, _ . or -.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: A unit: up to 16 letters, digits, _ / % . or -.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fake_run(digest="abc", flagged=(), samples=71):
    return {
        "workload": "mistral-apps2-flash",
        "setup_s": [0.3, 0.25, 0.26],
        "wall_s": 17.5,
        "cpu_s": 17.0,
        "peak_rss_mb": 210.0,
        "samples": samples,
        "expected_samples": 71,
        "decision_s": [0.2 + 0.001 * index for index in range(samples)],
        "digest": digest,
        "cumulative_utility": 21.75,
        "rt_miss_share": 0.05,
        "mean_power_w": 191.0,
        "flagged_windows": list(flagged),
    }


def test_spec_names_and_units_are_valid():
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert NAME_RE.fullmatch(metric["name"]), metric
            assert UNIT_RE.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    names = [metric["name"] for section in ("end_to_end", "per_layer")
             for metric in SPEC[section]]
    names += [workload["name"] for workload in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(name) for name in names)
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_spec_matches_what_the_benchmark_prints():
    end_to_end_spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert end_to_end_spec == END_TO_END_UNITS
    values, _ = end_to_end([fake_run(), fake_run()])
    assert set(values) == set(END_TO_END_UNITS)

    empty = SimpleNamespace(fault_stats=None, invariant_violations=[])
    layers = set(layer_metrics(LayerTracer(), [], empty)) | {"trace.overhead_s"}
    per_layer_spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: layer_unit(name) for name in layers} == per_layer_spec


@pytest.mark.parametrize("count,expected", [(20, 50), (42, 76), (142, 92)])
def test_tail_percentile_examples(count, expected):
    assert tail_percentile(count) == expected


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for count in range(20, 3000):
        percentile = tail_percentile(count)
        beyond = count - math.ceil(percentile * count / 100)
        assert beyond >= 10
        if percentile < 99:
            assert count - math.ceil((percentile + 1) * count / 100) < 10


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(BenchmarkError):
        tail_percentile(19)


def test_digest_mismatch_is_an_error():
    with pytest.raises(BenchmarkError, match="digests differ"):
        check_runs([fake_run("abc"), fake_run("abd")])


def test_sample_count_mismatch_is_an_error():
    with pytest.raises(BenchmarkError, match="samples"):
        check_runs([fake_run(samples=70), fake_run()])


def test_digest_mismatch_fails_the_run(monkeypatch, capsys):
    digests = iter(["abc", "abd"])

    def worker(workload, repetition, mode, deadline):
        return fake_run(next(digests))

    monkeypatch.setattr(run, "run_worker", worker)
    code = run.main(["--workload", "mistral-apps2-flash", "--seed", "3",
                     "--seconds", "1", "--trace", "0"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert "digests differ" in err


def test_doctored_violation_lowers_the_clean_window_share():
    clean, _ = end_to_end([fake_run(), fake_run()])
    doctored, _ = end_to_end([fake_run(flagged=["4440"])] * 2)
    assert clean["clean_window_share"] == 1.0
    assert doctored["clean_window_share"] == pytest.approx(1.0 - 1.0 / 71)


def test_self_time_subtracts_wrapped_children():
    ticks = iter(range(100))
    tracer = LayerTracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap(lambda: None, "lqn.solve")
    outer = tracer.wrap(lambda: (inner(), inner()), "perf_pwr")
    outer()
    # perf_pwr spans ticks 0..5, the two solves 1..2 and 3..4.
    assert tracer.total_s["perf_pwr"] == 5.0
    assert tracer.self_s["perf_pwr"] == 3.0
    assert tracer.calls["lqn.solve"] == 2
    assert [span[1] for span in tracer.spans] == [-1, 0, 0]


def test_worker_environment_is_pinned(monkeypatch):
    monkeypatch.setenv("MISTRAL_SEARCH_STRATEGY", "mcts")
    monkeypatch.setenv("MISTRAL_PARALLEL_WORKERS", "4")
    monkeypatch.setenv("PYTHONHASHSEED", "random")
    env = run.worker_env()
    assert not set(run.CLEARED_ENV) & set(env)
    assert env["PYTHONHASHSEED"] == run.HASH_SEED
    assert env["PYTHONPATH"] == run.SRC


def test_missing_program_source_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    code = run.main(["--workload", "mistral-apps2-flash", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
