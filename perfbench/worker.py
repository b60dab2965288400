"""One repetition of a control-window workload, in a fresh interpreter.

``run.py`` starts this script once per repetition with a pinned
environment.  It sets up the testbed and the Mistral hierarchy
(``SETUP_REPEATS`` times, keeping the last), runs ``Testbed.run`` over
the workload's horizon with the invariant referee on, and prints one
JSON object as its last line of output.

``--mode timed`` wraps only the top-level ``on_sample`` (one decision
sample per window) and the referee.  ``--mode traced`` wraps every
layer (``layers.instrument``) and writes the spans as JSONL.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time

import numpy

from layers import LayerTracer, instrument, layer_metrics
from workloads import RUN_LABEL, WORLD_SEED, WORKLOADS

from repro.checkpoint.store import CheckpointStore
from repro.core.hierarchy import ControllerHierarchy
from repro.testbed.scenarios import build_mistral, demo_fault_config, make_testbed
import repro.testbed.testbed as testbed_module

SETUP_REPEATS = 3


def action_digest(metrics) -> str:
    """Digest of the executed actions (start, end, controller, text)."""
    rows = [
        (record.start, record.end, record.controller, record.description)
        for record in metrics.actions
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def setup(workload):
    """Testbed, controller and initial configuration, with their
    wall times: ``make_testbed``, ``build_mistral`` (which computes the
    initial configuration) for each of ``SETUP_REPEATS`` repeats."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        testbed = make_testbed(workload.app_count, seed=WORLD_SEED)
        controller, initial = build_mistral(testbed)
        times.append(time.perf_counter() - start)
    return testbed, controller, initial, times


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--mode", choices=("timed", "traced"), default="timed")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    testbed, controller, initial, setup_times = setup(workload)
    tracer = LayerTracer()
    handles = []
    if args.mode == "traced":
        handles = instrument(tracer, testbed)
    else:
        tracer.patch(ControllerHierarchy, "on_sample", "controller.window")
    flagged = set()
    referee = testbed_module.check_invariants

    def flag(configuration, *rest, context="", **kwargs):
        violations = referee(configuration, *rest, context=context, **kwargs)
        if violations:
            flagged.add(context.rpartition("@t=")[2])
        return violations

    tracer.replace(testbed_module, "check_invariants", flag)

    store_dir = os.path.join(args.work_dir, f"checkpoint-{os.getpid()}")
    os.makedirs(store_dir, exist_ok=True)
    store = (
        CheckpointStore(os.path.join(store_dir, "snapshot.json"))
        if workload.checkpoint
        else None
    )
    gc.collect()
    try:
        cpu_start = cpu_seconds()
        start = time.perf_counter()
        metrics = testbed.run(
            controller,
            initial,
            RUN_LABEL,
            horizon=workload.horizon,
            faults=demo_fault_config() if workload.faults else None,
            checkpoint=store,
            invariants=True,
        )
        wall = time.perf_counter() - start
        cpu = cpu_seconds() - cpu_start
    finally:
        tracer.unpatch()
        shutil.rmtree(store_dir, ignore_errors=True)

    target = testbed.utility.parameters.target_response_time
    response_times = [
        value
        for series in metrics.response_times.values()
        for value in series.values
    ]
    decisions = [
        end - begin
        for name, _, begin, end in tracer.spans
        if name == "controller.window"
    ]
    result = {
        "workload": workload.name,
        "mode": args.mode,
        "numpy": numpy.__version__,
        "setup_s": setup_times,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": len(metrics.utility_increments),
        "expected_samples": int(
            workload.horizon // testbed.settings.monitoring_interval
        ) + 1,
        "decision_s": decisions,
        "digest": action_digest(metrics),
        "actions": len(metrics.actions),
        "cumulative_utility": metrics.cumulative_utility(),
        "rt_miss_share": sum(value > target for value in response_times)
        / len(response_times),
        "mean_power_w": metrics.mean_power(),
        "flagged_windows": sorted(flagged),
        "violations": [
            f"{violation.name}: {violation.detail}"
            for violation in metrics.invariant_violations
        ],
    }
    if args.mode == "traced":
        result["layers"] = layer_metrics(tracer, handles, metrics)
        trace_path = os.path.join(args.work_dir, f"trace-{workload.name}.jsonl")
        tracer.write_jsonl(trace_path)
        result["trace_path"] = trace_path
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
