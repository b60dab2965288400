"""Parallel evaluation stage (DESIGN.md §11).

The contract under test: dispatching the array rounds' cost predictions
to a worker pool — with any executor backing — changes *when* work
happens, never *what* the search decides.  Outcomes must be
bit-identical to the serial search, pools must fail soft (inline
fallback, resilience hook), and the batched solver must reproduce
``solve_state`` exactly.
"""

from __future__ import annotations

import importlib.util
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.controller import MistralController
from repro.core.hierarchy import ControllerHierarchy
from repro.core.search import AdaptationSearch, SearchSettings
from repro.parallel.executors import (
    SerialExecutor,
    resolve_executor_kind,
)
from repro.telemetry.trace import RingBufferSink, Tracer
from repro.testbed.scenarios import _global_perf_pwr, initial_configuration
from repro.workload.monitor import WorkloadMonitor

#: Everything a search outcome decides; ``wall_seconds`` and the
#: ``pool_*`` tallies are measured time, excluded by the contract.
OUTCOME_FIELDS = (
    "actions",
    "final_configuration",
    "predicted_utility",
    "expansions",
    "decision_seconds",
    "pruning_activated",
    "optimal",
)


def _make_search(testbed, **settings_kwargs) -> AdaptationSearch:
    # The parallel-evaluation contract is about the A* expansion rounds;
    # pin the backend so the MISTRAL_SEARCH_STRATEGY CI leg cannot swap
    # the search out from under these assertions.
    settings = SearchSettings(
        self_aware=True, incremental=True, strategy="astar", **settings_kwargs
    )
    return AdaptationSearch(
        testbed.applications,
        testbed.catalog,
        testbed.limits,
        testbed.estimator,
        testbed.cost_manager,
        _global_perf_pwr(testbed),
        testbed.host_ids,
        settings=settings,
    )


def _high_workloads(testbed, run: int) -> dict[str, float]:
    """Load that forces a real multi-round search (harness methodology)."""
    return {
        name: 45.0 + 5.0 * index + run
        for index, name in enumerate(testbed.applications.names())
    }


def _outcomes(search, testbed, runs=2):
    start = initial_configuration(testbed)
    outcomes = []
    for run in range(runs):
        workloads = _high_workloads(testbed, run)
        search.perf_pwr.optimize(workloads)
        outcomes.append(search.search(start, workloads, 300.0))
    search.close_executor()
    return outcomes


def _assert_outcomes_identical(reference, candidate) -> None:
    for field in OUTCOME_FIELDS:
        assert getattr(candidate, field) == getattr(reference, field), field


# -- bit-identity across executors ---------------------------------------------


@pytest.mark.parametrize("executor", ["serial", "thread", "process"])
def test_parallel_outcomes_bit_identical_to_legacy(executor, small_testbed):
    """Array rounds under every executor backing reproduce the serial
    search's outcomes exactly — actions, configurations, float
    utilities, expansion counts, and the Eq. 3 decision seconds."""
    legacy = _outcomes(_make_search(small_testbed), small_testbed)
    workers = 1 if executor == "serial" else 2
    parallel = _outcomes(
        _make_search(
            small_testbed,
            parallel_workers=workers,
            parallel_executor=executor,
        ),
        small_testbed,
    )
    for reference, candidate in zip(legacy, parallel):
        _assert_outcomes_identical(reference, candidate)


def test_parallel_outcome_reports_pool_cost(small_testbed):
    """Pool dispatch time is surfaced on the outcome (and is contained
    in the overall wall time, never hidden off-book)."""
    search = _make_search(
        small_testbed, parallel_workers=2, parallel_executor="thread"
    )
    (outcome,) = _outcomes(search, small_testbed, runs=1)
    assert outcome.pool_wall_seconds > 0.0
    assert outcome.pool_wall_seconds <= outcome.wall_seconds


# -- graceful degradation ------------------------------------------------------


class _BrokenExecutor:
    """Pool stand-in whose every dispatch dies."""

    kind = "thread"
    workers = 2

    def __init__(self) -> None:
        self.closed = False

    def predict(self, *args, **kwargs):
        raise RuntimeError("worker pool died")

    def close(self) -> None:
        self.closed = True


def test_executor_crash_respawns_pool_before_demoting(small_testbed):
    """A dying pool is respawned (bounded, backed off) before any
    demotion: the outcome still matches the serial search bit for bit,
    the broken pool is closed, the respawn hook fires, and no
    permanent serial pin happens while attempts remain."""
    (reference,) = _outcomes(_make_search(small_testbed), small_testbed, 1)

    search = _make_search(
        small_testbed,
        parallel_workers=2,
        parallel_executor="thread",
        executor_respawn_backoff_seconds=0.0,
    )
    broken = _BrokenExecutor()
    search._executor = broken
    search._executor_key = ("thread", 2)
    hook_calls: list[str] = []
    search.on_executor_failure = hook_calls.append

    (outcome,) = _outcomes(search, small_testbed, 1)
    _assert_outcomes_identical(reference, outcome)
    assert broken.closed
    # One crash, one respawn, no demotion: the replacement pool (a
    # healthy ThreadExecutor) finished the round.
    assert not search._parallel_failed
    assert search._respawn_attempts == 1
    assert hook_calls == ["worker_respawn"]

    # Later searches still use the (respawned) pool kind.
    (again,) = _outcomes(search, small_testbed, 1)
    _assert_outcomes_identical(reference, again)
    assert not search._parallel_failed


def test_executor_crash_demotes_after_respawn_budget(small_testbed):
    """With the respawn budget exhausted (limit 0) a dying pool pins
    the search to the inline path permanently — the pre-respawn
    fallback contract survives as the last rung."""
    (reference,) = _outcomes(_make_search(small_testbed), small_testbed, 1)

    search = _make_search(
        small_testbed,
        parallel_workers=2,
        parallel_executor="thread",
        executor_respawn_limit=0,
    )
    broken = _BrokenExecutor()
    search._executor = broken
    search._executor_key = ("thread", 2)
    hook_calls: list[str] = []
    search.on_executor_failure = hook_calls.append

    (outcome,) = _outcomes(search, small_testbed, 1)
    _assert_outcomes_identical(reference, outcome)
    assert broken.closed
    assert search._parallel_failed
    assert hook_calls == ["executor_failure"]

    # The demotion is permanent: later searches stay inline without
    # re-attempting the broken pool kind.
    (again,) = _outcomes(search, small_testbed, 1)
    _assert_outcomes_identical(reference, again)
    assert search._parallel_failed
    assert isinstance(
        search._ensure_executor(search.settings, 2), SerialExecutor
    )


def test_controller_wires_executor_failures_into_resilience(small_testbed):
    """The controller timestamps executor failures with the sample it
    was processing and feeds them to its degradation ladder."""
    controller = MistralController(
        name="test",
        search=_make_search(small_testbed),
        monitor=WorkloadMonitor(band_width=0.0),
    )
    assert (
        controller.search.on_executor_failure
        == controller._on_executor_failure
    )
    controller.enable_resilience()
    controller._last_now = 360.0
    controller.search.on_executor_failure("executor_failure")
    assert controller.stats.faults_observed == 1


def test_parallel_speedup_divides_the_serial_array_column():
    """``parallel_speedup`` varies one factor, the worker pool: its
    numerator is the serial ``self_aware`` column, never a column that
    also switches the evaluation core."""
    path = (
        Path(__file__).resolve().parents[1]
        / "benchmarks" / "perf" / "search_harness.py"
    )
    spec = importlib.util.spec_from_file_location("search_harness", path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    search = {
        "apps-2": {
            "self_aware": {"mean_search_seconds": 0.3},
            "self_aware_scalar": {"mean_search_seconds": 0.9},
            "self_aware_parallel": {"mean_search_seconds": 0.2},
        },
        "apps-3": {"self_aware": {"mean_search_seconds": 0.5}},
    }
    speedups = harness.summarize_parallel(search)
    assert speedups["apps-2"] == pytest.approx(1.5)
    assert speedups["apps-3"] is None


def test_resolve_executor_kind_rules():
    assert resolve_executor_kind("serial", 8) == "serial"
    assert resolve_executor_kind("thread", 1) == "serial"
    assert resolve_executor_kind("auto", 1) == "serial"
    assert resolve_executor_kind("thread", 2) == "thread"
    assert resolve_executor_kind("process", 2) == "process"
    with pytest.raises(ValueError):
        resolve_executor_kind("gpu", 2)


# -- batched LQN solving -------------------------------------------------------


def _assert_states_identical(batched, scalar) -> None:
    assert batched.configuration == scalar.configuration
    assert batched.tiers.keys() == scalar.tiers.keys()
    left, right = batched.estimate, scalar.estimate
    for app, value in right.response_times.items():
        assert left.response_times[app].hex() == value.hex()
    assert left.tier_utilizations == right.tier_utilizations
    assert left.host_utilizations == right.host_utilizations


@pytest.mark.perf_smoke
def test_solve_batch_single_config_matches_solve_state(
    solver, base_configuration
):
    workloads = {"RUBiS-1": 30.0, "RUBiS-2": 55.0}
    (batched,) = solver.solve_batch([base_configuration], workloads)
    _assert_states_identical(
        batched, solver.solve_state(base_configuration, workloads)
    )


@pytest.mark.perf_smoke
def test_solve_batch_many_configs_match_their_scalar_solves(
    solver, base_configuration
):
    workloads = {"RUBiS-1": 48.0, "RUBiS-2": 12.0}
    configurations = [base_configuration]
    for vm_id in base_configuration.placed_vm_ids()[:3]:
        placement = base_configuration.placement_of(vm_id)
        configurations.append(
            base_configuration.replace(
                vm_id, placement.with_cap(0.3 if placement.cpu_cap != 0.3 else 0.5)
            )
        )
    batch = solver.solve_batch(configurations, workloads)
    for batched, configuration in zip(batch, configurations):
        _assert_states_identical(
            batched, solver.solve_state(configuration, workloads)
        )


# -- concurrent controller hierarchy -------------------------------------------


class _StubController:
    """Minimal on_sample recorder standing in for a MistralController."""

    def __init__(self, name: str, decision=None) -> None:
        self.name = name
        self.decision = decision
        self.threads: list[str] = []

    def on_sample(self, now, workloads, configuration, busy=False):
        self.threads.append(threading.current_thread().name)
        return self.decision

    def shutdown_parallel(self) -> None:
        pass


def _decision(name: str):
    return SimpleNamespace(is_null=False, controller=name)


def test_hierarchy_plans_level1_concurrently_and_merges_in_order():
    level1 = [
        _StubController("L1-0", _decision("L1-0")),
        _StubController("L1-1", _decision("L1-1")),
    ]
    level2 = _StubController("L2", None)
    hierarchy = ControllerHierarchy(level1, level2, parallel_workers=2)
    assert hierarchy._concurrent_level1()

    decisions = hierarchy.on_sample(0.0, {"RUBiS-1": 10.0}, object())
    assert [decision.controller for decision in decisions] == ["L1-0", "L1-1"]
    for controller in level1:
        assert controller.threads[0].startswith("mistral-l1")
    assert level2.threads[0] == threading.current_thread().name

    hierarchy.shutdown_parallel()
    assert hierarchy._level1_pool is None


def test_hierarchy_sequential_without_workers():
    level1 = [_StubController("L1-0"), _StubController("L1-1")]
    hierarchy = ControllerHierarchy(level1, _StubController("L2"))
    assert not hierarchy._concurrent_level1()
    hierarchy.on_sample(0.0, {"RUBiS-1": 10.0}, object())
    main = threading.current_thread().name
    assert all(c.threads == [main] for c in level1)


# -- tracer thread safety ------------------------------------------------------


def test_tracer_span_stacks_are_thread_local():
    sink = RingBufferSink()
    tracer = Tracer(sink)
    with tracer.span("main-outer"):
        worker_done = threading.Event()

        def worker() -> None:
            with tracer.span("worker-span"):
                tracer.event("worker-event")
            worker_done.set()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert worker_done.is_set()
        tracer.event("main-event")

    by_name = {event["name"]: event for event in sink.events()}
    outer = by_name["main-outer"]
    # The worker's span opened at the thread's own top level — not
    # nested under the main thread's open span.
    assert by_name["worker-span"]["parent"] is None
    assert by_name["worker-span"]["depth"] == 0
    assert by_name["worker-event"]["parent"] == by_name["worker-span"]["seq"]
    assert by_name["main-event"]["parent"] == outer["seq"]
    # Sequence numbers stay globally unique across threads.
    seqs = [event["seq"] for event in sink.events()]
    assert len(seqs) == len(set(seqs))
