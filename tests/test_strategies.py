"""Search backend conformance (DESIGN.md §14).

The contract under test, shared by both backends behind
``SearchSettings.strategy``:

- ``"astar"`` is the exact loop — selecting it through
  ``AdaptationSearch.search`` must be bit-identical to calling it
  directly, on both the incremental and the full-evaluation path.
- ``"polish"`` is deterministic, returns a feasible (replayable) plan
  or an explicit no-op, respects the deadline watchdog, and stamps
  ``SearchOutcome.strategy``.
- Strategy selection flows through ``SearchSettings.strategy``, the
  ``MISTRAL_SEARCH_STRATEGY`` environment variable, ``build_mistral``
  and ``Testbed.run`` — with unknown names failing loudly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.search import (
    STRATEGY_KINDS,
    AdaptationSearch,
    SearchSettings,
)
from repro.core.strategies import resolve_strategy_name
from repro.experiments.search_strategies import (
    CONTROL_WINDOW,
    _high_workloads as _study_workloads,
)
from repro.testbed.scenarios import (
    _global_perf_pwr,
    build_mistral,
    initial_configuration,
    make_testbed,
)

#: Everything a search outcome decides; ``wall_seconds`` is measured
#: time, excluded by the contract.
OUTCOME_FIELDS = (
    "actions",
    "final_configuration",
    "predicted_utility",
    "expansions",
    "decision_seconds",
    "pruning_activated",
    "optimal",
    "deadline_aborted",
    "strategy",
)

#: The anytime walkers ``"polish"`` replaced, each with the decision it
#: returned on this module's ``_run`` search before it was deleted.
#: Both walkers ended in the polish step, and both returned this same
#: plan; polish alone must reproduce each record.  The walker contract
#: tests below run polish once per retired walker, so every guarantee a
#: walker gave stays pinned on the backend that took over.
_RETIRED_PLAN = (
    "IncreaseCpu(vm_id='RUBiS-1-db-0', step=0.1, count=2)",
    "IncreaseCpu(vm_id='RUBiS-2-db-0', step=0.1, count=3)",
    "IncreaseCpu(vm_id='RUBiS-2-app-0', step=0.1, count=1)",
    "RemoveReplica(vm_id='RUBiS-2-db-1')",
    "IncreaseCpu(vm_id='RUBiS-1-db-0', step=0.1, count=1)",
    "MigrateVm(vm_id='RUBiS-2-db-0', target_host='host-0')",
    "MigrateVm(vm_id='RUBiS-1-web-0', target_host='host-0')",
    "PowerOnHost(host_id='host-2')",
    "MigrateVm(vm_id='RUBiS-2-db-0', target_host='host-2')",
    "DecreaseCpu(vm_id='RUBiS-1-db-0', step=0.1, count=1)",
)
RETIRED_WALKERS = {
    "mcts": (2.778113141674427, _RETIRED_PLAN),
    "annealing": (2.778113141674427, _RETIRED_PLAN),
}
WALKERS = tuple(RETIRED_WALKERS)


def _make_search(testbed, **settings_kwargs) -> AdaptationSearch:
    settings = SearchSettings(
        **{"self_aware": True, "incremental": True, **settings_kwargs}
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


def _high_workloads(testbed, run: int = 0) -> dict[str, float]:
    """Load that forces a real multi-round search (harness methodology)."""
    return {
        name: 45.0 + 5.0 * index + run
        for index, name in enumerate(testbed.applications.names())
    }


def _run(search, testbed, run: int = 0):
    start = initial_configuration(testbed)
    workloads = _high_workloads(testbed, run)
    return search.search(start, workloads, 300.0)


def _assert_outcomes_identical(reference, candidate) -> None:
    for field in OUTCOME_FIELDS:
        assert getattr(candidate, field) == getattr(reference, field), field


def _assert_matches_retired(walker, outcome) -> None:
    """``outcome`` is the decision ``walker`` returned on ``_run``.

    Two of the plan's actions commute at equal Eq. 3 value, and which
    order wins that tie follows the interpreter's hash seed, so the
    actions are compared as a multiset (same final configuration)."""
    utility, plan = RETIRED_WALKERS[walker]
    assert outcome.strategy == "polish"
    assert outcome.predicted_utility == pytest.approx(utility, abs=1e-9)
    assert sorted(repr(action) for action in outcome.actions) == sorted(plan)


# -- selection plumbing --------------------------------------------------------


def test_strategy_kinds_registry_complete():
    """Every declared strategy kind resolves to itself."""
    assert STRATEGY_KINDS == ("astar", "polish")
    for name in STRATEGY_KINDS:
        assert resolve_strategy_name(name) == name


def test_unknown_strategy_fails_loudly():
    """Unknown names — the retired walkers included — raise."""
    for name in ("beam", "mcts", "annealing"):
        with pytest.raises(ValueError, match="unknown search strategy"):
            resolve_strategy_name(name)
        with pytest.raises(ValueError):
            SearchSettings(strategy=name)


def test_env_var_selects_strategy(monkeypatch, small_testbed):
    """``strategy=None`` defers to MISTRAL_SEARCH_STRATEGY."""
    monkeypatch.setenv("MISTRAL_SEARCH_STRATEGY", "polish")
    assert resolve_strategy_name(None) == "polish"
    outcome = _run(_make_search(small_testbed), small_testbed)
    assert outcome.strategy == "polish"
    monkeypatch.delenv("MISTRAL_SEARCH_STRATEGY")
    assert resolve_strategy_name(None) == "astar"


def test_env_var_unknown_name_raises(monkeypatch):
    for name in ("hillclimb", "mcts", "annealing"):
        monkeypatch.setenv("MISTRAL_SEARCH_STRATEGY", name)
        with pytest.raises(ValueError, match=name):
            resolve_strategy_name(None)


def test_build_mistral_wires_strategy(small_testbed):
    controller, _ = build_mistral(small_testbed, search_strategy="polish")
    searches = [level1.search for level1 in controller.level1] + [
        controller.level2.search
    ]
    assert searches
    for search in searches:
        assert search.settings.strategy == "polish"


def test_testbed_run_repoints_strategy(small_testbed):
    controller, start = build_mistral(small_testbed)
    small_testbed.run(
        controller,
        start,
        "mistral",
        horizon=900.0,
        search_strategy="polish",
    )
    for level1 in controller.level1:
        assert level1.search.settings.strategy == "polish"
    assert controller.level2.search.settings.strategy == "polish"


def test_outcome_stamps_strategy(small_testbed):
    for name in STRATEGY_KINDS:
        outcome = _run(_make_search(small_testbed, strategy=name), small_testbed)
        assert outcome.strategy == name


# -- astar bit-identity --------------------------------------------------------


@pytest.mark.parametrize("incremental", [True, False])
def test_astar_dispatch_bit_identical(incremental, small_testbed):
    """``strategy="astar"`` through ``search`` reproduces the direct
    A* loop exactly — on both the array rounds (incremental) and the
    full-evaluation reference path."""
    kwargs = dict(incremental=incremental)
    direct_search = _make_search(small_testbed, **kwargs)
    start = initial_configuration(small_testbed)
    workloads = _high_workloads(small_testbed)
    direct = direct_search._astar_search(
        start, workloads, 300.0, None, None, None
    )
    dispatched = _run(
        _make_search(small_testbed, strategy="astar", **kwargs),
        small_testbed,
    )
    for field in OUTCOME_FIELDS:
        if field == "strategy":
            continue  # ``search`` stamps it post-hoc
        assert getattr(dispatched, field) == getattr(direct, field), field
    assert dispatched.strategy == "astar"


def test_astar_default_unchanged(small_testbed, monkeypatch):
    """No strategy anywhere (settings or env) → the exact A*."""
    monkeypatch.delenv("MISTRAL_SEARCH_STRATEGY", raising=False)
    outcome = _run(_make_search(small_testbed), small_testbed)
    assert outcome.strategy == "astar"


# -- polish conformance --------------------------------------------------------


def test_polish_matches_the_retired_walkers_on_apps2():
    """On the strategy study's apps-2 search, polish alone returns the
    plan the MCTS and annealing walkers (both of which ended in the
    same polish step) returned: the same predicted utility and plan
    length."""
    testbed = make_testbed(app_count=2, seed=0)
    search = _make_search(testbed, strategy="polish")
    workloads = _study_workloads(testbed)
    outcome = search.search(
        initial_configuration(testbed), workloads, CONTROL_WINDOW
    )
    assert outcome.strategy == "polish"
    assert not outcome.deadline_aborted
    assert outcome.predicted_utility == pytest.approx(2.778113142, abs=1e-9)
    assert len(outcome.actions) == 10
    assert outcome.expansions > 0


@pytest.mark.parametrize("walker", WALKERS)
def test_walker_plan_is_replayable(walker, small_testbed):
    """The returned plan applies cleanly action-by-action from the
    start configuration and lands exactly on ``final_configuration``
    (feasible), or is the explicit no-op (empty plan, start config) —
    and it is the plan the retired walker returned."""
    outcome = _run(
        _make_search(small_testbed, strategy="polish"), small_testbed
    )
    _assert_matches_retired(walker, outcome)
    configuration = initial_configuration(small_testbed)
    for action in outcome.actions:
        configuration = action.apply(
            configuration, small_testbed.catalog, small_testbed.limits
        )
    assert configuration == outcome.final_configuration
    if not outcome.actions:
        assert outcome.final_configuration == initial_configuration(
            small_testbed
        )


@pytest.mark.parametrize("walker", WALKERS)
def test_walker_beats_or_matches_null_plan(walker, small_testbed):
    """Anytime invariant: the incumbent starts at the explicit null
    plan, so the returned plan never predicts worse than doing
    nothing."""
    start = initial_configuration(small_testbed)
    workloads = _high_workloads(small_testbed)
    null_value = (
        300.0
        * small_testbed.estimator.estimate(start, workloads).total_rate
    )
    search = _make_search(small_testbed, strategy="polish")
    outcome = search.search(start, workloads, 300.0)
    _assert_matches_retired(walker, outcome)
    assert outcome.predicted_utility >= null_value - 1e-9


@pytest.mark.parametrize("name", ("astar",) + WALKERS)
def test_deadline_watchdog_bounds_overshoot(name, small_testbed):
    """An already-expired deadline aborts every backend almost
    immediately — the cooperative check runs at least once per
    expansion round or polish step, so the overshoot is bounded by one
    step, and the outcome still carries a feasible incumbent.  Under
    it, polish returns the explicit null plan, as both retired walkers
    did."""
    strategy = "astar" if name == "astar" else "polish"
    search = _make_search(
        small_testbed, strategy=strategy, deadline_seconds=1e-9
    )
    start = initial_configuration(small_testbed)
    workloads = _high_workloads(small_testbed)
    outcome = search.search(start, workloads, 300.0)
    assert outcome.deadline_aborted
    assert outcome.strategy == strategy
    # Generous bound: one expansion/polish step, not a full search.
    assert outcome.wall_seconds < 30.0
    configuration = start
    for action in outcome.actions:
        configuration = action.apply(
            configuration, small_testbed.catalog, small_testbed.limits
        )
    assert configuration == outcome.final_configuration
    if name in RETIRED_WALKERS:
        assert outcome.actions == ()


@pytest.mark.parametrize("walker", WALKERS)
def test_walker_deadline_none_is_deterministic_anytime(walker, small_testbed):
    """Polish is deterministic and, without a deadline, never reads the
    wall clock on the decision path: two unbounded runs decide
    identically (polish draws no random numbers, so no seed is
    needed), a deadline far in the future decides exactly like no
    deadline at all, and the decision is the retired walker's."""
    relaxed = _run(
        _make_search(
            small_testbed, strategy="polish", deadline_seconds=3600.0
        ),
        small_testbed,
    )
    unbounded = _run(
        _make_search(small_testbed, strategy="polish"), small_testbed
    )
    again = _run(
        _make_search(small_testbed, strategy="polish"), small_testbed
    )
    _assert_outcomes_identical(unbounded, again)
    for field in OUTCOME_FIELDS:
        if field == "deadline_aborted":
            continue
        assert getattr(relaxed, field) == getattr(unbounded, field), field
    assert not relaxed.deadline_aborted
    assert not unbounded.deadline_aborted
    _assert_matches_retired(walker, unbounded)


@pytest.mark.parametrize("walker", WALKERS)
def test_walker_emits_strategy_telemetry(walker, small_testbed):
    """Each polish run lands its own tallies and the
    ``search.strategy.polish.runs`` selection counter, in place of the
    retired walker's ``search.strategy.<walker>.*`` tallies."""
    from repro import telemetry

    telemetry.enable()
    try:
        outcome = _run(
            _make_search(small_testbed, strategy="polish"), small_testbed
        )
        snapshot = telemetry.runtime.registry.snapshot()
        counters = snapshot["counters"]
        assert counters.get("search.strategy.polish.runs", 0) >= 1
        assert counters.get("search.strategy.polish.beam_tiers", 0) >= 1
        assert counters.get("search.strategy.polish.sweep_replays", 0) >= 1
        assert counters.get("search.strategy.polish.climb_starts", 0) >= 1
        assert counters.get("search.expansions", 0) >= 1
        assert not any(
            key.startswith(f"search.strategy.{walker}.") for key in counters
        )
    finally:
        telemetry.disable()
    _assert_matches_retired(walker, outcome)


# -- chaos: injected stalls and the watchdog -----------------------------------


@pytest.mark.parametrize("walker", WALKERS)
def test_walker_stall_trips_watchdog_but_returns_incumbent(
    walker, small_testbed
):
    """An injected stall longer than the deadline aborts polish on the
    very next cooperative check — the outcome is stamped
    ``deadline_aborted``, still carries the backend's name, and the
    incumbent plan replays cleanly (the anytime guarantee survives
    chaos).  The stall fires before the first beam tier, so the
    incumbent is the explicit null plan, as it was for the retired
    walker."""
    from repro.faults import FaultConfig, FaultInjector

    search = _make_search(
        small_testbed, strategy="polish", deadline_seconds=0.3
    )
    search.fault_injector = FaultInjector(
        FaultConfig(
            seed=4,
            strategy_stall_probability=1.0,
            strategy_stall_seconds=0.6,
        )
    )
    outcome = _run(search, small_testbed)
    assert outcome.deadline_aborted
    assert outcome.strategy == "polish"
    assert search.fault_injector.stats.strategy_stalls >= 1
    # The incumbent is a feasible, replayable plan (here the explicit
    # no-op) — never a torn partial result.
    configuration = initial_configuration(small_testbed)
    for action in outcome.actions:
        configuration = action.apply(
            configuration, small_testbed.catalog, small_testbed.limits
        )
    assert configuration == outcome.final_configuration
    assert outcome.actions == ()


def test_watchdog_abort_steps_controller_ladder_down(small_testbed):
    """A stall-induced watchdog abort is a resilience fault: the
    controller tallies it, feeds the degradation ladder, and the pruned
    rung it lands on pins the next search back to the exact A*."""
    from repro.core.controller import MistralController
    from repro.faults import DegradationSettings, FaultConfig, FaultInjector
    from repro.workload.monitor import WorkloadMonitor

    search = _make_search(
        small_testbed, strategy="polish", deadline_seconds=0.3
    )
    search.fault_injector = FaultInjector(
        FaultConfig(
            seed=4,
            strategy_stall_probability=1.0,
            strategy_stall_seconds=0.6,
        )
    )
    controller = MistralController(
        name="chaos-L1",
        search=search,
        monitor=WorkloadMonitor(band_width=8.0),
    )
    controller.enable_resilience(DegradationSettings(escalate_after=1))
    decision = controller.on_sample(
        0.0,
        _high_workloads(small_testbed),
        initial_configuration(small_testbed),
    )
    assert decision is not None
    assert decision.outcome.deadline_aborted
    assert controller.stats.watchdog_aborts == 1
    assert controller.resilience.level == "pruned"
    pruned = controller._search_settings_for_level("pruned")
    assert pruned.strategy == "astar"
    assert pruned.self_aware


def test_controller_wires_strategy_failures_into_resilience(small_testbed):
    """The controller timestamps search failures with the sample it
    was processing and feeds them to its degradation ladder."""
    from repro.core.controller import MistralController
    from repro.workload.monitor import WorkloadMonitor

    controller = MistralController(
        name="test",
        search=_make_search(small_testbed),
        monitor=WorkloadMonitor(band_width=0.0),
    )
    assert (
        controller.search.on_strategy_failure
        == controller._on_strategy_failure
    )
    controller.enable_resilience()
    controller._last_now = 360.0
    controller.search.on_strategy_failure()
    assert controller.stats.faults_observed == 1
    assert controller.stats.strategy_failures == 1


def test_walker_settings_validated():
    """Polish's one knob is the watchdog deadline it runs under."""
    with pytest.raises(ValueError):
        SearchSettings(strategy="polish", deadline_seconds=0.0)
    with pytest.raises(ValueError):
        SearchSettings(strategy="polish", deadline_seconds=-1.0)


def test_settings_are_immutable_value_objects():
    """Strategy fields ride the frozen dataclass like every other
    setting — ``dataclasses.replace`` is the way to vary them."""
    settings = SearchSettings(strategy="polish", deadline_seconds=5.0)
    replaced = dataclasses.replace(settings, strategy="astar")
    assert settings.strategy == "polish"
    assert replaced.strategy == "astar"
    assert replaced.deadline_seconds == 5.0
