"""Scenario-scaling tests: 3-app and 4-app testbeds build and run."""

import threading

import pytest

from repro.core.hierarchy import ControllerHierarchy
from repro.testbed.scenarios import build_mistral, make_testbed


@pytest.mark.parametrize("app_count,hosts,vms", [(3, 6, 15), (4, 8, 20)])
def test_larger_scenarios_build(app_count, hosts, vms):
    testbed = make_testbed(app_count=app_count, seed=5)
    assert len(testbed.host_ids) == hosts
    assert len(testbed.catalog) == vms
    assert len(testbed.applications) == app_count


def test_four_app_hierarchy_has_two_level1_controllers():
    testbed = make_testbed(app_count=4, seed=5)
    hierarchy, initial = build_mistral(testbed)
    assert len(hierarchy.level1) == 2
    scopes = [
        frozenset(controller.search.scope_hosts)
        for controller in hierarchy.level1
    ]
    assert scopes[0] & scopes[1] == frozenset()
    assert scopes[0] | scopes[1] == frozenset(testbed.host_ids)


def test_three_app_short_run():
    testbed = make_testbed(app_count=3, seed=5)
    hierarchy, initial = build_mistral(testbed)
    metrics = testbed.run(hierarchy, initial, "3app", horizon=1800.0)
    assert set(metrics.response_times) == {"RUBiS-1", "RUBiS-2", "RUBiS-3"}
    assert metrics.mean_power() > 100.0


def test_single_level_controller_variant():
    testbed = make_testbed(app_count=2, seed=5)
    controller, initial = build_mistral(testbed, hierarchical=False)
    metrics = testbed.run(controller, initial, "flat", horizon=1200.0)
    assert controller.stats.invocations > 0
    assert len(metrics.power_watts) == 11


class _StubController:
    """Minimal on_sample recorder standing in for a MistralController."""

    def __init__(self, name: str, decision=None) -> None:
        self.name = name
        self.decision = decision
        self.threads: list[str] = []

    def on_sample(self, now, workloads, configuration, busy=False):
        self.threads.append(threading.current_thread().name)
        return self.decision


def test_hierarchy_sequential_without_workers():
    level1 = [_StubController("L1-0"), _StubController("L1-1")]
    hierarchy = ControllerHierarchy(level1, _StubController("L2"))
    hierarchy.on_sample(0.0, {"RUBiS-1": 10.0}, object())
    main = threading.current_thread().name
    assert all(c.threads == [main] for c in level1)
