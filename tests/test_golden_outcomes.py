"""Exact search outcomes, pinned.

Both search backends are deterministic: for a fixed testbed, start
configuration and workload vector, every field a search *decides* —
the plan, the configuration it ends in, its predicted Eq. 3 utility,
the expansion count, the virtual decision time and the pruning and
watchdog flags — is a pure function of the inputs.  This suite pins
those fields for self-aware A*, naive A* (expansion-capped) and polish
on apps-2/3/4, two workload vectors each.  The vectors make the
self-aware A* cover a quick settle (apps-2/4), a pruned terminal pop
(apps-3) and the hard stop that commits to the incumbent (all three
sizes).  A refactor of the search machinery must leave every record
unchanged.

The searches run in a child interpreter under ``PYTHONHASHSEED=0``:
the calibrated reward scale follows the hash seed in its last bit
(see ``tests/test_perf_pwr.py``), so exact float pins need a fixed
seed.  ``optimal`` is not pinned — it is a report about the search,
not part of the decision.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import repro

#: (apps, variant, vector) -> (expansions, decision_seconds,
#: predicted_utility, pruning_activated, deadline_aborted,
#: plan length, sha256 prefix of the action reprs + final configuration).
GOLDEN = {
    (2, "self_aware", 0): (
        5, 0.16599999999999998, 0.9118136851393588,
        False, False, 3, "206dbe49c3a1f23d",
    ),
    (2, "self_aware", 1): (
        2698, 45.01179999999839, 1.966738956347625,
        True, False, 12, "cb2a899c1375f924",
    ),
    (2, "naive", 0): (
        5, 0.16599999999999998, 0.9118136851393588,
        False, False, 3, "206dbe49c3a1f23d",
    ),
    (2, "naive", 1): (
        300, 11.37099999999997, 1.9633972422158164,
        False, False, 12, "8bbfbcc279617549",
    ),
    (2, "polish", 0): (
        141, 6.107999999999565, 2.778113141674427,
        False, False, 10, "8ec525badee9eb5d",
    ),
    (2, "polish", 1): (
        74, 4.022199999999726, -3.217207263179941,
        False, False, 8, "dd6a5f44a8e4125b",
    ),
    (3, "self_aware", 0): (
        281, 16.618200000000016, -0.06963113471701288,
        True, False, 17, "606d308e42f4d0d7",
    ),
    (3, "self_aware", 1): (
        1586, 45.00239999999878, -12.276066146395369,
        True, False, 3, "ccbfc5d2793fb6f3",
    ),
    (3, "naive", 0): (
        300, 21.861000000000004, 0.09720239284180532,
        False, False, 18, "96b83ec4d275ded2",
    ),
    (3, "naive", 1): (
        300, 22.039000000000033, -12.276066146395369,
        False, False, 3, "ccbfc5d2793fb6f3",
    ),
    (3, "polish", 0): (
        82, 9.383199999999203, -4.549801516509784,
        False, False, 6, "5eafe4897f0996bc",
    ),
    (3, "polish", 1): (
        73, 8.99519999999923, -12.206920607672863,
        False, False, 5, "d93d5b9ec43970db",
    ),
    (4, "self_aware", 0): (
        85, 8.002, -12.58352350744372,
        False, False, 3, "4122a2674972d5d7",
    ),
    (4, "self_aware", 1): (
        1310, 45.010400000000736, -20.375429882232545,
        True, False, 2, "ae3f39560094f25f",
    ),
    (4, "naive", 0): (
        85, 8.002, -12.58352350744372,
        False, False, 3, "4122a2674972d5d7",
    ),
    (4, "naive", 1): (
        232, 22.18800000000001, -2.935536879812129,
        False, False, 17, "7b4f66f77e0fda8a",
    ),
    (4, "polish", 0): (
        106, 17.14940000000103, -12.477128935965672,
        False, False, 7, "50377a752f6cc5a4",
    ),
    (4, "polish", 1): (
        129, 19.705600000006484, -11.130525088770655,
        False, False, 8, "177f270f19bc796b",
    ),
}

_SCRIPT = r"""
import hashlib
import json

from repro.core.search import AdaptationSearch, SearchSettings
from repro.testbed.scenarios import (
    _global_perf_pwr,
    initial_configuration,
    make_testbed,
)

VARIANTS = {
    "self_aware": dict(strategy="astar", self_aware=True),
    "naive": dict(strategy="astar", self_aware=False, max_expansions=300),
    "polish": dict(strategy="polish"),
}
VECTORS = {
    2: ((45.0, 50.0), (71.1, 30.4)),
    3: ((71.0, 10.2, 45.6), (20.7, 77.8, 71.1)),
    4: ((45.0, 50.0, 55.0, 60.0), (49.6, 46.0, 62.1, 73.1)),
}
rows = []
for apps, vectors in VECTORS.items():
    testbed = make_testbed(app_count=apps, seed=0)
    start = initial_configuration(testbed)
    names = testbed.applications.names()
    for variant, kwargs in VARIANTS.items():
        search = AdaptationSearch(
            testbed.applications,
            testbed.catalog,
            testbed.limits,
            testbed.estimator,
            testbed.cost_manager,
            _global_perf_pwr(testbed),
            testbed.host_ids,
            settings=SearchSettings(**kwargs),
        )
        for index, rates in enumerate(vectors):
            outcome = search.search(start, dict(zip(names, rates)), 300.0)
            final = outcome.final_configuration
            image = json.dumps(
                [
                    [repr(action) for action in outcome.actions],
                    sorted(
                        [vm_id, placement.host_id, placement.cpu_cap]
                        for vm_id, placement in final.placement_items()
                    ),
                    sorted(final.powered_hosts),
                ]
            )
            rows.append(
                [
                    apps,
                    variant,
                    index,
                    outcome.expansions,
                    outcome.decision_seconds,
                    outcome.predicted_utility,
                    outcome.pruning_activated,
                    outcome.deadline_aborted,
                    len(outcome.actions),
                    hashlib.sha256(image.encode()).hexdigest()[:16],
                ]
            )
print(json.dumps(rows))
"""


def _run_child() -> list:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def test_search_outcomes_pinned():
    rows = _run_child()
    measured = {tuple(row[:3]): tuple(row[3:]) for row in rows}
    assert set(measured) == set(GOLDEN)
    for key, expected in GOLDEN.items():
        assert measured[key] == expected, key
