"""The control-window benchmark's workloads.

Each workload is one closed loop: one simulated cluster, one Mistral
controller hierarchy, serial search, one process.  A window's decision
finishes before the simulator moves on, and the decision time charged
to Eq. 3 is virtual, so host speed never changes a decision.

The simulated world of a workload (trace shapes, testbed seed, run
label) is fixed.  Mistral's loop is chaotic in it: on apps-2 to
t=8400 s, testbed seeds 0, 1 and 2 give cumulative utility 21.8, 5.6
and 13.1 and run times of 18.7, 6.3 and 9.7 s, a spread no regression
bound could hold.  The hash seed is fixed too (``run.HASH_SEED``), so
the benchmark's ``--seed`` changes no input; repetitions of a workload
must execute identical actions.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The testbed seed every workload's world is built from.
WORLD_SEED = 0

#: The label passed to ``Testbed.run``.  It forks the run's noise
#: streams, so changing it changes every decision.
RUN_LABEL = "mistral"


@dataclass(frozen=True)
class Workload:
    name: str
    app_count: int
    #: Simulated seconds of one repetition (from t=0).
    horizon: float
    faults: bool
    checkpoint: bool
    #: Measured wall seconds of one repetition on a 2-core x86_64 host;
    #: fixes how many repetitions fit in ``--seconds``.
    nominal_rep_s: float
    why: str


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="mistral-apps2-flash",
            app_count=2,
            horizon=8400.0,
            faults=False,
            checkpoint=False,
            nominal_rep_s=17.0,
            why=(
                "2 apps/4 hosts through the World Cup flash crowd: the A* "
                "expansion core does most of the work and misses its "
                "memos every window"
            ),
        ),
        Workload(
            name="mistral-apps4-ramp",
            app_count=4,
            horizon=2400.0,
            faults=False,
            checkpoint=False,
            nominal_rep_s=13.0,
            why=(
                "4 apps/8 hosts on the light-load ramp: Perf-Pwr ideal "
                "solves are nearly all of the run and the search core "
                "almost idles"
            ),
        ),
        Workload(
            name="mistral-apps2-faults",
            app_count=2,
            horizon=8400.0,
            faults=True,
            checkpoint=True,
            nominal_rep_s=20.0,
            why=(
                "apps2-flash plus failed migrations, a host crash, a "
                "snapshot per window and the referee: the write, retry "
                "and rollback paths"
            ),
        ),
    )
}
