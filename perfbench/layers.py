"""Outside-in layer tracing for the control-window benchmark.

``LayerTracer`` wraps the public methods of each ``src/repro`` layer at
class level, from outside the program, and records one span per call:
name, parent span, start and end.  Spans stay in memory and are
written out as JSONL when the run ends.  A layer's self time is its
spans' durations minus the time their wrapped children cover.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

#: The span names, by layer.  Each layer is one module of ``src/repro``.
LAYER_SPANS = {
    "controller": ("controller.window", "controller.level"),
    "search": ("search",),
    "perf_pwr": ("perf_pwr",),
    "estimator": ("estimator",),
    "lqn": ("lqn.solve", "lqn.update_state", "lqn.solve_batch"),
    "testbed": ("lqn.truth", "testbed.sample"),
    "cost": ("cost",),
    "cluster": ("cluster",),
    "sim": ("sim",),
    "checkpoint": ("checkpoint.save", "checkpoint.capture"),
    "faults": ("faults.referee",),
}

ROOT_SPAN = "testbed.run"


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_share", ".in_perf_pwr")):
        return "share"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".solves_per_call"):
        return "solves/call"
    return "count"


class LayerTracer:
    """Span recorder for wrapped callables; see :meth:`wrap`."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        #: ``(name, parent_index, start, end)``; -1 is "no parent".
        self.spans: list = []
        self._stack: list = []  # frames: [index, child_seconds, name]
        self.calls: dict = defaultdict(int)
        self.total_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        #: Free-form counters the ``after`` hooks fill in.
        self.counts: dict = defaultdict(float)
        self._patches: list = []

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        return any(frame[2] == name for frame in self._stack)

    def wrap(self, fn, name, after=None):
        """``fn`` wrapped in a span.

        ``name`` is a string or a callable taking the call's arguments
        and returning the span name.  ``after(args, kwargs, result)``
        runs once the span is closed, to count what the call did.
        """
        spans, stack, clock = self.spans, self._stack, self._clock
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, label]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (label, parent, start, end)
                calls[label] += 1
                total_s[label] += duration
                self_s[label] += duration - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attribute, name, after=None) -> None:
        """Replace ``owner.attribute`` by its traced wrapper."""
        self.replace(
            owner, attribute, self.wrap(owner.__dict__[attribute], name, after)
        )

    def replace(self, owner, attribute, value) -> None:
        """Set ``owner.attribute``; :meth:`unpatch` restores it."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s[name] for name in LAYER_SPANS[layer])

    def coverage(self) -> float:
        """Share of the root span's wall time the layers' self times
        account for (the rest is ``Testbed.run``'s own code)."""
        root = self.total_s[ROOT_SPAN]
        layered = sum(self.layer_self_s(layer) for layer in LAYER_SPANS)
        return layered / root if root > 0 else 0.0

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                name, parent, start, end = span
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )


def instrument(tracer: LayerTracer, testbed) -> list:
    """Wrap every layer's public entry points for one testbed run.

    Returns the list that collects the run's plan-execution handles.
    """
    from repro.checkpoint.store import CheckpointStore
    from repro.cluster.cluster import Cluster
    from repro.core.controller import MistralController
    from repro.core.estimator import UtilityEstimator
    from repro.core.hierarchy import ControllerHierarchy
    from repro.core.perf_pwr import PerfPwrOptimizer
    from repro.core.search import AdaptationSearch
    from repro.costmodel.manager import CostManager
    from repro.perfmodel.solver import LqnSolver
    from repro.sim.engine import SimulationEngine
    import repro.testbed.testbed as testbed_module

    counts = tracer.counts
    truth = testbed.truth_solver

    tracer.patch(ControllerHierarchy, "on_sample", "controller.window")
    tracer.patch(MistralController, "on_sample", "controller.level")

    def after_search(args, kwargs, outcome) -> None:
        counts["search.expansions"] += outcome.expansions
        counts["search.useful"] += 0 if outcome.is_null else 1
        counts["search.plan_actions"] += len(outcome.actions)
        counts["search.deadline_aborts"] += 1 if outcome.deadline_aborted else 0

    tracer.patch(AdaptationSearch, "search", "search", after_search)
    tracer.patch(PerfPwrOptimizer, "optimize", "perf_pwr")
    for method in ("estimate", "estimate_batch", "estimate_child", "prime",
                   "transient_rates"):
        tracer.patch(UtilityEstimator, method, "estimator")

    def full_solve_name(solver, *rest) -> str:
        return "lqn.truth" if solver is truth else "lqn.solve"

    def after_full_solve(args, kwargs, result) -> None:
        if args[0] is not truth and tracer.inside("perf_pwr"):
            counts["lqn.solve.in_perf_pwr"] += 1

    tracer.patch(LqnSolver, "solve", full_solve_name, after_full_solve)
    tracer.patch(LqnSolver, "solve_state", full_solve_name, after_full_solve)
    tracer.patch(LqnSolver, "update_state", "lqn.update_state")
    tracer.patch(LqnSolver, "solve_batch", "lqn.solve_batch")
    tracer.patch(CostManager, "predict", "cost")

    handles = []

    def after_execute(args, kwargs, handle) -> None:
        counts["cluster.plans"] += 1
        counts["cluster.actions"] += len(args[1])
        handles.append(handle)

    tracer.patch(Cluster, "execute_plan", "cluster", after_execute)
    tracer.patch(Cluster, "crash_host", "cluster")
    tracer.patch(SimulationEngine, "step", "sim")

    # The per-window sample is a closure inside Testbed.run; it reaches
    # the engine through schedule_periodic(label="monitor").
    original_periodic = SimulationEngine.__dict__["schedule_periodic"]

    def schedule_periodic(engine, period, callback, **kwargs):
        if kwargs.get("label") == "monitor":
            callback = tracer.wrap(callback, "testbed.sample")
        return original_periodic(engine, period, callback, **kwargs)

    tracer.replace(SimulationEngine, "schedule_periodic", schedule_periodic)

    def after_save(args, kwargs, path) -> None:
        counts["checkpoint.bytes"] += os.path.getsize(path)

    tracer.patch(CheckpointStore, "save", "checkpoint.save", after_save)
    tracer.patch(testbed_module, "capture", "checkpoint.capture")
    tracer.patch(testbed_module, "check_invariants", "faults.referee")
    tracer.patch(type(testbed), "run", ROOT_SPAN)
    return handles


def layer_metrics(tracer: LayerTracer, handles: list, metrics) -> dict:
    """The per-layer metric values of one traced run."""
    calls, total_s, self_s, counts = (
        tracer.calls, tracer.total_s, tracer.self_s, tracer.counts
    )
    searches = calls["search"]
    perf_pwr = calls["perf_pwr"]
    solves = calls["lqn.solve"]
    stats = metrics.fault_stats
    return {
        "controller.windows": calls["controller.window"],
        "controller.self_s": tracer.layer_self_s("controller"),
        "search.calls": searches,
        "search.self_s": self_s["search"],
        "search.expansions": counts["search.expansions"],
        "search.useful_share": counts["search.useful"] / searches if searches else 0.0,
        "search.plan_actions": counts["search.plan_actions"],
        "search.deadline_aborts": counts["search.deadline_aborts"],
        "perf_pwr.calls": perf_pwr,
        "perf_pwr.s": total_s["perf_pwr"],
        "perf_pwr.self_s": self_s["perf_pwr"],
        "perf_pwr.solves_per_call": (
            counts["lqn.solve.in_perf_pwr"] / perf_pwr if perf_pwr else 0.0
        ),
        "estimator.calls": calls["estimator"],
        "estimator.self_s": self_s["estimator"],
        "lqn.solve.calls": solves,
        "lqn.solve.s": total_s["lqn.solve"],
        "lqn.solve.in_perf_pwr": (
            counts["lqn.solve.in_perf_pwr"] / solves if solves else 0.0
        ),
        "lqn.update_state.calls": calls["lqn.update_state"],
        "lqn.update_state.s": total_s["lqn.update_state"],
        "lqn.solve_batch.calls": calls["lqn.solve_batch"],
        "lqn.solve_batch.s": total_s["lqn.solve_batch"],
        "lqn.truth.calls": calls["lqn.truth"],
        "lqn.truth.s": total_s["lqn.truth"],
        "testbed.sample_self_s": self_s["testbed.sample"],
        "cost.calls": calls["cost"],
        "cost.s": total_s["cost"],
        "cluster.plans": counts["cluster.plans"],
        "cluster.actions": counts["cluster.actions"],
        "cluster.s": total_s["cluster"],
        "sim.events": calls["sim"],
        "sim.self_s": self_s["sim"],
        "checkpoint.saves": calls["checkpoint.save"],
        "checkpoint.s": total_s["checkpoint.save"] + total_s["checkpoint.capture"],
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "faults.action_failures": stats.action_failures if stats else 0,
        "faults.rollbacks": sum(1 for handle in handles if handle.rolled_back),
        "faults.violations": len(metrics.invariant_violations),
        "faults.referee_s": total_s["faults.referee"],
        "trace.wall_s": total_s[ROOT_SPAN],
        "trace.coverage_share": tracer.coverage(),
    }
