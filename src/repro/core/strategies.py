"""The anytime ``"polish"`` search backend (DESIGN.md §14).

The adaptation search is a maximization of Eq. 3 over action sequences;
:class:`~repro.core.search.AdaptationSearch.search` runs it with one of
two backends:

- ``"astar"`` — the paper's exact Naive / Self-Aware A* (Algorithm 1),
  ``AdaptationSearch._astar_search``.  Deterministic, proves optimality
  on terminal pops, but its frontier grows combinatorially with system
  size.
- ``"polish"`` — :func:`polish_search`, a deterministic anytime local
  search: install the planner's direct plans to the Perf-Pwr ideal
  (and its alternatives) as incumbents, then refine them with a
  dual-criterion beam, a short-plan sweep over the seed actions and
  transposition/deletion hill-climbs.

Both backends run on the same per-search run (``search._SearchRun``):
the ideal and its basis, the Eq. 3 valuation, the single-child
builder, the seed chains and the outcome funnel.  Polish adds only its
walk, its incumbent and its chaos hooks.

The polish backend's contract (test-enforced by
``tests/test_strategies.py``):

- **Deterministic** — it draws no random numbers; the wall clock is
  consulted only by the deadline watchdog.
- **Anytime** — a feasible incumbent (at worst the explicit null plan)
  exists from the first instant, so aborting at any point — the
  deadline watchdog, controller degradation — returns a valid,
  executable plan.
- **Watchdog-composed** — ``settings.deadline_seconds`` is checked
  cooperatively once per node expanded, plan replayed and climb
  variant, so the wall-time overshoot is bounded by a single step;
  deadline-aborted outcomes set ``deadline_aborted`` and thereby feed
  the controller's degradation ladder exactly like an aborted A*.

Polish navigates the same action-enumeration space as the A*
(``AdaptationSearch._enumerate_actions`` with ideal-cap highways, scope
filtering included) and prices actions with the same Cost Manager
transient model, so its plans are executable by the same Cluster and
comparable utility-for-utility with the exact search.
"""

from __future__ import annotations

import math
import os
import time
from typing import Mapping, Optional

from repro.core.actions import ActionError, AdaptationAction
from repro.core.config import Configuration
from repro.core.estimator import SteadyEstimate
from repro.faults.injector import InjectedSolverFault
from repro.core.search import (
    MAX_PLAN_ACTIONS,
    PER_CHILD_APPLY_SECONDS,
    PER_CHILD_EVAL_SECONDS,
    PER_VERTEX_SECONDS,
    STRATEGY_KINDS,
    SearchOutcome,
    SearchSettings,
    _SearchRun,
    _Vertex,
)
from repro.telemetry import phases as _phases
from repro.telemetry import runtime as _telemetry

__all__ = ["polish_search", "resolve_strategy_name"]


def resolve_strategy_name(value: Optional[str]) -> str:
    """The effective strategy name for a settings value.

    ``None`` consults the ``MISTRAL_SEARCH_STRATEGY`` environment
    variable (unset/empty → ``"astar"``).  Unknown names raise — a
    typo'd operator override must fail loudly, not silently fall back
    to a different search.
    """
    if value is None:
        raw = os.environ.get("MISTRAL_SEARCH_STRATEGY", "")
        value = raw.strip().lower()
        if not value:
            return "astar"
    if value not in STRATEGY_KINDS:
        raise ValueError(
            f"unknown search strategy {value!r}: expected one of "
            f"{STRATEGY_KINDS} (check MISTRAL_SEARCH_STRATEGY or "
            "SearchSettings.strategy)"
        )
    return value


def polish_search(
    search,
    current: Configuration,
    workloads: Mapping[str, float],
    control_window: float,
    settings: SearchSettings,
) -> SearchOutcome:
    """Run the ``"polish"`` backend: seed plans, then polish them."""
    walk = _PolishWalk(search, current, workloads, control_window, settings)
    if walk.settled:
        return walk.finish_early()
    walk.seed_plans()
    stats = walk.polish()
    return walk.finish(
        walk.best_actions,
        walk.best_configuration,
        walk.best_value,
        walk.expansions,
        walk.virtual_seconds,
        stats=stats,
    )


class _PolishWalk(_SearchRun):
    """Per-run state of the polish backend.

    The shared search run supplies the scaffolding — the Perf-Pwr ideal
    (scope-projected for 1st-level controllers), the incremental
    ``_SearchBasis``, the Eq. 3 valuation, the single-child builder,
    the seed chains and the outcome funnel.  The walk adds incumbent
    tracking, ranked moves, the beam, the sweep and the climbs, and
    the chaos hooks.  Decision time uses the same virtual accounting as
    the A* (per-step and per-child charges), so durations are
    deterministic and platform-independent.
    """

    strategy = "polish"

    def __init__(
        self,
        search,
        current: Configuration,
        workloads: Mapping[str, float],
        control_window: float,
        settings: SearchSettings,
    ) -> None:
        # Polish always evaluates incrementally — the delta path is
        # bit-compatible with the full path, so this is a throughput
        # choice, not a semantic one.
        super().__init__(
            search, current, workloads, control_window, settings, True
        )
        #: Chaos-mode fault injector (``search.fault_injector``):
        #: solver-exception and strategy-stall injection points.
        self.injector = search.fault_injector
        #: Nodes whose actions were enumerated (``ranked_actions``
        #: cache misses) — polish's counterpart of A* expansions.
        self.expansions = 0
        self.virtual_seconds = 0.0
        #: Incumbent: starts at the explicit null plan, so any abort
        #: returns a valid decision (the anytime guarantee).
        self.best_value = self.window * self.current_rate
        self.best_actions: tuple = ()
        self.best_configuration = current
        #: Ranked-action proposals per visited configuration (ranking
        #: is deterministic, so caching cannot change decisions).
        self._ranked: dict[Configuration, list] = {}
        #: The walk's start (built by :meth:`seed_plans`).
        self.root: Optional[_Vertex] = None
        #: Seed chains recorded by :meth:`seed_plans` (polish starts).
        self.chains: list[list[_Vertex]] = []
        #: Useful plans are at most a few actions longer than the
        #: planner's direct route to the ideal: past the window's end
        #: accrual freezes, so deeper wandering only pads the plan.
        #: ``seed_plans`` tightens this to the longest seed plan + 3.
        self.depth_limit = min(MAX_PLAN_ACTIONS, 12)

    def maybe_stall(self) -> None:
        """Chaos injection: sleep one injected stall before a beam tier
        or a climb start.  Placed right before the watchdog check so a
        stall long enough to blow the deadline aborts polish on the
        very next ``out_of_time`` — the incumbent survives, the outcome
        is stamped ``deadline_aborted``, and the ladder steps down.  An
        already-aborted search has nothing left to stall."""
        injector = self.injector
        if injector is None or self.deadline_hit:
            return
        seconds = injector.strategy_stall()
        if seconds > 0.0:
            if _telemetry.enabled:
                _telemetry.tracer.event(
                    "fault.strategy.stall", seconds=seconds
                )
            time.sleep(seconds)

    # -- evaluation ----------------------------------------------------

    def steady(self, node: _Vertex) -> SteadyEstimate:
        """Steady estimate of a node, memoized per node (one estimator
        call each).

        Chaos mode may raise :class:`InjectedSolverFault` here — polish
        lets it propagate, and ``AdaptationSearch.search`` answers with
        the exact-A* fallback (polish failure degradation).
        """
        estimate = node.steady
        if estimate is None:
            injector = self.injector
            if injector is not None and injector.solver_exception():
                if _telemetry.enabled:
                    _telemetry.tracer.event("fault.solver.exception")
                raise InjectedSolverFault(
                    "injected LQN solver failure mid-evaluation"
                )
            estimate = node.steady = super().steady(node)
        return estimate

    def walk_score(self, node: _Vertex) -> float:
        """Local navigation score: the *true* Eq. 3 value of stopping
        here (steady-solved, not the admissible bound — the bound
        rewards any distance-reducing edit no matter how bad its real
        rate, which sends a local search straight downhill), deflated
        for infeasible intermediates by the A*'s guidance potential
        (they still owe adaptation work before they can be committed).
        Estimates ride the incremental delta/cache path; batch-prewarm
        sibling sets with :meth:`prewarm` before scoring them."""
        value = self.candidate_value(node)
        if node.is_candidate:
            return value
        return value - self.togo_penalty(node)

    def offer(self, node: _Vertex) -> None:
        """Evaluate a candidate node and raise the incumbent if it
        wins.  Every offer is also a provenance candidate note, so
        ``decision.provenance`` records the rejected rivals.
        Intermediate nodes are not offered."""
        if not node.is_candidate:
            return
        value = self.candidate_value(node)
        self.candidates += 1
        if self.collector is not None:
            self.collector.note_candidate(value, node.actions)
        if value > self.best_value:
            self.best_value = value
            self.best_actions = node.actions
            self.best_configuration = node.configuration

    def prewarm(self, nodes: list) -> None:
        """Batch-solve the steady estimates of multiple candidate nodes
        through ``LqnSolver.solve_batch`` before they are read one by
        one (identical values — the batch kernel is bit-identical to
        the scalar solver)."""
        pending = [node.configuration for node in nodes if node.steady is None]
        if len(pending) >= 2:
            with _phases.phase("solve"):
                self.estimate_batch(pending)

    # -- moves ---------------------------------------------------------

    def ranked_actions(self, node: _Vertex) -> list:
        """The applicable actions from a node, closest-to-ideal first —
        the same enumeration and distance ranking the self-aware prune
        uses, so polish inherits scope filtering and ideal-cap highways
        for free.  Entries are ``(action, delta)`` tuples; host power
        toggles rank after the placements (their child distance ties
        with the parent's, yet they are exactly the moves that finish a
        consolidation).  Each cache miss is one expansion, charged
        ``PER_VERTEX_SECONDS`` like an A* expansion."""
        cached = self._ranked.get(node.configuration)
        if cached is None:
            self.expansions += 1
            search = self.search
            with _phases.phase("enumerate"):
                possible = search._enumerate_actions(
                    node.configuration, self.ideal_caps
                )
            entries = []
            toggles = []
            for order, action in enumerate(possible):
                try:
                    delta = action.placement_delta(
                        node.configuration, search.catalog, search.limits
                    )
                except ActionError:
                    continue
                if not delta:
                    toggles.append((action, delta))
                    continue
                entries.append(
                    (
                        self.basis.child_distance(node.state, delta),
                        order,
                        action,
                        delta,
                    )
                )
            entries.sort(key=lambda entry: (entry[0], entry[1]))
            self.virtual_seconds += PER_VERTEX_SECONDS + (
                len(entries) + len(toggles)
            ) * PER_CHILD_APPLY_SECONDS
            cached = [
                (action, delta) for _, _, action, delta in entries
            ] + toggles
            self._ranked[node.configuration] = cached
        return cached

    def step(
        self,
        node: _Vertex,
        action: AdaptationAction,
        delta: Optional[tuple] = None,
    ) -> Optional[_Vertex]:
        """Apply one action through the run's single-child builder,
        charged one child evaluation.  ``delta`` is the action's
        placement delta when :meth:`ranked_actions` already validated
        it; otherwise it is derived here, and ``None`` is returned when
        the action does not apply at ``node``."""
        if delta is None:
            search = self.search
            try:
                delta = action.placement_delta(
                    node.configuration, search.catalog, search.limits
                )
            except ActionError:
                return None
        child = self.child(node, action, delta, self.steady(node))
        if child is not None:
            self.generated += 1
            self.virtual_seconds += PER_CHILD_EVAL_SECONDS
        return child

    def seed_plans(self) -> None:
        """Install the direct transition plans to the ideal (and its
        Perf-Pwr alternatives) as starting incumbents — the same
        seeding the A* uses, so polish starts from the planner's best
        direct plan and can only improve on it.  The seed chains are
        kept for :meth:`sweep` and :meth:`polish`."""
        self.root = root = self.make_root()
        root.steady = self.current_estimate
        with _phases.phase("score"):
            chains = self.seed_chains(root, self.step, self.offer)
        longest = max((len(chain[-1].actions) for chain in chains), default=0)
        self.depth_limit = min(
            MAX_PLAN_ACTIONS, max(self.depth_limit, longest + 3)
        )
        self.chains = chains

    def replay(self, actions) -> Optional[_Vertex]:
        """Re-walk an action sequence from the root, offering every
        candidate prefix met on the way; ``None`` if any step fails."""
        node = self.root
        for action in actions:
            node = self.step(node, action)
            if node is None:
                return None
            self.offer(node)
        return node

    def sweep(self, max_len: int = 3, beam: int = 6) -> int:
        """Deterministic short-plan sweep over the seed chains' action
        pool: replay every single action, then extend the ``beam`` best
        plans with every pool action, up to ``max_len`` steps.

        The exact search's winners are frequently *short* reorderings
        of the planner's direct chain (run the one high-gain action
        first, drop the rest) — plans a hill-climb from the full chain
        cannot reach monotonically.  Every replayed candidate feeds the
        incumbent through :meth:`offer`.  Returns the replay count."""
        pool: list[AdaptationAction] = []
        seen: set[AdaptationAction] = set()
        for chain in self.chains:
            for node in chain:
                action = node.actions[-1]
                if action not in seen:
                    seen.add(action)
                    pool.append(action)
        if not pool:
            return 0
        replays = 0
        tier: list[tuple[float, tuple]] = [(0.0, ())]
        with _phases.phase("score"):
            for _ in range(max_len):
                scored: list[tuple[float, tuple]] = []
                for _, prefix in tier:
                    for action in pool:
                        if self.out_of_time():
                            return replays
                        if action in prefix:
                            continue
                        plan = prefix + (action,)
                        node = self.replay(plan)
                        replays += 1
                        if node is None:
                            continue
                        scored.append((self.walk_score(node), plan))
                if not scored:
                    break
                scored.sort(key=lambda pair: (-pair[0], repr(pair[1][-1])))
                tier = scored[:beam]
        return replays

    def beam(self, width: int = 8) -> int:
        """Deterministic dual-criterion beam over the full action
        enumeration: each depth tier keeps the union of the ``width``
        best children by :meth:`walk_score` (true steady-solved value —
        exploits known-good basins) and the ``width`` best by
        :meth:`bound` (the A*'s optimistic Eq. 3 priority — keeps
        transiently-expensive prefixes alive that true value would
        evict before they pay off).  Either signal alone fails: true
        value is pessimistic about deep plans' early actions, the bound
        rewards distance-reducing edits regardless of achieved rate.
        Every candidate met feeds the incumbent.  Returns the number of
        tiers expanded."""
        tier = [self.root]
        depths = 0
        stale = 0
        tier_mark = -math.inf
        with _phases.phase("score"):
            for _ in range(self.depth_limit):
                self.maybe_stall()
                mark = self.best_value
                children: list[_Vertex] = []
                for node in tier:
                    if self.out_of_time():
                        return depths
                    for action, delta in self.ranked_actions(node):
                        child = self.step(node, action, delta)
                        if child is not None:
                            children.append(child)
                if not children:
                    break
                # Transpositions of the same edits meet again in the
                # same configuration; keep only the best-accrued route
                # to each (the same frontier dedup the A* does).
                best_route: dict = {}
                for child in children:
                    rival = best_route.get(child.configuration)
                    if rival is None or self.bound(child) > self.bound(rival):
                        best_route[child.configuration] = child
                children = [
                    child
                    for child in children
                    if best_route[child.configuration] is child
                ]
                self.prewarm(children)
                for child in children:
                    self.offer(child)
                by_value = sorted(
                    range(len(children)),
                    key=lambda i: (-self.walk_score(children[i]), i),
                )
                by_bound = sorted(
                    range(len(children)),
                    key=lambda i: (-self.bound(children[i]), i),
                )
                keep: list[int] = []
                for index in by_value[:width] + by_bound[:width]:
                    if index not in keep:
                        keep.append(index)
                tier = [children[index] for index in keep]
                depths += 1
                # Tier depth past the best plan's length is pure cost:
                # stop once three consecutive tiers neither raised the
                # incumbent nor pushed the frontier's best true score
                # higher (a pre-seeded incumbent would otherwise make
                # every shallow tier look stale and cut the beam off
                # before deep plans can pay their transients back).
                tier_best = max(
                    self.walk_score(child) for child in tier
                )
                progressed = (
                    self.best_value > mark or tier_best > tier_mark
                )
                tier_mark = max(tier_mark, tier_best)
                stale = 0 if progressed else stale + 1
                if stale >= 3:
                    break
        return depths

    def _climb(self, base: tuple) -> None:
        """Hill-climb one plan over adjacent transpositions and single
        deletions, replayed with the exact accrual arithmetic.  Tracks
        its *own* local best (every replayed candidate still feeds the
        global incumbent through :meth:`offer`), so climbing a worse
        start cannot be derailed by the incumbent's distant basin."""
        best = base
        best_value = -math.inf
        node = self.replay(base)
        if node is not None and node.is_candidate:
            best_value = self.candidate_value(node)
        for _ in range(6):
            if self.out_of_time() or not best:
                return
            variants = [
                best[:i] + (best[i + 1], best[i]) + best[i + 2 :]
                for i in range(len(best) - 1)
            ] + [best[:i] + best[i + 1 :] for i in range(len(best))]
            improved = False
            for variant in variants:
                if self.out_of_time():
                    return
                node = self.replay(variant)
                if node is None or not node.is_candidate:
                    continue
                value = self.candidate_value(node)
                if value > best_value:
                    best, best_value, improved = variant, value, True
            if not improved:
                return

    def polish(self) -> dict:
        """Deterministic local refinement: beam, sweep, then hill-climb
        the incumbent plan *and* each seed chain's full plan.

        Transient cost depends on action *order* (Eq. 3 accrues each
        action's rate over its duration), so the planner's direct chain
        is usually improvable by running cheap high-gain actions first
        and dropping steps whose rate never pays back — exactly the
        reorderings the A* finds by search.  Candidate prefixes are
        offered during every replay, which subsumes plan truncation.
        Returns the run's tallies (``beam_tiers``, ``sweep_replays``,
        ``climb_starts``)."""
        starts = []
        for chain in self.chains:
            actions = chain[-1].actions
            if actions and actions not in starts:
                starts.append(actions)
        if self.best_actions and self.best_actions not in starts:
            starts.append(self.best_actions)
        beam_tiers = self.beam()
        sweep_replays = self.sweep()
        if self.best_actions and self.best_actions not in starts:
            starts.append(self.best_actions)
        climbs = 0
        with _phases.phase("score"):
            for base in starts:
                self.maybe_stall()
                if self.out_of_time():
                    break
                self._climb(base)
                climbs += 1
            # Climbs can improve the *global* incumbent through offered
            # prefixes without their local best following it; re-climb
            # the incumbent until it stops moving so gains compound
            # across starts.
            for _ in range(4):
                self.maybe_stall()
                if self.out_of_time():
                    break
                incumbent = self.best_actions
                if not incumbent:
                    break
                self._climb(incumbent)
                climbs += 1
                if self.best_actions == incumbent:
                    break
        return {
            "beam_tiers": beam_tiers,
            "sweep_replays": sweep_replays,
            "climb_starts": climbs,
        }
