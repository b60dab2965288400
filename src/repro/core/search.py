"""The holistic optimization search (paper §IV-B, Algorithm 1).

Vertices are configurations, edges are adaptation actions, and the
search maximizes Eq. 3's overall utility over the control window: each
edge accrues ``d(a) * (U_RT(c, a) + U_pwr(c, a))`` — the transient
utility rates while the action runs, predicted by the Cost Manager —
and a vertex's priority is that accrued value plus a *cost-to-go* term.
For intermediate (constraint-violating) configurations the cost-to-go
is the ideal utility rate ``U*`` from the Perf-Pwr optimizer over the
remaining window — an over-estimate, hence an admissible heuristic —
while candidate configurations use their own estimated steady rate.
Popping a terminal ("null"-action) vertex therefore proves optimality,
as long as pruning has not dropped any children.

The **Self-Aware** variant additionally meters the cost of deciding:
virtual search time ``T`` (expansions x per-vertex evaluation time),
the utility the *current* configuration accrues while the search runs
(``UT``), and the search's own power draw (``UpwrT``).  When the search
cost exhausts the expected utility ``UH`` or ``T`` exceeds the delay
threshold (5% of the control window), each expansion is pruned to the
top 5% of children by weighted-Euclidean distance to the ideal
configuration ``c*``.

One search is one ``_SearchRun`` — the context both backends share
(the polish backend in :mod:`repro.core.strategies` subclasses it).
The A* drives it with three parts: ``_Frontier`` (the open set),
``_Expander`` (enumeration and the array round, DESIGN.md §13) and
``_Accountant`` (``T``, ``UT``, ``UpwrT``, ``UH``, the pruning switch,
the hard stop and the watchdog).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.apps.application import ApplicationSet
from repro.core.actions import (
    ActionError,
    AdaptationAction,
    AddReplica,
    DecreaseCpu,
    IncreaseCpu,
    MigrateVm,
    NullAction,
    PowerOffHost,
    PowerOnHost,
    RemoveReplica,
)
from repro.core.config import (
    Configuration,
    ConstraintLimits,
    Placement,
    VmCatalog,
)
from repro.core.rounds import (
    ArrayBasis,
    ArrayStatics,
    RoundPlan,
    _togo_vm_term,
    add_block,
    replica_tier_counts,
    vm_block,
)
from repro.core.estimator import SteadyEstimate, UtilityEstimator
from repro.core.perf_pwr import PerfPwrOptimizer, PerfPwrResult
from repro.core.planner import plan_transition
from repro.costmodel.manager import CostManager
from repro.telemetry import phases as _phases
from repro.telemetry import runtime as _telemetry
from repro.telemetry.provenance import ProvenanceCollector, plan_breakdown

#: All action families the search may use.
ALL_ACTION_KINDS: frozenset[str] = frozenset(
    {
        "increase_cpu",
        "decrease_cpu",
        "migrate",
        "add_replica",
        "remove_replica",
        "power_on",
        "power_off",
    }
)

#: The cheap, local actions available to 1st-level controllers.
LOCAL_ACTION_KINDS: frozenset[str] = frozenset(
    {"increase_cpu", "decrease_cpu", "migrate"}
)

#: Search backends (DESIGN.md §14): the paper's exact A* ("astar", the
#: default) and the deterministic anytime "polish" local search.  Both
#: share the action-enumeration space, the incremental evaluation
#: machinery, and the SearchOutcome shape; only "astar" proves
#: optimality.
STRATEGY_KINDS: tuple[str, ...] = ("astar", "polish")


#: Fraction of children kept once pruning activates (paper: top 5%).
PRUNE_FRACTION = 0.05
#: Delay threshold as a fraction of the control window (paper: 5%).
DELAY_THRESHOLD_FRACTION = 0.05
#: The self-aware search commits to its best incumbent once the
#: (virtual) search time exceeds this multiple of the delay threshold —
#: pruning alone bounds width, this bounds depth.
HARD_STOP_FACTOR = 3.0
#: Virtual decision-time accounting, in seconds: a fixed overhead per
#: vertex expansion, a small charge per child configuration generated
#: (apply + distance), and a larger charge per child fully evaluated
#: (cost prediction + utility estimation).  Search durations are thus
#: deterministic, platform-independent, and grow with the branching
#: factor — which is how the naive search's duration blows up with
#: system size (Table I) while the pruned self-aware search, which
#: skips the evaluation of pruned children, stays nearly linear.
PER_VERTEX_SECONDS = 0.004
PER_CHILD_APPLY_SECONDS = 0.0002
PER_CHILD_EVAL_SECONDS = 0.0008
#: Extra watts the controller host draws while searching (Fig. 10a: up
#: to ~12% over a 60 W idle draw).
SEARCH_WATTS_DELTA = 7.2
#: CPU cap of newly added replicas.
REPLICA_CAP = 0.2
#: Safety cap on plan length (vertices deeper than this are not
#: expanded further; they can still terminate as candidates).  Must
#: exceed the longest useful reconfiguration (a full consolidation of
#: ~20 VMs runs to roughly 30 actions including cap steps).
MAX_PLAN_ACTIONS = 48
#: Maximum configurations per batched LQN solve when pre-warming
#: candidate steady estimates (``LqnSolver.solve_batch``).
BATCH_SIZE = 64


@dataclass(frozen=True)
class SearchSettings:
    """Tuning knobs of the adaptation search."""

    #: Self-aware variant (search-cost accounting + pruning) vs naive A*.
    self_aware: bool = True
    #: Hard safety cap on expansions (returns best candidate so far).
    max_expansions: int = 4000
    #: Action families this controller may use.
    allowed_kinds: frozenset[str] = ALL_ACTION_KINDS
    #: Seed the open set with the direct transition plan to the ideal
    #: configuration (and its prefixes) before searching.
    seed_with_plan: bool = True
    #: Fraction of the (ideal - current) rate gap the cost-to-go is
    #: priced at.  0.5 is the trapezoidal estimate: the accrual rate
    #: improves from the current rate toward the ideal rate as the
    #: adaptation progresses, so pricing the remaining distance at the
    #: full initial gap would over-penalize partially adapted
    #: configurations and hide profitable partial plans.
    togo_discount: float = 0.5
    #: Weight of the distance-to-ideal guidance potential subtracted
    #: from the priority of *intermediate* vertices (terminals keep
    #: their true utility).  The admissible bound alone makes the
    #: search behave like Dijkstra over near-zero-cost cap-tuning edges
    #: — the exponential blowup the paper reports for the naive variant
    #: — so intermediates far from the ideal configuration are deflated
    #: by ``weight * togo_seconds * discounted rate gap`` (the
    #: adaptation time still separating them from the ideal), steering
    #: expansion toward the ideal while committing (terminal pops) only
    #: when a candidate's true Eq. 3 utility beats every deflated
    #: bound.  0 recovers the strictly admissible (naive) ordering.
    guidance_weight: float = 1.0
    #: Evaluate children incrementally: every expansion round runs
    #: through the array-native core (DESIGN.md §13) over per-vertex
    #: delta state, with delta LQN solves chained off the parent's
    #: solver state.  Produces bit-identical outcomes to the full path
    #: (``False``), which re-derives every quantity from scratch per
    #: child and exists as the equivalence/benchmark reference.
    incremental: bool = True
    #: Watchdog deadline on *measured* search wall time, in seconds.
    #: ``None`` (the default) leaves the watchdog off and the search
    #: path untouched.  When set, the expansion loop checks the clock
    #: cooperatively once per expansion and before each round's cost
    #: predictions; on expiry the search aborts to its best incumbent
    #: (or the null plan) and flags the outcome ``deadline_aborted``.
    #: Unlike the virtual Eq. 3 accounting, this bound is wall-clock by
    #: design — it exists to stop a *real* runaway search — so
    #: deadline-aborted outcomes are inherently platform-dependent and
    #: the watchdog is opt-in.
    deadline_seconds: Optional[float] = None
    #: Search backend (DESIGN.md §14): one of :data:`STRATEGY_KINDS`.
    #: ``None`` consults the ``MISTRAL_SEARCH_STRATEGY`` environment
    #: variable and falls back to ``"astar"`` — the exact A* loop.
    #: ``"polish"`` is the deterministic anytime backend: it keeps a
    #: feasible incumbent at all times and returns it on any abort
    #: (deadline watchdog included).
    strategy: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_expansions < 1:
            raise ValueError("max_expansions must be >= 1")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive (or None)")
        if self.strategy is not None and self.strategy not in STRATEGY_KINDS:
            raise ValueError(
                f"strategy must be one of {STRATEGY_KINDS} (or None)"
            )


@dataclass
class SearchOutcome:
    """Result of one adaptation search."""

    actions: tuple[AdaptationAction, ...]
    final_configuration: Configuration
    predicted_utility: float
    ideal: PerfPwrResult
    expansions: int
    decision_seconds: float
    wall_seconds: float
    pruning_activated: bool
    #: The search proved its plan optimal: an A* that popped a
    #: terminal without ever pruning, or the early return when the
    #: current configuration is already ideal.  A hard stop, the
    #: expansion cap, the watchdog and every polish walk leave it
    #: ``False``.
    optimal: bool
    #: The watchdog expired mid-search and the outcome is the best
    #: incumbent found before the deadline (still a valid, executable
    #: plan — possibly null).  Always ``False`` when
    #: ``SearchSettings.deadline_seconds`` is unset.
    deadline_aborted: bool = False
    #: :class:`~repro.telemetry.provenance.DecisionProvenance` when
    #: telemetry + provenance collection were on for this search, else
    #: ``None``.  Observational only — excluded from the bit-identity
    #: contract along with the measured wall fields.
    provenance: Optional[object] = None
    #: Name of the :data:`STRATEGY_KINDS` backend that produced this
    #: outcome (set by the dispatching ``AdaptationSearch.search``).
    strategy: str = "astar"

    @property
    def is_null(self) -> bool:
        """Whether the search decided to keep the current configuration."""
        return not self.actions


@dataclass(slots=True)
class _Vertex:
    """One search vertex (slotted: one search allocates tens of
    thousands of these, and the per-instance dict is pure overhead)."""

    configuration: Configuration
    actions: tuple[AdaptationAction, ...]
    accrued: float  # sum of d(a) * transient utility rate
    elapsed: float  # sum of action durations D
    utility: float = 0.0  # true value: bound (intermediate) or Eq. 3 (terminal)
    priority: float = 0.0  # heap ordering: utility minus guidance potential
    terminal: bool = False
    is_candidate: bool = False
    #: Incremental-mode delta state (None when incremental is off).
    state: "Optional[_VertexState]" = None
    #: Lazy state for array-round children: ``(parent_state, delta)``
    #: materialized into ``state`` only if the vertex is ever expanded
    #: (most children never are — ~1% of generated vertices get popped).
    pending: Optional[tuple] = None
    #: Lineage for delta utility estimation: the configuration this
    #: vertex was derived from and the VMs its action changed.
    parent_configuration: Optional[Configuration] = None
    changed_vms: frozenset[str] = frozenset()
    #: Array-core dedup key (the codec's byte image of the
    #: configuration; None on the full path).  Byte equality is
    #: configuration equality, so the open-set bookkeeping can run on
    #: keys while ``configuration`` stays lazy.
    key: Optional[bytes] = None
    #: Polish's per-vertex steady-estimate memo (the A* re-asks the
    #: estimator, whose own cache answers repeats).
    steady: Optional[SteadyEstimate] = None


#: Sentinel distinguishing "no source-host edit" from "source host
#: emptied" (None) in the single-edit candidacy fast path.
_ABSENT = object()

#: Bound on the enumeration sublist cache (an AdaptationSearch reused
#: across many searches would otherwise accumulate stale keys forever).
_ROUND_ACTION_CACHE_LIMIT = 50_000

#: The app set of a host nothing is placed on.
_NO_APPS: frozenset = frozenset()

#: No VM placed, no host powered: the base ``full_state`` builds on.
_EMPTY_CONFIGURATION = Configuration({}, ())


@dataclass
class _VertexState:
    """Per-vertex decomposed terms enabling O(changed VMs) child updates.

    The scalar quantities the search needs per child — distance to the
    ideal, cost-to-go seconds, feasibility — are all sums/counts of
    independent per-VM or per-host terms.  Storing the terms lets a
    child recompute only the entries its action touched and re-reduce;
    reductions run in the same canonical order as the full-path code,
    so the results are bit-identical (float addition of the same
    operands in the same order is deterministic).

    States are immutable by convention: children copy-and-replace, and
    actions touching no VM (null, host power) share the parent's state.
    """

    #: weights[i] * (cap - ideal_cap)**2 per catalog index.
    cap_terms: list[float]
    #: 1 if the VM sits on its ideal host (dormant matching dormant
    #: counts), else 0, per catalog index.
    host_matches: list[int]
    #: Cost-to-go seconds per catalog index (placement terms only; the
    #: host power terms are cheap set-diffs computed per vertex).
    togo_terms: list[float]
    #: Per used host: (sum of caps re-rounded onto the decimal grid the
    #: way ``Configuration.host_cpu_load`` does, guest MB, VM count) —
    #: one dict instead of three so children copy one.
    hosts: dict[str, tuple[float, int, int]]
    #: Number of used hosts violating any per-host constraint.
    bad_hosts: int
    #: Placed VMs whose cap is below the per-VM minimum.
    bad_vms: frozenset[str]


class _SearchBasis:
    """Per-search constants for the incremental vertex evaluation."""

    __slots__ = (
        "limits",
        "durations",
        "vm_ids",
        "index",
        "tiers",
        "memory",
        "weights",
        "ideal_caps",
        "ideal_placements",
        "ideal_hosts",
        "ideal_powered",
        "total",
    )

    def __init__(
        self,
        catalog: VmCatalog,
        limits: ConstraintLimits,
        ideal_configuration: Configuration,
        weights: Mapping[str, float],
        ideal_caps: Mapping[str, float],
        durations: Mapping[tuple[str, str], float],
    ) -> None:
        self.limits = limits
        self.durations = durations
        self.vm_ids = catalog.vm_ids()
        self.index = {vm_id: i for i, vm_id in enumerate(self.vm_ids)}
        self.tiers = tuple(
            catalog.get(vm_id).tier_name for vm_id in self.vm_ids
        )
        self.memory = {
            vm_id: catalog.get(vm_id).memory_mb for vm_id in self.vm_ids
        }
        self.weights = tuple(weights[vm_id] for vm_id in self.vm_ids)
        self.ideal_caps = tuple(
            ideal_caps.get(vm_id, 0.0) for vm_id in self.vm_ids
        )
        self.ideal_placements = tuple(
            ideal_configuration.placement_of(vm_id) for vm_id in self.vm_ids
        )
        self.ideal_hosts = tuple(
            placement.host_id if placement is not None else None
            for placement in self.ideal_placements
        )
        self.ideal_powered = ideal_configuration.powered_hosts
        self.total = len(self.vm_ids)

    def _host_bad(self, cpu: float, mem: int, vms: int) -> bool:
        limits = self.limits
        return (
            cpu > limits.max_total_cpu_cap + 1e-9
            or mem > limits.guest_memory_mb
            or vms > limits.max_vms_per_host
        )

    def full_state(self, configuration: Configuration) -> _VertexState:
        """Decompose a configuration from scratch (root vertices): the
        state of the empty configuration, advanced by placing every VM
        in placement order — the host entries then accumulate through
        the same ``round`` chain ``Configuration.host_cpu_load`` runs."""
        limits = self.limits
        empty = _VertexState(
            cap_terms=[
                weight * (0.0 - ideal_cap) ** 2
                for weight, ideal_cap in zip(self.weights, self.ideal_caps)
            ],
            host_matches=[
                1 if host is None else 0 for host in self.ideal_hosts
            ],
            togo_terms=[
                _togo_vm_term(
                    None,
                    ideal_placement,
                    tier,
                    self.durations,
                    limits.cpu_cap_step,
                    limits.min_vm_cpu_cap,
                )
                for ideal_placement, tier in zip(
                    self.ideal_placements, self.tiers
                )
            ],
            hosts={},
            bad_hosts=0,
            bad_vms=frozenset(),
        )
        return self.child_state(
            _EMPTY_CONFIGURATION, empty, configuration.placement_items()
        )

    def child_state(
        self,
        parent_configuration: Configuration,
        state: _VertexState,
        delta: tuple,
    ) -> _VertexState:
        """Parent state advanced past one action, in O(|delta|).

        ``delta`` is the action's :meth:`placement_delta` — the child's
        placements are read straight from it, so the child configuration
        is never consulted.
        """
        if not delta:
            return state  # null/host-power actions move no VM
        limits = self.limits
        step = limits.cpu_cap_step
        cap_terms = state.cap_terms.copy()
        host_matches = state.host_matches.copy()
        togo_terms = state.togo_terms.copy()
        hosts = state.hosts.copy()
        bad_hosts = state.bad_hosts
        bad_vms = state.bad_vms
        for vm_id, new in delta:
            i = self.index[vm_id]
            old = parent_configuration.placement_of(vm_id)
            cap = new.cpu_cap if new is not None else 0.0
            cap_terms[i] = self.weights[i] * (cap - self.ideal_caps[i]) ** 2
            host = new.host_id if new is not None else None
            host_matches[i] = 1 if host == self.ideal_hosts[i] else 0
            togo_terms[i] = _togo_vm_term(
                new,
                self.ideal_placements[i],
                self.tiers[i],
                self.durations,
                step,
                limits.min_vm_cpu_cap,
            )
            if old is not None:
                src = old.host_id
                entry = hosts[src]
                was_bad = self._host_bad(*entry)
                remaining = entry[2] - 1
                if remaining == 0:
                    del hosts[src]
                    bad_hosts -= was_bad
                else:
                    entry = (
                        round(entry[0] - old.cpu_cap, 10),
                        entry[1] - self.memory[vm_id],
                        remaining,
                    )
                    hosts[src] = entry
                    bad_hosts += self._host_bad(*entry) - was_bad
            if new is not None:
                dst = new.host_id
                entry = hosts.get(dst)
                if entry is not None:
                    was_bad = self._host_bad(*entry)
                    entry = (
                        round(entry[0] + new.cpu_cap, 10),
                        entry[1] + self.memory[vm_id],
                        entry[2] + 1,
                    )
                else:
                    was_bad = False
                    entry = (
                        round(new.cpu_cap, 10),
                        self.memory[vm_id],
                        1,
                    )
                hosts[dst] = entry
                bad_hosts += self._host_bad(*entry) - was_bad
            under_cap = new is not None and (
                new.cpu_cap < limits.min_vm_cpu_cap - 1e-9
            )
            if under_cap != (vm_id in bad_vms):
                bad_vms = (
                    bad_vms | {vm_id} if under_cap else bad_vms - {vm_id}
                )
        return _VertexState(
            cap_terms=cap_terms,
            host_matches=host_matches,
            togo_terms=togo_terms,
            hosts=hosts,
            bad_hosts=bad_hosts,
            bad_vms=bad_vms,
        )

    def child_distance(
        self,
        state: _VertexState,
        delta: tuple,
    ) -> float:
        """Weighted-Euclidean distance of a child to the ideal (cap
        term plus placement mismatch, paper §IV-B) — bit-identical to
        ``AdaptationSearch._distance`` of the child configuration, but
        computed straight from an action's placement delta: a ranking
        of every reachable child keeps only a few, so neither the child
        configuration nor its state is built for the discards."""
        cap_terms = state.cap_terms.copy()
        host_matches = state.host_matches.copy()
        for vm_id, new in delta:
            i = self.index[vm_id]
            cap = new.cpu_cap if new is not None else 0.0
            cap_terms[i] = self.weights[i] * (cap - self.ideal_caps[i]) ** 2
            host = new.host_id if new is not None else None
            host_matches[i] = 1 if host == self.ideal_hosts[i] else 0
        cap_term = sum(cap_terms)
        matches = sum(host_matches)
        total = self.total
        placement_term = 1.0 - (matches / total if total else 1.0)
        return math.sqrt(cap_term) + placement_term

    def togo_seconds(
        self, state: _VertexState, configuration: Configuration
    ) -> float:
        """Bit-identical to ``AdaptationSearch._togo_seconds``."""
        seconds = sum(state.togo_terms, 0.0)
        for _ in self.ideal_powered - configuration.powered_hosts:
            seconds += self.durations.get(("power_on", "-"), 90.0)
        for _ in configuration.powered_hosts - self.ideal_powered:
            seconds += self.durations.get(("power_off", "-"), 30.0)
        return seconds

    def is_candidate(self, state: _VertexState) -> bool:
        """Same verdict as ``Configuration.is_candidate``."""
        return state.bad_hosts == 0 and not state.bad_vms


class _SearchRun:
    """One search: what both backends compute once per control window.

    The run fixes the window's inputs — the Perf-Pwr ideal (projected
    onto the scope of a 1st-level controller), the current
    configuration's estimate and rate, the distance and cost-to-go basis
    — and owns the per-search services built on them: the watchdog
    clock, the Eq. 3 valuation of a vertex (``steady``, ``bound``,
    ``candidate_value``, the guidance potential), the single-child
    builder, the seed chains to the ideal and its alternatives, and
    ``finish``, the one funnel every outcome of either backend leaves
    through.  The A* drives a run with a frontier, an expander and an
    accountant; polish subclasses it with its walk.
    """

    #: Backend name stamped on the telemetry record.
    strategy = "astar"

    def __init__(
        self,
        search: "AdaptationSearch",
        current: Configuration,
        workloads: Mapping[str, float],
        control_window: float,
        settings: SearchSettings,
        incremental: bool,
    ) -> None:
        self.wall_start = time.perf_counter()
        self.search = search
        self.estimator = estimator = search.estimator
        self.settings = settings
        self.incremental = incremental
        self.current = current
        self.workloads = workloads
        self.wkey = estimator.workload_key(workloads)
        ideal = search.perf_pwr.optimize(workloads)
        if search.scope_hosts is not None:
            ideal = search._project_ideal(current, ideal, workloads)
        self.ideal = ideal
        self.ideal_rate = ideal.ideal_rate
        self.window = max(control_window, 0.0)
        self.current_estimate = estimator.estimate(
            current, workloads, key=self.wkey
        )
        self.current_rate = self.current_estimate.total_rate
        # Watchdog state: a deadline of None keeps every check off the
        # hot path (single ``is not None`` test per expansion).
        self.deadline = settings.deadline_seconds
        self.deadline_hit = False
        # Instrumentation tallies (cheap unconditional ints; flushed to
        # the telemetry registry by ``finish`` only when enabled).
        self.generated = 0
        self.pruned = 0
        self.candidates = 0
        # Provenance + phase profiling ride along only while telemetry
        # is on: with it off neither object exists and every hook
        # stays a single ``is not None`` test (or is never reached).
        self.collector = (
            ProvenanceCollector()
            if _telemetry.enabled and _telemetry.provenance
            else None
        )
        self.profile = _phases.PhaseProfile() if _telemetry.enabled else None
        if self.profile is not None:
            _phases.set_profile(self.profile)
        #: The current configuration is already ideal: the search ends
        #: here (``finish_early``) and the basis below is never built.
        self.settled = ideal.configuration == current
        if self.settled:
            return
        self.ideal_weights, self.ideal_caps = search._ideal_distance_basis(
            ideal
        )
        # Guidance potential: estimated seconds of adaptation still
        # needed to reach the ideal configuration, priced at the gap
        # between the ideal rate and the rate accrued while adapting.
        # This tightens the cost-to-go of intermediates (the raw ideal
        # bound assumes instant, free adaptation) so the search
        # converges instead of flooding the near-zero-cost frontier.
        self.durations = search._togo_durations(workloads)
        self.rate_gap = settings.togo_discount * max(
            self.ideal_rate - self.current_rate,
            0.1 * abs(self.ideal_rate),
            1e-9,
        )
        self.basis: Optional[_SearchBasis] = None
        if incremental:
            estimator.prime(current, workloads, key=self.wkey)
            self.basis = _SearchBasis(
                search.catalog,
                search.limits,
                ideal.configuration,
                self.ideal_weights,
                self.ideal_caps,
                self.durations,
            )

    def out_of_time(self) -> bool:
        """Cooperative watchdog check (one clock read; no deadline →
        no reads at all, keeping runs deterministic)."""
        if self.deadline is None or self.deadline_hit:
            return self.deadline_hit
        if time.perf_counter() - self.wall_start >= self.deadline:
            self.deadline_hit = True
        return self.deadline_hit

    def estimate_batch(self, configurations: list) -> None:
        """Steady-solve ``configurations`` through the batched LQN path
        (``LqnSolver.solve_batch``), ``BATCH_SIZE`` at a time — values
        identical to one-by-one estimates, which then hit the cache."""
        for start in range(0, len(configurations), BATCH_SIZE):
            self.estimator.estimate_batch(
                configurations[start : start + BATCH_SIZE],
                self.workloads,
                key=self.wkey,
            )

    # -- valuation -------------------------------------------------------

    def steady(self, vertex: _Vertex) -> SteadyEstimate:
        """Steady estimate via the delta path when lineage allows."""
        if self.incremental and vertex.parent_configuration is not None:
            return self.estimator.estimate_child(
                vertex.parent_configuration,
                vertex.configuration,
                vertex.changed_vms,
                self.workloads,
                key=self.wkey,
            )
        return self.estimator.estimate(
            vertex.configuration, self.workloads, key=self.wkey
        )

    def bound(self, vertex: _Vertex) -> float:
        """Admissible Eq. 3 bound (ideal rate over the remainder)."""
        remaining = max(0.0, self.window - vertex.elapsed)
        return remaining * self.ideal_rate + vertex.accrued

    def candidate_value(self, vertex: _Vertex) -> float:
        """True Eq. 3 value of committing to this candidate."""
        remaining = max(0.0, self.window - vertex.elapsed)
        return remaining * self.steady(vertex).total_rate + vertex.accrued

    def togo_penalty(self, vertex: _Vertex) -> float:
        """The guidance potential of a vertex: its cost-to-go seconds
        priced at the discounted rate gap."""
        if self.basis is not None:
            seconds = self.basis.togo_seconds(
                vertex.state, vertex.configuration
            )
        else:
            seconds = self.search._togo_seconds(
                vertex.configuration,
                self.ideal.configuration,
                self.durations,
            )
        return self.settings.guidance_weight * seconds * self.rate_gap

    def prioritize(self, vertex: _Vertex) -> None:
        """Set priority: intermediates pay the guidance potential.

        The potential is a *constant* per configuration (it must not
        depend on the path's elapsed time, or cycles of cheap actions
        could raise their own priority by shrinking the remaining
        window).
        """
        if vertex.terminal:
            vertex.priority = vertex.utility
        else:
            vertex.priority = vertex.utility - self.togo_penalty(vertex)

    # -- children --------------------------------------------------------

    def make_root(self) -> _Vertex:
        """The current configuration as a vertex (no actions yet)."""
        current = self.current
        search = self.search
        return _Vertex(
            configuration=current,
            actions=(),
            accrued=0.0,
            elapsed=0.0,
            state=(
                self.basis.full_state(current)
                if self.basis is not None
                else None
            ),
            is_candidate=current.is_candidate(search.catalog, search.limits),
        )

    def accrual(
        self,
        parent: _Vertex,
        action: AdaptationAction,
        parent_steady: SteadyEstimate,
    ) -> tuple[float, float]:
        """``(accrued, elapsed)`` of ``parent`` extended by ``action``:
        the Cost Manager's transient rates over the action's duration."""
        predicted = self.search.cost_manager.predict(
            action, parent.configuration, self.workloads
        )
        perf_rate, power_rate = self.estimator.transient_rates(
            parent_steady,
            self.workloads,
            predicted.rt_delta,
            predicted.power_delta_watts,
        )
        # Accrual is truncated at the window's end and capped at the
        # ideal rate: otherwise plans longer than the window (or
        # transient rates above the heuristic) would make cyclic action
        # sequences look profitable.
        effective = min(
            predicted.duration, max(0.0, self.window - parent.elapsed)
        )
        transient_rate = min(perf_rate + power_rate, self.ideal_rate)
        return (
            parent.accrued + effective * transient_rate,
            parent.elapsed + predicted.duration,
        )

    def child(
        self,
        parent: _Vertex,
        action: AdaptationAction,
        delta: tuple,
        parent_steady: SteadyEstimate,
    ) -> Optional[_Vertex]:
        """The single-child builder of the incremental path: ``parent``
        advanced by ``action``, whose validated placement ``delta``
        yields the child configuration directly (one ``replace``/
        ``remove``, skipping ``apply``'s duplicate validation pass) and
        the child's delta state.  ``parent_steady`` is hoisted to the
        caller.  Frontier fields (key, utility, priority) are the
        A*'s to add."""
        configuration = parent.configuration
        search = self.search
        if len(delta) == 1:
            ((vm_id, placement),) = delta
            new_config = (
                configuration.remove(vm_id)
                if placement is None
                else configuration.replace(vm_id, placement)
            )
        else:
            # No-VM actions (host power) go through apply.
            try:
                new_config = action.apply(
                    configuration, search.catalog, search.limits
                )
            except ActionError:
                return None
        state = self.basis.child_state(configuration, parent.state, delta)
        accrued, elapsed = self.accrual(parent, action, parent_steady)
        return _Vertex(
            configuration=new_config,
            actions=parent.actions + (action,),
            accrued=accrued,
            elapsed=elapsed,
            is_candidate=self.basis.is_candidate(state),
            state=state,
            parent_configuration=configuration,
            changed_vms=frozenset(vm_id for vm_id, _ in delta),
        )

    def seed_chains(
        self,
        root: _Vertex,
        build: Callable[[_Vertex, AdaptationAction], Optional[_Vertex]],
        visit: Callable[[_Vertex], None],
    ) -> list[list[_Vertex]]:
        """Walk the planner's direct transition plans from ``root`` to
        the ideal configuration and to each per-host-count Perf-Pwr
        alternative, keeping each plan's valid prefix.

        ``build(parent, action)`` makes each step's child (``None`` ends
        the chain) and ``visit`` sees every child as soon as it is
        built.  The chains install good incumbents — full and partial
        adaptations — that either backend must beat.  Returns the
        non-empty chains, root excluded.
        """
        chains: list[list[_Vertex]] = []
        if not self.settings.seed_with_plan:
            return chains
        search = self.search
        ideal = self.ideal.configuration
        targets = [ideal] + [
            alternative.configuration
            for alternative in self.ideal.alternatives
            if alternative.configuration != ideal
        ]
        for target in targets:
            vertex = root
            chain: list[_Vertex] = []
            for action in plan_transition(
                self.current, target, search.catalog, search.limits
            ):
                if action.kind not in self.settings.allowed_kinds:
                    break  # keep the valid prefix only
                vertex = build(vertex, action)
                if vertex is None:
                    break
                chain.append(vertex)
                visit(vertex)
            if chain:
                chains.append(chain)
        return chains

    # -- outcome ---------------------------------------------------------

    def finish_early(self) -> SearchOutcome:
        """The outcome of a settled run: keep the current configuration."""
        return self.finish(
            (),
            self.current,
            self.window * self.current_rate,
            0,
            0.0,
            optimal=True,
            early_return=True,
        )

    def finish(
        self,
        chain: tuple[AdaptationAction, ...],
        configuration: Configuration,
        utility: float,
        expansions: int,
        virtual_seconds: float,
        *,
        pruning: bool = False,
        optimal: bool = False,
        early_return: bool = False,
        stats: Optional[dict] = None,
        open_set: tuple = (0, None),
    ) -> SearchOutcome:
        """Construct the outcome — every return path of either backend
        funnels through here so ``wall_seconds`` is always measured
        against the ``wall_start`` taken at entry (the early return
        included), and so one search emits exactly one telemetry
        record.  ``chain`` is the winner's *full* chain (``NullAction``
        included) for the provenance replay; ``stats`` are the
        backend's own tallies and ``open_set`` the frontier's size and
        best priority when the watchdog fired."""
        if self.profile is not None:
            _phases.set_profile(None)
        outcome = SearchOutcome(
            actions=tuple(
                action
                for action in chain
                if not isinstance(action, NullAction)
            ),
            final_configuration=configuration,
            predicted_utility=utility,
            ideal=self.ideal,
            expansions=expansions,
            decision_seconds=max(PER_VERTEX_SECONDS, virtual_seconds),
            wall_seconds=time.perf_counter() - self.wall_start,
            pruning_activated=pruning,
            optimal=optimal,
            deadline_aborted=self.deadline_hit,
        )
        if _telemetry.enabled:
            summary = self._record(outcome, early_return, stats or {})
            if self.collector is not None:
                if self.deadline_hit:
                    self.collector.note_deadline(*open_set)
                outcome.provenance = self._provenance(
                    outcome, chain, summary
                )
        return outcome

    def _record(
        self, outcome: SearchOutcome, early_return: bool, stats: dict
    ) -> dict:
        """The search's counters and its ``search.run`` and
        ``profile.phases`` events; returns the run summary the
        provenance record repeats."""
        registry = _telemetry.registry
        registry.counter("search.runs").inc()
        if outcome.deadline_aborted:
            registry.counter("watchdog.deadline_aborts").inc()
            _telemetry.tracer.event(
                "watchdog.deadline_abort",
                deadline=self.deadline,
                wall_seconds=outcome.wall_seconds,
                expansions=outcome.expansions,
                actions=len(outcome.actions),
            )
        registry.counter("search.expansions").inc(outcome.expansions)
        registry.counter("search.children_generated").inc(self.generated)
        registry.counter("search.children_pruned").inc(self.pruned)
        registry.counter("search.candidates").inc(self.candidates)
        if early_return:
            registry.counter("search.early_returns").inc()
        for key, value in stats.items():
            if value > 0:
                name = f"search.strategy.{self.strategy}.{key}"
                registry.counter(name).inc(value)
        # How far the admissible bound over-estimated the utility the
        # committed plan actually promises.
        registry.gauge("search.heuristic_gap").set(
            self.window * self.ideal_rate - outcome.predicted_utility
        )
        summary = {
            "self_aware": self.settings.self_aware,
            "incremental": self.incremental,
            "expansions": outcome.expansions,
            "children_generated": self.generated,
            "children_pruned": self.pruned,
            "candidates": self.candidates,
            "pruning_activated": outcome.pruning_activated,
            "decision_seconds": outcome.decision_seconds,
            "optimal": outcome.optimal,
            "early_return": early_return,
        }
        _telemetry.tracer.event(
            "search.run",
            dur=outcome.wall_seconds,
            predicted_utility=outcome.predicted_utility,
            actions=len(outcome.actions),
            **summary,
        )
        if self.profile is not None and self.profile:
            _telemetry.tracer.event(
                "profile.phases",
                phases=self.profile.snapshot(),
                wall_seconds=outcome.wall_seconds,
                expansions=outcome.expansions,
            )
        return {
            **summary,
            "deadline_aborted": outcome.deadline_aborted,
            "wall_seconds": outcome.wall_seconds,
            "strategy": self.strategy,
            **stats,
        }

    def _provenance(
        self, outcome: SearchOutcome, chain: tuple, summary: dict
    ) -> object:
        """The decision's provenance record, its utility decomposed by
        an independent replay of ``chain``."""
        search = self.search
        predicted = outcome.predicted_utility
        try:
            totals, per_action = plan_breakdown(
                self.estimator,
                search.catalog,
                search.limits,
                search.cost_manager,
                self.workloads,
                self.wkey,
                self.window,
                self.ideal_rate,
                self.current,
                chain,
            )
        except Exception:
            # Provenance must never take a decision down; fall back to
            # a coarse, un-decomposed record.
            totals = {
                "steady": predicted,
                "transient": 0.0,
                "total": predicted,
            }
            per_action = []
        baseline = self.window * self.current_rate
        bound = self.window * self.ideal_rate
        utility = {
            **totals,
            "predicted_utility": predicted,
            "baseline_utility": baseline,
            "delta_vs_current": predicted - baseline,
            "ideal_bound": bound,
            "heuristic_gap": bound - predicted,
        }
        return self.collector.build(
            utility=utility,
            chosen_actions=tuple(
                type(action).__name__ for action in outcome.actions
            ),
            predicted_utility=predicted,
            search=summary,
            per_action=per_action,
        )


class _Frontier:
    """The A* open set (Algorithm 1's priority queue).

    A max-heap on vertex priority whose ties break toward deeper
    vertices (then recency), so plans complete instead of re-exploring
    orderings of the same commuting actions.  Entries are deduplicated
    on ``(key, terminal)``: the key is the codec's byte image on the
    array path (byte equality == configuration equality, and bytes hash
    much faster) and the configuration itself on the full path; within
    one search every vertex uses the same scheme.  Superseded entries
    stay in the heap and are skipped when popped.  Array-round children
    arrive as flat payload tuples (see ``_Expander.emit_pass``) and
    become vertices only if they are ever popped.
    """

    __slots__ = ("run", "heap", "best_priority", "best_terminal", "counter")

    def __init__(self, run: _SearchRun) -> None:
        self.run = run
        self.heap: list[tuple] = []
        self.best_priority: dict = {}
        #: The incumbent: the best terminal pushed so far.
        self.best_terminal: Optional[_Vertex] = None
        self.counter = itertools.count()

    def push(self, vertex: _Vertex) -> None:
        key = (
            vertex.key if vertex.key is not None else vertex.configuration,
            vertex.terminal,
        )
        known = self.best_priority.get(key)
        if known is not None and known >= vertex.priority - 1e-12:
            return
        self.best_priority[key] = vertex.priority
        heapq.heappush(
            self.heap,
            (
                -vertex.priority,
                -len(vertex.actions),
                -next(self.counter),
                vertex,
            ),
        )
        best = self.best_terminal
        if vertex.terminal and (best is None or vertex.utility > best.utility):
            self.best_terminal = vertex

    def push_with_terminal(self, vertex: _Vertex) -> None:
        """Push a vertex and, for a candidate, its terminal twin — the
        "null action" whose pop commits to the candidate at its true
        Eq. 3 value."""
        self.push(vertex)
        if vertex.is_candidate:
            run = self.run
            run.candidates += 1
            terminal = _Vertex(
                configuration=vertex.configuration,
                actions=vertex.actions,
                accrued=vertex.accrued,
                elapsed=vertex.elapsed,
                terminal=True,
                is_candidate=True,
                state=vertex.state,
                parent_configuration=vertex.parent_configuration,
                changed_vms=vertex.changed_vms,
                key=vertex.key,
            )
            terminal.utility = run.candidate_value(terminal)
            if run.collector is not None:
                run.collector.note_candidate(
                    terminal.utility, terminal.actions
                )
            terminal.priority = terminal.utility
            self.push(terminal)

    def push_round(self, children: list, rank: int) -> None:
        """Push one expansion round's children.

        Lazy payload tuples go through an inlined ``push`` (same dedup
        rule, same counter discipline, same heap shape — the tie-breaker
        ``rank`` is the children's negated action count, a round
        constant); real vertices take the full path.  Candidates are
        never lazy, so terminal twins are not skipped.
        """
        best_priority = self.best_priority
        heap = self.heap
        counter = self.counter
        with _phases.phase("frontier"):
            for child in children:
                if type(child) is tuple:
                    pkey = (child[0], False)
                    known = best_priority.get(pkey)
                    priority = child[1]
                    if known is not None and known >= priority - 1e-12:
                        continue
                    best_priority[pkey] = priority
                    heapq.heappush(
                        heap, (-priority, rank, -next(counter), child)
                    )
                else:
                    self.push_with_terminal(child)

    def pop(self) -> Optional[_Vertex]:
        """The best live vertex, its configuration materialized, or
        ``None`` once the open set is empty."""
        heap = self.heap
        best_priority = self.best_priority
        while heap:
            neg_priority, _, _, vertex = heapq.heappop(heap)
            if type(vertex) is tuple:
                # Lazy array-round child: check staleness on the byte
                # key first so stale pops never pay materialization.
                if (
                    best_priority.get((vertex[0], False), -math.inf)
                    > -neg_priority + 1e-12
                ):
                    continue  # stale heap entry
                vertex = self._materialize(vertex)
            else:
                key = (
                    vertex.key
                    if vertex.key is not None
                    else vertex.configuration,
                    vertex.terminal,
                )
                if best_priority.get(key, -math.inf) > -neg_priority + 1e-12:
                    continue  # stale heap entry
            return vertex
        return None

    @staticmethod
    def _materialize(payload: tuple) -> _Vertex:
        """A popped lazy child becomes a real vertex.

        The payload carries exactly what the array round computed for
        the child; the vertex built here — its configuration derived
        from the parent's by the action's one-VM delta — is
        field-for-field the one the eager path would have built.
        Stale pops never pay this.
        """
        (
            key_bytes,
            priority,
            utility,
            accrued,
            elapsed,
            action,
            delta,
            lineage,
        ) = payload
        parent_config, parent_actions, parent_state = lineage
        ((vm_id, placement),) = delta
        child = _Vertex(
            configuration=(
                parent_config.remove(vm_id)
                if placement is None
                else parent_config.replace(vm_id, placement)
            ),
            actions=parent_actions + (action,),
            accrued=accrued,
            elapsed=elapsed,
            is_candidate=False,
            state=None,
            pending=(parent_state, delta),
            parent_configuration=parent_config,
            changed_vms=frozenset((vm_id,)),
            key=key_bytes,
        )
        child.utility = utility
        child.priority = priority
        return child


class _Expander:
    """Generates the children of an A* vertex, one expansion round at a
    time.

    Enumeration (``AdaptationSearch._enumerate_actions``) lists the
    applicable actions.  The incremental path then runs the array round
    (DESIGN.md §13): validity, ranking and the per-child reductions run
    as matrix kernels over the round plan's pre-encoded columns,
    ``predict_round`` predicts costs for the selected (pre-validated)
    actions only, and three passes turn the predictions into children —
    ``transient_pass`` (transient utility rates), ``accrual_pass``
    (Eq. 3 accrual, bound and priority) and ``emit_pass`` (lazy payloads
    and eager vertices).  The ``incremental=False`` path, ``full_round``,
    re-derives every quantity from scratch per child; it is the
    reference the bit-identity tests compare against.
    """

    def __init__(self, run: _SearchRun) -> None:
        self.run = run
        self.search = search = run.search
        self.basis = basis = run.basis
        # Array-core setup: every configuration the search can reach is
        # derived from the roots below by actions on this search's own
        # hosts, so a codec universe covering the roots covers the
        # whole search.
        self.codec = None
        self.abasis: Optional[ArrayBasis] = None
        if basis is not None:
            statics = search._ensure_array_statics(
                (run.current, run.ideal.configuration)
                + tuple(
                    alternative.configuration
                    for alternative in run.ideal.alternatives
                )
            )
            self.codec = statics.codec
            self.abasis = ArrayBasis(statics, basis)
        # Point utility-rate lookups memoized by input value; scoped to
        # this search because they fix (workloads, utility model).
        self.util_memo: dict = {}
        # Sparse rt-delta views of PredictedCost objects for the array
        # rounds, keyed by id(); each entry holds the object itself so
        # ids cannot be recycled while the memo lives.  Scoped with
        # ``util_memo``: entries bake in this search's workload vector.
        self.workload_items = list(run.workloads.items())
        self.workload_pos = {
            app: (i, rate) for i, (app, rate) in enumerate(self.workload_items)
        }
        self.transient_sparse: dict = {}
        # Search-level prediction memo for array rounds.  A prediction
        # is a pure function of (workloads, action, affected context):
        # ``CostManager.predict`` reads the configuration only through
        # the affected applications and the affected-host count.  So
        # within one search (fixed workloads) it can be keyed by the
        # action's identity plus, for placement actions, the affected
        # hosts' app sets.  Values hold the action object, pinning its
        # ``id`` for the memo's lifetime.
        self.predict_fast: dict = {}

    # -- root and seeds --------------------------------------------------

    def root(self) -> _Vertex:
        """The run's root with its frontier fields."""
        run = self.run
        root = run.make_root()
        if self.codec is not None:
            root.key = self.codec.encode_key(root.configuration)
        root.utility = run.bound(root)
        run.prioritize(root)
        return root

    def seed_child(
        self, parent: _Vertex, action: AdaptationAction
    ) -> Optional[_Vertex]:
        """One seed-plan step: the child for ``action``, or None if it
        is inapplicable.  On the incremental path the action's
        placement delta both validates the action and yields the child
        (``_SearchRun.child``)."""
        run = self.run
        parent_steady = run.steady(parent)
        if self.basis is None:
            return self.full_child(parent, action, parent_steady)
        search = self.search
        try:
            delta = action.placement_delta(
                parent.configuration, search.catalog, search.limits
            )
        except ActionError:
            return None
        child = run.child(parent, action, delta, parent_steady)
        if child is not None:
            child.key = self.codec.encode_key(child.configuration)
            child.utility = run.bound(child)
            run.prioritize(child)
        return child

    def full_child(
        self,
        parent: _Vertex,
        action: AdaptationAction,
        parent_steady: SteadyEstimate,
        new_config: Optional[Configuration] = None,
    ) -> Optional[_Vertex]:
        """Child vertex for one action on the full-evaluation path, or
        None if inapplicable.  ``parent_steady`` is hoisted to the
        caller (one estimate per expansion, not one per child); the
        pruned round passes its already-applied ``new_config`` through
        so nothing is computed twice."""
        search = self.search
        run = self.run
        if new_config is None:
            try:
                new_config = action.apply(
                    parent.configuration, search.catalog, search.limits
                )
            except ActionError:
                return None
        accrued, elapsed = run.accrual(parent, action, parent_steady)
        child = _Vertex(
            configuration=new_config,
            actions=parent.actions + (action,),
            accrued=accrued,
            elapsed=elapsed,
            is_candidate=new_config.is_candidate(
                search.catalog, search.limits
            ),
            parent_configuration=parent.configuration,
        )
        child.utility = run.bound(child)
        run.prioritize(child)
        return child

    # -- rounds ----------------------------------------------------------

    def expand(
        self, vertex: _Vertex, pruning: bool
    ) -> tuple[list, Optional[int]]:
        """One expansion round: ``(children, ranked)``.  ``ranked`` is
        the number of children a pruned round generated and ranked by
        distance before keeping the closest (``None`` for a full-width
        round) — the accountant charges the two kinds differently."""
        with _phases.phase("enumerate"):
            blocks: Optional[list] = [] if self.abasis is not None else None
            possible = self.search._enumerate_actions(
                vertex.configuration, self.run.ideal_caps, blocks_out=blocks
            )
        parent_steady = self.run.steady(vertex)
        if blocks is None:
            return self.full_round(vertex, possible, parent_steady, pruning)
        return self.array_round(
            vertex, possible, blocks, parent_steady, pruning
        )

    def full_round(
        self,
        vertex: _Vertex,
        possible: list,
        parent_steady: SteadyEstimate,
        pruning: bool,
    ) -> tuple[list, Optional[int]]:
        """The full-evaluation round (``incremental=False``)."""
        children: list[_Vertex] = []
        if not (pruning and len(possible) > 1):
            for action in possible:
                child = self.full_child(vertex, action, parent_steady)
                if child is not None:
                    children.append(child)
            return children, None
        # Pruned expansion: generate configurations cheaply, keep the
        # 5% closest to the ideal, and only fully evaluate those — the
        # paper's "decreasing search width of each vertex".
        search = self.search
        run = self.run
        reachable: list[tuple] = []
        for order, action in enumerate(possible):
            try:
                new_config = action.apply(
                    vertex.configuration, search.catalog, search.limits
                )
            except ActionError:
                continue
            distance = search._distance(
                new_config, run.ideal_caps, run.ideal_weights, run.ideal
            )
            reachable.append((distance, order, action, new_config))
        reachable.sort(key=lambda item: (item[0], item[1]))
        keep = max(1, math.ceil(PRUNE_FRACTION * len(reachable)))
        if len(reachable) > keep:
            run.pruned += len(reachable) - keep
            if run.collector is not None:
                run.collector.note_pruned(
                    len(reachable) - keep, reachable[keep][0]
                )
        with _phases.phase("merge"):
            for _, _, action, new_config in reachable[:keep]:
                child = self.full_child(
                    vertex, action, parent_steady, new_config=new_config
                )
                if child is not None:
                    children.append(child)
        return children, len(reachable)

    def array_round(
        self,
        vertex: _Vertex,
        possible: list,
        blocks: list,
        parent_steady: SteadyEstimate,
        pruning: bool,
    ) -> tuple[list, Optional[int]]:
        """The array round (DESIGN.md §13): children in enumeration
        order, with every per-child reduction read off the plan's
        precomputed columns — the same float values the single-child
        builders compute one child at a time."""
        run = self.run
        search = self.search
        abasis = self.abasis
        basis = self.basis
        state = self.vertex_state(vertex)
        configuration = vertex.configuration
        plan_cache = search._round_plan_cache
        plan_key = tuple(map(id, blocks))
        plan = plan_cache.get(plan_key)
        if plan is None:
            if len(plan_cache) >= _ROUND_ACTION_CACHE_LIMIT:
                plan_cache.clear()
            plan = RoundPlan(blocks, len(possible))
            plan_cache[plan_key] = plan
        counts = (
            replica_tier_counts(search.catalog, configuration)
            if plan.remove_checks
            else None
        )
        valid_idx = np.flatnonzero(plan.valid_mask(counts))
        n_valid = valid_idx.size
        values = abasis.round_values(plan)
        parent_rows = abasis.parent_rows(vertex.key)
        if _telemetry.enabled:
            _telemetry.registry.counter("solver.array_rounds").inc()
        ranked = None
        if pruning and len(possible) > 1:
            ranked = n_valid
            dist_full = abasis.distances(state, plan, values)
            # Stable argsort over the valid columns ranks exactly like
            # the serial sort by (distance, enumeration order).
            order = np.argsort(dist_full[valid_idx], kind="stable")
            keep = max(1, math.ceil(PRUNE_FRACTION * n_valid))
            if n_valid > keep:
                run.pruned += n_valid - keep
                if run.collector is not None:
                    run.collector.note_pruned(
                        n_valid - keep,
                        float(dist_full[valid_idx][order[keep]]),
                    )
            sel = valid_idx[order[:keep]]
            actions_sel = [possible[k] for k in sel.tolist()]
        else:
            sel = valid_idx
            actions_sel = (
                possible
                if n_valid == plan.n
                else [possible[k] for k in sel.tolist()]
            )
        predictions = self.predict_round(configuration, actions_sel)
        children: list = []
        with _phases.phase("merge"):
            if sel.size and predictions:
                n_on = len(basis.ideal_powered - configuration.powered_hosts)
                n_off = len(configuration.powered_hosts - basis.ideal_powered)
                togo_list = abasis.sel_togo(
                    state, plan, sel, values, n_on, n_off
                )
                # Kernel-versus-scalar dispatch: below ~2 dozen children
                # the integer-replay kernel's fixed numpy overhead loses
                # to the per-child ``child_candidate`` (same verdicts).
                cand_vec = (
                    abasis.candidacy(state, plan, sel, parent_rows)
                    if sel.size >= 24
                    else None
                )
                keys = abasis.child_keys(plan, sel, parent_rows, vertex.key)
                durations, rates = self.transient_pass(
                    predictions, parent_steady
                )
                children = self.emit_pass(
                    vertex,
                    state,
                    plan.deltas,
                    sel,
                    actions_sel,
                    keys,
                    cand_vec.tolist() if cand_vec is not None else None,
                    self.accrual_pass(vertex, durations, rates, togo_list),
                )
        self.warm_candidates(vertex, children)
        return children, ranked

    def transient_pass(
        self, predictions: list, parent_steady: SteadyEstimate
    ) -> tuple[list, list]:
        """Pass 1 — each child's action duration and transient (perf +
        power) utility rate, through a per-round memo (predictions are
        interned, so distinct ids are few).

        ``estimator.transient_rates`` unrolled with the search's
        ``util_memo``: the parent's base perf rate is a fixed
        left-to-right sum over the workload order, so the per-child sum
        restarts from the prefix before the first app the prediction
        perturbs and replays the identical float additions from there —
        bit-identical by construction, without the full per-app loop
        for the common sparse ``rt_delta``.
        """
        workload_items = self.workload_items
        util_memo = self.util_memo
        transient_sparse = self.transient_sparse
        utility = self.run.estimator.utility
        transient_memo: dict = {}
        memo_get = transient_memo.get
        app_rates = parent_steady.app_perf_rates
        base_rts = parent_steady.response_times
        base_power_rate = parent_steady.power_rate
        parent_watts = parent_steady.watts
        n_apps = len(workload_items)
        base_rates = [0.0] * n_apps
        prefix = [0.0] * (n_apps + 1)
        acc = 0.0
        for i, (app, _rate) in enumerate(workload_items):
            prefix[i] = acc
            rate = app_rates[app]
            base_rates[i] = rate
            acc = acc + rate
        prefix[n_apps] = acc
        util_get = util_memo.get
        sparse_get = transient_sparse.get
        pos_get = self.workload_pos.get
        perf_rate_of = utility.perf_utility_rate
        power_rate_of = utility.power_utility_rate
        n_sel = len(predictions)
        dur_l = [0.0] * n_sel
        trate_l = [0.0] * n_sel
        for j, predicted in enumerate(predictions):
            tkey = id(predicted)
            rates = memo_get(tkey)
            if rates is None:
                sparse = sparse_get(tkey)
                if sparse is None:
                    # Walk the (small) rt_delta dict, not the whole
                    # workload vector; sorting by position restores the
                    # workload-order iteration ``transient_rates`` uses
                    # (positions are unique per app).
                    touched = []
                    for app, rt_d in predicted.rt_delta.items():
                        if rt_d != 0.0:
                            pos = pos_get(app)
                            if pos is not None:
                                touched.append((pos[0], app, pos[1], rt_d))
                    touched.sort()
                    transient_sparse[tkey] = sparse = (
                        predicted, tuple(touched),
                    )
                entries = sparse[1]
                if not entries:
                    perf_rate = prefix[n_apps]
                else:
                    k = entries[0][0]
                    acc = prefix[k]
                    for pos, app, rate, rt_d in entries:
                        while k < pos:
                            acc = acc + base_rates[k]
                            k += 1
                        rt_after = base_rts[app] + rt_d
                        mkey = (app, rt_after)
                        value = util_get(mkey)
                        if value is None:
                            value = perf_rate_of(app, rate, rt_after)
                            util_memo[mkey] = value
                        acc = acc + value
                        k += 1
                    while k < n_apps:
                        acc = acc + base_rates[k]
                        k += 1
                    perf_rate = acc
                power_delta = predicted.power_delta_watts
                if power_delta == 0.0:
                    power_rate = base_power_rate
                else:
                    watts_after = parent_watts + power_delta
                    pkey = ("", watts_after)
                    power_rate = util_get(pkey)
                    if power_rate is None:
                        power_rate = power_rate_of(watts_after)
                        util_memo[pkey] = power_rate
                transient_memo[tkey] = rates = (perf_rate, power_rate)
            dur_l[j] = predicted.duration
            trate_l[j] = rates[0] + rates[1]
        return dur_l, trate_l

    def accrual_pass(
        self, vertex: _Vertex, dur_l: list, trate_l: list, togo_list: list
    ) -> tuple[list, list, list, list]:
        """Pass 2 — the per-child scalar chains: ``(elapsed, accrued,
        utility, priority)`` lists, ``bound`` and the priority inlined
        (identical arithmetic).

        Wide rounds run them as elementwise array ops: each lane replays
        the exact scalar expressions (min -> conditional assignment,
        where -> conditional zero), and numpy's elementwise +,-,*,minimum
        are the same IEEE double operations — bit-identical per child.
        Narrow (pruned) rounds keep the scalar loop, which beats the
        kernels' fixed setup there.
        """
        run = self.run
        window = run.window
        ideal_rate = run.ideal_rate
        rate_gap = run.rate_gap
        guidance_weight = run.settings.guidance_weight
        parent_accrued = vertex.accrued
        parent_elapsed = vertex.elapsed
        remaining_window = max(0.0, window - parent_elapsed)
        n_sel = len(dur_l)
        if n_sel >= 24:
            dur_a = np.asarray(dur_l)
            eff_a = np.minimum(dur_a, remaining_window)
            trate_a = np.minimum(np.asarray(trate_l), ideal_rate)
            elapsed_a = parent_elapsed + dur_a
            accrued_a = parent_accrued + eff_a * trate_a
            remaining_a = window - elapsed_a
            utility_a = (
                np.where(remaining_a > 0.0, remaining_a, 0.0) * ideal_rate
                + accrued_a
            )
            prio_a = (
                utility_a - guidance_weight * np.asarray(togo_list) * rate_gap
            )
            return (
                elapsed_a.tolist(),
                accrued_a.tolist(),
                utility_a.tolist(),
                prio_a.tolist(),
            )
        elapsed_l = [0.0] * n_sel
        accrued_l = [0.0] * n_sel
        utility_l = [0.0] * n_sel
        prio_l = [0.0] * n_sel
        for j in range(n_sel):
            duration = dur_l[j]
            effective = (
                duration if duration < remaining_window else remaining_window
            )
            transient_rate = trate_l[j]
            if ideal_rate < transient_rate:
                transient_rate = ideal_rate
            elapsed = parent_elapsed + duration
            accrued = parent_accrued + effective * transient_rate
            remaining = window - elapsed
            utility = (
                remaining if remaining > 0.0 else 0.0
            ) * ideal_rate + accrued
            elapsed_l[j] = elapsed
            accrued_l[j] = accrued
            utility_l[j] = utility
            prio_l[j] = utility - guidance_weight * togo_list[j] * rate_gap
        return elapsed_l, accrued_l, utility_l, prio_l

    def emit_pass(
        self,
        vertex: _Vertex,
        state: _VertexState,
        deltas: list,
        sel: np.ndarray,
        actions_sel: list,
        keys: list,
        cand_list: Optional[list],
        chains: tuple[list, list, list, list],
    ) -> list:
        """Pass 3 — emit the round's children in enumeration order.

        Non-candidate single-edit children (~99% of them) stay lazy all
        the way down: each is a flat payload tuple (codec byte key,
        priority/utility scalars, action, delta, shared lineage) — no
        ``_Vertex``, no ``Configuration`` — which the frontier turns
        into a real vertex only if the heap ever pops it (~1% of pushes
        are).  Candidates (and host-power actions) materialize
        eagerly — their terminal twins estimate steady utility from the
        real object.
        """
        run = self.run
        search = self.search
        basis = self.basis
        codec = self.codec
        rate_gap = run.rate_gap
        guidance_weight = run.settings.guidance_weight
        elapsed_l, accrued_l, utility_l, prio_l = chains
        parent_config = vertex.configuration
        parent_actions = vertex.actions
        config_replace = parent_config.replace
        config_remove = parent_config.remove
        child_candidate = self.child_candidate
        # One shared lineage tuple per round keeps each lazy payload
        # flat (see ``_Frontier._materialize`` for the slot layout).
        lineage = (parent_config, parent_actions, state)
        children: list = []
        children_append = children.append
        # Host-power child keys splice the parent's key bytes (a power
        # toggle edits exactly one powered-flag byte) instead of
        # re-encoding the applied configuration — identical bytes by
        # the codec's layout.
        parent_key = vertex.key
        powered_base = 10 * len(codec.vm_ids)
        host_slot = codec.host_index
        for j, (column, action) in enumerate(zip(sel.tolist(), actions_sel)):
            delta = deltas[column]
            accrued = accrued_l[j]
            elapsed = elapsed_l[j]
            utility = utility_l[j]
            if delta:
                key_bytes = keys[j]
                ((vm_id, placement),) = delta
                if cand_list is not None:
                    is_cand = cand_list[j]
                else:
                    is_cand = child_candidate(
                        state, parent_config, vm_id, placement
                    )
                priority = prio_l[j]
                if not is_cand:
                    # No ``_Vertex`` (or even ``Configuration``) until
                    # the heap pops the child.
                    children_append((
                        key_bytes,
                        priority,
                        utility,
                        accrued,
                        elapsed,
                        action,
                        delta,
                        lineage,
                    ))
                    continue
                child = _Vertex(
                    configuration=(
                        config_remove(vm_id)
                        if placement is None
                        else config_replace(vm_id, placement)
                    ),
                    actions=parent_actions + (action,),
                    accrued=accrued,
                    elapsed=elapsed,
                    is_candidate=True,
                    state=None,
                    pending=(state, delta),
                    parent_configuration=parent_config,
                    changed_vms=frozenset((vm_id,)),
                    key=key_bytes,
                )
            else:
                # Host-power actions (the only ones moving no VM) share
                # the parent's state, but their powered set differs —
                # full togo path.
                try:
                    new_config = action.apply(
                        parent_config, search.catalog, search.limits
                    )
                except ActionError:
                    continue
                togo_child = basis.togo_seconds(state, new_config)
                priority = utility - guidance_weight * togo_child * rate_gap
                off = powered_base + host_slot[action.host_id]
                flag = b"\x01" if type(action) is PowerOnHost else b"\x00"
                child_key = parent_key[:off] + flag + parent_key[off + 1 :]
                child = _Vertex(
                    configuration=new_config,
                    actions=parent_actions + (action,),
                    accrued=accrued,
                    elapsed=elapsed,
                    is_candidate=basis.is_candidate(state),
                    state=state,
                    pending=None,
                    parent_configuration=parent_config,
                    changed_vms=frozenset(),
                    key=child_key,
                )
            child.utility = utility
            child.priority = priority
            children_append(child)
        return children

    # -- round helpers ---------------------------------------------------

    def vertex_state(self, vertex: _Vertex) -> _VertexState:
        """Materialize an array-round vertex's lazy state on first
        expansion (identical to the eager single-child state)."""
        state = vertex.state
        if state is None and vertex.pending is not None:
            parent_state, delta = vertex.pending
            state = self.basis.child_state(
                vertex.parent_configuration, parent_state, delta
            )
            vertex.state = state
            vertex.pending = None
        return state

    def predict_round(self, configuration: Configuration, actions) -> list:
        """Predictions for one array round's selected (pre-validated)
        actions, resolving memo hits first and predicting only the
        misses.  Returns ``[]`` when the watchdog deadline has passed
        before the misses are predicted, mirroring a fully aborted
        round."""
        search = self.search
        run = self.run
        workloads = run.workloads
        host_apps = _round_host_apps(search.catalog, configuration)
        apps_get = host_apps.get
        placement_of = configuration.placement_of
        predict_fast = self.predict_fast
        fast_get = predict_fast.get
        facts = search._action_facts
        facts_get = facts.get
        values = search._predict_values
        values_get = values.get
        catalog_get = search.catalog.get
        results: list = [None] * len(actions)
        miss_slots: list = []
        for i, action in enumerate(actions):
            kind = type(action)
            if kind is MigrateVm:
                key = (
                    id(action),
                    apps_get(placement_of(action.vm_id).host_id, _NO_APPS),
                    apps_get(action.target_host, _NO_APPS),
                )
            elif kind is AddReplica:
                key = (id(action), apps_get(action.target_host, _NO_APPS))
            elif kind is RemoveReplica:
                key = (
                    id(action),
                    apps_get(placement_of(action.vm_id).host_id, _NO_APPS),
                )
            else:
                # Cap changes, power toggles, null: the affected set is
                # a constant of the action itself.
                key = id(action)
            entry = fast_get(key)
            if entry is not None:
                results[i] = entry[1]
                continue
            # L2: value-keyed memo.  Same facts + rate + app sets ⇒
            # ``CostManager.predict`` reads identical inputs ⇒ identical
            # cost — e.g. sibling cap steps and same-shape migrations
            # collapse to one prediction.
            known = facts_get(id(action))
            if known is None:
                vm_id = getattr(action, "vm_id", None)
                primary = (
                    catalog_get(vm_id).app_name
                    if vm_id is not None
                    else getattr(action, "app_name", None)
                )
                if len(facts) >= _ROUND_ACTION_CACHE_LIMIT:
                    facts.clear()
                facts[id(action)] = known = (
                    action,
                    action.cost_key(search.catalog),
                    primary,
                    getattr(action, "count", 1),
                )
            _, cost_key, primary, count = known
            rate = workloads.get(primary, 0.0) if primary is not None else 0.0
            # Tuple fast keys carry the affected hosts' app sets in
            # slots 1+; the two vkey shapes (class-led vs tuple-led)
            # never collide.
            if type(key) is tuple:
                vkey = (cost_key, primary, count, rate) + key[1:]
            else:
                vkey = (kind, cost_key, primary, count, rate)
            value = values_get(vkey)
            if value is not None:
                results[i] = value
                predict_fast[key] = (action, value)
                continue
            miss_slots.append((i, key, vkey, action))
        if miss_slots:
            if run.out_of_time():
                return []
            wall_0 = time.perf_counter()
            cpu_0 = time.process_time()
            predict = search.cost_manager.predict
            if len(values) >= _ROUND_ACTION_CACHE_LIMIT:
                values.clear()
            for i, key, vkey, action in miss_slots:
                predicted = predict(action, configuration, workloads)
                results[i] = predicted
                predict_fast[key] = (action, predicted)
                values[vkey] = predicted
            if run.profile is not None:
                run.profile.add(
                    "score",
                    time.perf_counter() - wall_0,
                    time.process_time() - cpu_0,
                )
        return results

    def child_candidate(
        self,
        state: _VertexState,
        parent_configuration: Configuration,
        vm_id: str,
        new: Optional[Placement],
    ) -> bool:
        """A single-edit child's candidate verdict, without building its
        state: replays ``child_state``'s host-entry arithmetic on at
        most one source and one destination entry, with ``_host_bad``
        unrolled inline (same comparisons).

        Quick rejects first: an under-cap VM the action does not touch
        stays under cap, and a bad host the action's (at most two)
        touched hosts cannot account for stays bad."""
        if state.bad_vms and not (state.bad_vms <= {vm_id}):
            return False
        if state.bad_hosts > 2:
            return False
        limits = self.search.limits
        bad_hosts = state.bad_hosts
        bad_vm_count = len(state.bad_vms)
        hosts = state.hosts
        memory = self.basis.memory
        max_cpu = limits.max_total_cpu_cap + 1e-9
        max_mem = limits.guest_memory_mb
        max_vms = limits.max_vms_per_host
        old = parent_configuration.placement_of(vm_id)
        src_entry = _ABSENT
        src = None
        if old is not None:
            src = old.host_id
            cpu, mem, vms = hosts.get(src)
            was_bad = cpu > max_cpu or mem > max_mem or vms > max_vms
            remaining = vms - 1
            if remaining == 0:
                src_entry = None
                bad_hosts -= was_bad
            else:
                cpu = round(cpu - old.cpu_cap, 10)
                mem -= memory[vm_id]
                src_entry = (cpu, mem, remaining)
                bad_hosts += (
                    cpu > max_cpu or mem > max_mem or remaining > max_vms
                ) - was_bad
        if new is not None:
            dst = new.host_id
            entry = (
                src_entry if dst == src and src_entry is not _ABSENT
                else hosts.get(dst)
            )
            if entry is not None:
                cpu, mem, vms = entry
                was_bad = cpu > max_cpu or mem > max_mem or vms > max_vms
                cpu = round(cpu + new.cpu_cap, 10)
                mem += memory[vm_id]
                vms += 1
            else:
                was_bad = False
                cpu = round(new.cpu_cap, 10)
                mem = memory[vm_id]
                vms = 1
            bad_hosts += (
                cpu > max_cpu or mem > max_mem or vms > max_vms
            ) - was_bad
        under_cap = new is not None and (
            new.cpu_cap < limits.min_vm_cpu_cap - 1e-9
        )
        if under_cap != (vm_id in state.bad_vms):
            bad_vm_count += 1 if under_cap else -1
        return bad_hosts == 0 and bad_vm_count == 0

    def warm_candidates(self, parent: _Vertex, children: list) -> None:
        """Pre-solve candidate children's steady estimates through the
        batched LQN path before their terminal twins ask one by one
        (identical values either way — the batch kernel is
        bit-identical to the per-configuration solver).

        The batch is a backstop, not the default: while the parent's
        solver state is warm, each child resolves through the
        incremental delta path, which re-solves only the affected tiers
        and is strictly cheaper than any full solve — batched or not.
        Only when the parent's state is cold (evicted, or first touch
        under a new workload key) do the children full-solve one by
        one, and then one vectorized batch beats that serial trickle.
        """
        run = self.run
        if run.estimator.has_state(parent.configuration, key=run.wkey):
            return
        run.estimate_batch(
            [
                child.configuration
                for child in children
                if type(child) is not tuple and child.is_candidate
            ]
        )


def _round_host_apps(catalog: VmCatalog, configuration: Configuration) -> dict:
    """Host id -> frozenset of app names placed on it (one
    O(placements) pass per round; absent hosts are empty)."""
    get = catalog.get
    collected: dict[str, set] = {}
    for vm_id, placement in configuration.placement_items():
        collected.setdefault(placement.host_id, set()).add(
            get(vm_id).app_name
        )
    return {host: frozenset(apps) for host, apps in collected.items()}


class _Accountant:
    """Algorithm 1's search-cost bookkeeping for one A* run.

    Every expansion is charged a virtual tick (``PER_VERTEX_SECONDS``
    plus per-child charges).  The ticks add up to the search time
    ``T``, the utility the *current* configuration accrues meanwhile
    (``UT``) and the search's own power draw (``UpwrT``), and are
    deducted from the expected utility ``UH``.  The self-aware variant
    switches pruning on once ``UT + UpwrT`` exhausts ``UH`` or ``T``
    passes the delay threshold, and commits to its incumbent once ``T``
    passes ``HARD_STOP_FACTOR`` delay thresholds.  The accountant also
    enforces ``max_expansions`` and the watchdog deadline, and records
    in ``stop`` why the loop ended.
    """

    def __init__(
        self,
        run: _SearchRun,
        expected_utility: Optional[float],
        expected_rate: Optional[float],
    ) -> None:
        self.run = run
        settings = run.settings
        self.self_aware = settings.self_aware
        self.max_expansions = settings.max_expansions
        self.current_rate = run.current_rate
        #: ``UH`` and the rate it is drawn down at.
        self.budget = (
            expected_utility
            if expected_utility is not None
            else run.window * run.ideal_rate
        )
        self.budget_rate = (
            expected_rate if expected_rate is not None else run.ideal_rate
        )
        self.search_power_rate = -run.estimator.utility.power_utility_rate(
            SEARCH_WATTS_DELTA
        )
        self.delay_threshold = DELAY_THRESHOLD_FRACTION * run.window
        self.expansions = 0
        self.elapsed = 0.0  # T
        self.accrued_current = 0.0  # UT
        self.accrued_search_power = 0.0  # UpwrT
        self.pruning = False
        #: Why the loop stopped: ``"terminal"`` (a terminal popped),
        #: ``"max_expansions"``, ``"deadline"``, ``"hard_stop"``, or
        #: ``"exhausted"`` (the open set ran dry).
        self.stop = "exhausted"

    def admit(self, vertex: _Vertex) -> bool:
        """Whether the popped ``vertex`` is expanded (and counted);
        otherwise the loop stops and ``stop`` says why."""
        if vertex.terminal:
            self.stop = "terminal"
            return False
        if self.expansions >= self.max_expansions:
            self.stop = "max_expansions"
            return False
        if self.run.deadline is not None and self.run.out_of_time():
            # Cooperative watchdog check, once per expansion (and again
            # before each round's cost predictions): the wall time can
            # overshoot the deadline by at most one expansion round.
            self.stop = "deadline"
            return False
        self.expansions += 1
        return True

    def charge(
        self, children: int, ranked: Optional[int], has_incumbent: bool
    ) -> bool:
        """Charge one expansion round; True when the hard stop commits
        the search to its incumbent.  A pruned round (``ranked`` not
        None) pays the cheap apply charge for every ranked child and
        the evaluation charge only for the children it kept."""
        tick = PER_VERTEX_SECONDS
        if ranked is None:
            tick += children * (
                PER_CHILD_APPLY_SECONDS + PER_CHILD_EVAL_SECONDS
            )
        else:
            tick += ranked * PER_CHILD_APPLY_SECONDS
            tick += children * PER_CHILD_EVAL_SECONDS
        self.elapsed += tick
        self.accrued_current += tick * self.current_rate
        self.accrued_search_power += tick * self.search_power_rate
        self.budget -= tick * self.budget_rate
        if self.self_aware and not self.pruning:
            if (
                self.accrued_current + self.accrued_search_power
            ) >= self.budget or self.elapsed >= self.delay_threshold:
                self.pruning = True
        if (
            self.self_aware
            and has_incumbent
            and self.elapsed >= HARD_STOP_FACTOR * self.delay_threshold
        ):
            # Self-awareness in the limit: the decision itself has
            # become too expensive — commit to the best incumbent.
            self.stop = "hard_stop"
            return True
        return False


class AdaptationSearch:
    """The adaptation search over the configuration graph: exact Naive /
    Self-Aware A* or the anytime polish, each run on a fresh
    ``_SearchRun``, plus the enumeration and prediction caches that
    outlive one search."""

    def __init__(
        self,
        applications: ApplicationSet,
        catalog: VmCatalog,
        limits: ConstraintLimits,
        estimator: UtilityEstimator,
        cost_manager: CostManager,
        perf_pwr: PerfPwrOptimizer,
        host_ids: Sequence[str],
        settings: Optional[SearchSettings] = None,
    ) -> None:
        self.applications = applications
        self.catalog = catalog
        self.limits = limits
        self.estimator = estimator
        self.cost_manager = cost_manager
        self.perf_pwr = perf_pwr
        self.host_ids = tuple(host_ids)
        self.settings = settings or SearchSettings()
        #: When set, the search only acts on VMs placed on (and only
        #: migrates to) these hosts — the 1st-level controller scoping
        #: of the paper's hierarchy.  The ideal configuration is then
        #: projected onto the scope: out-of-scope VMs stay pinned.
        self.scope_hosts: Optional[frozenset[str]] = None
        # Interned action objects: actions are immutable value objects
        # drawn from a small universe (VMs x hosts x cap steps), but
        # enumeration runs once per expansion — reuse instead of
        # re-constructing ~100 dataclass instances each time.
        self._action_cache: dict[tuple, AdaptationAction] = {}
        # Enumeration sublists keyed by the per-VM facts they depend
        # on, the sorted order of each powered-host set, and per-tier
        # replica bounds (static for this search's application model).
        self._round_action_cache: dict[tuple, list] = {}
        self._powered_order: dict[frozenset, list] = {}
        self._tier_limits: dict[tuple[str, str], tuple[int, int]] = {}
        # Round-context interning: the (allowed kinds, powered order)
        # pair is constant within an enumeration round, so hashing it
        # once into a small integer keeps the per-VM sublist keys
        # cheap (flat tuples of scalars instead of nested tuples).
        self._ctx_tokens: dict[tuple, int] = {}
        # vm_id -> (app_name, tier_name), static for the catalog.
        self._vm_tier_key: dict[str, tuple[str, str]] = {}
        # Array expansion core (DESIGN.md §13): the numeric codec and
        # constants, plus per-sublist ActionBlocks cached under the
        # same keys as ``_round_action_cache``.
        self._array_statics: Optional[ArrayStatics] = None
        self._round_block_cache: dict[tuple, object] = {}
        # Concatenated plans keyed by their block identity tuple: the
        # same (cached) block list recurs across expansion rounds, and
        # a plan is a pure function of its blocks.  Plans hold strong
        # block references, so ids stay unambiguous while cached.
        self._round_plan_cache: dict[tuple, RoundPlan] = {}
        # Cost-prediction value memos for the array rounds (DESIGN.md
        # §13).  ``_action_facts`` caches each action's semantic facts
        # (cost key, primary app, step count) by id — values pin the
        # action object, keeping ids unambiguous.  ``_predict_values``
        # memoizes PredictedCost by *value* key: every input
        # ``CostManager.predict`` reads (facts, the primary app's
        # workload rate, the affected hosts' app sets) is in the key,
        # so equal keys give float-identical costs across actions,
        # searches, and workload vectors.
        self._action_facts: dict = {}
        self._predict_values: dict = {}
        #: Optional callback invoked when the polish backend fails and
        #: the search falls back to exact A* — the controller wires
        #: this into its resilience ladder.
        self.on_strategy_failure: Optional[Callable[[], None]] = None
        #: Chaos-mode fault injector (attached by the testbed); handed
        #: to the polish backend (solver exceptions, strategy stalls).
        self.fault_injector = None

    def _ensure_array_statics(
        self, roots: Sequence[Configuration] = ()
    ) -> ArrayStatics:
        """Codec + numeric constants, shared across searches.

        The codec's host universe starts from ``host_ids`` and appends,
        in sorted order, every other host the ``roots`` name (placed
        on or powered).  A scoped controller's roots name the whole
        cluster, but its actions only touch its own hosts, so every
        configuration its search reaches stays inside that universe.
        Growing the universe rebuilds the statics and drops the caches
        whose blocks and plans were encoded against the old one.
        """
        statics = self._array_statics
        universe = (
            statics.codec.host_ids if statics is not None else self.host_ids
        )
        named: set[str] = set()
        for configuration in roots:
            named |= configuration.powered_hosts
            named |= configuration.used_hosts()
        extra = named.difference(universe)
        if statics is None or extra:
            statics = ArrayStatics(
                self.catalog, self.limits, universe + tuple(sorted(extra))
            )
            self._array_statics = statics
            self._round_block_cache.clear()
            self._round_plan_cache.clear()
        return statics

    # -- public API -----------------------------------------------------------

    def search(
        self,
        current: Configuration,
        workloads: Mapping[str, float],
        control_window: float,
        expected_utility: Optional[float] = None,
        expected_rate: Optional[float] = None,
        settings_override: Optional[SearchSettings] = None,
    ) -> SearchOutcome:
        """Find the action sequence maximizing Eq. 3 over the window.

        Runs the configured backend (``settings.strategy`` →
        ``MISTRAL_SEARCH_STRATEGY`` → the default ``"astar"``; see
        DESIGN.md §14): ``"astar"`` runs the exact A* loop below,
        ``"polish"`` the deterministic anytime local search in
        :mod:`repro.core.strategies`.

        ``expected_utility``/``expected_rate`` seed the self-aware
        budget ``UH`` (the paper uses the lowest of recent utilities);
        they default to the ideal utility over the window.
        ``settings_override`` swaps the search settings for this one run
        (the resilience ladder's degraded rung forces a pruned
        self-aware search with a reduced expansion budget).
        """
        # Imported lazily: strategies.py imports this module's classes,
        # so a module-level import here would be circular.
        from repro.core.strategies import polish_search, resolve_strategy_name

        settings = (
            self.settings if settings_override is None else settings_override
        )
        strategy_name = resolve_strategy_name(settings.strategy)
        if strategy_name == "polish":
            try:
                outcome = polish_search(
                    self, current, workloads, control_window, settings
                )
            except Exception as error:
                # Polish failure degradation: the anytime backend
                # blowing up mid-run (an injected solver fault, a real
                # bug) must never cost the controller a decision — fall
                # back to the exact A* incumbent path, which shares the
                # evaluation primitives but not polish's walk or its
                # fault hooks, and tell the resilience ladder.
                _phases.set_profile(None)  # the dead run's, if any
                if _telemetry.enabled:
                    registry = _telemetry.registry
                    registry.counter("search.strategy_failures").inc()
                    registry.counter(
                        f"search.strategy.{strategy_name}.failures"
                    ).inc()
                    _telemetry.tracer.event(
                        "search.strategy_failure",
                        strategy=strategy_name,
                        error=type(error).__name__,
                        detail=str(error),
                    )
                if self.on_strategy_failure is not None:
                    try:
                        self.on_strategy_failure()
                    except Exception:
                        pass  # resilience hooks must never kill the search
                strategy_name = "astar"  # what actually decides
        if strategy_name == "astar":
            outcome = self._astar_search(
                current,
                workloads,
                control_window,
                expected_utility,
                expected_rate,
                settings_override,
            )
        outcome.strategy = strategy_name
        if _telemetry.enabled:
            registry = _telemetry.registry
            registry.counter(f"search.strategy.{strategy_name}.runs").inc()
            _telemetry.tracer.event(
                "search.strategy",
                strategy=strategy_name,
                wall_seconds=outcome.wall_seconds,
                expansions=outcome.expansions,
                decision_seconds=outcome.decision_seconds,
                predicted_utility=outcome.predicted_utility,
                actions=len(outcome.actions),
                deadline_aborted=outcome.deadline_aborted,
                optimal=outcome.optimal,
            )
        return outcome

    def _astar_search(
        self,
        current: Configuration,
        workloads: Mapping[str, float],
        control_window: float,
        expected_utility: Optional[float] = None,
        expected_rate: Optional[float] = None,
        settings_override: Optional[SearchSettings] = None,
    ) -> SearchOutcome:
        """The paper's exact Naive / Self-Aware A* (Algorithm 1).

        Seed the frontier with the root and the direct plans to the
        ideal, then loop: pop the best vertex, let the accountant admit
        it, expand it, charge the round, push its children.  The search
        returns the popped terminal, or — when the accountant stops it
        first — the best terminal pushed so far (or the null plan).
        """
        settings = (
            self.settings if settings_override is None else settings_override
        )
        run = _SearchRun(
            self, current, workloads, control_window, settings,
            settings.incremental,
        )
        if run.settled:
            return run.finish_early()
        accountant = _Accountant(run, expected_utility, expected_rate)
        frontier = _Frontier(run)
        expander = _Expander(run)
        root = expander.root()
        frontier.push_with_terminal(root)
        run.seed_chains(
            root, expander.seed_child, frontier.push_with_terminal
        )
        # Hoisted once: per-expansion wall timing only when telemetry
        # is on (two clock reads per expansion otherwise saved).
        expand_hist = (
            _telemetry.registry.histogram("search.expand_seconds")
            if _telemetry.enabled
            else None
        )
        while True:
            vertex = frontier.pop()
            if vertex is None or not accountant.admit(vertex):
                break
            if expand_hist is not None:
                expand_t0 = time.perf_counter()
            if len(vertex.actions) >= MAX_PLAN_ACTIONS:
                continue
            children, ranked = expander.expand(vertex, accountant.pruning)
            run.generated += len(children)
            if expand_hist is not None:
                expand_hist.observe(time.perf_counter() - expand_t0)
            if run.deadline_hit:
                # A round hit the deadline before its cost predictions;
                # its partial children are discarded and the search
                # commits to the best incumbent found in time.
                accountant.stop = "deadline"
                break
            if accountant.charge(
                len(children), ranked, frontier.best_terminal is not None
            ):
                break
            frontier.push_round(children, -(len(vertex.actions) + 1))

        heap = frontier.heap
        result = (
            vertex if accountant.stop == "terminal" else frontier.best_terminal
        )
        if result is None:
            # Nothing reachable improved on staying put; keep current.
            chain, final, utility = (), current, run.window * run.current_rate
        else:
            chain, final = result.actions, result.configuration
            utility = result.utility
        return run.finish(
            chain,
            final,
            utility,
            accountant.expansions,
            accountant.elapsed,
            pruning=accountant.pruning,
            # A terminal pop proves optimality only while every child
            # was still admitted (pruning never switched on).
            optimal=accountant.stop == "terminal" and not accountant.pruning,
            # The open set's size and best (possibly stale) priority,
            # noted in the provenance when the watchdog fired.
            open_set=(len(heap), -heap[0][0] if heap else None),
        )

    # -- action enumeration ------------------------------------------------------

    def _enumerate_actions(
        self,
        configuration: Configuration,
        target_caps: Optional[Mapping[str, float]] = None,
        blocks_out: Optional[list] = None,
    ) -> list[AdaptationAction]:
        """All one-step actions applicable from ``configuration``.

        When ``target_caps`` (the ideal configuration's caps) is given,
        multi-step cap jumps straight to a VM's ideal cap are also
        generated so the search can take the efficient highway instead
        of interleaving unit steps combinatorially.

        With ``blocks_out`` (array core), the matching ``ActionBlock``
        per emitted sublist is appended to it — cached under the same
        keys as the sublists themselves, so a cache-warm round encodes
        nothing.  Concatenated, the blocks' columns mirror the returned
        action list position for position.
        """
        kinds = self.settings.allowed_kinds
        actions: list[AdaptationAction] = []
        interned = self._interned
        powered_set = configuration.powered_hosts
        powered = self._powered_order.get(powered_set)
        if powered is None:
            powered = sorted(powered_set)
            self._powered_order[powered_set] = powered
        if self.scope_hosts is not None:
            powered = [host for host in powered if host in self.scope_hosts]
        powered_key = tuple(powered)
        # Hash the round-constant context once; per-VM cache keys carry
        # the small interned token instead of the nested tuples.
        ctx_tokens = self._ctx_tokens
        ctx = (kinds, powered_key)
        token = ctx_tokens.get(ctx)
        if token is None:
            token = len(ctx_tokens)
            ctx_tokens[ctx] = token

        # One O(placements) pass instead of a replica_count() scan per
        # candidate action.
        replica_counts: dict[tuple[str, str], int] = {}
        tier_of = self._vm_tier_key
        for placed_vm, _ in configuration.placement_items():
            tier_key = tier_of.get(placed_vm)
            if tier_key is None:
                descriptor = self.catalog.get(placed_vm)
                tier_key = (descriptor.app_name, descriptor.tier_name)
                tier_of[placed_vm] = tier_key
            replica_counts[tier_key] = replica_counts.get(tier_key, 0) + 1

        # A VM's action sublist depends only on the facts in its cache
        # key, so identical (placement, target, powered) situations —
        # which recur constantly across a search's expansion rounds —
        # reuse the interned sublist instead of re-running the checks.
        vm_cache = self._round_action_cache
        if len(vm_cache) >= _ROUND_ACTION_CACHE_LIMIT:
            vm_cache.clear()
        block_cache = None
        statics = None
        if blocks_out is not None:
            statics = self._ensure_array_statics()
            block_cache = self._round_block_cache
            if len(block_cache) >= _ROUND_ACTION_CACHE_LIMIT:
                block_cache.clear()
        tier_limits = self._tier_limits
        for vm_id, placement in configuration.placement_items():
            if (
                self.scope_hosts is not None
                and placement.host_id not in self.scope_hosts
            ):
                continue
            target = (
                target_caps.get(vm_id) if target_caps is not None else None
            )
            if "remove_replica" in kinds:
                tier_key = tier_of[vm_id]
                bounds = tier_limits.get(tier_key)
                if bounds is None:
                    tier = self.applications.get(tier_key[0]).tier(
                        tier_key[1]
                    )
                    bounds = (tier.min_replicas, tier.max_replicas)
                    tier_limits[tier_key] = bounds
                can_remove = replica_counts.get(tier_key, 0) > bounds[0]
            else:
                can_remove = False
            sub_key = (
                token,
                vm_id,
                placement.host_id,
                placement.cpu_cap,
                target,
                can_remove,
            )
            sub = vm_cache.get(sub_key)
            if sub is None:
                sub = self._vm_sublist(
                    kinds, powered, vm_id, placement, target, can_remove
                )
                vm_cache[sub_key] = sub
            actions.extend(sub)
            if blocks_out is not None:
                block = block_cache.get(sub_key)
                if block is None:
                    block = vm_block(
                        statics,
                        self.catalog,
                        sub,
                        vm_id,
                        placement.host_id,
                        placement.cpu_cap,
                        bounds[0] if "remove_replica" in kinds else 1,
                    )
                    block_cache[sub_key] = block
                blocks_out.append(block)

        if "add_replica" in kinds:
            for app in self.applications:
                for tier in app.tiers:
                    count = replica_counts.get((app.name, tier.name), 0)
                    if count >= tier.max_replicas:
                        continue
                    dormant_vm = None
                    ideal_cap = None
                    if target_caps is not None:
                        # The dormant VM that would be activated next.
                        for descriptor in self.catalog.for_tier(
                            app.name, tier.name
                        ):
                            if not configuration.is_placed(descriptor.vm_id):
                                dormant_vm = descriptor.vm_id
                                ideal_cap = target_caps.get(descriptor.vm_id)
                                break
                    add_key = (
                        "add",
                        app.name,
                        tier.name,
                        dormant_vm,
                        ideal_cap,
                        token,
                    )
                    sub = vm_cache.get(add_key)
                    if sub is None:
                        sub = self._add_sublist(
                            powered, app.name, tier.name, ideal_cap
                        )
                        vm_cache[add_key] = sub
                    actions.extend(sub)
                    if blocks_out is not None:
                        block = block_cache.get(add_key)
                        if block is None:
                            block = add_block(statics, sub, dormant_vm)
                            block_cache[add_key] = block
                        blocks_out.append(block)

        if "power_on" in kinds:
            for host_id in self.host_ids:
                if host_id not in configuration.powered_hosts:
                    actions.append(
                        interned(("pon", host_id), PowerOnHost, host_id)
                    )
                    if blocks_out is not None:
                        blocks_out.append(statics.power_block)
        if "power_off" in kinds:
            for host_id in sorted(configuration.idle_hosts()):
                actions.append(
                    interned(("poff", host_id), PowerOffHost, host_id)
                )
                if blocks_out is not None:
                    blocks_out.append(statics.power_block)
        return actions

    def _interned(self, key: tuple, factory, *args) -> AdaptationAction:
        """The one action object for ``key``, built on first use."""
        cache = self._action_cache
        action = cache.get(key)
        if action is None:
            action = factory(*args)
            cache[key] = action
        return action

    def _vm_sublist(
        self,
        kinds: frozenset[str],
        powered: list,
        vm_id: str,
        placement: Placement,
        target: Optional[float],
        can_remove: bool,
    ) -> list[AdaptationAction]:
        """One placed VM's share of an enumeration round: unit cap
        steps, a multi-step jump to its ideal cap (``target``),
        migrations to every other powered host and, when its tier is
        above the minimum, its removal."""
        limits = self.limits
        step = limits.cpu_cap_step
        interned = self._interned
        sub: list[AdaptationAction] = []
        if "increase_cpu" in kinds and (
            placement.cpu_cap + step <= limits.max_total_cpu_cap + 1e-9
        ):
            sub.append(interned(("inc", vm_id), IncreaseCpu, vm_id, step))
        if "decrease_cpu" in kinds and (
            placement.cpu_cap - step >= limits.min_vm_cpu_cap - 1e-9
        ):
            sub.append(interned(("dec", vm_id), DecreaseCpu, vm_id, step))
        if target is not None:
            steps = round((target - placement.cpu_cap) / step)
            if steps > 1 and "increase_cpu" in kinds:
                sub.append(
                    interned(
                        ("inc", vm_id, steps), IncreaseCpu, vm_id, step, steps
                    )
                )
            elif steps < -1 and "decrease_cpu" in kinds:
                sub.append(
                    interned(
                        ("dec", vm_id, -steps),
                        DecreaseCpu,
                        vm_id,
                        step,
                        -steps,
                    )
                )
        if "migrate" in kinds:
            for host_id in powered:
                if host_id != placement.host_id:
                    sub.append(
                        interned(
                            ("mig", vm_id, host_id), MigrateVm, vm_id, host_id
                        )
                    )
        if can_remove:
            sub.append(interned(("rem", vm_id), RemoveReplica, vm_id))
        return sub

    def _add_sublist(
        self,
        powered: list,
        app_name: str,
        tier_name: str,
        ideal_cap: Optional[float],
    ) -> list[AdaptationAction]:
        """One tier's replica additions: on every powered host, at the
        default replica cap and at the dormant VM's ideal cap."""
        caps = {REPLICA_CAP}
        if ideal_cap is not None:
            caps.add(ideal_cap)
        return [
            self._interned(
                ("add", app_name, tier_name, host_id, cap),
                AddReplica,
                app_name,
                tier_name,
                host_id,
                cap,
            )
            for host_id in powered
            for cap in sorted(caps)
        ]

    # -- scoping ----------------------------------------------------------------

    def _project_ideal(
        self,
        current: Configuration,
        ideal: PerfPwrResult,
        workloads: Mapping[str, float],
    ) -> PerfPwrResult:
        """Project the global ideal onto this controller's host scope.

        Out-of-scope VMs keep their current placement and cap; in-scope
        VMs adopt the ideal's caps, and the ideal's host when that host
        is inside the scope.  Replication and powered hosts stay as
        they are — 1st-level controllers only tune caps and migrate
        locally.
        """
        assert self.scope_hosts is not None
        kinds = self.settings.allowed_kinds
        placements = dict(current.placements)
        for vm_id, placement in current.placements.items():
            if placement.host_id not in self.scope_hosts:
                continue
            ideal_placement = ideal.configuration.placement_of(vm_id)
            if ideal_placement is None:
                if "remove_replica" in kinds:
                    descriptor = self.catalog.get(vm_id)
                    tier_placed = sum(
                        1
                        for peer in self.catalog.for_tier(
                            descriptor.app_name, descriptor.tier_name
                        )
                        if peer.vm_id in placements
                    )
                    if tier_placed > 1:
                        del placements[vm_id]
                continue
            host = (
                ideal_placement.host_id
                if "migrate" in kinds
                and ideal_placement.host_id in self.scope_hosts
                and ideal_placement.host_id in current.powered_hosts
                else placement.host_id
            )
            placements[vm_id] = Placement(host, ideal_placement.cpu_cap)
        if "add_replica" in kinds:
            for descriptor in self.catalog:
                vm_id = descriptor.vm_id
                if vm_id in placements or current.is_placed(vm_id):
                    continue
                ideal_placement = ideal.configuration.placement_of(vm_id)
                if (
                    ideal_placement is not None
                    and ideal_placement.host_id in self.scope_hosts
                    and ideal_placement.host_id in current.powered_hosts
                ):
                    placements[vm_id] = ideal_placement
        projected = Configuration(placements, current.powered_hosts)
        estimate = self.estimator.estimate(projected, workloads)
        return PerfPwrResult(
            configuration=projected,
            perf_rate=estimate.perf_rate,
            power_rate=estimate.power_rate,
            estimate=estimate,
            hosts_used=len(projected.used_hosts()),
            evaluations=0,
        )

    # -- cost-to-go guidance ---------------------------------------------------

    def _togo_durations(
        self, workloads: Mapping[str, float]
    ) -> dict[tuple[str, str], float]:
        """Per-(action family, tier) duration estimates at this workload."""
        durations: dict[tuple[str, str], float] = {}
        mean_rate = (
            sum(workloads.values()) / len(workloads) if workloads else 0.0
        )
        tiers = {
            (tier.name) for app in self.applications for tier in app.tiers
        }
        table = self.cost_manager.table
        for kind in ("migrate", "add_replica", "remove_replica"):
            for tier in tiers:
                try:
                    entry = table.lookup(kind, tier, mean_rate)
                except KeyError:
                    continue
                durations[(kind, tier)] = entry.duration
        for kind in ("power_on", "power_off"):
            try:
                entry = table.lookup(kind, "-", mean_rate)
            except KeyError:
                continue
            durations[(kind, "-")] = entry.duration
        return durations

    def _togo_seconds(
        self,
        configuration: Configuration,
        ideal: Configuration,
        durations: Mapping[tuple[str, str], float],
    ) -> float:
        """Estimated adaptation seconds separating ``configuration``
        from the ideal configuration (migrations, replica changes, cap
        steps, host power cycles)."""
        step = self.limits.cpu_cap_step
        seconds = 0.0
        for descriptor in self.catalog:
            seconds += _togo_vm_term(
                configuration.placement_of(descriptor.vm_id),
                ideal.placement_of(descriptor.vm_id),
                descriptor.tier_name,
                durations,
                step,
                self.limits.min_vm_cpu_cap,
            )
        for host_id in ideal.powered_hosts - configuration.powered_hosts:
            seconds += durations.get(("power_on", "-"), 90.0)
        for host_id in configuration.powered_hosts - ideal.powered_hosts:
            seconds += durations.get(("power_off", "-"), 30.0)
        return seconds

    # -- distance to the ideal configuration ---------------------------------------

    def _ideal_distance_basis(
        self, ideal: PerfPwrResult
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Per-VM weights (relative ideal size) and ideal caps."""
        caps = {
            vm_id: placement.cpu_cap
            for vm_id, placement in ideal.configuration.placements.items()
        }
        total = sum(caps.values()) or 1.0
        weights = {
            descriptor.vm_id: caps.get(descriptor.vm_id, 0.0) / total
            for descriptor in self.catalog
        }
        # Give dormant-in-ideal VMs a small weight so extra replicas
        # still register as distance.
        floor = 0.5 / max(1, len(weights))
        weights = {
            vm_id: max(weight, floor) for vm_id, weight in weights.items()
        }
        return weights, caps

    def _distance(
        self,
        configuration: Configuration,
        ideal_caps: Mapping[str, float],
        weights: Mapping[str, float],
        ideal: PerfPwrResult,
    ) -> float:
        """Weighted cap distance plus placement mismatch (paper §IV-B)."""
        cap_term = 0.0
        matches = 0
        total = 0
        for descriptor in self.catalog:
            vm_id = descriptor.vm_id
            placement = configuration.placement_of(vm_id)
            cap = placement.cpu_cap if placement is not None else 0.0
            ideal_cap = ideal_caps.get(vm_id, 0.0)
            cap_term += weights[vm_id] * (cap - ideal_cap) ** 2
            total += 1
            ideal_placement = ideal.configuration.placement_of(vm_id)
            ideal_host = (
                ideal_placement.host_id if ideal_placement is not None else None
            )
            host = placement.host_id if placement is not None else None
            if host == ideal_host:
                matches += 1
        placement_term = 1.0 - (matches / total if total else 1.0)
        return math.sqrt(cap_term) + placement_term
