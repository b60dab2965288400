"""The Perf-Pwr optimizer (paper §IV-A).

Finds the configuration that optimally trades performance utility
against power cost for a given workload while ignoring transient
adaptation costs.  Its output plays three roles: (1) the "ideal
configuration" ``c*`` and "ideal utility" ``U*`` used as the admissible
A* heuristic, (2) the Perf-Pwr baseline controller of §V-C, and (3)
(in a constrained variant) the capacity oracle of the Pwr-Cost
baseline.

Algorithm: for a decreasing number of available hosts, start from
maximum capacities/replication, attempt worst-fit-decreasing bin
packing, and — while packing fails — run a gradient search that either
shaves one VM's cap by a step or drops one replica, choosing the
candidate with the best ratio of CPU utilization reduction to
performance-utility loss; each successful packing yields a potential
optimum whose overall utility rate (performance + power) is compared
across host counts.

Every gradient candidate differs from its parent plan in exactly one
VM, so in exactly one tier of the LQN.  The gradient therefore holds
the current plan's :class:`~repro.perfmodel.solver.SolveState` and
delta-solves each candidate from it with ``LqnSolver.update_state``,
re-solving only the tier its step touched; the solver guarantees the
result is bit-identical to a full solve, so the ideal does not move.
Plan qualities are memoized for the current workload vector only: the
memo is cleared whenever the workload key changes.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.apps.application import ApplicationSet
from repro.core.config import (
    Configuration,
    ConstraintLimits,
    Placement,
    VmCatalog,
)
from repro.core.estimator import SteadyEstimate, UtilityEstimator
from repro.core.lru import LruDict
from repro.perfmodel.solver import SolveState
from repro.telemetry import runtime as _telemetry


@dataclass(frozen=True)
class CapacityPlan:
    """Capacity vector during gradient search: active VMs and caps."""

    caps: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "caps", dict(self.caps))

    def total_cap(self) -> float:
        """Sum of all VM caps."""
        return sum(self.caps.values())

    def reduce_cap(self, vm_id: str, step: float) -> "CapacityPlan":
        """One step smaller cap for one VM."""
        caps = dict(self.caps)
        caps[vm_id] = round(caps[vm_id] - step, 10)
        return CapacityPlan(caps)

    def drop_vm(self, vm_id: str) -> "CapacityPlan":
        """Remove one replica."""
        caps = dict(self.caps)
        del caps[vm_id]
        return CapacityPlan(caps)


@dataclass
class PerfPwrResult:
    """Output of the Perf-Pwr optimizer."""

    configuration: Configuration
    perf_rate: float
    power_rate: float
    estimate: SteadyEstimate
    hosts_used: int
    evaluations: int
    #: The per-host-count potential optima the winner was chosen from
    #: (including the winner itself); useful as partial-adaptation
    #: targets when a full transition would not fit a control window.
    alternatives: list["PerfPwrResult"] = field(default_factory=list)

    @property
    def ideal_rate(self) -> float:
        """The ideal utility accrual rate U* (performance + power)."""
        return self.perf_rate + self.power_rate


class PerfPwrOptimizer:
    """Optimal performance-power tradeoff, adaptation costs ignored."""

    def __init__(
        self,
        applications: ApplicationSet,
        catalog: VmCatalog,
        limits: ConstraintLimits,
        estimator: UtilityEstimator,
        host_ids: Sequence[str],
        max_vm_cap: Optional[float] = None,
        min_cap_for_target: bool = False,
        consider_minimal_candidate: bool = True,
    ) -> None:
        """``min_cap_for_target=True`` is the Pwr-Cost variant: the
        gradient search refuses candidates that push any application
        over its target response time (paper §V-C).

        ``consider_minimal_candidate=False`` runs the paper's plain
        gradient algorithm; the default additionally evaluates the
        target-meeting minimal capacities at each host count (an
        enhancement that tightens the ideal used as Mistral's
        heuristic — see DESIGN.md)."""
        if not host_ids:
            raise ValueError("optimizer needs at least one host")
        self.applications = applications
        self.catalog = catalog
        self.limits = limits
        self.estimator = estimator
        self.host_ids = tuple(host_ids)
        self.max_vm_cap = max_vm_cap or limits.max_total_cpu_cap
        self.min_cap_for_target = min_cap_for_target
        self.consider_minimal_candidate = consider_minimal_candidate
        # Bounded LRU memos.  The result and minimal memos are keyed on
        # the estimator's workload key, so a FeedbackUtilityEstimator
        # version bump invalidates stale entries.  The quality memo is
        # keyed on a plan's caps and holds one workload vector only
        # (``_quality_wkey``): it is cleared when the key changes, so
        # entries of past windows never pile up.
        self._quality_cache: LruDict[
            tuple, tuple[float, float, dict[str, float]]
        ] = LruDict(100_000, name="perf_pwr.quality")
        self._quality_wkey: Optional[tuple] = None
        # One pseudo-host placement per (vm, cap): the gradient probes
        # the same few cap levels of every VM over and over.
        self._pseudo_placements: dict[tuple[str, float], Placement] = {}
        self._result_cache: LruDict[tuple, PerfPwrResult] = LruDict(
            5_000, name="perf_pwr.result"
        )
        self._minimal_cache: LruDict[tuple, CapacityPlan] = LruDict(
            5_000, name="perf_pwr.minimal"
        )

    # -- public API ---------------------------------------------------------

    def optimize(self, workloads: Mapping[str, float]) -> PerfPwrResult:
        """Best configuration for ``workloads`` over all host counts.

        Results are memoized per workload vector: within one monitoring
        interval every controller level consults the same ideal.
        """
        wkey = self.estimator.workload_key(workloads)
        memoized = self._result_cache.get(wkey)
        if memoized is not None:
            if _telemetry.enabled:
                _telemetry.registry.counter("perf_pwr.memo_hits").inc()
            return memoized
        wall_start = time.perf_counter() if _telemetry.enabled else 0.0
        start_evaluations = self.estimator.evaluations
        results: list[PerfPwrResult] = []
        plan = self._max_plan()
        state: Optional[SolveState] = None
        min_hosts = self._min_hosts()
        # The target-meeting minimum is a second candidate per host
        # count: the gradient path shrinks monotonically across host
        # counts and can overshoot past configurations that still meet
        # every target on fewer hosts.
        minimal_plan = (
            self.minimal_capacities(workloads, key=wkey)
            if self.consider_minimal_candidate
            else None
        )
        for host_count in range(len(self.host_ids), min_hosts - 1, -1):
            hosts = self.host_ids[:host_count]
            candidates: list[Configuration] = []
            packed, plan, state = self._search_for_hosts(
                plan, hosts, workloads, wkey, state
            )
            if packed is not None:
                candidates.append(packed)
            if minimal_plan is not None:
                packed_minimal = self._pack(minimal_plan, hosts)
                if packed_minimal is not None:
                    candidates.append(packed_minimal)
            best_for_count: Optional[PerfPwrResult] = None
            for candidate in candidates:
                estimate = self.estimator.estimate(
                    candidate, workloads, key=wkey
                )
                result = PerfPwrResult(
                    configuration=candidate,
                    perf_rate=estimate.perf_rate,
                    power_rate=estimate.power_rate,
                    estimate=estimate,
                    hosts_used=len(candidate.powered_hosts),
                    evaluations=0,
                )
                if (
                    best_for_count is None
                    or result.ideal_rate > best_for_count.ideal_rate
                ):
                    best_for_count = result
            if best_for_count is not None:
                results.append(best_for_count)
        if not results:
            raise RuntimeError(
                "Perf-Pwr could not pack even minimal capacities; "
                "the host pool is too small for the application set"
            )
        best = max(results, key=lambda result: result.ideal_rate)
        best.alternatives = results
        best.evaluations = self.estimator.evaluations - start_evaluations
        self._result_cache.put(wkey, best)
        if _telemetry.enabled:
            _telemetry.registry.counter("perf_pwr.optimizations").inc()
            _telemetry.tracer.event(
                "perf_pwr.optimize",
                dur=time.perf_counter() - wall_start,
                evaluations=best.evaluations,
                hosts_used=best.hosts_used,
                host_counts_tried=len(results),
            )
        return best

    def minimal_capacities(
        self,
        workloads: Mapping[str, float],
        key: Optional[tuple] = None,
    ) -> CapacityPlan:
        """Smallest capacity plan that still meets every target (§V-C).

        The Pwr-Cost baseline's oracle: the paper modifies the Perf-Pwr
        optimizer "so that it will not reduce the VM sizes below the
        capacity needed to meet the target response times".  Starting
        from maximum capacities, reductions are applied greedily while
        all applications stay at or under their target response time.
        """
        wkey = key if key is not None else self.estimator.workload_key(workloads)
        memoized = self._minimal_cache.get(wkey)
        if memoized is not None:
            return memoized
        plan = self._max_plan()
        state = self._solve_plan(plan, workloads)
        while True:
            best_candidate: Optional[CapacityPlan] = None
            best_vm = ""
            best_total = plan.total_cap()
            for candidate, vm_id in self._candidates(plan):
                _, _, response_times = self._plan_quality(
                    candidate, workloads, wkey, state, vm_id
                )
                if not self._meets_targets(response_times, workloads):
                    continue
                total = candidate.total_cap()
                if total < best_total - 1e-9:
                    best_total = total
                    best_candidate = candidate
                    best_vm = vm_id
            if best_candidate is None:
                self._minimal_cache.put(wkey, plan)
                return plan
            plan = best_candidate
            state = self._advance(state, plan, best_vm, workloads)

    # -- capacity plans -------------------------------------------------------

    def _max_plan(self) -> CapacityPlan:
        """All replica slots active at the maximum per-VM cap."""
        caps = {
            descriptor.vm_id: self.max_vm_cap for descriptor in self.catalog
        }
        return CapacityPlan(caps)

    def _min_hosts(self) -> int:
        """Smallest host count that can hold minimum capacities."""
        min_vms = sum(
            tier.min_replicas
            for app in self.applications
            for tier in app.tiers
        )
        by_cpu = math.ceil(
            min_vms * self.limits.min_vm_cpu_cap / self.limits.max_total_cpu_cap
        )
        by_count = math.ceil(min_vms / self.limits.max_vms_per_host)
        return max(1, by_cpu, by_count)

    # -- evaluation ------------------------------------------------------------

    def _pseudo_config(self, plan: CapacityPlan) -> Configuration:
        """Placement-free evaluation: each VM on its own pseudo host.

        Response times depend only on caps, so performance utility of a
        capacity plan can be estimated before any packing succeeds.
        """
        placements = {
            vm_id: self._pseudo_placement(vm_id, cap)
            for vm_id, cap in plan.caps.items()
        }
        hosts = frozenset(placement.host_id for placement in placements.values())
        return Configuration(placements, hosts)

    def _pseudo_placement(self, vm_id: str, cap: float) -> Placement:
        placement = self._pseudo_placements.get((vm_id, cap))
        if placement is None:
            placement = Placement(f"pseudo-{vm_id}", cap)
            self._pseudo_placements[(vm_id, cap)] = placement
        return placement

    def _solve_plan(
        self, plan: CapacityPlan, workloads: Mapping[str, float]
    ) -> SolveState:
        """Full solve of ``plan``'s pseudo configuration."""
        return self.estimator.solver.solve_state(
            self._pseudo_config(plan), workloads
        )

    def _advance(
        self,
        state: SolveState,
        plan: CapacityPlan,
        vm_id: str,
        workloads: Mapping[str, float],
    ) -> SolveState:
        """``plan``'s solve state, delta-solved from its parent plan's
        ``state``; the step from the parent changed only ``vm_id``, so
        only that VM's tier is re-solved."""
        cap = plan.caps.get(vm_id)
        if cap is not None:
            pseudo = state.configuration.replace(
                vm_id, self._pseudo_placement(vm_id, cap)
            )
        else:
            pseudo = state.configuration.remove(vm_id).power_off(
                f"pseudo-{vm_id}"
            )
        return self.estimator.solver.update_state(
            state, pseudo, workloads, (vm_id,)
        )

    def _plan_quality(
        self,
        plan: CapacityPlan,
        workloads: Mapping[str, float],
        wkey: Optional[tuple],
        state: SolveState,
        changed_vm: Optional[str] = None,
    ) -> tuple[float, float, dict[str, float]]:
        """(busy CPU, performance utility rate, response times) of a plan.

        Placement-free: power is not evaluated here (it needs a real
        packing), only the performance side of the gradient.  ``wkey``
        is the precomputed workload key (computed once per optimize
        pass rather than per probe).

        On a memo miss, ``state`` supplies the solve: it is the plan's
        own solve state, or, when ``changed_vm`` is given, the state of
        the parent plan one step away, from which the plan is
        delta-solved.
        """
        if wkey is None:
            wkey = self.estimator.workload_key(workloads)
        if wkey != self._quality_wkey:
            self._quality_cache.clear()
            self._quality_wkey = wkey
        # Every plan descends from ``_max_plan`` by one-entry edits, so
        # its caps keep catalog order and the items are a canonical key.
        key = tuple(plan.caps.items())
        cached = self._quality_cache.get(key)
        if cached is not None:
            return cached
        if changed_vm is None:
            performance = state.estimate
        else:
            performance = self._advance(
                state, plan, changed_vm, workloads
            ).estimate
        utility = self.estimator.utility
        perf_rate = sum(
            utility.perf_utility_rate(
                app, rate, performance.response_times[app]
            )
            for app, rate in workloads.items()
        )
        busy = sum(
            min(rho, 1.0) * plan.caps[vm_id]
            for vm_id, rho in performance.vm_utilizations.items()
        )
        result = (busy, perf_rate, dict(performance.response_times))
        self._quality_cache.put(key, result)
        return result

    def _meets_targets(
        self,
        response_times: Mapping[str, float],
        workloads: Mapping[str, float],
    ) -> bool:
        utility = self.estimator.utility
        return all(
            response_times[app] <= utility.target_response_time(app, rate)
            for app, rate in workloads.items()
        )

    # -- gradient search ---------------------------------------------------------

    def _candidates(
        self, plan: CapacityPlan
    ) -> list[tuple[CapacityPlan, str]]:
        """One-step reductions: shave a cap or drop a replica.

        Each candidate comes with the one VM its step changed.
        """
        step = self.limits.cpu_cap_step
        minimum = self.limits.min_vm_cpu_cap
        candidates: list[tuple[CapacityPlan, str]] = []
        replicas: dict[tuple[str, str], list[str]] = {}
        for vm_id, cap in plan.caps.items():
            if cap - step >= minimum - 1e-9:
                candidates.append((plan.reduce_cap(vm_id, step), vm_id))
            descriptor = self.catalog.get(vm_id)
            replicas.setdefault(
                (descriptor.app_name, descriptor.tier_name), []
            ).append(vm_id)
        for (app_name, tier_name), vm_ids in replicas.items():
            tier = self.applications.get(app_name).tier(tier_name)
            if len(vm_ids) > tier.min_replicas:
                # Drop the highest-numbered active replica of the tier.
                victim = max(vm_ids)
                candidates.append((plan.drop_vm(victim), victim))
        return candidates

    def _search_for_hosts(
        self,
        plan: CapacityPlan,
        hosts: Sequence[str],
        workloads: Mapping[str, float],
        wkey: Optional[tuple] = None,
        state: Optional[SolveState] = None,
    ) -> tuple[Optional[Configuration], CapacityPlan, Optional[SolveState]]:
        """Shrink ``plan`` until it packs on ``hosts`` (or give up).

        Returns the packed configuration (or None), the final plan,
        which seeds the next, smaller host count — matching the paper's
        iterative host-count reduction — and the final plan's solve
        state.  ``state`` is ``plan``'s solve state, or ``None`` until
        a first gradient step needs it.
        """
        current = plan
        while True:
            packed = self._pack(current, hosts)
            if packed is not None:
                return packed, current, state
            if state is None:
                state = self._solve_plan(current, workloads)
            busy, perf_rate, _ = self._plan_quality(
                current, workloads, wkey, state
            )
            candidates = self._candidates(current)
            if self.min_cap_for_target:
                kept = []
                for candidate, vm_id in candidates:
                    _, _, cand_rts = self._plan_quality(
                        candidate, workloads, wkey, state, vm_id
                    )
                    if self._meets_targets(cand_rts, workloads):
                        kept.append((candidate, vm_id))
                candidates = kept
            if not candidates:
                return None, current, state
            best_candidate = None
            best_vm = ""
            best_key: tuple[float, float] = (-math.inf, -math.inf)
            for candidate, vm_id in candidates:
                cand_busy, cand_perf, _ = self._plan_quality(
                    candidate, workloads, wkey, state, vm_id
                )
                delta_busy = cand_busy - busy
                delta_perf = cand_perf - perf_rate
                if delta_perf >= 0:
                    # Free (or beneficial) reduction: always preferred;
                    # break ties by the larger CPU reduction.
                    key = (math.inf, -delta_busy + delta_perf * 1e6)
                elif delta_busy < 0:
                    key = (delta_busy / delta_perf, -delta_busy)
                else:
                    key = (-math.inf, delta_busy)
                if key > best_key:
                    best_key = key
                    best_candidate = candidate
                    best_vm = vm_id
            assert best_candidate is not None
            current = best_candidate
            state = self._advance(state, current, best_vm, workloads)

    # -- bin packing -------------------------------------------------------------

    def _pack(
        self, plan: CapacityPlan, hosts: Sequence[str]
    ) -> Optional[Configuration]:
        """Worst-fit-decreasing packing of the plan onto ``hosts``.

        Follows the paper: place each VM on the used host with the
        largest remaining space; open a new (empty) host only when no
        used host fits.  Fails (returns ``None``) when a VM fits
        nowhere.
        """
        limits = self.limits
        order = sorted(
            plan.caps.items(), key=lambda item: (-item[1], item[0])
        )
        cpu_left = {host: limits.max_total_cpu_cap for host in hosts}
        memory_left = {host: limits.guest_memory_mb for host in hosts}
        slots_left = {host: limits.max_vms_per_host for host in hosts}
        used: list[str] = []
        placements: dict[str, Placement] = {}

        def fits(host: str, vm_id: str, cap: float) -> bool:
            descriptor = self.catalog.get(vm_id)
            return (
                cpu_left[host] + 1e-9 >= cap
                and memory_left[host] >= descriptor.memory_mb
                and slots_left[host] >= 1
            )

        for vm_id, cap in order:
            candidates = [host for host in used if fits(host, vm_id, cap)]
            if candidates:
                host = max(candidates, key=lambda h: (cpu_left[h], h))
            else:
                unused = [
                    host
                    for host in hosts
                    if host not in used and fits(host, vm_id, cap)
                ]
                if not unused:
                    return None
                host = unused[0]
                used.append(host)
            descriptor = self.catalog.get(vm_id)
            cpu_left[host] = round(cpu_left[host] - cap, 10)
            memory_left[host] -= descriptor.memory_mb
            slots_left[host] -= 1
            placements[vm_id] = Placement(host, cap)

        return Configuration(placements, frozenset(used))
