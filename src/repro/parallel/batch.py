"""Round-scoring kernels shared by every executor (DESIGN.md §11).

One expansion round of the adaptation search turns a parent vertex and
its enumerated actions into scored children.  The array core validates
and ranks the actions itself; the per-action work left to parallelize —
predicting each selected action's transient cost — lives here as plain
functions over a :class:`ScoreContext`, so the serial executor calls
them inline, the thread executor calls them from a pool sharing the
same objects, and the process executor calls them in forked workers
that inherited the context as a module global (fork-safe: nothing but
the small per-round payload ever crosses the pickle boundary).

Cost predictions are memoized: a prediction depends on the parent
configuration only through the action's affected-application set and
affected-host count, so across the thousands of children one search
generates the distinct-key count is small.  Predictions are pure table
lookups — a memo hit returns float-identical values, keeping every
executor bit-identical to the serial path.

:func:`column_sums` is the bit-identity workhorse of the vectorized
scoring in ``core/rounds``: reducing a ``[terms, children]`` matrix by
accumulating one row at a time reproduces, per child, the exact
left-to-right float additions of the serial ``sum(list)`` — unlike
``numpy.sum``, whose pairwise summation rounds differently.
"""

from __future__ import annotations

import os
import zlib
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.actions import (
    AdaptationAction,
    AddReplica,
    MigrateVm,
    RemoveReplica,
)
from repro.core.config import (
    ConfigArray,
    Configuration,
    ConstraintLimits,
    VmCatalog,
)
from repro.costmodel.manager import CostManager, PredictedCost


class ShmCorruptionError(RuntimeError):
    """A shared-memory snapshot failed its integrity checks in a worker.

    Raised when the published sequence number does not match the
    payload's (a torn publish) or the payload bytes fail the published
    CRC (a flipped byte).  Defined here — not in ``executors`` — so the
    exception pickles cleanly across the process-pool boundary; the
    executor catches it, republishes the full snapshot, and retries the
    round once before giving up.
    """


class StaleWorkerError(RuntimeError):
    """A pool worker served a payload from a different executor epoch.

    ``multiprocessing.Pool`` silently respawns workers that die, and a
    respawned worker forks with whatever module globals are installed
    *at respawn time* — which, with several executors alive (one per
    search in a hierarchy), may be another executor's context.  Every
    payload therefore carries its executor's epoch and workers refuse
    mismatches instead of scoring against the wrong catalog.
    """


@dataclass(frozen=True)
class ScoreContext:
    """Everything a worker needs to score actions (picklable, and
    installed into process workers before the fork).

    ``host_ids`` is the testbed's host universe in order.  It is not
    read by the scoring kernels themselves; the process executor uses
    it to pin the :class:`~repro.core.config.ConfigCodec` universes of
    its shared-memory configuration channel.  Empty means "unknown" and
    simply disables the channel (rounds fall back to pickling the
    parent configuration, exactly the pre-channel behaviour).
    """

    catalog: VmCatalog
    limits: ConstraintLimits
    cost_manager: CostManager
    host_ids: tuple = ()


#: Keep per-executor prediction memos bounded; a search run cycles
#: through few distinct (workload, action, neighbourhood) keys, but an
#: executor reused across thousands of searches should not grow without
#: limit.
_MEMO_LIMIT = 100_000


_EMPTY_APPS: frozenset = frozenset()


def apps_by_host(
    context: ScoreContext, configuration: Configuration
) -> dict:
    """Host id -> frozenset of application names placed on it.

    One O(placements) pass replaces the per-action host scans of
    ``AdaptationAction.affected_apps`` when a whole round is scored at
    once; hosts with no VMs are simply absent (look up with
    ``_EMPTY_APPS`` as the default).
    """
    get = context.catalog.get
    collected: dict[str, set] = {}
    for vm_id, placement in configuration.placement_items():
        collected.setdefault(placement.host_id, set()).add(get(vm_id).app_name)
    return {host: frozenset(apps) for host, apps in collected.items()}


def predict_key(
    action: AdaptationAction,
    configuration: Configuration,
    wkey: tuple,
    host_apps: dict,
) -> tuple:
    """Memo key capturing everything a cost prediction reads.

    :meth:`CostManager.predict` consults the configuration only through
    ``affected_apps`` (which applications' response times move) and
    ``len(affected_hosts)`` (the power-delta scaling of migrations and
    replica changes); the workload vector enters via the table lookup
    rate.  Two calls with equal keys return float-identical costs.

    ``host_apps`` (the round's :func:`apps_by_host` map) gives per-kind
    keys that skip building the affected-app union — sound because
    every predicted action was already validated against the round's
    parent, which pins the facts the affected sets depend on.  Per
    kind:

    * cap changes, power toggles, null: the affected set ({the VM's
      app}, or empty) and host count are constants of the action, so
      ``(wkey, action)`` suffices;
    * migrate: the VM is placed (delta validated) and source != target
      (same-host migrations raise), so the affected set is exactly
      ``apps(src) | apps(dst)`` (the VM's own app is in ``apps(src)``)
      and the host count is always 2 — keying the two sets separately
      is at worst finer than their union;
    * add/remove replica: one affected host, and the affected set is
      the target/source host's apps plus the action's own app.
    """
    kind = type(action)
    if kind is MigrateVm:
        placement = configuration.placement_of(action.vm_id)
        src = (
            host_apps.get(placement.host_id, _EMPTY_APPS)
            if placement is not None
            else _EMPTY_APPS
        )
        return (
            wkey,
            action,
            src,
            host_apps.get(action.target_host, _EMPTY_APPS),
        )
    if kind is AddReplica:
        return (
            wkey,
            action,
            host_apps.get(action.target_host, _EMPTY_APPS),
        )
    if kind is RemoveReplica:
        placement = configuration.placement_of(action.vm_id)
        src = (
            host_apps.get(placement.host_id, _EMPTY_APPS)
            if placement is not None
            else _EMPTY_APPS
        )
        return (wkey, action, src)
    return (wkey, action)


def predict_actions(
    context: ScoreContext,
    configuration: Configuration,
    actions: Sequence[AdaptationAction],
    workloads: Mapping[str, float],
    memo: dict,
    wkey: tuple = (),
) -> list[PredictedCost]:
    """Predicted cost per action (all already validated against
    ``configuration``), through the executor's memo."""
    host_apps = apps_by_host(context, configuration)
    predict = context.cost_manager.predict
    out: list[PredictedCost] = []
    for action in actions:
        key = predict_key(action, configuration, wkey, host_apps)
        predicted = memo.get(key)
        if predicted is None:
            if len(memo) >= _MEMO_LIMIT:
                memo.clear()
            predicted = predict(action, configuration, workloads)
            memo[key] = predicted
        out.append(predicted)
    return out


# ----------------------------------------------------------------------
# process-pool side (fork-inherited context, pickle-light payloads)
# ----------------------------------------------------------------------

#: Installed by :func:`install_worker_context` before the process pool
#: forks; workers read it instead of receiving it per task.
_WORKER_CONTEXT: Optional[ScoreContext] = None
#: Per-worker prediction memo (each forked process owns one).
_WORKER_MEMO: dict = {}
#: The executor's shared-memory configuration channel (or None), also
#: fork-inherited.  Workers only ever *read* it.
_WORKER_CHANNEL = None
#: Per-worker decode cache: ``(seq, Configuration)`` of the last shared
#: snapshot this worker decoded.  One round publishes one sequence
#: number, so every chunk of the round after the first is a cache hit.
_WORKER_SNAPSHOT: Optional[tuple] = None
#: The executor epoch the worker context was installed under (see
#: :class:`StaleWorkerError`); payloads carry the dispatching
#: executor's epoch and workers reject mismatches.
_WORKER_EPOCH: int = 0
#: Worker trace staging: ``(segment_dir, parent_epoch)`` installed
#: before the pool forks (or None — tracing off).  Each forked worker
#: lazily opens its own JSONL segment in ``segment_dir`` and emits
#: spans on the parent's epoch; the executor merges the segments back
#: into the main trace on close (see ``Tracer.merge_segment``).
_WORKER_TRACE_SPEC: Optional[tuple] = None
#: The forked worker's lazily-built tracer (one per process).
_WORKER_TRACER = None


def install_worker_context(context: ScoreContext, epoch: int = 0) -> None:
    """Stage the context for forked workers (call before pool creation).

    ``epoch`` identifies the installing executor; workers echo-check it
    against each payload so a pool-respawned worker that forked under a
    *different* executor's globals fails loudly instead of scoring
    against the wrong context.
    """
    global _WORKER_CONTEXT, _WORKER_EPOCH
    _WORKER_CONTEXT = context
    _WORKER_EPOCH = epoch
    _WORKER_MEMO.clear()


def install_worker_channel(channel) -> None:
    """Stage the shared-memory configuration channel (call before the
    pool forks; pass ``None`` to clear a previous executor's channel)."""
    global _WORKER_CHANNEL, _WORKER_SNAPSHOT
    _WORKER_CHANNEL = channel
    _WORKER_SNAPSHOT = None


def install_worker_trace(spec: Optional[tuple]) -> None:
    """Stage worker trace segments (call before the pool forks).

    ``spec`` is ``(segment_dir, parent_epoch)`` — workers append their
    spans to ``segment_dir/worker-<pid>.jsonl`` with ``t`` relative to
    the parent tracer's epoch (sound under ``fork`` on Linux, where
    ``perf_counter`` reads the shared CLOCK_MONOTONIC) — or ``None``
    to clear a previous executor's staging.
    """
    global _WORKER_TRACE_SPEC, _WORKER_TRACER
    _WORKER_TRACE_SPEC = spec
    _WORKER_TRACER = None


def _worker_tracer():
    """This worker process's segment tracer, opened on first use."""
    global _WORKER_TRACER
    tracer = _WORKER_TRACER
    if tracer is None and _WORKER_TRACE_SPEC is not None:
        from repro.telemetry.trace import JsonlFileSink, Tracer

        directory, epoch = _WORKER_TRACE_SPEC
        pid = os.getpid()
        sink = JsonlFileSink(
            os.path.join(directory, f"worker-{pid}.jsonl"),
            # A pool worker is terminated, never shut down: every line
            # must reach the OS as soon as its span closes.
            autoflush=True,
            meta={"worker": pid, "segment": True},
        )
        tracer = _WORKER_TRACER = Tracer(sink, epoch=epoch)
    return tracer


def shm_payload_checksum(
    caps: np.ndarray, hosts: np.ndarray, powered: np.ndarray
) -> int:
    """CRC-32 over the channel payload, in layout order.

    Shared by the publisher (which stamps it into the channel's CRC
    slot) and the workers (which verify their copy against the stamp).
    """
    crc = zlib.crc32(caps.tobytes())
    crc = zlib.crc32(hosts.tobytes(), crc)
    return zlib.crc32(powered.tobytes(), crc)


def _shared_configuration(seq: int) -> Configuration:
    """Decode and verify the parent configuration published under ``seq``.

    The executor guarantees publishes never overlap in-flight tasks
    (rounds that might race a straggler pickle the configuration
    instead), so the snapshot this worker reads is always the one the
    payload's sequence number names; the checks below are integrity
    tripwires, not a synchronization mechanism.  A mismatch — torn
    sequence number or failed payload CRC — raises
    :class:`ShmCorruptionError`, which the executor answers with a full
    republish and one retry of the round.
    """
    global _WORKER_SNAPSHOT
    snapshot = _WORKER_SNAPSHOT
    if snapshot is not None and snapshot[0] == seq:
        return snapshot[1]
    channel = _WORKER_CHANNEL
    if channel is None:
        raise RuntimeError("shared-memory payload but no channel installed")
    published = int(channel.seq_slot[0])
    if published != seq:
        raise ShmCorruptionError(
            f"shared snapshot out of sync: payload seq {seq}, shm {published}"
        )
    caps = channel.caps.copy()
    hosts = channel.hosts.copy()
    powered = channel.powered.copy()
    expected = int(channel.crc_slot[0])
    actual = shm_payload_checksum(caps, hosts, powered)
    if actual != expected:
        raise ShmCorruptionError(
            f"shared snapshot seq {seq} failed its checksum: "
            f"crc {actual:#010x} != published {expected:#010x}"
        )
    configuration = channel.codec.decode(ConfigArray(hosts, caps, powered))
    _WORKER_SNAPSHOT = (seq, configuration)
    return configuration


def _payload_configuration(configuration) -> Configuration:
    """Resolve a payload's configuration slot: an ``int`` is a shared
    snapshot's sequence number, anything else the pickled object."""
    if type(configuration) is int:
        return _shared_configuration(configuration)
    return configuration


def _check_worker_epoch(epoch: int) -> None:
    if epoch != _WORKER_EPOCH:
        raise StaleWorkerError(
            f"worker forked under executor epoch {_WORKER_EPOCH}, "
            f"payload from epoch {epoch}"
        )


def _process_predict_chunk(payload: tuple) -> list[PredictedCost]:
    """Pool task: predict one chunk of survivor actions."""
    configuration, actions, workloads, wkey, epoch = payload
    _check_worker_epoch(epoch)
    assert _WORKER_CONTEXT is not None, "worker context never installed"
    tracer = _worker_tracer() if _WORKER_TRACE_SPEC is not None else None
    if tracer is not None:
        with tracer.span("worker.predict_chunk", actions=len(actions)):
            return predict_actions(
                _WORKER_CONTEXT,
                _payload_configuration(configuration),
                actions,
                workloads,
                _WORKER_MEMO,
                wkey,
            )
    return predict_actions(
        _WORKER_CONTEXT,
        _payload_configuration(configuration),
        actions,
        workloads,
        _WORKER_MEMO,
        wkey,
    )


# ----------------------------------------------------------------------
# bit-identical vectorized reductions
# ----------------------------------------------------------------------


def column_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-column sums accumulated row by row.

    For a ``[terms, children]`` matrix this performs, in every column,
    the identical sequence of scalar float additions the serial path's
    ``sum(term_list)`` performs — same operands, same order, starting
    from zero — so the results are bit-identical per child.  (``np.sum``
    would use pairwise summation and round differently.)

    When the reduction axis is strided (a C-contiguous matrix with two
    or more columns), ``np.add.reduce`` over axis 0 accumulates the
    rows in the same top-to-bottom order — numpy's pairwise summation
    only reorders reductions over contiguous memory — so the single
    ufunc call replaces the Python row loop.  Single-column and
    non-contiguous inputs keep the explicit loop; the bit-identity
    suite pins the equivalence.
    """
    if matrix.shape[1] > 1 and matrix.flags.c_contiguous:
        return np.add.reduce(matrix, axis=0, initial=0.0)
    total = np.zeros(matrix.shape[1], dtype=np.float64)
    for row in matrix:
        total = total + row
    return total
