"""Pluggable executors for the worker-pool expansion stage.

An executor scores one expansion round — ``predict`` returns the
predicted costs of the round's already-validated actions — behind one
of three backings:

``SerialExecutor``
    inline, zero overhead; the reference everything else must match.
``ThreadExecutor``
    a thread pool sharing the context and memo (GIL-bound for this
    pure-Python workload, but contention-free and always available).
``ProcessExecutor``
    a forked ``multiprocessing`` pool.  The :class:`ScoreContext` is
    installed as a module global *before* the fork so workers inherit
    it; per-round payloads carry only the action chunk, the workload
    vector, and — when the shared-memory configuration channel is live
    — a plain integer naming the parent configuration instead of the
    pickled object itself (see :class:`ShmConfigChannel`).

Every backing splits a round into contiguous chunks and concatenates
the results in chunk order, so the merged list is positionally
identical to the serial result: the **deterministic merge** that keeps
parallel search outcomes bit-identical (children are consumed in
action-enumeration order downstream, preserving heap tie-breakers).

``predict`` accepts an optional ``timeout`` (seconds) — the
search watchdog's hard timer over a pool round.  The thread backing
bounds each future's ``result`` by the remaining budget; the process
backing uses ``map_async`` with a bounded ``get``.  A round that blows
its budget raises the standard ``TimeoutError`` family, which the
search maps to a deadline abort (the pool stays usable — straggling
chunks finish in the background and are discarded).  The serial
backing ignores the timeout: inline rounds are covered by the search's
own cooperative per-expansion deadline check.

``make_executor`` resolves the ``"auto"`` policy: fork-backed processes
when the machine has more than one CPU, the inline serial path
otherwise — on a single core any pool only adds dispatch overhead on
top of the array rounds' vectorization, so "auto" refuses to pretend.

Fault tolerance (DESIGN.md §10): the process backing supervises its
workers — it keeps the pool's worker handles, polls their liveness
while a round is in flight, and raises :class:`WorkerCrashError` when
one dies (SIGKILLed by the chaos injector, OOM-killed, segfaulted)
instead of hanging on the lost task; the search answers with a bounded
exponential-backoff executor respawn before its pin-to-serial fallback.
The shared-memory channel stamps every published snapshot with a CRC-32
that workers verify before decoding; a corrupt snapshot (flipped byte,
torn sequence number) raises ``ShmCorruptionError`` in the worker, and
the executor resyncs by republishing the full image and retrying the
round once.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.actions import AdaptationAction
from repro.core.config import ConfigCodec, Configuration
from repro.costmodel.manager import PredictedCost
from repro.parallel.batch import (
    ScoreContext,
    ShmCorruptionError,
    _process_predict_chunk,
    install_worker_channel,
    install_worker_context,
    install_worker_trace,
    predict_actions,
    shm_payload_checksum,
)
from repro.telemetry import runtime as _telemetry
from repro.telemetry.trace import merge_worker_segments

#: Recognized executor kinds (``SearchSettings.parallel_executor``).
EXECUTOR_KINDS = ("auto", "serial", "thread", "process")

#: Liveness-poll granularity while a process round is in flight: the
#: longest a dead worker can stall a round before detection.
_POLL_SECONDS = 0.2


class WorkerCrashError(RuntimeError):
    """A pool worker process died (was killed or crashed) mid-flight.

    Raised by the supervising :class:`ProcessExecutor` in the parent —
    never pickled — when a saved worker handle reports an exit code.
    The search treats it like any executor failure: bounded-backoff
    respawn first, pin-to-serial when the respawn budget is exhausted.
    """


def _chunks(items: Sequence, parts: int) -> list[Sequence]:
    """Split into at most ``parts`` contiguous, order-preserving chunks."""
    count = len(items)
    parts = max(1, min(parts, count))
    size, extra = divmod(count, parts)
    out = []
    start = 0
    for index in range(parts):
        end = start + size + (1 if index < extra else 0)
        out.append(items[start:end])
        start = end
    return out


class SerialExecutor:
    """Inline scoring — the reference implementation."""

    kind = "serial"

    def __init__(self, context: ScoreContext, workers: int = 1) -> None:
        self.context = context
        self.workers = 1
        self._memo: dict = {}

    def predict(
        self,
        configuration: Configuration,
        actions: Sequence[AdaptationAction],
        workloads: Mapping[str, float],
        wkey: tuple,
        timeout: Optional[float] = None,
    ) -> list[PredictedCost]:
        return predict_actions(
            self.context, configuration, actions, workloads, self._memo, wkey
        )

    def close(self) -> None:
        self._memo.clear()


class ThreadExecutor:
    """Thread-pool scoring sharing the in-process context and memo."""

    kind = "thread"

    def __init__(self, context: ScoreContext, workers: int) -> None:
        if workers < 2:
            raise ValueError(f"thread executor needs >= 2 workers, got {workers}")
        self.context = context
        self.workers = workers
        # Shared memo: predictions are pure, so a racing double-compute
        # stores the same value twice — benign under the GIL.
        self._memo: dict = {}
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-score"
        )

    def predict(self, configuration, actions, workloads, wkey, timeout=None):
        futures = [
            self._pool.submit(
                predict_actions,
                self.context,
                configuration,
                chunk,
                workloads,
                self._memo,
                wkey,
            )
            for chunk in _chunks(actions, self.workers)
        ]
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        merged: list = []
        for future in futures:  # chunk order == action order
            merged.extend(
                future.result(
                    timeout=(
                        max(0.0, deadline - time.monotonic())
                        if deadline is not None
                        else None
                    )
                )
            )
        return merged

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        self._memo.clear()


class ShmConfigChannel:
    """One-writer shared-memory mailbox for a round's parent configuration.

    Layout (one fork-inherited byte buffer, naturally aligned):
    ``[cpu_caps f64 x n_vms][seq u64][crc u64][host_index i16 x n_vms]
    [powered u8 x n_hosts]`` — the
    :class:`~repro.core.config.ConfigArray` image of the configuration
    under the channel's codec, plus a monotonically increasing sequence
    number naming the published snapshot and a CRC-32 of the payload
    that workers verify before decoding (see
    ``repro.parallel.batch.shm_payload_checksum``).

    The parent *publishes* by diffing the fresh encode against what the
    buffer already holds and writing only the changed cells — between
    consecutive search rounds the parent configuration differs by one
    placement delta, so a publish is a handful of bytes where pickling
    shipped the whole object per chunk.  Workers decode the snapshot at
    most once per sequence number (the per-worker cache in
    ``repro.parallel.batch``) into a ``Configuration`` that compares,
    hashes and pickles identically to the original, keeping scoring
    bit-identical to the pickled path.

    There is no locking: the executor only publishes when no task is in
    flight (see ``ProcessExecutor._publish`` — rounds that might race a
    timed-out round's stragglers pickle the configuration instead).
    """

    __slots__ = (
        "codec",
        "_buffer",
        "caps",
        "seq_slot",
        "crc_slot",
        "hosts",
        "powered",
        "_seq",
    )

    def __init__(self, codec: ConfigCodec) -> None:
        self.codec = codec
        n_vms = len(codec.vm_ids)
        n_hosts = len(codec.host_ids)
        size = n_vms * 8 + 16 + n_vms * 2 + n_hosts
        buffer = multiprocessing.get_context("fork").RawArray("B", size)
        self._buffer = buffer
        self.caps = np.frombuffer(buffer, dtype=np.float64, count=n_vms)
        self.seq_slot = np.frombuffer(
            buffer, dtype=np.uint64, count=1, offset=n_vms * 8
        )
        self.crc_slot = np.frombuffer(
            buffer, dtype=np.uint64, count=1, offset=n_vms * 8 + 8
        )
        self.hosts = np.frombuffer(
            buffer, dtype=np.int16, count=n_vms, offset=n_vms * 8 + 16
        )
        self.powered = np.frombuffer(
            buffer, dtype=np.uint8, count=n_hosts, offset=n_vms * 10 + 16
        )
        self._seq = 0

    def checksum(self) -> int:
        """CRC-32 of the payload the buffer currently holds."""
        return shm_payload_checksum(self.caps, self.hosts, self.powered)

    def publish(self, configuration: Configuration) -> tuple[int, int]:
        """Write ``configuration``'s delta against the buffer; returns
        ``(seq, bytes_written)``.  Raises ``KeyError`` when the
        configuration leaves the codec's universes (caller falls back
        to pickling)."""
        arrays = self.codec.encode(configuration)
        written = 0
        for shared, fresh in (
            (self.caps, arrays.cpu_caps),
            (self.hosts, arrays.host_index),
            (self.powered, arrays.powered),
        ):
            changed = np.flatnonzero(shared != fresh)
            if changed.size:
                shared[changed] = fresh[changed]
                written += int(changed.size) * shared.itemsize
        # Payload first, then its checksum, then the naming sequence
        # number — a reader that sees the new seq sees a stamped payload.
        self.crc_slot[0] = self.checksum()
        self._seq += 1
        self.seq_slot[0] = self._seq
        return self._seq, written

    def republish(self, configuration: Configuration) -> tuple[int, int]:
        """Unconditionally rewrite the full snapshot under a fresh
        sequence number — the detect→resync answer to a corrupt buffer
        (no diffing: every cell is restored, whatever was flipped)."""
        arrays = self.codec.encode(configuration)
        self.caps[:] = arrays.cpu_caps
        self.hosts[:] = arrays.host_index
        self.powered[:] = arrays.powered
        written = (
            self.caps.nbytes + self.hosts.nbytes + self.powered.nbytes
        )
        self.crc_slot[0] = self.checksum()
        self._seq += 1
        self.seq_slot[0] = self._seq
        return self._seq, written

    def corrupt(self, mode: str) -> None:
        """Damage the published snapshot in place (chaos injection).

        ``"flip"`` inverts one payload byte without restamping the CRC
        (workers see a checksum mismatch); ``"torn"`` advances the
        sequence number without touching the payload (workers see a
        torn publish).  Either way every worker of the round raises
        ``ShmCorruptionError`` and the executor must resync.
        """
        if mode == "torn":
            self._seq += 1
            self.seq_slot[0] = self._seq
        elif mode == "flip":
            if len(self.caps):
                self._buffer[0] ^= 0xFF
        else:
            raise ValueError(f"unknown shm corruption mode {mode!r}")


class ProcessExecutor:
    """Forked process-pool scoring with shared-memory config payloads.

    The executor supervises its pool: worker handles are kept from
    creation, checked before each round, and polled while a round is in
    flight, so a dead worker surfaces as :class:`WorkerCrashError`
    within ``_POLL_SECONDS`` instead of hanging the round on its lost
    task.  ``fault_injector`` (attached by the search in chaos mode)
    may SIGKILL a worker or corrupt the shared channel per round.
    """

    kind = "process"

    #: Monotonic executor epochs (see ``batch.StaleWorkerError``).
    _epochs = itertools.count(1)

    def __init__(self, context: ScoreContext, workers: int) -> None:
        if workers < 2:
            raise ValueError(
                f"process executor needs >= 2 workers, got {workers}"
            )
        self.context = context
        self.workers = workers
        self.fault_injector = None
        self._epoch = next(self._epochs)
        self._straggler = None
        channel = None
        if context.host_ids:
            try:
                channel = ShmConfigChannel(
                    ConfigCodec(context.catalog.vm_ids(), context.host_ids)
                )
            except ValueError:  # universe too large for the codec
                channel = None
        self._channel = channel
        # Workers inherit the context (and channel) through fork, not
        # pickling — both staged as module globals before pool creation.
        install_worker_context(context, self._epoch)
        install_worker_channel(channel)
        # Worker trace segments: when the main trace goes to a JSONL
        # file, stage a sibling segment directory (and the parent
        # tracer's epoch) so forked workers emit their spans instead of
        # silently dropping them; ``close`` merges the segments back.
        trace_dir = None
        if _telemetry.enabled:
            trace_path = getattr(_telemetry.tracer.sink, "path", None)
            if trace_path is not None:
                trace_dir = f"{trace_path}.workers"
                os.makedirs(trace_dir, exist_ok=True)
        self._trace_dir = trace_dir
        install_worker_trace(
            (trace_dir, _telemetry.tracer.epoch)
            if trace_dir is not None
            else None
        )
        self._pool = multiprocessing.get_context("fork").Pool(
            processes=workers
        )
        # The supervised handles: ``Pool`` silently replaces dead
        # workers, but the saved Process objects keep their exit codes,
        # so a death is detected deterministically even after the pool
        # has papered over it.
        self._workers = list(self._pool._pool)

    # -- supervision -------------------------------------------------------

    def _check_workers(self) -> None:
        """Raise :class:`WorkerCrashError` if any original worker died."""
        for worker in self._workers:
            code = worker.exitcode
            if code is not None:
                if _telemetry.enabled:
                    _telemetry.registry.counter(
                        "parallel.worker_crashes"
                    ).inc()
                    _telemetry.tracer.event(
                        "fault.worker.crash", pid=worker.pid, exitcode=code
                    )
                raise WorkerCrashError(
                    f"pool worker pid {worker.pid} died with exit code {code}"
                )

    def kill_worker(self) -> Optional[int]:
        """SIGKILL one live worker (chaos injection); returns its pid."""
        for worker in self._workers:
            if worker.exitcode is None:
                os.kill(worker.pid, signal.SIGKILL)
                worker.join()
                if _telemetry.enabled:
                    _telemetry.tracer.event(
                        "fault.worker.kill", pid=worker.pid
                    )
                return worker.pid
        return None

    def _publish(self, configuration: Configuration):
        """The payload's configuration slot for this round: the shared
        snapshot's sequence number when the channel can take the
        round's parent, else the configuration itself (pickled per
        chunk, the pre-channel behaviour).

        A publish mutates the buffer in place, so it must never overlap
        a straggling task from a timed-out round that could still read
        it; until such a round's tasks finish, rounds pickle.
        """
        channel = self._channel
        if channel is None:
            return configuration
        if self._straggler is not None:
            if not self._straggler.ready():
                return configuration
            self._straggler = None
        try:
            seq, written = channel.publish(configuration)
        except KeyError:  # configuration outside the codec universes
            return configuration
        if _telemetry.enabled:
            registry = _telemetry.registry
            registry.counter("parallel.shm_rounds").inc()
            registry.counter("parallel.shm_bytes").inc(written)
        return seq

    def _map(
        self, chunk_fn, configuration, actions, workloads, wkey, timeout=None
    ) -> list:
        self._check_workers()
        injector = self.fault_injector
        if injector is not None and injector.worker_kill():
            self.kill_worker()
            # Surface the death before dispatch: the pool would lose
            # the dead worker's task (a silent hang), and its silent
            # replacement may have forked under another executor's
            # globals — the search rebuilds this executor instead.
            self._check_workers()
        marker = self._publish(configuration)
        if injector is not None and type(marker) is int:
            mode = injector.shm_corruption()
            if mode is not None:
                self._channel.corrupt(mode)
                if _telemetry.enabled:
                    _telemetry.tracer.event(
                        "fault.shm.corrupt", mode=mode, seq=int(marker)
                    )
        payloads = [
            (marker, chunk, workloads, wkey, self._epoch)
            for chunk in _chunks(actions, self.workers)
        ]
        try:
            return self._collect(chunk_fn, payloads, timeout)
        except ShmCorruptionError as error:
            if type(marker) is not int:
                raise
            # Detect → resync: restore the full snapshot under a fresh
            # sequence number and retry the round once.  In-flight
            # stragglers of the failed round hold an older marker, so
            # they fail the seq check rather than decode a half-written
            # buffer; their results were already discarded.
            seq, written = self._channel.republish(configuration)
            if _telemetry.enabled:
                registry = _telemetry.registry
                registry.counter("parallel.shm_resyncs").inc()
                registry.counter("parallel.shm_bytes").inc(written)
                _telemetry.tracer.event(
                    "parallel.shm_resync",
                    seq=seq,
                    bytes=written,
                    error=str(error),
                )
            payloads = [
                (seq, chunk, workloads, wkey, self._epoch)
                for (_, chunk, workloads, wkey, _) in payloads
            ]
            return self._collect(chunk_fn, payloads, timeout)

    def _collect(self, chunk_fn, payloads, timeout) -> list:
        """Dispatch one round and gather its chunks, supervising the
        workers: liveness is polled every ``_POLL_SECONDS`` while the
        round is in flight, so a worker death raises instead of hanging
        on the task the pool silently lost with it."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        pending = self._pool.map_async(chunk_fn, payloads)
        while True:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    # Stragglers may still read the shared buffer;
                    # block publishes until they finish (discarded).
                    self._straggler = pending
                    raise multiprocessing.TimeoutError(
                        "pool round blew its deadline budget"
                    )
                wait = min(_POLL_SECONDS, remaining)
            else:
                wait = _POLL_SECONDS
            try:
                chunks = pending.get(wait)
                break
            except multiprocessing.TimeoutError:
                self._check_workers()
        merged: list = []
        for result in chunks:
            merged.extend(result)
        return merged

    def predict(self, configuration, actions, workloads, wkey, timeout=None):
        return self._map(
            _process_predict_chunk, configuration, actions, workloads, wkey,
            timeout,
        )

    def close(self) -> None:
        if any(worker.exitcode is not None for worker in self._workers):
            # Closing a crashed pool: a worker killed while blocked in
            # ``inqueue.get()`` died *holding* the task queue's read
            # lock, and ``Pool.terminate``'s drain helper would block
            # on that lock forever.  None of this pool's results are
            # reusable, so kill the remaining workers outright and
            # force the orphaned lock released before terminating.
            for worker in list(self._pool._pool):
                if worker.exitcode is None:
                    try:
                        os.kill(worker.pid, signal.SIGKILL)
                        worker.join()
                    except OSError:
                        pass
            try:
                self._pool._inqueue._rlock.release()
            except (ValueError, AttributeError, AssertionError):
                pass  # lock was not held — nothing to unstick
        self._pool.terminate()
        self._pool.join()
        # Workers are gone; their autoflushed segments are complete.
        # Merge them into the main trace with re-numbered seq/parent
        # linkage, provided the trace is still open to receive them.
        if self._trace_dir is not None and _telemetry.enabled:
            merged = merge_worker_segments(_telemetry.tracer, self._trace_dir)
            _telemetry.registry.counter("parallel.worker_records").inc(merged)
            _telemetry.tracer.event(
                "parallel.worker_segments_merged",
                records=merged,
                directory=self._trace_dir,
            )
        install_worker_trace(None)


def resolve_executor_kind(kind: str, workers: int) -> str:
    """Resolve ``"auto"`` (and degenerate worker counts) to a backing.

    One worker is always serial.  ``auto`` picks forked processes when
    the host actually has CPUs to fan out over, and the serial inline
    path otherwise — the array rounds' vectorized scoring is where a
    single-core host's speedup comes from, and pretending a pool helps
    there would only hide dispatch overhead in every round.
    """
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}"
        )
    if workers <= 1 or kind == "serial":
        return "serial"
    if kind != "auto":
        return kind
    if (os.cpu_count() or 1) <= 1:
        return "serial"
    if hasattr(os, "fork"):
        return "process"
    return "thread"


def make_executor(kind: str, workers: int, context: ScoreContext):
    """Build the executor backing ``kind`` resolves to."""
    resolved = resolve_executor_kind(kind, workers)
    if resolved == "serial":
        return SerialExecutor(context)
    if resolved == "thread":
        return ThreadExecutor(context, workers)
    return ProcessExecutor(context, workers)
