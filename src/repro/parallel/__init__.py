"""Parallel candidate evaluation (DESIGN.md §11).

Three cooperating layers let the adaptation search evaluate many
candidate configurations per expansion round instead of one at a time:

- :mod:`repro.parallel.runtime` — worker-count resolution (the
  ``MISTRAL_PARALLEL_WORKERS`` environment variable supplies a default
  when :class:`~repro.core.search.SearchSettings` leaves it unset);
- :mod:`repro.parallel.batch` — the scoring kernels shared by every
  executor: memoized cost predictions per round, plus the
  column-accumulated numpy reductions whose results are bit-identical
  to the serial Python sums;
- :mod:`repro.parallel.executors` — the pluggable executor pool
  (serial / thread / forked process) the search dispatches each array
  round's cost predictions to, with deterministic chunk-ordered merges.

The contract, enforced by ``tests/test_parallel.py``: every executor
produces bit-identical :class:`~repro.core.search.SearchOutcome`\\ s.
Parallelism is a throughput lever, never a behaviour change.
"""

from repro.parallel.batch import ScoreContext, column_sums
from repro.parallel.executors import (
    ProcessExecutor,
    SerialExecutor,
    ShmConfigChannel,
    ThreadExecutor,
    make_executor,
    resolve_executor_kind,
)
from repro.parallel.runtime import ENV_WORKERS, default_workers

__all__ = [
    "ENV_WORKERS",
    "ProcessExecutor",
    "ScoreContext",
    "SerialExecutor",
    "ShmConfigChannel",
    "ThreadExecutor",
    "column_sums",
    "default_workers",
    "make_executor",
    "resolve_executor_kind",
]
