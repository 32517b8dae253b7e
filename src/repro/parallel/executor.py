"""The multi-process trial executor.

Design constraints, in order:

1. **Determinism.**  Results are merged in *submission* order no matter
   which worker finishes first, so a sweep built on the executor is
   byte-identical to its serial equivalent.  Exceptions propagate at
   the failing task's index, matching where a serial loop would have
   raised.
2. **Transparent fallback.**  Parallelism is an optimization, never a
   requirement: with ``jobs=1``, a tiny payload, an unpicklable
   payload, a single usable core, or when already inside a daemonic
   worker process, the executor runs the tasks in-process in the same
   order with the same semantics.
3. **Purity is the caller's promise.**  Workers share nothing; a task
   that mutates global state will not see that mutation merged back.
   Simulation trials are pure functions of ``(value, seed)``, which is
   exactly why they parallelize safely.

Dispatch goes through the process-wide warm :class:`~repro.parallel.pool.
WorkerPool` (fork-once workers reused across calls) with chunked task
batching — see :mod:`repro.parallel.pool` for the throughput story.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.parallel.pool import derive_chunksize, shared_pool

__all__ = [
    "TrialExecutor",
    "parallel_forced",
    "payload_picklable",
    "resolve_jobs",
    "usable_cores",
]

#: Payloads below this task count never pay dispatch overhead: even on
#: a warm pool, pickling and IPC cost more than running one or two
#: trials inline.
MIN_PARALLEL_TASKS = 2


def usable_cores() -> int:
    """Cores this process may actually run on.

    Respects CPU affinity where the platform exposes it — a container
    pinned to one core reports 1 here even when ``os.cpu_count()`` says
    otherwise, which is what lets :class:`TrialExecutor` auto-select
    the serial fast-path on single-core hosts.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_jobs(jobs: Any) -> int:
    """Normalize a ``jobs`` request to a concrete worker count.

    ``None`` or any value < 1 means "use every available core"
    (respecting CPU affinity where the platform exposes it); an ``int``
    >= 1 is taken literally.
    """
    if jobs is None or int(jobs) < 1:
        return usable_cores()
    return int(jobs)


def parallel_forced() -> bool:
    """True when ``REPRO_PARALLEL_FORCE`` disables the core fast-path.

    On a single-core host the executor runs everything serially — the
    right default, but it would let the multiprocess machinery rot
    untested on single-core CI.  Setting ``REPRO_PARALLEL_FORCE=1``
    (as ``make check-invariants`` does) makes ``jobs>1`` requests use
    the warm pool regardless of core count; outputs are identical
    either way, only wall-clock differs.
    """
    return os.environ.get("REPRO_PARALLEL_FORCE", "0") not in ("", "0")


def payload_picklable(fn: Callable[..., Any],
                      argses: Sequence[Tuple[Any, ...]]) -> bool:
    """True if ``fn`` and every argument tuple survive pickling.

    Process pools move work through pickle, so closures, lambdas, and
    locally-defined scenario functions cannot be dispatched to workers.
    The probe is cheap (trial arguments are parameter values and seeds)
    and lets callers fall back to serial execution instead of crashing.
    """
    try:
        pickle.dumps((fn, tuple(argses)))
    except Exception:
        return False
    return True


class TrialExecutor:
    """Order-preserving map of a trial function over argument tuples.

    Parameters
    ----------
    jobs:
        Worker processes to use.  ``1`` (the default) executes serially
        in-process; ``None`` or values < 1 mean "all available cores".
    chunksize:
        Tasks per dispatch chunk.  None (the default) auto-derives from
        task count and worker count; chunking never affects results,
        only IPC batching.

    Example
    -------
    >>> executor = TrialExecutor(jobs=1)
    >>> executor.map(pow, [(2, 3), (3, 2)])
    [8, 9]
    """

    def __init__(self, jobs: int = 1, chunksize: Optional[int] = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self.chunksize = chunksize

    # ------------------------------------------------------------------
    def _serial(self, fn: Callable[..., Any],
                argses: Sequence[Tuple[Any, ...]]) -> Iterator[Any]:
        for args in argses:
            yield fn(*args)

    def _use_serial(self, fn: Callable[..., Any],
                    argses: Sequence[Tuple[Any, ...]]) -> bool:
        if self.jobs == 1 or len(argses) < MIN_PARALLEL_TASKS:
            return True
        # The single-core fast-path: with one usable core, worker
        # processes only add dispatch cost (a 20-trial sweep measured
        # 0.72x of serial), so honor the *intent* of jobs>1 — "go
        # faster" — by not paying for parallelism that cannot exist.
        if usable_cores() == 1 and not parallel_forced():
            return True
        # A daemonic worker (e.g. a trial that itself sweeps) cannot
        # spawn children; run its inner sweep in-process.
        if multiprocessing.current_process().daemon:
            return True
        return not payload_picklable(fn, argses)

    # ------------------------------------------------------------------
    def imap(self, fn: Callable[..., Any],
             argses: Iterable[Tuple[Any, ...]]) -> Iterator[Any]:
        """Yield ``fn(*args)`` for each tuple, in submission order.

        Results stream as soon as the *next in-order* trial completes,
        so per-trial observers (progress, invariant hooks) fire in the
        same order serial execution would fire them.  A trial that
        raises re-raises here at its own index; later trials may still
        have executed (they are side-effect free by contract).
        """
        tasks: List[Tuple[Any, ...]] = [tuple(args) for args in argses]
        if self._use_serial(fn, tasks):
            yield from self._serial(fn, tasks)
            return
        workers = min(self.jobs, len(tasks))
        pool = shared_pool(workers)
        chunksize = self.chunksize or derive_chunksize(len(tasks), workers)
        yield from pool.imap(fn, tasks, chunksize=chunksize)

    def map(self, fn: Callable[..., Any],
            argses: Iterable[Tuple[Any, ...]]) -> List[Any]:
        """Like :meth:`imap`, but collects the full result list."""
        return list(self.imap(fn, argses))
