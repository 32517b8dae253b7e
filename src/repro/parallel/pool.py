"""The persistent warm worker pool.

A pool-per-call executor cannot win on small sweeps: when every
``Sweep.run``/``SeedSweepRunner.run`` spawned a fresh
``ProcessPoolExecutor``, each call paid worker start-up (interpreter
boot or fork, pipe setup) before the first trial ran — enough to make
``jobs>1`` *slower* than serial for 20-trial sweeps.
:class:`WorkerPool` amortizes that cost the way the 6tisch simulator
amortizes connectivity-matrix construction: pay once, reuse across
runs.

Three properties carry over unchanged from the per-call design:

- **Order preservation.**  Results are merged by task index, never by
  arrival order, so parallel output is byte-identical to serial.
- **Exception-at-index.**  A task that raises re-raises at its own
  index during result iteration; earlier tasks still yield first,
  exactly like a serial loop.  This holds *within* chunks too — a
  chunk runs its tasks sequentially and stops at the first failure.
- **Determinism.**  Chunking changes how tasks are batched onto
  workers, never what any task computes or the order results merge.

Lifecycle: pools spawn lazily on first parallel dispatch, stay warm for
the life of the process, and are torn down by an ``atexit`` hook (or
explicitly via :func:`shutdown_shared_pools` — tests asserting "no
leaked processes" call it directly).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "WorkerPool",
    "derive_chunksize",
    "shared_pool",
    "shutdown_shared_pools",
]

#: Target chunks handed to each worker over one dispatch.  More than one
#: chunk per worker keeps the pool load-balanced when trial durations
#: vary; fewer, larger chunks cut per-task IPC.  Four is the classic
#: compromise (it is also what ``multiprocessing.Pool.map`` uses).
CHUNKS_PER_WORKER = 4


def derive_chunksize(tasks: int, workers: int) -> int:
    """Chunk size for ``tasks`` tasks over ``workers`` warm workers.

    Auto-derived so callers never tune it: enough chunks for load
    balance (:data:`CHUNKS_PER_WORKER` per worker), but never less than
    one task per chunk.
    """
    if tasks <= 0:
        return 1
    return max(1, -(-tasks // (max(1, workers) * CHUNKS_PER_WORKER)))


def _run_chunk(payload: Tuple[Callable[..., Any], Tuple[Tuple[Any, ...], ...]]
               ) -> List[Tuple[bool, Any]]:
    """Worker entry point: run one chunk of tasks sequentially.

    Returns ``(True, result)`` per completed task; a task that raises
    contributes ``(False, exception)`` and ends the chunk — the
    remaining tasks of *this* chunk never run, mirroring where a serial
    loop would have stopped.  (Tasks in later chunks may still have run
    on other workers; they are side-effect free by contract.)
    """
    fn, chunk = payload
    out: List[Tuple[bool, Any]] = []
    for args in chunk:
        try:
            out.append((True, fn(*args)))
        except BaseException as exc:  # re-raised at the failing index
            out.append((False, exc))
            break
    return out


def _pool_context():
    """The cheapest safe multiprocessing context for warm workers.

    ``fork`` (where the platform offers it) clones the already-imported
    parent, so a worker is ready in about a millisecond instead of a
    fresh-interpreter boot; that is most of what makes the *cold* leg of
    ``pool_reuse`` expensive on spawn-only platforms.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        return multiprocessing.get_context()


class WorkerPool:
    """A lazily-spawned, reusable process pool with chunked dispatch.

    Parameters
    ----------
    workers:
        Worker process count.  Workers spawn on first dispatch, not at
        construction, so building a pool that never parallelizes costs
        nothing.

    Example
    -------
    >>> pool = WorkerPool(2)
    >>> pool.map(pow, [(2, 3), (3, 2)])
    [8, 9]
    >>> pool.shutdown()
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()
        #: Dispatches served since spawn — 0 means the next map is cold.
        self.dispatches = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """True while worker processes are (or are being kept) alive."""
        return self._executor is not None

    def _ensure(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_pool_context())
                self.dispatches = 0
            return self._executor

    def shutdown(self) -> None:
        """Join the workers and release the pool (idempotent).

        The pool remains usable: the next dispatch simply pays the
        spawn cost again.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def imap(self, fn: Callable[..., Any],
             argses: Sequence[Tuple[Any, ...]],
             chunksize: Optional[int] = None) -> Iterator[Any]:
        """Yield ``fn(*args)`` per tuple, in submission order.

        Tasks are batched into chunks of ``chunksize`` (auto-derived
        from task count and worker count when None) and fanned out to
        the warm workers; results stream back merged by index.  A task
        that raised re-raises here at its own index, after every
        earlier task's result has been yielded.
        """
        tasks = [tuple(args) for args in argses]
        if not tasks:
            return
        size = chunksize if chunksize else derive_chunksize(
            len(tasks), self.workers)
        chunks = [tuple(tasks[i:i + size]) for i in range(0, len(tasks), size)]
        executor = self._ensure()
        self.dispatches += 1
        try:
            # Executor.map yields chunk results strictly in submission
            # order regardless of completion order: the merge-by-index
            # primitive, one level up.
            for chunk_result in executor.map(
                    _run_chunk, [(fn, chunk) for chunk in chunks]):
                for ok, value in chunk_result:
                    if not ok:
                        raise value
                    yield value
        except BrokenProcessPool:
            # A worker died mid-dispatch (OOM-killed, hard crash).  A
            # broken executor can never serve again — release it so the
            # *next* dispatch respawns instead of failing forever.
            self.shutdown()
            raise

    def map(self, fn: Callable[..., Any],
            argses: Sequence[Tuple[Any, ...]],
            chunksize: Optional[int] = None) -> List[Any]:
        """Like :meth:`imap`, but collects the full result list."""
        return list(self.imap(fn, argses, chunksize=chunksize))


# ----------------------------------------------------------------------
# the shared (process-wide) pools
# ----------------------------------------------------------------------
_SHARED: Dict[int, WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def shared_pool(workers: int) -> WorkerPool:
    """The process-wide warm pool for ``workers`` workers.

    Consecutive ``Sweep.run``/``SeedSweepRunner.run``/``run_trials``
    calls with the same jobs count land on the same already-spawned
    workers — the whole point of the warm-pool design.  Pools of
    different sizes coexist (a benchmark session mixing ``--jobs 2``
    and ``--jobs 4`` keeps both warm).
    """
    with _SHARED_LOCK:
        pool = _SHARED.get(workers)
        if pool is None:
            pool = _SHARED[workers] = WorkerPool(workers)
        return pool


def shutdown_shared_pools() -> None:
    """Shut down every shared pool (idempotent; also the atexit hook)."""
    with _SHARED_LOCK:
        pools = list(_SHARED.values())
        _SHARED.clear()
    for pool in pools:
        pool.shutdown()


atexit.register(shutdown_shared_pools)
