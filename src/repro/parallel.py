"""Deterministic multi-process trial execution.

Every quantitative claim in the reproduction is a sweep of independent
``(parameter, seed)`` trials, and each trial is a pure function of its
arguments — so trials can run on all cores *without* giving up
reproducibility, provided results are merged by trial index rather than
by arrival order.  :class:`TrialExecutor` is that contract as code:

1. **Determinism.**  Results come back in *submission* order no matter
   which worker finishes first, so a sweep built on the executor is
   byte-identical to its serial equivalent.  A task that raises
   re-raises the exception a serial loop would have raised.
2. **Transparent fallback.**  Parallelism is an optimization, never a
   requirement: with ``jobs=1``, fewer than two tasks, one usable core,
   inside a daemonic process, or with a payload that does not pickle,
   the tasks run in-process in the same order with the same semantics.
3. **Purity is the caller's promise.**  Workers share nothing; a task
   that mutates global state will not see that mutation merged back.

Parallel dispatch lands on a warm pool, one per ``jobs`` value for the
whole process: its workers fork on the first parallel dispatch and every
later sweep with the same ``jobs`` reuses them, so the start-up that
once made small sweeps *slower* in parallel is paid once per session.
The pools are joined at exit, or by :func:`shutdown_shared_pools`.
``multiprocessing``, ``concurrent.futures`` and ``pickle`` are imported
by the code that dispatches, so a run that never goes parallel never
loads them (DESIGN.md, "Cold start").
"""

from __future__ import annotations

import atexit
import os
import threading
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterable, List,
                    Optional, Sequence, Tuple)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["TrialExecutor", "shutdown_shared_pools", "usable_cores"]

Task = Tuple[Any, ...]

#: Payloads below this task count never pay dispatch overhead: even on
#: a warm pool, pickling and IPC cost more than running one trial inline.
MIN_PARALLEL_TASKS = 2

#: Target chunks handed to each worker over one dispatch.  More than one
#: chunk per worker keeps the pool load-balanced when trial durations
#: vary; fewer, larger chunks cut per-task IPC.  Four is the classic
#: compromise (it is also what ``multiprocessing.Pool.map`` uses).
CHUNKS_PER_WORKER = 4

#: The warm pools, keyed by ``jobs`` and spawned on first use.
_POOLS: Dict[int, ProcessPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


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


def _chunks(tasks: Sequence[Task], jobs: int) -> List[Tuple[Task, ...]]:
    """``tasks`` in submission order, cut into about
    :data:`CHUNKS_PER_WORKER` chunks per worker and never less than one
    task per chunk."""
    size = max(1, -(-len(tasks) // (jobs * CHUNKS_PER_WORKER)))
    return [tuple(tasks[i:i + size]) for i in range(0, len(tasks), size)]


def _run_chunk(payload: Tuple[Callable[..., Any], Tuple[Task, ...]]
               ) -> List[Tuple[bool, Any]]:
    """Worker entry point: run one chunk of tasks sequentially.

    Returns ``(True, result)`` per completed task; a task that raises
    contributes ``(False, exception)`` and ends the chunk — the rest of
    *this* chunk never runs, mirroring where a serial loop would have
    stopped.  (Tasks in later chunks may still have run on other
    workers; they are side-effect free by contract.)
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


def _picklable(fn: Callable[..., Any], tasks: Sequence[Task]) -> bool:
    """True if ``fn`` and every argument tuple survive pickling — the
    only road to a worker, which closures and lambdas cannot take."""
    import pickle

    try:
        pickle.dumps((fn, tuple(tasks)))
    except Exception:
        return False
    return True


def _warm_pool(jobs: int) -> ProcessPoolExecutor:
    """The process-wide pool of ``jobs`` workers, spawned on first use.

    ``fork`` (where the platform offers it) clones the already-imported
    parent, so a worker is ready in about a millisecond instead of a
    fresh-interpreter boot.
    """
    with _POOLS_LOCK:
        pool = _POOLS.get(jobs)
        if pool is None:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platforms without fork
                context = multiprocessing.get_context()
            pool = _POOLS[jobs] = ProcessPoolExecutor(
                max_workers=jobs, mp_context=context)
        return pool


def shutdown_shared_pools() -> None:
    """Join every warm pool's workers (idempotent; also the atexit
    hook).  The next parallel dispatch simply spawns again."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


atexit.register(shutdown_shared_pools)


class TrialExecutor:
    """Order-preserving map of a trial function over argument tuples.

    Parameters
    ----------
    jobs:
        Worker processes to use.  ``1`` (the default) executes serially
        in-process; ``None`` or values < 1 mean "all usable cores".

    Example
    -------
    >>> executor = TrialExecutor(jobs=1)
    >>> executor.map(pow, [(2, 3), (3, 2)])
    [8, 9]
    """

    def __init__(self, jobs: Optional[int] = 1) -> None:
        self.jobs = usable_cores() if jobs is None or int(jobs) < 1 else int(jobs)

    def _in_process(self, fn: Callable[..., Any], tasks: Sequence[Task]) -> bool:
        if self.jobs == 1 or len(tasks) < MIN_PARALLEL_TASKS:
            return True
        # The single-core fast-path: with one usable core, worker
        # processes only add dispatch cost (a 20-trial sweep measured
        # 0.72x of serial), so honor the *intent* of jobs>1 — "go
        # faster" — by not paying for parallelism that cannot exist.
        if usable_cores() == 1:
            return True
        import multiprocessing

        # A daemonic process (e.g. a trial that itself sweeps) cannot
        # spawn children; run its inner sweep in-process.
        if multiprocessing.current_process().daemon:
            return True
        return not _picklable(fn, tasks)

    def map(self, fn: Callable[..., Any],
            argses: Iterable[Task]) -> List[Any]:
        """``[fn(*args) for args in argses]``, in submission order.

        A trial that raises re-raises here, after every earlier trial
        ran — the exception a serial loop would have raised; later
        trials may still have executed (they are side-effect free by
        contract).
        """
        tasks: List[Task] = [tuple(args) for args in argses]
        if self._in_process(fn, tasks):
            return [fn(*args) for args in tasks]
        from concurrent.futures.process import BrokenProcessPool

        pool = _warm_pool(self.jobs)
        results: List[Any] = []
        try:
            # Executor.map yields chunk results strictly in submission
            # order regardless of completion order: the merge by index.
            for chunk in pool.map(_run_chunk, [
                    (fn, chunk) for chunk in _chunks(tasks, self.jobs)]):
                for ok, value in chunk:
                    if not ok:
                        raise value
                    results.append(value)
        except BrokenProcessPool:
            # A worker died mid-dispatch (OOM-killed, hard crash).  A
            # broken pool never serves again: drop it, so the next
            # dispatch respawns instead of failing forever.
            with _POOLS_LOCK:
                if _POOLS.get(self.jobs) is pool:
                    del _POOLS[self.jobs]
            pool.shutdown(wait=True)
            raise
        return results
