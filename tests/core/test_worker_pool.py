"""The warm worker pools underneath ``TrialExecutor``: reuse, chunking,
failure, and lifecycle.

Workers must survive across dispatches (the whole point of the pool),
there must be one pool per ``jobs`` value however many tasks a sweep
has, chunking must never change results, exceptions must surface at
their task index, and shutdown must leave no processes behind.

Every test runs under the ``multicore`` fixture, so a ``jobs > 1``
request dispatches to real workers on any host.  Module-level functions
throughout: process pools move work through pickle (same contract as
tests/core/test_parallel.py).
"""

import multiprocessing
import os

import pytest

from repro import parallel
from repro.core.experiment import Sweep
from repro.parallel import CHUNKS_PER_WORKER, TrialExecutor, shutdown_shared_pools

pytestmark = pytest.mark.usefixtures("multicore")


def _square(x):
    return x * x


def _pid(_i):
    return os.getpid()


def _fail_on(x):
    if x == 3:
        raise ValueError(f"boom at {x}")
    return x


def _die(_i):  # hard worker death, not an exception
    os._exit(13)


def _pid_metric(value, seed):
    return {"pid": float(os.getpid()), "v": float(value)}


def _children():
    return {p.pid for p in multiprocessing.active_children()}


def _assert_served_by_warm_workers(pids, workers):
    """No PID outside the pool's own, still-living workers served a
    task, the parent never did, and nobody was respawned (a respawn
    would show as one PID too many, or as a PID no longer alive)."""
    assert pids and pids <= _children()
    assert len(pids) <= workers
    assert os.getpid() not in pids


@pytest.fixture(autouse=True)
def _no_leaked_pools():
    """Every test starts and ends with the shared pools torn down."""
    shutdown_shared_pools()
    yield
    shutdown_shared_pools()


class TestDeriveChunksize:
    """The private chunker: about ``CHUNKS_PER_WORKER`` chunks per
    worker, never less than one task per chunk, submission order."""

    def test_targets_chunks_per_worker(self):
        tasks = [(i,) for i in range(80)]
        chunks = parallel._chunks(tasks, 4)
        assert len(chunks) == 4 * CHUNKS_PER_WORKER
        assert [task for chunk in chunks for task in chunk] == tasks

    def test_never_below_one_task_per_chunk(self):
        assert [len(c) for c in parallel._chunks([(i,) for i in range(3)], 8)] \
            == [1, 1, 1]
        assert parallel._chunks([], 8) == []

    def test_rounds_up_so_no_worker_idles_a_whole_round(self):
        # 9 tasks over 1 worker -> ceil(9/4) = 3 per chunk, 3 chunks.
        assert [len(c) for c in parallel._chunks([(i,) for i in range(9)], 1)] \
            == [3, 3, 3]


class TestWorkerPoolLifecycle:
    def test_workers_must_be_positive(self):
        # No jobs request sizes a pool below one worker: None, 0 and
        # negatives all mean every usable core.
        for jobs in (None, 0, -3, 1, 2):
            assert TrialExecutor(jobs=jobs).jobs >= 1

    def test_construction_spawns_nothing(self):
        # An executor that never dispatches spawns nothing — nor does
        # one whose dispatches all take the serial path.
        executor = TrialExecutor(jobs=2)
        executor.map(_square, [(1,)])
        assert not _children()

    def test_first_dispatch_spawns_then_stays_warm(self):
        executor = TrialExecutor(jobs=2)
        assert executor.map(_square, [(i,) for i in range(4)]) == [0, 1, 4, 9]
        warm = _children()
        assert 0 < len(warm) <= 2
        assert executor.map(_square, [(5,), (6,)]) == [25, 36]
        assert _children() == warm

    def test_same_worker_processes_across_dispatches(self):
        # Which worker takes which chunk is the scheduler's business (a
        # fast worker may drain a whole dispatch alone), so the sets of
        # PIDs two dispatches see need not be equal.  Warm means: every
        # task ran in one of the pool's own workers, those workers are
        # still alive afterwards, and there were never more than two.
        first = set(TrialExecutor(jobs=2).map(_pid, [(i,) for i in range(16)]))
        second = set(TrialExecutor(jobs=2).map(_pid, [(i,) for i in range(16)]))
        _assert_served_by_warm_workers(first | second, 2)

    def test_shutdown_leaves_no_processes_and_is_idempotent(self):
        TrialExecutor(jobs=2).map(_square, [(1,), (2,)])
        before = _children()
        assert before  # the workers are visible children
        shutdown_shared_pools()
        shutdown_shared_pools()
        assert not (_children() & before)
        assert not _children()

    def test_pool_is_reusable_after_shutdown(self):
        TrialExecutor(jobs=2).map(_square, [(2,), (3,)])
        shutdown_shared_pools()
        assert TrialExecutor(jobs=2).map(_square, [(3,), (4,)]) == [9, 16]

    def test_broken_pool_heals_on_next_dispatch(self):
        from concurrent.futures.process import BrokenProcessPool

        executor = TrialExecutor(jobs=2)
        with pytest.raises(BrokenProcessPool):
            executor.map(_die, [(i,) for i in range(2)])
        # The broken pool was dropped; this dispatch respawns.
        assert executor.map(_square, [(4,), (5,)]) == [16, 25]


class TestChunkedDispatch:
    def test_task_count_never_changes_results(self):
        for tasks in (2, 3, 7, 23, 100):
            argses = [(i,) for i in range(tasks)]
            assert TrialExecutor(jobs=2).map(_square, argses) \
                == [i * i for i in range(tasks)]

    def test_results_merge_by_index_not_arrival(self):
        assert TrialExecutor(jobs=3).map(_square, [(i,) for i in range(30)]) \
            == [i * i for i in range(30)]

    def test_map_raises_the_failing_trials_exception(self):
        # 6 tasks over 2 workers are one task per chunk; 20 and 60 put
        # the failure inside a multi-task chunk.
        for tasks in (6, 20, 60):
            with pytest.raises(ValueError, match="boom at 3"):
                TrialExecutor(jobs=2).map(_fail_on,
                                          [(i,) for i in range(tasks)])

    def test_empty_dispatch_spawns_nothing(self):
        assert TrialExecutor(jobs=2).map(_square, []) == []
        assert not _children()


class TestSharedPools:
    def test_same_size_same_pool(self):
        first = set(TrialExecutor(jobs=2).map(_pid, [(i,) for i in range(8)]))
        second = set(TrialExecutor(jobs=2).map(_pid, [(i,) for i in range(8)]))
        assert len(_children()) <= 2
        _assert_served_by_warm_workers(first | second, 2)

    def test_pools_are_keyed_by_jobs_not_by_task_count(self):
        # A sweep smaller than jobs shares the jobs pool instead of
        # sizing one of its own (which would leave 2 + 3 + 4 workers).
        executor = TrialExecutor(jobs=4)
        for tasks in (2, 3, 8):
            assert executor.map(_square, [(i,) for i in range(tasks)]) \
                == [i * i for i in range(tasks)]
        assert len(multiprocessing.active_children()) <= 4

    def test_shutdown_shared_pools_resets_the_registry(self):
        TrialExecutor(jobs=2).map(_square, [(1,), (2,)])
        before = _children()
        shutdown_shared_pools()
        pids = set(TrialExecutor(jobs=2).map(_pid, [(i,) for i in range(4)]))
        assert pids and not (pids & before)  # fresh workers

    def test_consecutive_sweeps_reuse_the_same_workers(self):
        first = Sweep("v").run([1, 2], _pid_metric, repetitions=4, jobs=2)
        second = Sweep("v").run([1, 2], _pid_metric, repetitions=4, jobs=2)
        pids = {int(t.metrics["pid"])
                for sweep in (first, second) for t in sweep.trials}
        _assert_served_by_warm_workers(pids, 2)  # same warm workers


class TestExecutorFastPaths:
    def test_single_core_host_runs_serially_despite_jobs(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cores", lambda: 1)
        assert TrialExecutor(jobs=4).map(_pid, [(i,) for i in range(4)]) \
            == [os.getpid()] * 4

    def test_daemonic_context_falls_back_to_serial(self, monkeypatch):
        class _Daemon:
            daemon = True

        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: _Daemon())
        assert TrialExecutor(jobs=4).map(_pid, [(i,) for i in range(3)]) \
            == [os.getpid()] * 3

    def test_tiny_payload_runs_in_process(self):
        assert TrialExecutor(jobs=4).map(_pid, [(0,)]) == [os.getpid()]
