"""The warm worker pool: reuse, chunking, failure, and lifecycle.

These are the conformance tests of the pool engine underneath
``TrialExecutor``: workers must survive across dispatches (the whole
point of the pool),
chunking must never change results, exceptions must surface at their
task index, and shutdown must leave no processes behind.

Module-level functions throughout: process pools move work through
pickle (same contract as tests/core/test_parallel.py).
"""

import multiprocessing
import os

import pytest

from repro.core.experiment import Sweep
from repro.parallel import (
    TrialExecutor,
    WorkerPool,
    derive_chunksize,
    shared_pool,
    shutdown_shared_pools,
)
from repro.parallel.pool import CHUNKS_PER_WORKER


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


def _assert_served_by_warm_workers(pids, workers):
    """No PID outside the pool's own, still-living workers served a
    task, the parent never did, and nobody was respawned (a respawn
    would show as one PID too many, or as a PID no longer alive)."""
    alive = {p.pid for p in multiprocessing.active_children()}
    assert pids and pids <= alive
    assert len(pids) <= workers
    assert os.getpid() not in pids


@pytest.fixture(autouse=True)
def _no_leaked_pools():
    """Every test ends with the shared pools torn down."""
    yield
    shutdown_shared_pools()


class TestDeriveChunksize:
    def test_targets_chunks_per_worker(self):
        assert derive_chunksize(80, 4) == 80 // (4 * CHUNKS_PER_WORKER)

    def test_never_below_one_task_per_chunk(self):
        assert derive_chunksize(3, 8) == 1
        assert derive_chunksize(0, 8) == 1

    def test_rounds_up_so_no_worker_idles_a_whole_round(self):
        # 9 tasks over 1 worker -> ceil(9/4) = 3 per chunk, 3 chunks.
        assert derive_chunksize(9, 1) == 3


class TestWorkerPoolLifecycle:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_construction_spawns_nothing(self):
        pool = WorkerPool(2)
        assert not pool.started
        assert pool.dispatches == 0

    def test_first_dispatch_spawns_then_stays_warm(self):
        pool = WorkerPool(2)
        try:
            assert pool.map(_square, [(i,) for i in range(4)]) == [0, 1, 4, 9]
            assert pool.started
            assert pool.dispatches == 1
            pool.map(_square, [(5,)])
            assert pool.dispatches == 2
        finally:
            pool.shutdown()

    def test_same_worker_processes_across_dispatches(self):
        # Which worker takes which chunk is the scheduler's business (a
        # fast worker may drain a whole dispatch alone), so the sets of
        # PIDs two dispatches see need not be equal.  Warm means: every
        # task ran in one of the pool's own workers, those workers are
        # still alive afterwards, and there were never more than two.
        pool = WorkerPool(2)
        try:
            first = set(pool.map(_pid, [(i,) for i in range(16)]))
            second = set(pool.map(_pid, [(i,) for i in range(16)]))
            _assert_served_by_warm_workers(first | second, 2)
        finally:
            pool.shutdown()

    def test_shutdown_leaves_no_processes_and_is_idempotent(self):
        pool = WorkerPool(2)
        pool.map(_square, [(1,), (2,)])
        before = {p.pid for p in multiprocessing.active_children()}
        assert before  # the workers are visible children
        pool.shutdown()
        pool.shutdown()
        after = {p.pid for p in multiprocessing.active_children()}
        assert not (after & before)
        assert not pool.started

    def test_pool_is_reusable_after_shutdown(self):
        pool = WorkerPool(2)
        try:
            pool.map(_square, [(2,)])
            pool.shutdown()
            assert pool.map(_square, [(3,)]) == [9]  # respawned cold
            assert pool.dispatches == 1
        finally:
            pool.shutdown()

    def test_broken_pool_heals_on_next_dispatch(self):
        from concurrent.futures.process import BrokenProcessPool

        pool = WorkerPool(2)
        try:
            with pytest.raises(BrokenProcessPool):
                pool.map(_die, [(i,) for i in range(2)])
            # The broken executor was released; this dispatch respawns.
            assert pool.map(_square, [(4,)]) == [16]
        finally:
            pool.shutdown()


class TestChunkedDispatch:
    def test_chunksize_never_changes_results(self):
        argses = [(i,) for i in range(23)]
        expected = [i * i for i in range(23)]
        pool = WorkerPool(2)
        try:
            for chunksize in (None, 1, 2, 7, 23, 100):
                assert pool.map(_square, argses, chunksize=chunksize) \
                    == expected
        finally:
            pool.shutdown()

    def test_results_merge_by_index_not_arrival(self):
        pool = WorkerPool(3)
        try:
            assert pool.map(_square, [(i,) for i in range(30)], chunksize=1) \
                == [i * i for i in range(30)]
        finally:
            pool.shutdown()

    def test_exception_surfaces_at_failing_index(self):
        pool = WorkerPool(2)
        try:
            for chunksize in (1, 2, 10):
                it = pool.imap(_fail_on, [(i,) for i in range(6)],
                               chunksize=chunksize)
                assert [next(it), next(it), next(it)] == [0, 1, 2]
                with pytest.raises(ValueError, match="boom at 3"):
                    next(it)
        finally:
            pool.shutdown()

    def test_empty_dispatch_spawns_nothing(self):
        pool = WorkerPool(2)
        assert pool.map(_square, []) == []
        assert not pool.started


class TestSharedPools:
    def test_same_size_same_pool(self):
        assert shared_pool(2) is shared_pool(2)
        assert shared_pool(2) is not shared_pool(3)

    def test_shutdown_shared_pools_resets_the_registry(self):
        pool = shared_pool(2)
        pool.map(_square, [(1,)])
        shutdown_shared_pools()
        assert not pool.started
        assert shared_pool(2) is not pool

    def test_consecutive_sweeps_reuse_the_same_workers(self, monkeypatch):
        # Force the pool even on a 1-core host: this is exactly the
        # REPRO_PARALLEL_FORCE escape hatch's reason to exist.
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
        first = Sweep("v").run([1, 2], _pid_metric, repetitions=4, jobs=2)
        dispatches_after_first = shared_pool(2).dispatches
        second = Sweep("v").run([1, 2], _pid_metric, repetitions=4, jobs=2)
        pids = {int(t.metrics["pid"])
                for sweep in (first, second) for t in sweep.trials}
        _assert_served_by_warm_workers(pids, 2)  # same warm workers
        assert shared_pool(2).dispatches == dispatches_after_first + 1


class TestExecutorFastPaths:
    def test_single_core_host_runs_serially_despite_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_FORCE", raising=False)
        monkeypatch.setattr("repro.parallel.executor.usable_cores", lambda: 1)
        assert TrialExecutor(jobs=4).map(_pid, [(i,) for i in range(4)]) \
            == [os.getpid()] * 4

    def test_force_overrides_the_single_core_fast_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")
        monkeypatch.setattr("repro.parallel.executor.usable_cores", lambda: 1)
        pids = TrialExecutor(jobs=2).map(_pid, [(i,) for i in range(4)])
        assert os.getpid() not in pids

    def test_daemonic_context_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_FORCE", "1")

        class _Daemon:
            daemon = True

        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: _Daemon())
        assert TrialExecutor(jobs=4).map(_pid, [(i,) for i in range(3)]) \
            == [os.getpid()] * 3

    def test_tiny_payload_runs_in_process(self):
        assert TrialExecutor(jobs=4).map(_pid, [(0,)]) == [os.getpid()]
