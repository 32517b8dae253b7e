"""The parallel trial engine: determinism, fallback, error semantics.

The module-level functions below are the executor's dispatch targets —
process pools move work through pickle, so they cannot be closures.
"""

import math
import os
import time

import pytest

from repro.core.experiment import Sweep, Trial
from repro.parallel import TrialExecutor, usable_cores

JOBS = 4  # more workers than cores is fine: determinism must not care


def _square(x):
    return x * x


def _pid(_x):
    return os.getpid()


def _sleep_inverse(index):
    """Later tasks finish first: forces out-of-order completion."""
    time.sleep(0.05 * (3 - index) if index < 3 else 0.0)
    return index


def _fail_on(x):
    if x == 2:
        raise ValueError(f"boom at {x}")
    return x


def _seeded_metrics(value, seed):
    """A scenario shaped like a real trial: pure function of its args."""
    return {"m": value * 1000.0 + (seed % 97), "seed": float(seed)}


def _sparse_metrics(value, seed):
    """Different values report different metric sets."""
    metrics = {"always": float(len(value))}
    if value == "a":
        metrics["only_a"] = float(seed)
    if value == "b" and seed % 2 == 0:
        metrics["sometimes_b"] = 1.0
    return metrics


class TestResolveJobs:
    def test_explicit_count_is_literal(self):
        assert TrialExecutor(jobs=1).jobs == 1
        assert TrialExecutor(jobs=7).jobs == 7

    def test_none_and_zero_mean_all_cores(self):
        assert TrialExecutor(jobs=None).jobs == usable_cores() >= 1
        assert TrialExecutor(jobs=0).jobs == usable_cores()
        assert TrialExecutor(jobs=-1).jobs == usable_cores()


@pytest.mark.usefixtures("multicore")
class TestPicklabilityProbe:
    """Only a payload that pickles reaches a worker; any other runs in
    this process, in order."""

    def test_module_level_function_passes(self):
        pids = TrialExecutor(jobs=2).map(_pid, [(1,), (2,)])
        assert os.getpid() not in pids

    def test_lambda_fails(self):
        pid = lambda x: os.getpid()  # noqa: E731 - the point is the lambda
        assert TrialExecutor(jobs=2).map(pid, [(1,), (2,)]) \
            == [os.getpid()] * 2

    def test_unpicklable_argument_fails(self):
        assert TrialExecutor(jobs=2).map(_pid, [(lambda: None,), (2,)]) \
            == [os.getpid()] * 2


class TestTrialExecutor:
    def test_serial_map_preserves_order(self):
        assert TrialExecutor(jobs=1).map(_square, [(i,) for i in range(6)]) \
            == [0, 1, 4, 9, 16, 25]

    def test_parallel_map_merges_by_index_not_arrival(self):
        results = TrialExecutor(jobs=JOBS).map(
            _sleep_inverse, [(i,) for i in range(6)])
        assert results == [0, 1, 2, 3, 4, 5]

    def test_parallel_equals_serial(self):
        argses = [(i,) for i in range(10)]
        assert (TrialExecutor(jobs=JOBS).map(_square, argses)
                == TrialExecutor(jobs=1).map(_square, argses))

    def test_unpicklable_fn_falls_back_to_serial(self):
        doubler = lambda x: 2 * x  # noqa: E731 - the point is the lambda
        assert TrialExecutor(jobs=JOBS).map(doubler, [(i,) for i in range(4)]) \
            == [0, 2, 4, 6]

    def test_single_task_runs_in_process(self):
        assert TrialExecutor(jobs=JOBS).map(os.getpid, [()]) == [os.getpid()]

    def test_error_propagates_in_parallel(self):
        with pytest.raises(ValueError, match="boom at 2"):
            TrialExecutor(jobs=JOBS).map(_fail_on, [(i,) for i in range(5)])

    def test_error_propagates_in_serial(self):
        with pytest.raises(ValueError, match="boom at 2"):
            TrialExecutor(jobs=1).map(_fail_on, [(i,) for i in range(5)])


class TestSweepParallelDeterminism:
    def test_rows_identical_across_jobs_counts(self):
        values, reps = [1, 2, 3, 4], 5
        serial = Sweep("v").run(values, _seeded_metrics, repetitions=reps,
                                jobs=1)
        parallel = Sweep("v").run(values, _seeded_metrics, repetitions=reps,
                                  jobs=JOBS)
        assert serial.trials == parallel.trials
        assert serial.rows() == parallel.rows()

    def test_closure_scenario_still_sweeps(self):
        offset = 5.0
        sweep = Sweep("v").run([1, 2], lambda v, s: {"m": v + offset},
                               repetitions=2, jobs=JOBS)
        assert [row["m"] for row in sweep.rows()] == [6.0, 7.0]


class TestSweepRows:
    def test_metric_missing_from_all_trials_of_a_value_is_nan(self):
        sweep = Sweep("v")
        sweep.trials = [
            Trial({"v": "a"}, 1, {"always": 1.0, "only_a": 3.0}),
            Trial({"v": "b"}, 2, {"always": 2.0}),
        ]
        rows = sweep.rows()
        assert rows[0]["only_a"] == 3.0
        assert math.isnan(rows[1]["only_a"])

    def test_partially_reported_metric_averages_present_samples(self):
        sweep = Sweep("v")
        sweep.trials = [
            Trial({"v": "b"}, 1, {"always": 1.0, "sometimes_b": 4.0}),
            Trial({"v": "b"}, 2, {"always": 3.0}),
        ]
        (row,) = sweep.rows()
        assert row["sometimes_b"] == 4.0  # mean over reporting trials only
        assert row["always"] == 2.0

    def test_columns_uniform_and_deterministic_across_jobs(self):
        values, reps = ["a", "b", "c"], 4
        serial = Sweep("v").run(values, _sparse_metrics, repetitions=reps,
                                jobs=1)
        parallel = Sweep("v").run(values, _sparse_metrics, repetitions=reps,
                                  jobs=JOBS)
        serial_cols = [list(row) for row in serial.rows()]
        parallel_cols = [list(row) for row in parallel.rows()]
        assert serial_cols == parallel_cols
        # Every row carries every metric column, in first-appearance order.
        assert serial_cols[0] == ["v", "always", "only_a", "sometimes_b"]
        assert len({tuple(cols) for cols in serial_cols}) == 1
