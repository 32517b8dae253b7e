"""Property tests of the parallel engine's determinism contract.

The claim, fuzzed instead of spot-checked: a parallel ``Sweep`` is
**byte-identical** to its serial twin for every (value set, repetition
count, jobs count) — not just the handful of shapes the unit tests pin.
The ``multicore`` fixture keeps the claim honest on single-core CI,
where the executor would otherwise (correctly) never leave the serial
fast-path.

Examples are deliberately few (each sweep example forks real work
through the warm shared pool) and the pool is shut down once per
module, not per example — reuse across examples is itself the point.

Module-level trial functions: process pools move work through pickle.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.experiment import Sweep  # noqa: E402
from repro.parallel import TrialExecutor  # noqa: E402

FEW = settings(max_examples=12, deadline=None,
               suppress_health_check=[HealthCheck.too_slow])

pytestmark = pytest.mark.usefixtures("multicore")


def _metrics(value, seed):
    """A pure trial: metrics depend only on (value, seed)."""
    return {"m": value * 100.0 + seed, "parity": float((value + seed) % 2)}


def _cube(x):
    return x ** 3


class TestSweepByteIdentity:
    @FEW
    @given(
        values=st.lists(st.integers(min_value=1, max_value=9),
                        min_size=1, max_size=4, unique=True),
        repetitions=st.integers(min_value=1, max_value=4),
        jobs=st.integers(min_value=2, max_value=4),
    )
    def test_parallel_rows_byte_identical_to_serial(
            self, values, repetitions, jobs):
        serial = Sweep("v").run(values, _metrics,
                                repetitions=repetitions, jobs=1)
        parallel = Sweep("v").run(values, _metrics,
                                  repetitions=repetitions, jobs=jobs)
        assert serial.trials == parallel.trials
        assert json.dumps(serial.rows()) == json.dumps(parallel.rows())

    @FEW
    @given(
        tasks=st.integers(min_value=1, max_value=40),
        jobs=st.integers(min_value=2, max_value=5),
    )
    def test_executor_matches_serial_for_any_shape(self, tasks, jobs):
        argses = [(i,) for i in range(tasks)]
        parallel = TrialExecutor(jobs=jobs).map(_cube, argses)
        assert parallel == [i ** 3 for i in range(tasks)]
