"""Property tests of the parallel engine's determinism contract.

Two claims, fuzzed instead of spot-checked:

1. A parallel ``Sweep`` is **byte-identical** to its serial twin for
   every (value set, repetition count, jobs count) — not just the
   handful of shapes the unit tests pin.  The ``multicore`` fixture
   keeps the claim honest on single-core CI, where the executor would
   otherwise (correctly) never leave the serial fast-path.
2. ``MetricsSnapshot.merge`` is order-invariant exactly where the
   design says it is: counters and histogram *contents* survive any
   arrival permutation, and merging in trial-index order — the order
   every executor yields — reproduces the serial aggregate including
   last-write-wins gauges.

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
from repro.obs.registry import MetricsSnapshot  # noqa: E402
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


# ----------------------------------------------------------------------
# MetricsSnapshot merge-order semantics
# ----------------------------------------------------------------------
_label = st.tuples(st.just("node"), st.integers(min_value=0, max_value=3))
_key = st.tuples(st.sampled_from(["net.sent", "mac.tx", "rpl.rank"]),
                 st.tuples(_label))
_value = st.floats(min_value=0.0, max_value=1e6,
                   allow_nan=False, allow_infinity=False)


def _snapshots(draw):
    count = draw(st.integers(min_value=1, max_value=6))
    snaps = []
    for _ in range(count):
        snaps.append(MetricsSnapshot(
            counters=draw(st.dictionaries(_key, _value, max_size=4)),
            gauges=draw(st.dictionaries(_key, _value, max_size=4)),
            histograms=draw(st.dictionaries(
                _key, st.tuples(_value, _value), max_size=3)),
        ))
    return snaps


_snapshot_lists = st.composite(lambda draw: _snapshots(draw))()


class TestSnapshotMergeOrder:
    @FEW
    @given(snaps=_snapshot_lists, data=st.data())
    def test_counters_and_histogram_contents_permutation_invariant(
            self, snaps, data):
        order = data.draw(st.permutations(range(len(snaps))))
        merged = MetricsSnapshot.merge(snaps)
        permuted = MetricsSnapshot.merge([snaps[i] for i in order])
        assert merged.counters == pytest.approx(permuted.counters)
        assert set(merged.histograms) == set(permuted.histograms)
        for key, values in merged.histograms.items():
            assert sorted(values) == sorted(permuted.histograms[key])

    @FEW
    @given(snaps=_snapshot_lists, data=st.data())
    def test_index_order_merge_recovers_serial_aggregate(self, snaps, data):
        """The executor contract in snapshot form: results may *arrive*
        in any order, but they are yielded — and therefore merged — by
        trial index, so even gauges (last-write-wins) agree."""
        arrival = data.draw(st.permutations(list(enumerate(snaps))))
        by_index = [snap for _, snap in sorted(arrival, key=lambda p: p[0])]
        assert MetricsSnapshot.merge(by_index) == MetricsSnapshot.merge(snaps)
