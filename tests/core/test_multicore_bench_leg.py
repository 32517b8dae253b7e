"""The perf bench's shape gates on a multi-core host, and its medium leg.

The separate ``multicore`` leg is gone (it reported ``skipped: true`` in
every committed ``BENCH_core.json``); what a multi-core host must show
is demanded by the ``sweep`` leg's gate, pinned here with hand-built
payloads.  The contended medium sub-leg is run once at a tiny size to
pin that it really contends.
"""

import pytest

import benchmarks.bench_perf_core as bench


class TestMulticoreLeg:
    def _payload(self, usable, sweep):
        return {
            "host": {"usable_cores": usable},
            "kernel": {"events_per_sec": 100_000},
            "medium": {"frames_per_sec": 5_000, "deliveries": 10,
                       "contended_frames_per_sec": 2_000,
                       "contended_collisions": 7,
                       "contended_deliveries": 3},
            "sweep": sweep,
            "pool_reuse": {"parallel": False},
            "observability": {"events_identical": True,
                              "metrics_identical": True,
                              "events_per_sec_off": 50_000},
            "attribution": {"events_identical": True,
                            "metric_values_identical": True,
                            "exemplars_off_empty": True,
                            "exemplar_entries": 9,
                            "overhead_pct": 0.1},
            "quick": True,
        }

    def test_shape_gate_accepts_fast_multicore(self):
        bench._assert_shape(self._payload(4, {
            "jobs": 4, "speedup": 3.0, "rows_identical": True}))

    def test_shape_gate_rejects_slow_multicore(self):
        with pytest.raises(AssertionError, match="expected >="):
            bench._assert_shape(self._payload(4, {
                "jobs": 4, "speedup": 1.1, "rows_identical": True}))

    def test_shape_gate_rejects_divergent_rows(self):
        with pytest.raises(AssertionError, match="diverged"):
            bench._assert_shape(self._payload(4, {
                "jobs": 4, "speedup": 3.0, "rows_identical": False}))


class TestContendedMediumLeg:
    def test_every_frame_overlaps_and_arbitration_decides(self):
        leg = bench.contended_frames_per_sec(frames=80)
        assert leg["contended_frames"] == 80
        # All but the very first probe find the other senders on air.
        assert leg["contended_cca_busy"] >= 72
        assert leg["contended_collisions"] > leg["contended_deliveries"] > 0
