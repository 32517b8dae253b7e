"""Histogram exemplars: bounded trace links that never touch metrics.

The reservoir contract (DESIGN.md, "Latency attribution"):

- ``Registry.observe(..., exemplar=trace_id)`` keeps the first
  ``EXEMPLARS_PER_BUCKET`` ``(value, trace_id)`` pairs per log
  bucket per series — first-K, not last-K, so the links are stable
  under later traffic;
- exemplars never alter counter/gauge/histogram values, so every
  committed diff baseline is unaffected by them;
- snapshots freeze, JSON round-trips, and the ``exemplars`` key is
  emitted only when non-empty (pre-exemplar baselines stay
  byte-identical).
"""

import json

import pytest

import repro.obs.registry
from repro.obs.registry import (
    EXEMPLARS_PER_BUCKET,
    MetricsSnapshot,
    Registry,
    log_bucket,
)


def _observe_decade(registry, name, trace_base=100, **labels):
    """Three well-separated values (distinct log buckets)."""
    for i, value in enumerate((0.002, 0.2, 20.0)):
        registry.observe(name, value, exemplar=trace_base + i, **labels)


class TestReservoir:
    def test_exemplar_links_value_to_trace(self):
        registry = Registry()
        registry.observe("lat", 0.25, exemplar=41, port=7)
        assert registry.snapshot().exemplars_for("lat") == [(0.25, 41)]

    def test_exemplars_for_sorts_worst_value_first(self):
        registry = Registry()
        _observe_decade(registry, "lat", port=7)
        values = [value for value, _trace in registry.snapshot().exemplars_for("lat")]
        assert values == sorted(values, reverse=True)

    def test_first_k_per_bucket_wins(self):
        registry = Registry()
        # Six observations landing in one log bucket: only the first
        # four trace links survive; the histogram keeps all six values.
        values = [0.1, 0.101, 0.102, 0.103, 0.104, 0.105]
        for i, value in enumerate(values):
            registry.observe("lat", value, exemplar=10 + i)
        assert EXEMPLARS_PER_BUCKET == 4
        assert registry.snapshot().exemplars_for("lat") == [
            (0.103, 13), (0.102, 12), (0.101, 11), (0.1, 10)]
        assert len(registry.histograms[("lat", ())]) == 6

    def test_observation_without_exemplar_records_nothing(self):
        registry = Registry()
        registry.observe("lat", 0.25)
        assert registry.snapshot().exemplars_for("lat") == []

    def test_exemplars_never_change_metric_values(self):
        plain, annotated = Registry(), Registry()
        for i, value in enumerate((0.1, 0.2, 0.3, 0.2)):
            plain.observe("lat", value, port=1)
            annotated.observe("lat", value, exemplar=i, port=1)
        a, b = plain.snapshot(), annotated.snapshot()
        assert a.counters == b.counters
        assert a.histograms == b.histograms
        assert a.rows() == b.rows()  # the CSV surface is identical too
        assert not a.exemplars and b.exemplars


class TestSnapshotAndJson:
    def test_snapshot_freezes_against_later_observations(self):
        registry = Registry()
        registry.observe("lat", 0.25, exemplar=41)
        snap = registry.snapshot()
        registry.observe("lat", 25.0, exemplar=99)
        assert snap.exemplars_for("lat") == [(0.25, 41)]

    def test_snapshot_freezes_in_histogram_order_with_buckets_sorted(self):
        registry = Registry()
        registry.observe("b", 0.1)              # a series without exemplars
        for value, trace in ((20.0, 1), (0.002, 2), (0.2, 3), (0.0021, 4)):
            registry.observe("a", value, exemplar=trace)
        registry.observe("b", 5.0, exemplar=5)
        snap = registry.snapshot()
        # Keyed in the histograms' first-write order, not by name.
        assert list(snap.exemplars) == [("b", ()), ("a", ())]
        cap, buckets = snap.exemplars[("a", ())]
        assert cap == EXEMPLARS_PER_BUCKET
        assert [idx for idx, _entries in buckets] == sorted(
            {log_bucket(v) for v in (20.0, 0.002, 0.2, 0.0021)})
        # Within a bucket, entries stay in observation order.
        assert buckets[0][1] == ((0.002, 2), (0.0021, 4))

    def test_json_round_trip(self):
        registry = Registry()
        _observe_decade(registry, "lat", port=7)
        registry.inc("sent")
        snap = registry.snapshot()
        clone = MetricsSnapshot.from_jsonable(
            json.loads(json.dumps(snap.to_jsonable())))
        assert clone == snap
        assert clone.exemplars_for("lat") == snap.exemplars_for("lat")

    def test_exemplars_key_absent_when_empty(self):
        registry = Registry()
        registry.observe("lat", 0.25)  # no exemplar= anywhere
        payload = registry.snapshot().to_jsonable()
        # Pre-exemplar baselines must stay byte-identical: the key only
        # appears when a reservoir actually holds entries.
        assert "exemplars" not in payload

    def test_exemplars_key_present_when_recorded(self):
        registry = Registry()
        registry.observe("lat", 0.25, exemplar=41)
        payload = registry.snapshot().to_jsonable()
        assert payload["exemplars"] == [{
            "name": "lat", "labels": {}, "cap": 4,
            "buckets": [[log_bucket(0.25), [[0.25, 41]]]],
        }]


class TestSystemRun:
    def test_reservoirs_never_change_an_instrumented_run(self, monkeypatch):
        """A whole instrumented run is the same run with reservoirs and
        with ``EXEMPLARS_PER_BUCKET`` at 0: same events, same metric
        values — only the annotations differ."""
        from repro.core.system import IIoTSystem, SystemConfig
        from repro.deployment.topology import grid_topology

        def run():
            config = SystemConfig(observability=True)
            system = IIoTSystem.build(grid_topology(3), config=config, seed=13)
            system.start()
            system.run(600.0)
            return system.sim.events_processed, system.obs.registry.snapshot()

        events_on, on = run()
        monkeypatch.setattr(repro.obs.registry, "EXEMPLARS_PER_BUCKET", 0)
        events_off, off = run()
        assert events_on == events_off
        assert on.counters == off.counters
        assert on.gauges == off.gauges
        assert on.histograms == off.histograms
        names = {name for name, _labels in on.exemplars}
        assert names == {name for name, _labels in off.exemplars}
        assert all(on.exemplars_for(name) for name in names)
        assert not any(off.exemplars_for(name) for name in names)
