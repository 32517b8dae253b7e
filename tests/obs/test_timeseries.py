"""The windowed telemetry engine: scraping, retention, codec.

Covers the contracts of ``repro.obs.timeseries``:

- a window is a metrics snapshot of its interval: counter *deltas*,
  gauge *levels*, the histogram observations recorded *during* it,
  with zero-activity series suppressed;
- the retention ring bounds memory and counts (never hides) evictions;
- the scrape schedule is pure sim-time and draws no RNG;
- windows round-trip through the one snapshot codec (``repro.window/2``).
"""

import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import timeseries
from repro.obs.registry import MetricsSnapshot, Registry
from repro.obs.timeseries import TelemetryEngine, TelemetryWindow
from repro.sim.kernel import Simulator
from tests.conftest import read_windows_jsonl


def make_engine(sim=None, registry=None, **kwargs):
    sim = sim if sim is not None else Simulator(seed=7)
    registry = registry if registry is not None else Registry()
    kwargs.setdefault("interval_s", 10.0)
    engine = TelemetryEngine(sim, registry, **kwargs)
    engine.start()
    return sim, registry, engine


class TestWindows:
    def test_counters_are_deltas_not_totals(self):
        sim, registry, engine = make_engine()
        sim.schedule_at(2.0, lambda: registry.inc("pkts", amount=3.0, node=1))
        sim.schedule_at(12.0, lambda: registry.inc("pkts", amount=5.0, node=1))
        sim.run(until=20.0)
        key = ("pkts", (("node", 1),))
        windows = engine.windows
        assert windows[0].counters[key] == 3.0
        assert windows[1].counters[key] == 5.0

    def test_zero_delta_series_suppressed(self):
        sim, registry, engine = make_engine()
        sim.schedule_at(2.0, lambda: registry.inc("pkts", node=1))
        sim.run(until=20.0)
        # window 1 saw no new increments: the series must be absent,
        # not present-with-zero (50k quiet nodes must cost nothing).
        assert ("pkts", (("node", 1),)) not in engine.windows[1].counters

    def test_gauges_are_levels(self):
        sim, registry, engine = make_engine()
        sim.schedule_at(2.0, lambda: registry.set("temp", 21.0, node=1))
        sim.schedule_at(12.0, lambda: registry.set("temp", 25.0, node=1))
        sim.run(until=20.0)
        key = ("temp", (("node", 1),))
        assert engine.windows[0].gauges[key] == 21.0
        assert engine.windows[1].gauges[key] == 25.0

    def test_histograms_are_count_sum_deltas(self):
        sim, registry, engine = make_engine()
        sim.schedule_at(2.0, lambda: registry.observe("lat", 0.5, node=1))
        sim.schedule_at(3.0, lambda: registry.observe("lat", 1.5, node=1))
        sim.schedule_at(12.0, lambda: registry.observe("lat", 4.0, node=1))
        sim.run(until=20.0)
        key = ("lat", (("node", 1),))
        # Each window holds exactly its own observations, so its count
        # and sum are the deltas over the window.
        assert engine.windows[0].histograms[key] == (0.5, 1.5)
        assert engine.windows[1].histograms[key] == (4.0,)
        assert engine.windows[1].histogram_values("lat") == [4.0]

    def test_window_times_and_indices(self):
        sim, registry, engine = make_engine()
        sim.run(until=35.0)
        windows = engine.windows
        assert [(w.index, w.start, w.end) for w in windows] == [
            (0, 0.0, 10.0), (1, 10.0, 20.0), (2, 20.0, 30.0)]

    def test_scrape_draws_no_rng(self):
        sim = Simulator(seed=7)
        state_before = sim.rng.getstate()
        registry = Registry()
        engine = TelemetryEngine(sim, registry, interval_s=10.0)
        engine.start()
        sim.run(until=50.0)
        assert sim.rng.getstate() == state_before
        assert engine.windows_closed == 5

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 49.0), st.sampled_from(
        ["lat", "hops", "a.b"]), st.integers(0, 5), st.floats(0.0, 9.0)),
        max_size=40))
    def test_windows_equal_a_per_window_sort(self, observations):
        """The scrape order is sorted again only when a series appears;
        every window is byte-identical to one sorted afresh."""

        class Resorting(TelemetryEngine):
            def _scrape(self):
                self._hist_order = []
                super()._scrape()

        def windows(cls):
            sim, registry = Simulator(seed=7), Registry()
            engine = cls(sim, registry, interval_s=10.0)
            engine.start()
            for t, name, node, value in observations:
                sim.schedule_at(t, lambda name=name, value=value, node=node:
                                registry.observe(name, value, node=node))
            sim.run(until=50.0)
            return [json.dumps(w.to_jsonable(), sort_keys=True)
                    for w in engine.windows]

        assert windows(TelemetryEngine) == windows(Resorting)


class TestRetention:
    def test_ring_bounds_windows_and_counts_drops(self, monkeypatch):
        monkeypatch.setattr(timeseries, "RETENTION", 3)
        sim, registry, engine = make_engine()
        sim.run(until=75.0)
        assert engine.windows_closed == 7
        assert len(engine.windows) == 3
        assert engine.dropped == 4
        assert [w.index for w in engine.windows] == [4, 5, 6]

    def test_invalid_parameters_rejected(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError):
            TelemetryEngine(sim, Registry(), interval_s=0.0)


class TestCodecAndSnapshot:
    def _sample_window(self):
        window = TelemetryWindow(index=3, start=30.0, end=40.0)
        window.counters[("pkts", (("domain", "b0"),))] = 4.0
        window.gauges[("temp", (("node", 1),))] = 22.5
        window.histograms[("lat", ())] = (0.2, 0.3, 0.4)
        return window

    def test_window_json_roundtrip(self):
        window = self._sample_window()
        payload = json.loads(json.dumps(window.to_jsonable()))
        assert payload["format"] == "repro.window/2"
        assert TelemetryWindow.from_jsonable(payload) == window

    def test_window_is_a_snapshot_with_a_header(self):
        window = self._sample_window()
        payload = window.to_jsonable()
        series = MetricsSnapshot.from_jsonable(
            dict(payload, format=MetricsSnapshot.FORMAT))
        assert series == MetricsSnapshot(counters=window.counters,
                                         gauges=window.gauges,
                                         histograms=window.histograms)
        assert window.counter_total("pkts") == 4.0
        assert (payload["index"], payload["start"], payload["end"]) == (3, 30.0, 40.0)

    def test_codecs_reject_each_others_format(self):
        window = self._sample_window()
        with pytest.raises(ValueError, match="repro.metrics/1"):
            MetricsSnapshot.from_jsonable(window.to_jsonable())
        with pytest.raises(ValueError, match="repro.window/2"):
            TelemetryWindow.from_jsonable(MetricsSnapshot().to_jsonable())

    def test_sink_streams_windows_as_jsonl(self, tmp_path):
        path = tmp_path / "live.jsonl"
        with open(path, "w") as sink:
            sim, registry, engine = make_engine()
            engine.sink = sink
            sim.schedule_at(1.0, lambda: registry.inc("pkts", node=0))
            sim.run(until=25.0)
        windows = read_windows_jsonl(path.read_text().splitlines())
        assert [w.index for w in windows] == [0, 1]
        assert windows[0].counters[("pkts", (("node", 0),))] == 1.0


class TestSystemIntegration:
    def test_system_run_windows_per_node_series(self):
        """A (small) grid run produces per-node windowed series inside
        the engine's default retention ring."""
        from repro.core.system import IIoTSystem, SystemConfig
        from repro.deployment.topology import grid_topology

        config = SystemConfig(observability=True,
                              telemetry_interval_s=30.0)
        system = IIoTSystem.build(grid_topology(3), config=config, seed=11)
        system.start()
        system.run(240.0)

        engine = system.telemetry
        assert engine is not None and system.obs.telemetry is engine
        assert engine.windows_closed == 8
        assert len(engine.windows) == 8 <= timeseries.RETENTION
        assert engine.dropped == 0
        nodes = {dict(labels).get("node") for window in engine.windows
                 for (name, labels) in window.counters}
        assert nodes - {None} == set(range(9))
        # The windows as JSON, pinned: a scrape that moves a byte fails.
        text = "\n".join(json.dumps(w.to_jsonable(), sort_keys=True)
                         for w in engine.windows)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "45230c0333fdcc7b444cb425b9a4e29a18ee08b255ee4b6f37afc353187d5cae")

    def test_telemetry_requires_observability(self):
        from repro.core.system import IIoTSystem, SystemConfig
        from repro.deployment.topology import grid_topology

        with pytest.raises(ValueError, match="observability=True"):
            IIoTSystem.build(grid_topology(2),
                             config=SystemConfig(telemetry_interval_s=10.0),
                             seed=1)

    @pytest.mark.parametrize("interval", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_interval_fails_at_build(self, interval):
        """NaN would fail only at ``start()`` (the kernel's negative-or-
        NaN delay) and inf would attach an engine that never scrapes:
        both are refused before the system is built — when its config is
        made — like 0 and -1."""
        from repro.core.system import IIoTSystem, SystemConfig
        from repro.deployment.topology import grid_topology

        with pytest.raises(ValueError,
                           match="SystemConfig.telemetry_interval_s"):
            config = SystemConfig(observability=True,
                                  telemetry_interval_s=interval)
            IIoTSystem.build(grid_topology(2), config=config, seed=1)

    def test_telemetry_off_schedules_nothing(self):
        from repro.core.system import IIoTSystem, SystemConfig
        from repro.deployment.topology import grid_topology

        system = IIoTSystem.build(grid_topology(2),
                                  config=SystemConfig(observability=True),
                                  seed=1)
        assert system.telemetry is None
