"""The windowed telemetry engine: scraping, rollup, retention, alerts.

Covers the tentpole contracts of ``repro.obs.timeseries``:

- windows carry counter *deltas*, gauge *levels*, histogram
  ``(count, sum)`` deltas, with zero-activity series suppressed;
- per-domain rollup folds ``node=`` labels through ``domain_of``;
- the retention ring bounds memory and counts (never hides) evictions;
- the scrape schedule is pure sim-time and draws no RNG;
- alert rules fire counters + pinned spans deterministically;
- the JSONL window codec round-trips.
"""

import json

import pytest

from repro.obs import Observability
from repro.obs.registry import Registry
from repro.obs.timeseries import (AlertRule, TelemetryEngine,
                                  TelemetrySnapshot, TelemetryWindow,
                                  window_from_jsonable, window_to_jsonable)
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
        assert engine.windows[0].histograms[key] == (2.0, 2.0)
        assert engine.windows[1].histograms[key] == (1.0, 4.0)

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


class TestRollup:
    @staticmethod
    def domain_of(node_id):
        return f"bldg-{node_id // 2}" if node_id < 4 else None

    def test_counter_rollup_sums_per_domain(self):
        sim, registry, engine = make_engine(domain_of=self.domain_of)
        for node in range(4):
            sim.schedule_at(1.0 + node, lambda n=node: registry.inc("pkts", node=n))
        sim.run(until=10.5)
        window = engine.windows[0]
        assert window.counters[("pkts", (("domain", "bldg-0"),))] == 2.0
        assert window.counters[("pkts", (("domain", "bldg-1"),))] == 2.0

    def test_gauge_rollup_averages_per_domain(self):
        sim, registry, engine = make_engine(domain_of=self.domain_of)
        sim.schedule_at(1.0, lambda: registry.set("temp", 20.0, node=0))
        sim.schedule_at(1.0, lambda: registry.set("temp", 30.0, node=1))
        sim.run(until=10.5)
        assert engine.windows[0].gauges[("temp", (("domain", "bldg-0"),))] == 25.0

    def test_unmapped_nodes_keep_node_label(self):
        sim, registry, engine = make_engine(domain_of=self.domain_of)
        sim.schedule_at(1.0, lambda: registry.inc("pkts", node=9))
        sim.run(until=10.5)
        assert engine.windows[0].counters[("pkts", (("node", 9),))] == 1.0

    def test_unlabeled_series_pass_through(self):
        sim, registry, engine = make_engine(domain_of=self.domain_of)
        sim.schedule_at(1.0, lambda: registry.inc("global.events"))
        sim.run(until=10.5)
        assert engine.windows[0].counters[("global.events", ())] == 1.0


class TestRetention:
    def test_ring_bounds_windows_and_counts_drops(self):
        sim, registry, engine = make_engine(retention=3)
        sim.run(until=75.0)
        assert engine.windows_closed == 7
        assert len(engine.windows) == 3
        assert engine.dropped == 4
        assert [w.index for w in engine.windows] == [4, 5, 6]
        assert engine.snapshot().dropped == 4

    def test_recent_returns_last_k(self):
        sim, registry, engine = make_engine(retention=5)
        sim.run(until=55.0)
        assert [w.index for w in engine.recent(2)] == [3, 4]
        assert engine.recent(0) == []

    def test_invalid_parameters_rejected(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError):
            TelemetryEngine(sim, Registry(), interval_s=0.0)
        with pytest.raises(ValueError):
            TelemetryEngine(sim, Registry(), interval_s=1.0, retention=0)


class TestAlerts:
    def test_threshold_rule_fires_counter_and_span(self):
        obs = Observability(spans=True)
        sim = Simulator(seed=3)
        engine = TelemetryEngine(
            sim, obs.registry, interval_s=10.0, spans=obs.spans,
            rules=[AlertRule("hot", "temp", threshold=30.0)])
        engine.start()
        sim.schedule_at(1.0, lambda: obs.registry.set("temp", 35.0, node=2))
        sim.run(until=10.5)
        window = engine.windows[0]
        assert window.alerts == ("hot",)
        assert engine.alerts_fired == 1
        snap = obs.registry.snapshot()
        assert snap.counters[("alert.fired",
                              (("node", 2), ("rule", "hot")))] == 1.0
        alert_spans = [s for s in obs.spans.spans.values()
                       if s.category == "alert.hot"]
        assert len(alert_spans) == 1
        assert alert_spans[0].data["metric"] == "temp"

    def test_alert_spans_survive_sampling(self):
        # rate 0.0 stores nothing except pinned categories
        obs = Observability(spans=True, span_sample_rate=0.0)
        sim = Simulator(seed=3)
        engine = TelemetryEngine(
            sim, obs.registry, interval_s=10.0, spans=obs.spans,
            rules=[AlertRule("hot", "temp", threshold=30.0)])
        engine.start()
        sim.schedule_at(1.0, lambda: obs.registry.set("temp", 35.0))
        sim.run(until=10.5)
        assert any(s.category == "alert.hot" for s in obs.spans.spans.values())

    def test_alert_span_links_worst_exemplar_traces(self):
        obs = Observability(spans=True)
        sim = Simulator(seed=3)
        engine = TelemetryEngine(
            sim, obs.registry, interval_s=10.0, spans=obs.spans,
            rules=[AlertRule("slow", "lat", threshold=2.0,
                             kind="histogram_count")])
        engine.start()

        def burst():
            for i, value in enumerate((0.5, 0.9, 0.7)):
                obs.registry.observe("lat", value, exemplar=100 + i, node=1)

        sim.schedule_at(1.0, burst)
        sim.run(until=10.5)
        alert_span = next(s for s in obs.spans.spans.values()
                          if s.category == "alert.slow")
        # Worst-value-first trace links, straight from the reservoir —
        # the ids `repro explain --trace` attributes post-mortem.
        assert alert_span.data["exemplars"] == [101, 102, 100]

    def test_alert_span_omits_exemplars_when_none_recorded(self):
        obs = Observability(spans=True)
        sim = Simulator(seed=3)
        engine = TelemetryEngine(
            sim, obs.registry, interval_s=10.0, spans=obs.spans,
            rules=[AlertRule("hot", "temp", threshold=30.0)])
        engine.start()
        sim.schedule_at(1.0, lambda: obs.registry.set("temp", 35.0))
        sim.run(until=10.5)
        alert_span = next(s for s in obs.spans.spans.values()
                          if s.category == "alert.hot")
        assert "exemplars" not in alert_span.data

    def test_below_threshold_does_not_fire(self):
        sim, registry, engine = make_engine(
            rules=[AlertRule("hot", "temp", threshold=30.0)])
        sim.schedule_at(1.0, lambda: registry.set("temp", 25.0))
        sim.run(until=10.5)
        assert engine.windows[0].alerts == ()
        assert engine.alerts_fired == 0

    def test_rate_of_change_rule(self):
        sim, registry, engine = make_engine(
            rules=[AlertRule("surge", "pkts", threshold=5.0,
                             kind="counter", rate=True)])
        # window 0: 2 pkts; window 1: 10 pkts -> rate +8 > 5 fires.
        sim.schedule_at(1.0, lambda: registry.inc("pkts", amount=2.0))
        sim.schedule_at(11.0, lambda: registry.inc("pkts", amount=10.0))
        sim.run(until=20.5)
        assert engine.windows[0].alerts == ()
        assert engine.windows[1].alerts == ("surge",)

    def test_less_than_rule(self):
        sim, registry, engine = make_engine(
            rules=[AlertRule("stall", "delivered", threshold=1.0,
                             kind="counter", op="<")])
        # deliveries happen in window 0 only; window 1's delta is 0 but
        # the series is suppressed (no activity) so the rule has no
        # series to match — stalls are detected while traffic trickles,
        # not in fully-quiet windows.
        sim.schedule_at(1.0, lambda: registry.inc("delivered", amount=3.0))
        sim.schedule_at(11.0, lambda: registry.inc("delivered", amount=0.5))
        sim.run(until=20.5)
        assert engine.windows[0].alerts == ()
        assert engine.windows[1].alerts == ("stall",)

    def test_invalid_rules_rejected(self):
        with pytest.raises(ValueError):
            AlertRule("bad", "m", threshold=1.0, op=">=")
        with pytest.raises(ValueError):
            AlertRule("bad", "m", threshold=1.0, kind="summary")


class TestCodecAndSnapshot:
    def _sample_window(self):
        window = TelemetryWindow(index=3, start=30.0, end=40.0,
                                 alerts=("hot",))
        window.counters[("pkts", (("domain", "b0"),))] = 4.0
        window.gauges[("temp", (("node", 1),))] = 22.5
        window.histograms[("lat", ())] = (3.0, 0.9)
        return window

    def test_window_json_roundtrip(self):
        window = self._sample_window()
        payload = json.loads(json.dumps(window_to_jsonable(window)))
        assert window_from_jsonable(payload) == window

    def test_snapshot_merge_in_order(self):
        a = TelemetrySnapshot(windows=[self._sample_window()], dropped=2)
        b = TelemetrySnapshot(windows=[self._sample_window()], dropped=1)
        merged = TelemetrySnapshot.merge([a, b])
        assert len(merged.windows) == 2
        assert merged.dropped == 3
        assert merged.to_jsonable() == TelemetrySnapshot.from_jsonable(
            merged.to_jsonable()).to_jsonable()

    def test_snapshot_series_extraction(self):
        snap = TelemetrySnapshot(windows=[self._sample_window()])
        assert snap.series("temp", node=1) == [(40.0, 22.5)]
        assert snap.series("pkts", domain="b0") == [(40.0, 4.0)]
        assert snap.series("missing") == []

    def test_sink_streams_windows_as_jsonl(self, tmp_path):
        path = tmp_path / "live.jsonl"
        with open(path, "w") as sink:
            sim, registry, engine = make_engine(sink=sink)
            sim.schedule_at(1.0, lambda: registry.inc("pkts", node=0))
            sim.run(until=25.0)
        windows = read_windows_jsonl(path.read_text().splitlines())
        assert [w.index for w in windows] == [0, 1]
        assert windows[0].counters[("pkts", (("node", 0),))] == 1.0


class TestSystemIntegration:
    def test_campus_system_rolls_up_per_domain(self):
        """A (small) campus run produces per-domain windowed series
        inside the engine's default retention ring — the
        acceptance-criteria shape, at tier-1 scale."""
        from repro.core.system import IIoTSystem, SystemConfig
        from repro.deployment.topology import campus_topology

        topology = campus_topology(buildings=2, nodes_per_building=4)
        config = SystemConfig(observability=True,
                              telemetry_interval_s=30.0)
        system = IIoTSystem.build(topology, config=config, seed=11)
        system.start()
        system.run(240.0)

        engine = system.telemetry
        assert engine is not None and system.obs.telemetry is engine
        assert system.recorder is not None
        assert engine.windows_closed == 8
        assert len(engine.windows) == 8 <= engine.retention
        assert engine.dropped == 0
        domains = {labels for window in engine.windows
                   for (name, labels) in window.counters
                   for label, value in labels if label == "domain"}
        assert domains, "expected per-domain rolled-up series"
        # no per-node series survive the rollup for mapped nodes
        for window in engine.windows:
            for (name, labels) in window.counters:
                assert ("node" not in dict(labels)
                        or topology.domain_of(dict(labels)["node"]) is None)

    def test_telemetry_requires_observability(self):
        from repro.core.system import IIoTSystem, SystemConfig
        from repro.deployment.topology import grid_topology

        with pytest.raises(ValueError, match="observability=True"):
            IIoTSystem.build(grid_topology(2),
                             config=SystemConfig(telemetry_interval_s=10.0),
                             seed=1)

    def test_telemetry_off_schedules_nothing(self):
        from repro.core.system import IIoTSystem, SystemConfig
        from repro.deployment.topology import grid_topology

        system = IIoTSystem.build(grid_topology(2),
                                  config=SystemConfig(observability=True),
                                  seed=1)
        assert system.telemetry is None
        assert system.recorder is None
