"""Registry instruments and snapshot determinism."""

import pickle
from types import SimpleNamespace

import pytest

from repro.obs import Observability
from repro.obs.registry import MetricsSnapshot, Registry, percentile
from repro.sim.trace import TraceLog


class TestInstruments:
    """The live registry is the snapshot's dicts, keyed by series key:
    a series nobody wrote is a ``KeyError``, not a fresh zero."""

    def test_counter_accumulates_per_label_set(self):
        registry = Registry()
        registry.inc("mac.tx", node=1)
        registry.inc("mac.tx", node=1)
        registry.inc("mac.tx", node=2)
        assert registry.counters[("mac.tx", (("node", 1),))] == 2
        assert registry.counters[("mac.tx", (("node", 2),))] == 1
        assert registry.snapshot().counter_total("mac.tx") == 3

    def test_label_order_is_irrelevant(self):
        registry = Registry()
        registry.inc("net.dropped", node=1, reason="ttl")
        registry.inc("net.dropped", reason="ttl", node=1)
        assert registry.counters == {
            ("net.dropped", (("node", 1), ("reason", "ttl"))): 2}

    def test_counter_rejects_negative_increments(self):
        registry = Registry()
        with pytest.raises(ValueError):
            registry.inc("x", amount=-1.0)
        assert registry.counters == {}

    def test_gauge_is_last_write_wins(self):
        registry = Registry()
        registry.set("duty", 0.5, node=3)
        registry.set("duty", 0.2, node=3)
        assert registry.gauges[("duty", (("node", 3),))] == 0.2

    def test_histogram_records_exact_values(self):
        registry = Registry()
        for value in (3.0, 1.0, 2.0):
            registry.observe("latency", value, port=7)
        values = registry.histograms[("latency", (("port", 7),))]
        assert values == [3.0, 1.0, 2.0]
        assert percentile(values, 0.5) == 2.0

    def test_values_concatenates_label_sets_deterministically(self):
        registry = Registry()
        registry.observe("latency", 2.0, port=9)
        registry.observe("latency", 1.0, port=7)
        # sorted-key order
        assert registry.snapshot().histogram_values("latency") == [1.0, 2.0]

    def test_series_are_created_on_first_write(self):
        registry = Registry()
        registry.inc("a", node=1)
        registry.inc("a", node=1)
        registry.inc("a", node=2)
        assert list(registry.counters) == [("a", (("node", 1),)),
                                           ("a", (("node", 2),))]

    def test_unwritten_series_is_absent(self):
        registry = Registry()
        registry.inc("a", node=1)
        registry.set("g", 1.0)
        registry.observe("h", 1.0)
        snap = registry.snapshot()
        for table in (registry.counters, snap.counters):
            assert ("a", (("node", 2),)) not in table
            assert ("b", ()) not in table
            with pytest.raises(KeyError):
                table[("b", ())]
        assert ("g", (("node", 1),)) not in snap.gauges
        assert ("h", (("node", 1),)) not in snap.histograms
        assert snap.counter_total("b") == 0


class TestReaders:
    """Counts an owner keeps are read through its trace log's readers."""

    COUNTED = (("x.sent", {}, "sent"), ("x.lost", {"cause": "a"}, "stats.lost"))
    SENT = (("x.sent", {}, "sent"),)

    def test_read_counts_merge_with_pushed_ones_as_floats_skipping_zeros(self):
        trace = TraceLog()
        owner = SimpleNamespace(sent=0, stats=SimpleNamespace(lost=2))
        trace.add_reader(owner, 3, self.COUNTED)
        registry = Observability().attach(trace).registry
        registry.inc("x.pushed", node=3)
        counters = registry.snapshot().counters
        assert counters == {("x.pushed", (("node", 3),)): 1.0,
                            ("x.lost", (("cause", "a"), ("node", 3))): 2.0}
        assert all(type(value) is float for value in counters.values())
        owner.sent = 4
        assert registry.counter_values()[("x.sent", (("node", 3),))] == 4.0

    def test_owners_of_one_series_sum(self):
        trace = TraceLog()
        for sent in (2, 5):
            trace.add_reader(SimpleNamespace(sent=sent), 1, self.SENT)
        registry = Observability().attach(trace).registry
        assert registry.counter_values() == {("x.sent", (("node", 1),)): 7.0}

    def test_an_owner_built_after_attach_is_read(self):
        trace = TraceLog()
        registry = Observability().attach(trace).registry
        trace.add_reader(SimpleNamespace(sent=1), 1, self.SENT)
        assert registry.snapshot().counter_total("x.sent") == 1.0

    def test_keys_are_built_once_per_owner(self):
        trace = TraceLog()
        owner = SimpleNamespace(sent=1, stats=SimpleNamespace(lost=1))
        trace.add_reader(owner, 3, self.COUNTED)
        (reader,) = trace.readers.values()
        first = [key for key, _ in reader()]
        owner.sent = 2
        again = [key for key, _ in reader()]
        assert first == [("x.sent", (("node", 3),)),
                         ("x.lost", (("cause", "a"), ("node", 3)))]
        assert all(a is b for a, b in zip(first, again))


class TestSnapshot:
    def _populated(self) -> Registry:
        registry = Registry()
        registry.inc("sent", node=1, amount=5)
        registry.set("level", 0.7)
        registry.observe("lat", 0.25, port=1)
        return registry

    def test_snapshot_is_plain_and_picklable(self):
        snap = self._populated().snapshot()
        clone = pickle.loads(pickle.dumps(snap))
        assert clone == snap

    def test_snapshot_is_frozen_against_later_updates(self):
        registry = self._populated()
        snap = registry.snapshot()
        registry.inc("sent", node=1)
        registry.observe("lat", 9.0, port=1)
        assert snap.counter_total("sent") == 5
        assert snap.histogram_values("lat") == [0.25]

    def test_rows_are_deterministic_and_typed(self):
        rows = self._populated().snapshot().rows()
        assert [row["kind"] for row in rows] == ["counter", "gauge", "histogram"]
        histogram_row = rows[-1]
        assert histogram_row["count"] == 1
        assert histogram_row["p50"] == 0.25
        assert rows == self._populated().snapshot().rows()
