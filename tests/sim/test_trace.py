"""Trace log counters, subscriptions and the bounded tail."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import trace as trace_module
from repro.sim.trace import TAIL, TraceLog, TraceRecord

_fields = st.tuples(
    st.floats(allow_nan=False), st.text(max_size=8),
    st.none() | st.integers(), st.dictionaries(st.text(max_size=3),
                                               st.integers(), max_size=3))


class TestTraceRecord:
    @given(_fields, _fields)
    def test_a_record_is_its_fields(self, a, b):
        record = TraceRecord(*a)
        assert (record.time, record.category, record.node,
                record.data) == a
        assert record == TraceRecord(*a)
        assert (record == TraceRecord(*b)) == (a == b)
        assert (record != TraceRecord(*b)) == (a != b)
        # Equal to records only, as a frozen dataclass is.
        assert record != a and a != record
        for name in ("time", "category", "node", "data", "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert repr(record) == (
            f"TraceRecord(time={a[0]!r}, category={a[1]!r}, "
            f"node={a[2]!r}, data={a[3]!r})")

    @given(_fields)
    def test_no_two_records_share_a_data_dict(self, fields):
        time, category, node, data = fields
        log, seen = TraceLog(), []
        log.subscribe_stream(seen.append)
        log.emit(time, category, node, **data)
        log.emit(time, category, node, **data)
        first, second = seen
        assert first == second == TraceRecord(time, category, node, data)
        first.data["long"] = 1  # no drawn key is this long
        assert second.data == data and "long" not in data


class TestTraceLog:
    def test_emit_stores_record(self):
        log = TraceLog(enabled=True)
        log.emit(1.0, "mac.tx", node=3, size=10)
        assert len(log.tail) == 1
        record = log.tail[0]
        assert record.time == 1.0
        assert record.category == "mac.tx"
        assert record.node == 3
        assert record.data == {"size": 10}

    def test_counters_track_per_category(self):
        log = TraceLog()
        log.emit(1.0, "a")
        log.emit(2.0, "a")
        log.emit(3.0, "b")
        assert log.count("a") == 2
        assert log.count("b") == 1
        assert log.count("missing") == 0

    def test_disabled_log_counts_but_does_not_store(self):
        log = TraceLog()
        assert not log.enabled  # off is the default
        log.emit(1.0, "a")
        assert len(log.tail) == 0
        assert log.count("a") == 1

    def test_subscription_fires_on_matching_category(self):
        log = TraceLog()
        seen = []
        log.subscribe("alarm", lambda r: seen.append(r.time))
        log.emit(1.0, "other")
        log.emit(2.0, "alarm")
        assert seen == [2.0]

    def test_subscription_fires_even_when_disabled(self):
        log = TraceLog(enabled=False)
        seen = []
        log.subscribe("alarm", lambda r: seen.append(r.time))
        log.emit(2.0, "alarm")
        assert seen == [2.0]

    def test_subscribe_returns_unsubscribe_handle(self):
        log = TraceLog()
        seen = []
        unsubscribe = log.subscribe("alarm", lambda r: seen.append(r.time))
        log.emit(1.0, "alarm")
        unsubscribe()
        log.emit(2.0, "alarm")
        assert seen == [1.0]
        unsubscribe()  # idempotent
        log.emit(3.0, "alarm")
        assert seen == [1.0]

    def test_unsubscribe_during_emit_is_safe(self):
        log = TraceLog()
        seen = []
        handles = {}

        def first(record):
            seen.append(("first", record.time))
            handles["first"]()  # remove self mid-notification

        handles["first"] = log.subscribe("alarm", first)
        log.subscribe("alarm", lambda r: seen.append(("second", r.time)))
        log.emit(1.0, "alarm")
        log.emit(2.0, "alarm")
        assert seen == [("first", 1.0), ("second", 1.0), ("second", 2.0)]


class TestTail:
    def test_keeps_at_most_tail_records_and_evicts_the_oldest(self):
        log = TraceLog(enabled=True)
        for i in range(TAIL + 5):
            log.emit(float(i), ("mac.tx", "net.sent")[i % 2], node=i % 4, seq=i)
        assert len(log.tail) == TAIL
        assert [r.data["seq"] for r in log.tail] == list(range(5, TAIL + 5))
        assert log.count("mac.tx") + log.count("net.sent") == TAIL + 5

    def test_subscribers_see_every_record_enabled_or_not(self):
        for enabled in (True, False):
            log = TraceLog(enabled=enabled)
            seen = []
            log.subscribe("mac.tx", lambda r: seen.append(r.data["seq"]))
            for i in range(TAIL + 3):
                log.emit(float(i), "mac.tx", seq=i)
            assert seen == list(range(TAIL + 3))
            assert len(log.tail) == (TAIL if enabled else 0)


class TestEmitFastPath:
    def test_disabled_unwatched_emit_still_counts(self):
        log = TraceLog(enabled=False)
        log.emit(1.0, "mac.tx", node=3, size=10)
        log.emit(2.0, "mac.tx", node=4, size=20)
        assert log.count("mac.tx") == 2
        assert len(log.tail) == 0

    def test_disabled_unwatched_emit_builds_no_record(self, monkeypatch):
        built = []
        real = trace_module.TraceRecord
        monkeypatch.setattr(trace_module, "TraceRecord",
                            lambda *a, **kw: built.append(1) or real(*a, **kw))
        log = TraceLog()
        log.subscribe("alarm", lambda r: None)
        log.emit(1.0, "mac.tx", node=3, size=10)
        assert built == []
        log.emit(2.0, "alarm")  # watched: one record for the subscriber
        assert built == [1]

    def test_disabled_log_still_notifies_subscribers(self):
        log = TraceLog(enabled=False)
        seen = []
        log.subscribe("mac.tx", lambda r: seen.append((r.time, r.data["size"])))
        log.emit(1.0, "mac.tx", node=3, size=10)
        log.emit(2.0, "other", node=3)  # unwatched: fast path
        assert seen == [(1.0, 10)]
        assert log.count("other") == 1

    def test_fully_unsubscribed_category_takes_fast_path(self):
        # An emptied subscriber list must not force record construction
        # (and must not crash the guard).
        log = TraceLog(enabled=False)
        seen = []
        unsubscribe = log.subscribe("alarm", lambda r: seen.append(r))
        unsubscribe()
        log.emit(1.0, "alarm")
        assert seen == []
        assert log.count("alarm") == 1


class TestWatching:
    def test_watched_answers_and_every_change_moves_the_version(self):
        log = TraceLog()
        assert not log.watched("alarm")
        stamps = [log.version]
        unsubscribe = log.subscribe("alarm", lambda r: None)
        stamps.append(log.version)
        assert log.watched("alarm") and not log.watched("other")
        unsubscribe()
        stamps.append(log.version)
        assert not log.watched("alarm")
        unsubscribe()                          # idempotent: nothing moves
        assert log.version == stamps[-1]
        log.enabled = True
        stamps.append(log.version)
        assert log.watched("anything")
        log.enabled = True                     # already on: nothing moves
        assert log.version == stamps[-1]
        log.enabled = False
        stamps.append(log.version)
        detach = log.subscribe_stream(lambda r: None)
        stamps.append(log.version)
        assert log.watched("anything") and not log.enabled
        detach()
        stamps.append(log.version)
        assert not log.watched("anything")
        assert len(set(stamps)) == len(stamps)

    def test_stream_sees_every_record_in_emission_order(self):
        log = TraceLog()
        stream = []
        log.subscribe_stream(stream.append)
        # A subscriber's own emit follows its cause in the stream.
        log.subscribe("cause", lambda r: log.emit(r.time, "effect"))
        log.emit(1.0, "cause")
        log.emit(2.0, "other", node=3, size=1)
        assert [(r.time, r.category) for r in stream] == [
            (1.0, "cause"), (1.0, "effect"), (2.0, "other")]
        assert stream[-1].data == {"size": 1}

    def test_stream_subscriber_may_detach_mid_emit(self):
        log = TraceLog(enabled=True)
        seen = []
        handles = {}

        def once(record):
            seen.append(record.time)
            handles["once"]()

        handles["once"] = log.subscribe_stream(once)
        log.emit(1.0, "a")
        log.emit(2.0, "a")
        assert seen == [1.0]
        assert [r.time for r in log.tail] == [1.0, 2.0]
