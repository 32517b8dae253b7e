"""Register and map CRDTs."""

from repro.crdt.maps import LWWMap
from repro.crdt.registers import LWWRegister


class TestLWWRegister:
    def test_later_write_wins(self):
        register = LWWRegister(1)
        register.set("a", timestamp=1.0)
        register.set("b", timestamp=2.0)
        assert register.value() == "b"

    def test_stale_write_ignored(self):
        register = LWWRegister(1)
        register.set("new", timestamp=5.0)
        register.set("old", timestamp=1.0)
        assert register.value() == "new"

    def test_merge_takes_later_stamp(self):
        a, b = LWWRegister(1), LWWRegister(2)
        a.set("from-a", timestamp=1.0)
        b.set("from-b", timestamp=2.0)
        assert a.merge(b)
        assert a.value() == "from-b"

    def test_tie_broken_by_replica_id(self):
        a, b = LWWRegister(1), LWWRegister(2)
        a.set("from-1", timestamp=1.0)
        b.set("from-2", timestamp=1.0)
        a_copy = a.copy()
        a.merge(b)
        b.merge(a_copy)
        # Higher replica id wins the tie deterministically, both agree.
        assert a.value() == b.value() == "from-2"


class TestLWWMap:
    def test_set_get(self):
        m = LWWMap(1)
        assert m.get("k") is None
        assert "k" not in m
        m.set("k", 1, timestamp=1.0)
        assert m.get("k") == 1
        assert "k" in m
        assert len(m) == 1

    def test_per_key_independence(self):
        a, b = LWWMap(1), LWWMap(2)
        a.set("x", 1, timestamp=5.0)
        b.set("y", 2, timestamp=1.0)
        a.merge(b)
        assert a.value() == {"x": 1, "y": 2}

    def test_merge_reports_change(self):
        a, b = LWWMap(1), LWWMap(2)
        b.set("k", 1, timestamp=1.0)
        assert a.merge(b)
        assert not a.merge(b)

    def test_items_view(self):
        m = LWWMap(1)
        m.set("a", 1, 1.0)
        m.set("b", 2, 2.0)
        assert dict(m.items()) == {"a": 1, "b": 2}
