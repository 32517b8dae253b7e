"""Set CRDT unit behaviour, especially OR-Set add/remove semantics."""

from repro.crdt.sets import ORSet


class TestORSet:
    def test_add_remove_add_readds(self):
        s = ORSet(1)
        s.add("x")
        s.remove("x")
        assert "x" not in s
        s.add("x")  # removal is not final: re-add works
        assert "x" in s

    def test_concurrent_add_wins_over_remove(self):
        a, b = ORSet(1), ORSet(2)
        a.add("x")
        b.merge(a)
        # Concurrently: b removes the x it observed, a adds x again.
        b.remove("x")
        a.add("x")
        a.merge(b)
        b.merge(a)
        assert "x" in a and "x" in b  # the concurrent add survives

    def test_observed_remove_removes_everywhere(self):
        a, b = ORSet(1), ORSet(2)
        a.add("x")
        b.merge(a)
        b.remove("x")
        a.merge(b)
        assert "x" not in a

    def test_merge_idempotent(self):
        a, b = ORSet(1), ORSet(2)
        b.add("y")
        assert a.merge(b)
        assert not a.merge(b)

    def test_copy_isolation(self):
        a = ORSet(1)
        a.add("x")
        clone = a.copy()
        clone.remove("x")
        assert "x" in a
        assert "x" not in clone

    def test_remove_unknown_is_noop(self):
        s = ORSet(1)
        s.remove("ghost")  # OR-Set remove of unobserved item: nothing
        assert s.value() == frozenset()
