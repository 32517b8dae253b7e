"""Counter CRDT unit behaviour."""

import pytest

from repro.crdt.counters import GCounter
from repro.crdt.registers import LWWRegister


class TestGCounter:
    def test_increment_and_value(self):
        counter = GCounter(1)
        counter.increment()
        counter.increment(4)
        assert counter.value() == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            GCounter(1).increment(-1)

    def test_merge_sums_across_replicas(self):
        a, b = GCounter(1), GCounter(2)
        a.increment(3)
        b.increment(4)
        assert a.merge(b)
        assert a.value() == 7

    def test_merge_takes_max_per_slot(self):
        a, b = GCounter(1), GCounter(1)
        a.increment(5)
        b.slots[1] = 3  # stale view of the same replica
        a.merge(b)
        assert a.value() == 5

    def test_merge_reports_no_change(self):
        a, b = GCounter(1), GCounter(2)
        b.increment(1)
        assert a.merge(b)
        assert not a.merge(b)

    def test_copy_is_independent(self):
        a = GCounter(1)
        a.increment()
        clone = a.copy()
        clone.increment()
        assert a.value() == 1
        assert clone.value() == 2

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            GCounter(1).merge(LWWRegister(1))
