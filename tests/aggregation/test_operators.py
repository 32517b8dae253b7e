"""Aggregate operator algebra."""

import functools

import pytest

from repro.aggregation.operators import AVG, COUNT, MAX, MIN, OPERATORS, SUM


def fold(op, values):
    """Readings folded into one partial, as a routing tree does hop by hop."""
    return functools.reduce(op.merge, map(op.initialize, values))


class TestOperators:
    def test_registry_complete(self):
        assert set(OPERATORS) == {"min", "max", "sum", "count", "avg"}

    def test_min_max(self):
        values = [3.0, -1.0, 7.5, 2.0]
        assert MIN.finalize(fold(MIN, values)) == -1.0
        assert MAX.finalize(fold(MAX, values)) == 7.5

    def test_sum_count(self):
        values = [1.0, 2.0, 3.0]
        assert SUM.finalize(fold(SUM, values)) == 6.0
        assert COUNT.finalize(fold(COUNT, values)) == 3.0

    def test_avg(self):
        values = [2.0, 4.0, 9.0]
        assert AVG.finalize(fold(AVG, values)) == pytest.approx(5.0)

    def test_avg_merge_is_weighted(self):
        # (2 values avg 3) merged with (1 value avg 9) -> avg 5, not 6.
        left = fold(AVG, [2.0, 4.0])
        right = fold(AVG, [9.0])
        merged = AVG.merge(left, right)
        assert AVG.finalize(merged) == pytest.approx(5.0)

    def test_merge_associativity(self):
        for op in OPERATORS.values():
            a = op.initialize(1.0)
            b = op.initialize(5.0)
            c = op.initialize(3.0)
            left = op.merge(op.merge(a, b), c)
            right = op.merge(a, op.merge(b, c))
            assert op.finalize(left) == pytest.approx(op.finalize(right))

    def test_partial_state_is_constant_size(self):
        for op in OPERATORS.values():
            assert op.state_bytes <= 8
