"""Neighbor tables and ETX estimation."""

import pytest

from repro.net.rpl import neighbors
from repro.net.rpl.messages import DioMessage
from repro.net.rpl.neighbors import LinkEstimator, NeighborTable


class TestLinkEstimator:
    def test_successes_push_probability_up(self):
        estimator = LinkEstimator(probability=0.5)
        for _ in range(20):
            estimator.update(True)
        assert estimator.probability > 0.9
        assert estimator.etx < 1.2

    def test_failures_push_etx_up(self):
        estimator = LinkEstimator(probability=0.9)
        for _ in range(20):
            estimator.update(False)
        assert estimator.etx > 8.0

    def test_etx_clamped_at_16(self):
        estimator = LinkEstimator(probability=0.001)
        assert estimator.etx == 16.0

    def test_perfect_link_etx_is_one(self):
        estimator = LinkEstimator(probability=1.0)
        assert estimator.etx == pytest.approx(1.0)

    def test_one_update_moves_the_estimate_by_the_weight(self):
        estimator = LinkEstimator(probability=0.5)
        estimator.update(True)
        assert estimator.probability == pytest.approx(0.6)

    def test_the_weight_is_read_at_each_update(self, monkeypatch):
        estimator = LinkEstimator(probability=0.5)
        monkeypatch.setattr(neighbors, "EWMA_ALPHA", 0.5)
        estimator.update(True)
        assert estimator.probability == pytest.approx(0.75)


class TestNeighborTable:
    def _dio(self, rank=512, version=1):
        return DioMessage(dodag_id=0, version=version, rank=rank)

    def test_get_or_create_and_observe(self):
        table = NeighborTable()
        entry = table.get_or_create(5)
        entry.observe_dio(self._dio(rank=768), now=10.0)
        assert table.get(5).rank == 768
        assert table.get(5).last_dio_time == 10.0
        assert table.get(5).dio_count == 1

    def test_capacity_evicts_stalest(self):
        table = NeighborTable(capacity=3)
        for node, time in ((1, 10.0), (2, 5.0), (3, 20.0)):
            table.get_or_create(node).observe_dio(self._dio(), now=time)
        table.get_or_create(4).observe_dio(self._dio(), now=30.0)
        assert len(table) == 3
        assert 2 not in table  # stalest was evicted
        assert 4 in table

    def test_blacklist_excludes_from_candidates(self):
        table = NeighborTable()
        table.get_or_create(1).observe_dio(self._dio(), now=0.0)
        table.get_or_create(2).observe_dio(self._dio(), now=0.0)
        table.blacklist(1, until=100.0)
        candidates = {e.node_id for e in table.candidates(now=50.0)}
        assert candidates == {2}
        candidates_later = {e.node_id for e in table.candidates(now=150.0)}
        assert candidates_later == {1, 2}

    def test_remove(self):
        table = NeighborTable()
        table.get_or_create(1)
        table.remove(1)
        assert 1 not in table
        table.remove(99)  # idempotent

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            NeighborTable(capacity=0)
