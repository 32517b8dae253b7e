"""Objective function rank arithmetic and hysteresis."""

from repro.net.rpl import objective
from repro.net.rpl.objective import (
    INFINITE_RANK,
    MIN_HOP_RANK_INCREASE,
    Mrhof,
    Of0,
    ROOT_RANK,
)


class TestMrhof:
    def test_rank_grows_with_etx(self):
        of = Mrhof()
        perfect = of.rank_through(ROOT_RANK, 1.0)
        lossy = of.rank_through(ROOT_RANK, 2.0)
        assert perfect == ROOT_RANK + MIN_HOP_RANK_INCREASE
        assert lossy == ROOT_RANK + 2 * MIN_HOP_RANK_INCREASE

    def test_minimum_one_hop_increase(self):
        of = Mrhof()
        # Even an implausibly good ETX cannot shrink the increase below
        # one MinHopRankIncrease (RFC 6550 rank monotonicity).
        assert of.rank_through(ROOT_RANK, 0.1) >= ROOT_RANK + MIN_HOP_RANK_INCREASE

    def test_terrible_link_is_infinite(self):
        of = Mrhof()
        assert of.rank_through(ROOT_RANK, 9.0) == INFINITE_RANK

    def test_link_etx_bound_is_read_at_each_ranking(self, monkeypatch):
        of = Mrhof()
        monkeypatch.setattr(objective, "MAX_LINK_ETX", 10.0)
        assert of.rank_through(ROOT_RANK, 9.0) == ROOT_RANK + 9 * MIN_HOP_RANK_INCREASE

    def test_rank_clamps_at_infinite(self):
        of = Mrhof()
        assert of.rank_through(INFINITE_RANK - 10, 4.0) == INFINITE_RANK

    def test_acceptable_rejects_infinite_parents(self):
        of = Mrhof()
        assert not of.acceptable(INFINITE_RANK, 1.0)
        assert of.acceptable(ROOT_RANK, 1.0)

    def test_hysteresis_blocks_marginal_switch(self):
        of = Mrhof()
        current = 1024
        slightly_better = current - of.parent_switch_threshold
        assert not of.should_switch(current, slightly_better)
        clearly_better = current - of.parent_switch_threshold - 1
        assert of.should_switch(current, clearly_better)


class TestOf0:
    def test_rank_is_hop_count(self):
        of = Of0()
        assert of.rank_through(ROOT_RANK, 1.0) == ROOT_RANK + MIN_HOP_RANK_INCREASE
        # OF0 ignores link quality entirely: the ablation hazard.
        assert of.rank_through(ROOT_RANK, 7.9) == of.rank_through(ROOT_RANK, 1.0)

    def test_of0_accepts_lossy_links(self):
        of = Of0()
        assert of.acceptable(ROOT_RANK, 20.0)
