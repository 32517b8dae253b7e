"""RPL invariant checkers: clean on real networks, firing on lies."""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import pytest

from repro.checking import rpl as rpl_checks
from repro.checking.rpl import (
    DeliveredPathChecker,
    DodagStructureChecker,
    _find_cycles,
)
from repro.net.rpl.dodag import RplState
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

from tests.conftest import build_grid_network


@dataclass
class FakeRouter:
    """Just enough router surface for the structural checker."""

    node_id: int
    state: RplState
    rank: int
    preferred_parent: Optional[int] = None
    dodag_id: Optional[int] = 0
    dao_table: Dict[int, Tuple[int, int]] = field(default_factory=dict)


def _attach(checker):
    sim, trace = Simulator(seed=1), TraceLog()
    checker.attach(sim, trace)
    return sim, trace


class TestFindCycles:
    def test_tree_has_no_cycles(self):
        assert _find_cycles({1: 0, 2: 0, 3: 1}) == []

    def test_two_cycle_found(self):
        assert _find_cycles({1: 2, 2: 1, 3: 1}) == [frozenset({1, 2})]

    def test_disjoint_cycles_both_found(self):
        cycles = _find_cycles({1: 2, 2: 1, 3: 4, 4: 3})
        assert frozenset({1, 2}) in cycles
        assert frozenset({3, 4}) in cycles

    def test_self_loop(self):
        assert _find_cycles({5: 5}) == [frozenset({5})]


class TestDodagStructureCheckerClean:
    def test_converged_grid_samples_clean(self):
        sim, trace, stacks = build_grid_network(3, seed=11)
        checker = DodagStructureChecker({s.node_id: s.rpl for s in stacks})
        checker.attach(sim, trace)
        sim.run(until=400.0)
        assert checker.samples >= 10
        assert checker.clean, [str(v) for v in checker.violations]


class TestDodagStructureCheckerFiring:
    @pytest.fixture(autouse=True)
    def _sample_every_10_s(self, monkeypatch):
        monkeypatch.setattr(rpl_checks, "PERIOD_S", 10.0)

    def _routers(self):
        root = FakeRouter(0, RplState.ROOT, rank=256)
        child = FakeRouter(1, RplState.JOINED, rank=512, preferred_parent=0)
        grandchild = FakeRouter(2, RplState.JOINED, rank=768,
                                preferred_parent=1)
        return {0: root, 1: child, 2: grandchild}

    def test_node_lying_about_rank_is_flagged(self):
        routers = self._routers()
        routers[1].rank = 100  # claims to outrank its own parent
        checker = DodagStructureChecker(routers)
        sim, _trace = _attach(checker)
        sim.run(until=50.0)
        invariants = {v.invariant for v in checker.violations}
        assert invariants == {"rank_not_monotone"}
        violation = checker.violations[0]
        assert violation.node == 1
        assert violation.detail["parent_rank"] == 256
        # Persistence threshold: flagged once, not once per sample.
        assert len(checker.violations) == 1

    def test_parent_cycle_is_flagged(self):
        routers = self._routers()
        routers[1].preferred_parent = 2  # 1 -> 2 -> 1
        checker = DodagStructureChecker(routers)
        sim, _trace = _attach(checker)
        sim.run(until=30.0)
        cycle_hits = [v for v in checker.violations
                      if v.invariant == "dodag_cycle"]
        assert cycle_hits
        assert cycle_hits[0].detail["cycle"] == [1, 2]

    def test_dao_table_cycle_is_flagged(self):
        routers = self._routers()
        routers[0].dao_table = {1: (2, 0), 2: (1, 0)}
        checker = DodagStructureChecker(routers)
        sim, _trace = _attach(checker)
        sim.run(until=30.0)
        hits = [v for v in checker.violations
                if v.invariant == "dao_table_cycle"]
        assert hits and hits[0].node == 0

    def test_transient_defect_below_persistence_is_tolerated(self):
        routers = self._routers()
        routers[1].rank = 100
        checker = DodagStructureChecker(routers)
        sim, _trace = _attach(checker)
        # Heal the lie between the first and second samples.
        sim.schedule(15.0, lambda: setattr(routers[1], "rank", 512))
        sim.run(until=60.0)
        assert checker.clean

    def test_detached_routers_are_ignored(self, monkeypatch):
        monkeypatch.setattr(rpl_checks, "PERSISTENCE", 1)
        routers = self._routers()
        routers[1].state = RplState.DETACHED
        routers[1].rank = 0  # nonsense rank is fine while detached
        checker = DodagStructureChecker(routers)
        sim, _trace = _attach(checker)
        sim.run(until=30.0)
        assert checker.clean


class TestDeliveredPathChecker:
    def test_clean_deliveries_pass(self):
        checker = DeliveredPathChecker(node_count=9)
        _sim, trace = _attach(checker)
        trace.emit(1.0, "net.delivered", node=0, src=5, hops=3, path=())
        trace.emit(2.0, "net.delivered", node=5, src=0, hops=2,
                   path=(3, 5))
        assert checker.deliveries == 2
        assert checker.clean

    def test_hop_budget_overrun_is_flagged(self):
        checker = DeliveredPathChecker(node_count=9)
        _sim, trace = _attach(checker)
        trace.emit(1.0, "net.delivered", node=0, src=5, hops=16, path=())
        assert checker.clean
        trace.emit(2.0, "net.delivered", node=0, src=5, hops=17, path=())
        assert [v.invariant for v in checker.violations] == [
            "hop_budget_exceeded"
        ]
        assert checker.violations[0].detail["budget"] == 16

    def test_source_route_revisit_is_flagged(self):
        checker = DeliveredPathChecker(node_count=9)
        _sim, trace = _attach(checker)
        trace.emit(1.0, "net.delivered", node=5, src=0, hops=4,
                   path=(3, 4, 3, 5))
        assert [v.invariant for v in checker.violations] == [
            "source_route_revisit"
        ]
        assert checker.violations[0].detail["repeated"] == [3]

    def test_real_grid_deliveries_are_clean(self):
        sim, trace, stacks = build_grid_network(3, seed=12)
        checker = DeliveredPathChecker(node_count=len(stacks))
        checker.attach(sim, trace)
        sim.run(until=300.0)
        got = []
        stacks[0].bind(7, lambda d: got.append(d.src))
        stacks[8].bind(7, lambda d: got.append(d.src))
        stacks[8].send_datagram(0, 7, "up", 16)
        sim.run(until=sim.now + 60.0)
        stacks[0].send_datagram(8, 7, "down", 16)
        sim.run(until=sim.now + 60.0)
        assert sorted(got) == [0, 8]
        assert checker.deliveries >= 2
        assert checker.clean, [str(v) for v in checker.violations]
