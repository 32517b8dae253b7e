"""CRDT lattice checker: clean on real CRDTs, firing on broken merges."""

import pytest

from repro.checking import crdt
from repro.checking.crdt import CrdtLatticeChecker
from repro.crdt.maps import LWWMap
from repro.crdt.replication import CrdtReplica
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


class BrokenMergeCrdt:
    """A 'CRDT' whose merge is neither idempotent nor commutative: it
    concatenates histories, so merge order changes the value and merging
    a state into itself keeps growing it."""

    def __init__(self, history=()):
        self.history = list(history)

    def merge(self, other) -> bool:
        self.history.extend(other.history)
        return True

    def copy(self) -> "BrokenMergeCrdt":
        return BrokenMergeCrdt(self.history)

    def value(self):
        return tuple(self.history)


@pytest.fixture(autouse=True)
def _sample_every_10_s(monkeypatch):
    monkeypatch.setattr(crdt, "PERIOD_S", 10.0)


def _attach(checker):
    sim, trace = Simulator(seed=7), TraceLog()
    checker.attach(sim, trace)
    return sim, trace


class TestCrdtCheckerClean:
    def test_lww_replicas_pass_laws_and_converge(self):
        checker = CrdtLatticeChecker()
        sim, _trace = _attach(checker)
        a = checker.watch(CrdtReplica(1, LWWMap(1)))
        b = checker.watch(CrdtReplica(2, LWWMap(2)))
        a.mutate(lambda s: s.set("k1", 10.0, 1.0))
        b.mutate(lambda s: s.set("k2", 20.0, 2.0))
        sim.run(until=25.0)
        # Anti-entropy by hand: exchange states both ways.
        a.absorb(b.state.copy())
        b.absorb(a.state.copy())
        sim.run(until=50.0)
        checker.finish()
        assert checker.law_samples >= 4
        assert a.state.value() == b.state.value()
        assert checker.clean, [str(v) for v in checker.violations]


class TestCrdtCheckerFiring:
    def test_broken_merge_fails_idempotence_and_commutativity(self):
        checker = CrdtLatticeChecker()
        sim, _trace = _attach(checker)
        checker.watch(CrdtReplica(1, BrokenMergeCrdt(["a"])))
        checker.watch(CrdtReplica(2, BrokenMergeCrdt(["b"])))
        sim.run(until=10.0)  # one law sample
        invariants = {v.invariant for v in checker.violations}
        assert "merge_not_idempotent" in invariants
        assert "merge_not_commutative" in invariants

    def test_law_probes_never_mutate_the_replicas(self):
        checker = CrdtLatticeChecker()
        sim, _trace = _attach(checker)
        replica = checker.watch(CrdtReplica(1, BrokenMergeCrdt(["a"])))
        sim.run(until=40.0)
        assert replica.state.value() == ("a",)

    def test_diverged_replicas_flagged_at_finish(self):
        checker = CrdtLatticeChecker()
        _sim, _trace = _attach(checker)
        a = checker.watch(CrdtReplica(1, LWWMap(1)))
        checker.watch(CrdtReplica(2, LWWMap(2)))
        a.mutate(lambda s: s.set("k", 1.0, 1.0))  # never gossiped
        checker.finish()
        assert [v.invariant for v in checker.violations] == [
            "replicas_diverged"
        ]
        assert checker.violations[0].node == 2