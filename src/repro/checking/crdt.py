"""CRDT invariants: lattice laws on live states and convergence.

State-based CRDTs owe their partition story to three algebraic laws —
merge is idempotent, commutative, and associative — plus the liveness
property that replicas exchanging states converge once gossip quiesces.
This checker probes the laws continuously on *copies* of the live
replica states (never mutating the replicas themselves), and checks
convergence once, at end of run, after the scenario has healed any
partition and left anti-entropy time to quiesce.
"""

from __future__ import annotations

from typing import Any, List

from repro.checking.base import InvariantChecker
from repro.crdt.replication import CrdtReplica

#: Fixed law-sampling period, in sim seconds.
PERIOD_S = 60.0


class CrdtLatticeChecker(InvariantChecker):
    """Samples lattice laws every :data:`PERIOD_S`; at finish, requires
    all watched replicas to resolve to the same value."""

    name = "crdt"

    def __init__(self) -> None:
        super().__init__()
        self.replicas: List[CrdtReplica] = []
        self.law_samples = 0

    def watch(self, replica: CrdtReplica) -> CrdtReplica:
        """Add one replica to the watched set."""
        self.replicas.append(replica)
        return replica

    def _setup(self) -> None:
        self.sample_every(PERIOD_S, self._sample_laws)

    # ------------------------------------------------------------------
    def _sample_laws(self) -> None:
        self.law_samples += 1
        for replica in self.replicas:
            self._check_idempotence(replica)
        for left, right in zip(self.replicas, self.replicas[1:]):
            self._check_commutativity(left, right)

    def _check_idempotence(self, replica: CrdtReplica) -> None:
        state = replica.state
        merged = state.copy()
        changed = merged.merge(state.copy())
        if changed or merged.value() != state.value():
            self.record("merge_not_idempotent", node=replica.node_id,
                        value=_render(state.value()),
                        after=_render(merged.value()), changed=changed)

    def _check_commutativity(self, left: CrdtReplica,
                             right: CrdtReplica) -> None:
        ab = left.state.copy()
        ab.merge(right.state.copy())
        ba = right.state.copy()
        ba.merge(left.state.copy())
        if ab.value() != ba.value():
            self.record("merge_not_commutative",
                        node=left.node_id, peer=right.node_id,
                        left_then_right=_render(ab.value()),
                        right_then_left=_render(ba.value()))

    # ------------------------------------------------------------------
    def finish(self) -> None:
        if len(self.replicas) < 2:
            return
        reference = self.replicas[0].state.value()
        for replica in self.replicas[1:]:
            value = replica.state.value()
            if value != reference:
                self.record("replicas_diverged", node=replica.node_id,
                            value=_render(value),
                            reference_node=self.replicas[0].node_id,
                            reference=_render(reference))


def _render(value: Any, limit: int = 200) -> str:
    """Compact state snapshot for violation records."""
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."
