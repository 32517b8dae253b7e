"""Anti-entropy replication of CRDT state over the simulated network.

Each node holds a :class:`CrdtReplica`; a :class:`NetworkReplicator`
gossips the full state to MAC neighbors on a randomly phased period,
plus a fast "rumor" round shortly after anything changes.  Because merges are
lattice joins, the protocol needs no ordering, no ACKs, and no
membership — which is precisely why it keeps working across partitions
(experiment E9) where the coordinated baseline blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.crdt.base import StateCrdt
from repro.net.stack import NetworkStack
from repro.sim.timers import PeriodicTimer, Timer

#: Gossip port.
GOSSIP_PORT = 9901
#: Upper bound of the random delay before the fast "rumor" round that
#: follows a local change (read at run time; a test patches it).
RUMOR_DELAY_S = 2.0


class CrdtReplica:
    """One node's replica of a shared CRDT."""

    def __init__(self, node_id: int, state: StateCrdt) -> None:
        self.node_id = node_id
        self.state = state
        self.local_updates = 0
        self.merges_in = 0
        self.merges_changed = 0

    def mutate(self, mutation: Callable[[StateCrdt], None]) -> None:
        """Apply a local mutation (e.g. ``lambda s: s.increment()``)."""
        mutation(self.state)
        self.local_updates += 1

    def absorb(self, remote_state: StateCrdt) -> bool:
        """Merge a received peer state; True when our state changed."""
        self.merges_in += 1
        changed = self.state.merge(remote_state)
        if changed:
            self.merges_changed += 1
        return changed


@dataclass(frozen=True)
class AntiEntropyConfig:
    """Gossip pacing."""

    period_s: float = 30.0


class NetworkReplicator:
    """Gossips one replica's state to MAC neighbors."""

    COUNTED = (("crdt.gossip", {}, "gossips_sent"),
               ("crdt.gossip_bytes", {}, "bytes_sent"))

    def __init__(
        self,
        stack: NetworkStack,
        replica: CrdtReplica,
        config: Optional[AntiEntropyConfig] = None,
    ) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.trace = stack.trace
        self.replica = replica
        self.config = config if config is not None else AntiEntropyConfig()
        self.gossips_sent = 0
        self.bytes_sent = 0
        self.trace.add_reader(self, stack.node_id, self.COUNTED)
        #: Sim time of the last local change (mutation or merge-in),
        #: driving the convergence-lag histogram and the replica
        #: staleness gauge of the NodeHealth table.
        self.last_change_s = 0.0
        self._rng = stack.sim.substream(f"crdt.gossip.{stack.node_id}")
        self._timer = PeriodicTimer(
            stack.sim, self.config.period_s, self._gossip,
            phase=self._rng.uniform(0.5, self.config.period_s),
        )
        self._rumor_timer = Timer(stack.sim, self._gossip)
        stack.bind(GOSSIP_PORT, self._on_datagram)
        self._started = False

    def start(self) -> None:
        """Begin periodic anti-entropy."""
        if self._started:
            return
        self._started = True
        self._timer.start()

    def notify_local_update(self) -> None:
        """Call after a local mutation to trigger a fast rumor round."""
        self.last_change_s = self.sim.now
        if self._started and not self._rumor_timer.armed:
            self._rumor_timer.start(
                self._rng.uniform(0.1, RUMOR_DELAY_S)
            )

    def staleness(self, now: float) -> float:
        """Seconds since this replica last changed (0 if never touched)."""
        return max(0.0, now - self.last_change_s)

    # ------------------------------------------------------------------
    def _gossip(self) -> None:
        if not self.stack.alive:
            return
        state = self.replica.state.copy()
        size = state.size_bytes()
        self.gossips_sent += 1
        self.bytes_sent += size
        node = self.stack.node_id
        ctx = None
        obs = self.trace.obs
        if obs is not None:
            # One anti-entropy round = one trace: the broadcast's
            # fragments/MAC jobs and every receiver's merge outcome hang
            # beneath it (the context rides on the datagram).
            ctx = obs.spans.start(
                None, "crdt.anti_entropy", node=node, t=self.sim.now,
                round=self.gossips_sent, bytes=size,
            )
        self.stack.send_local_broadcast(GOSSIP_PORT, state, size,
                                        trace_ctx=ctx)
        if ctx is not None:
            obs.spans.finish(ctx, self.sim.now)

    def _on_datagram(self, datagram: Any) -> None:
        state = datagram.payload
        if not isinstance(state, StateCrdt):
            return
        changed = self.replica.absorb(state)
        obs = self.trace.obs
        if obs is not None:
            node = self.stack.node_id
            obs.registry.inc("crdt.merge", node=node, changed=changed)
            if changed:
                # Convergence lag: how long this replica sat on an older
                # state before the merge that changed it arrived.
                obs.registry.observe(
                    "crdt.merge_lag_s", self.staleness(self.sim.now),
                    node=node,
                )
            obs.spans.event(
                getattr(datagram, "trace_ctx", None), "crdt.merge",
                node=node, t=self.sim.now, changed=changed,
            )
        if changed:
            self.last_change_s = self.sim.now
            self.trace.emit(self.sim.now, "crdt.merge_changed",
                            node=self.stack.node_id, src=datagram.src)
            # Something new: spread it onward quickly.
            self.notify_local_update()
