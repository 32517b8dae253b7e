"""RNFD: routing-layer detection of DODAG root failures (ref [32]).

The paper's §IV-B cites RNFD as the example of *exploiting parallelism*
to improve border-router failure detection *by orders of magnitude*.
The reproduction follows the published algorithm's structure:

- Nodes adjacent to the root act as **sentinels**: each independently
  probes the root over its link (here: a small unicast whose link-layer
  ACK is the liveness answer).
- A sentinel that sees ``fail_threshold`` consecutive probe failures
  casts a *locally down* verdict; a later success revokes it.
- Verdicts live in a **CFRC** (conflict-free replicated counter — a
  per-sentinel epoch/flag map with a join-semilattice merge), gossiped
  network-wide piggybacked on DIOs plus dedicated gossip rounds.
- Every node evaluates the same predicate: when at least ``QUORUM`` of
  the known sentinels say *down*, the root is **globally down** and the
  router detaches at once — no per-node timeout chains.

The baseline it beats (experiment E5) is standard RPL repair, where
knowledge of the root's death spreads only through per-node DIO
staleness timeouts and parent-failure cascades.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.net.rpl.dodag import RplRouter, RplState
from repro.net.rpl.messages import RnfdProbe
from repro.sim.timers import PeriodicTimer


class RootState(enum.Enum):
    """A node's belief about the DODAG root."""

    ALIVE = "alive"
    SUSPECTED = "suspected"
    GLOBALLY_DOWN = "globally_down"


@dataclass
class Cfrc:
    """Conflict-free replicated verdict counter.

    Maps sentinel id -> (epoch, down).  Merging keeps, per sentinel, the
    entry with the larger epoch; a sentinel only ever increments its own
    epoch, so merge is idempotent, commutative, and associative — the
    lattice-join property that lets verdicts spread through unordered,
    repeated gossip without coordination (the CRDT insight of §IV-B
    applied inside the routing layer).
    """

    entries: Dict[int, Tuple[int, bool]] = field(default_factory=dict)

    def record(self, sentinel: int, down: bool) -> bool:
        """A sentinel casts/updates its own verdict.  Returns True when
        the state changed."""
        epoch, current = self.entries.get(sentinel, (0, False))
        if current == down and epoch > 0:
            return False
        self.entries[sentinel] = (epoch + 1, down)
        return True

    def merge(self, other: "Cfrc") -> bool:
        """Join with another replica.  Returns True when anything changed."""
        changed = False
        for sentinel, (epoch, down) in other.entries.items():
            mine = self.entries.get(sentinel)
            if mine is None or epoch > mine[0]:
                self.entries[sentinel] = (epoch, down)
                changed = True
        return changed

    def copy(self) -> "Cfrc":
        return Cfrc(entries=dict(self.entries))

    @property
    def sentinel_count(self) -> int:
        return len(self.entries)

    @property
    def down_count(self) -> int:
        return sum(1 for (_e, down) in self.entries.values() if down)

    def down_fraction(self) -> float:
        if not self.entries:
            return 0.0
        return self.down_count / len(self.entries)


# One-value RNFD constants, read at run time (a test patches them).
#: Fraction of known sentinels that must say down.
QUORUM = 0.51
#: Require at least this many sentinel entries before a verdict.
MIN_SENTINELS = 1
#: Period of the dedicated gossip broadcasts after the CFRC changed.
GOSSIP_PERIOD_S = 15.0


@dataclass(frozen=True)
class RnfdConfig:
    """RNFD tunables: experiment E5 sweeps the probe period and the
    failure threshold."""

    probe_period_s: float = 10.0
    fail_threshold: int = 3


class RnfdAgent:
    """The per-node RNFD protocol agent, attached to an
    :class:`~repro.net.rpl.dodag.RplRouter`."""

    def __init__(
        self,
        router: RplRouter,
        config: Optional[RnfdConfig] = None,
    ) -> None:
        self.router = router
        self.sim = router.sim
        self.trace = router.trace
        self.config = config if config is not None else RnfdConfig()
        self.cfrc = Cfrc()
        self.root_state = RootState.ALIVE
        self.detection_time: Optional[float] = None
        self.dead_root: Optional[int] = None
        self._consecutive_failures = 0
        self._probe_seq = 0
        self._gossip_budget = 0
        #: Open ``rnfd.verdict`` span: suspicion -> verdict/absolution.
        #: Kept after finish() so late gossip rounds still parent to it.
        self._verdict_ctx = None
        self._rng = self.sim.substream(f"rnfd.{router.node_id}")
        self._probe_timer = PeriodicTimer(
            self.sim, self.config.probe_period_s, self._probe_root,
            phase=self._rng.uniform(0.5, self.config.probe_period_s),
        )
        self._gossip_timer = PeriodicTimer(
            self.sim, GOSSIP_PERIOD_S, self._gossip,
            phase=self._rng.uniform(0.5, GOSSIP_PERIOD_S),
        )
        router.dio_option_providers.append(self._dio_options)
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin probing (if a sentinel) and gossiping."""
        if self._started:
            return
        self._started = True
        self._probe_timer.start()
        self._gossip_timer.start()

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self._probe_timer.stop()
        self._gossip_timer.stop()

    # ------------------------------------------------------------------
    # sentinel role
    # ------------------------------------------------------------------
    @property
    def is_sentinel(self) -> bool:
        """Sentinels are nodes with the grounded root as a link neighbor."""
        if self.router.is_root:
            return False
        root_id = self.router.dodag_id
        if root_id is None or not self.router.grounded:
            # A detached node that used to neighbor the root keeps its
            # sentinel duty until a verdict is reached.
            root_id = self._last_known_root()
            if root_id is None:
                return False
        entry = self.router.neighbors.get(root_id)
        return entry is not None and entry.dio_count > 0

    def _last_known_root(self) -> Optional[int]:
        for entry in self.router.neighbors.values():
            if entry.rank == 256 and entry.grounded:
                return entry.node_id
        return None

    def _root_id(self) -> Optional[int]:
        if self.router.grounded and self.router.dodag_id is not None:
            return self.router.dodag_id
        return self._last_known_root()

    def _probe_root(self) -> None:
        # Keep probing even after a global-down verdict: a resurrected
        # root is detected here, which starts the absolution wave.
        if not self.is_sentinel:
            return
        root_id = self._root_id()
        if root_id is None:
            return
        self._probe_seq += 1
        probe = RnfdProbe(seq=self._probe_seq)
        self.router.transport.unicast_control(
            root_id, probe, probe.size_bytes, done=self._probe_done
        )

    def _probe_done(self, success: bool) -> None:
        me = self.router.node_id
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("rnfd.probe", node=me, ok=success)
        if success:
            self._consecutive_failures = 0
            # Register as a live sentinel (on first success) or absolve
            # the root (after a down verdict).  Registration matters for
            # quorum semantics: the CFRC's denominator must count every
            # active sentinel, or a single sentinel convicts alone.
            if me not in self.cfrc.entries or self.cfrc.entries[me][1]:
                if self.cfrc.record(me, down=False):
                    self._mark_dirty()
                    self._reevaluate()
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.config.fail_threshold:
            if self.cfrc.record(me, down=True):
                self.trace.emit(self.sim.now, "rnfd.locally_down", node=me)
                if obs is not None:
                    obs.registry.inc("rnfd.locally_down", node=me)
                self._ensure_verdict_span(role="sentinel")
                self._mark_dirty()
                self._reevaluate()

    # ------------------------------------------------------------------
    # dissemination
    # ------------------------------------------------------------------
    def _dio_options(self) -> Dict[str, object]:
        if not self.cfrc.entries:
            return {}
        return {"cfrc": self.cfrc.copy()}

    def handle_options(self, options: Dict[str, object]) -> None:
        """Merge CFRC state piggybacked on a received DIO/gossip."""
        incoming = options.get("cfrc")
        if not isinstance(incoming, Cfrc):
            return
        if self.cfrc.merge(incoming):
            obs = self.trace.obs
            if obs is not None:
                obs.registry.inc("rnfd.merge", node=self.router.node_id)
            self._mark_dirty()
            self.router.trickle.reset()  # spread news fast
            self._reevaluate()
        elif self.root_state is RootState.GLOBALLY_DOWN:
            # Even without new CFRC facts: a node that slipped back into
            # the dead root's DODAG must be torn off it.
            self._enforce_verdict()

    def _mark_dirty(self) -> None:
        """Budget a few dedicated gossip rounds for the changed state —
        one broadcast can be lost to a collision, and a detached router
        has no Trickle-paced DIOs left to piggyback on."""
        self._gossip_budget = 3

    def _gossip(self) -> None:
        if self._gossip_budget <= 0 or not self.cfrc.entries:
            return
        self._gossip_budget -= 1
        from repro.net.rpl.messages import RnfdGossip

        gossip = RnfdGossip(entries=dict(self.cfrc.entries))
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("rnfd.gossip", node=self.router.node_id)
        self.router.transport.broadcast_control(
            gossip, gossip.size_bytes, trace_ctx=self._verdict_ctx
        )

    # ------------------------------------------------------------------
    # verdict
    # ------------------------------------------------------------------
    _STATE_LEVEL = {
        RootState.ALIVE: 0,
        RootState.SUSPECTED: 1,
        RootState.GLOBALLY_DOWN: 2,
    }

    def _set_state(self, new_state: RootState) -> None:
        if new_state is self.root_state:
            return
        self.root_state = new_state
        obs = self.trace.obs
        if obs is not None:
            me = self.router.node_id
            obs.registry.set("rnfd.state", self._STATE_LEVEL[new_state], node=me)
            obs.registry.inc("rnfd.transition", node=me, to=new_state.value)

    def _ensure_verdict_span(self, role: str) -> None:
        """Open the per-node ``rnfd.verdict`` span at first suspicion.

        Its duration is the node's detection latency (suspicion to
        verdict); gossip broadcasts it triggers become its children, so
        the dissemination wave reconstructs as one tree per node.
        """
        obs = self.trace.obs
        if obs is None or self._verdict_ctx is not None:
            return
        self._verdict_ctx = obs.spans.start(
            None, "rnfd.verdict", node=self.router.node_id, t=self.sim.now,
            role=role,
        )

    def _reevaluate(self) -> None:
        if self.cfrc.sentinel_count < MIN_SENTINELS:
            return
        obs = self.trace.obs
        fraction = self.cfrc.down_fraction()
        if fraction >= QUORUM:
            if self.root_state is not RootState.GLOBALLY_DOWN:
                self._set_state(RootState.GLOBALLY_DOWN)
                self.detection_time = self.sim.now
                self.dead_root = self._root_id()
                self.trace.emit(self.sim.now, "rnfd.globally_down",
                                node=self.router.node_id, fraction=fraction)
                if obs is not None:
                    obs.registry.inc("rnfd.globally_down",
                                     node=self.router.node_id)
                    self._ensure_verdict_span(role="observer")
                    obs.spans.event(
                        self._verdict_ctx, "rnfd.globally_down",
                        node=self.router.node_id, t=self.sim.now,
                        fraction=fraction,
                    )
                    obs.spans.finish(self._verdict_ctx, self.sim.now,
                                     verdict="globally_down")
                self._mark_dirty()
                self._gossip()
            self._enforce_verdict()
        elif self.root_state is RootState.GLOBALLY_DOWN:
            # Sentinel absolutions pulled the count below quorum: the
            # root provably returned.
            self._set_state(
                RootState.SUSPECTED if self.cfrc.down_count else RootState.ALIVE
            )
            self.dead_root = None
            self.detection_time = None
            self.trace.emit(self.sim.now, "rnfd.absolved",
                            node=self.router.node_id)
            if obs is not None:
                obs.registry.inc("rnfd.absolved", node=self.router.node_id)
                obs.spans.event(self._verdict_ctx, "rnfd.absolved",
                                node=self.router.node_id, t=self.sim.now)
                self._verdict_ctx = None
        elif self.cfrc.down_count > 0:
            self._set_state(RootState.SUSPECTED)
            self._ensure_verdict_span(
                role="sentinel" if self.is_sentinel else "observer"
            )
        else:
            self._set_state(RootState.ALIVE)
            if self._verdict_ctx is not None and obs is not None:
                obs.spans.finish(self._verdict_ctx, self.sim.now,
                                 verdict="revoked")
                self._verdict_ctx = None

    def _enforce_verdict(self) -> None:
        """Tear the router off a DODAG anchored at the convicted root."""
        router = self.router
        if router.state is not RplState.JOINED or not router.grounded:
            return
        if self.dead_root is not None and router.dodag_id != self.dead_root:
            return
        router.declare_root_dead()

    def reset(self) -> None:
        """Forget verdicts (after the root provably returned)."""
        self.cfrc = Cfrc()
        self._set_state(RootState.ALIVE)
        self.detection_time = None
        self.dead_root = None
        self._consecutive_failures = 0
        self._gossip_budget = 0
        obs = self.trace.obs
        if obs is not None and self._verdict_ctx is not None:
            obs.spans.finish(self._verdict_ctx, self.sim.now, verdict="reset")
        self._verdict_ctx = None
