"""Synchronous-flooding primitive (Glossy family).

The paper (§IV-B, refs [28]–[30]) observes that *highly synchronous
end-to-end communication involving tight coordination of multiple
devices* minimizes latency: instead of per-hop rendezvous costing
~``wake_interval/2`` each, every node relays in lockstep slots, so a
network-wide flood completes in ``depth × slot`` — milliseconds, not
seconds.

Real implementations rely on constructive interference and sub-µs time
sync, which a packet-collision simulator cannot (and need not)
reproduce; we model the primitive at slot granularity on the
connectivity graph, with a per-hop reliability matching published Glossy
figures (>99.9%).  Energy is accounted as radio-on time per flood.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.radio.medium import Medium


#: One relay slot: frame airtime + processing (Glossy: ~a few ms).
SLOT_S = 0.004
#: Links with PRR below this do not count as flooding edges.
PRR_THRESHOLD = 0.7
#: Number of retransmissions per node within the flood (Glossy N).
RETRANSMISSIONS = 2


@dataclass(frozen=True)
class SyncFloodConfig:
    """Parameters of the flooding primitive."""

    #: Probability a node at hop ring h hears the flood from ring h-1.
    per_hop_reliability: float = 0.999


@dataclass
class FloodResult:
    """Outcome of one flood."""

    initiator: int
    reached: Dict[int, float] = field(default_factory=dict)  # node -> latency
    missed: Set[int] = field(default_factory=set)
    radio_on_s_per_node: float = 0.0

    def latency_to(self, node_id: int) -> Optional[float]:
        return self.reached.get(node_id)


class SyncFloodService:
    """Slot-synchronized network flooding over a shared medium.

    The service derives the flooding graph from the medium's link PRRs
    and schedules per-ring deliveries on the simulation kernel, so
    floods interleave correctly with other simulated activity.
    """

    def __init__(
        self,
        medium: Medium,
        config: Optional[SyncFloodConfig] = None,
    ) -> None:
        self.medium = medium
        self.sim = medium.sim
        self.trace = medium.trace
        self.config = config if config is not None else SyncFloodConfig()
        self._rng = self.sim.substream("syncflood")
        self._graph: Optional[Dict[int, List[int]]] = None
        self.floods_run = 0
        self.total_radio_on_s = 0.0

    # ------------------------------------------------------------------
    def connectivity(self) -> Dict[int, List[int]]:
        """Adjacency over usable links (PRR above the threshold)."""
        if self._graph is None:
            graph: Dict[int, List[int]] = {}
            radios = [r for r in self.medium.radios.values() if r.channel != 0]
            for a in radios:
                graph.setdefault(a.node_id, [])
                for b, _rssi in self.medium.audible_from(a):
                    if b.channel == 0:
                        continue
                    if self.medium.link_prr(a.node_id, b.node_id) >= PRR_THRESHOLD:
                        graph[a.node_id].append(b.node_id)
            self._graph = graph
        return self._graph

    def hop_distances(self, initiator: int) -> Dict[int, int]:
        """BFS hop count from ``initiator`` over the flooding graph."""
        graph = self.connectivity()
        if initiator not in graph:
            raise KeyError(f"unknown initiator {initiator}")
        dist = {initiator: 0}
        queue = deque([initiator])
        while queue:
            node = queue.popleft()
            for neighbor in graph[node]:
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    queue.append(neighbor)
        return dist

    # ------------------------------------------------------------------
    def flood(
        self,
        initiator: int,
        payload: Any = None,
        deliver: Optional[Callable[[int, float, Any], None]] = None,
        on_complete: Optional[Callable[[FloodResult], None]] = None,
    ) -> FloodResult:
        """Run one flood; deliveries are scheduled on the kernel.

        Returns the :class:`FloodResult`, which is fully populated only
        once simulated time passes the flood's last slot.
        """
        distances = self.hop_distances(initiator)
        live_nodes = {
            node_id for node_id, radio in self.medium.radios.items()
            if radio.channel != 0 and radio.enabled
        }
        result = FloodResult(initiator=initiator)
        max_hop = max(distances.values()) if distances else 0
        # Per-node on-time: every participant keeps its radio on for the
        # whole flood window (slot per ring + retransmissions).
        flood_window = (max_hop + RETRANSMISSIONS) * SLOT_S
        result.radio_on_s_per_node = flood_window
        self.total_radio_on_s += flood_window * len(live_nodes)
        self.floods_run += 1

        # A node is reached if every ring transition up to it succeeded
        # for at least one of its predecessors; with Glossy-grade per-hop
        # reliability we approximate per-node success independently.
        reached_rings: Dict[int, bool] = {0: True}
        for node_id, hop in sorted(distances.items(), key=lambda kv: kv[1]):
            if node_id == initiator:
                result.reached[initiator] = 0.0
                continue
            if node_id not in live_nodes:
                result.missed.add(node_id)
                continue
            success = all(
                self._rng.random() < self.config.per_hop_reliability
                for _ in range(hop)
            ) or self._rng.random() < self.config.per_hop_reliability  # retransmission rescue
            if not success:
                result.missed.add(node_id)
                self.trace.emit(self.sim.now, "syncflood.miss", node=node_id)
                continue
            latency = hop * SLOT_S
            result.reached[node_id] = latency
            if deliver is not None:
                self.sim.schedule(
                    latency,
                    (lambda n, lat: lambda: deliver(n, lat, payload))(node_id, latency),
                )
        for node_id in live_nodes - set(distances):
            result.missed.add(node_id)
        if on_complete is not None:
            self.sim.schedule(flood_window, lambda: on_complete(result))
        self.trace.emit(
            self.sim.now, "syncflood.flood", node=initiator,
            reached=len(result.reached), missed=len(result.missed),
        )
        return result
