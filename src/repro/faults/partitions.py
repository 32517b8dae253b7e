"""Network partitions (paper §V-C, ref [44]).

A partition is modelled as a physical cut: links crossing a geometric
boundary stop carrying anything.  This is what happens when a forklift
parks in front of the relay shelf or a firewall change kills the
backhaul — connectivity is severed while both sides keep running.

The controller is the single owner of the medium's link filter: it
composes the geometric cut with any individually blocked links (link
flaps), so fault plans can overlay both without clobbering each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.radio.medium import Medium
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class GeometricPartition:
    """A vertical cut: nodes with x < ``cut_x`` vs the rest."""

    cut_x: float

    def side(self, position: Tuple[float, float]) -> int:
        return 0 if position[0] < self.cut_x else 1


class PartitionController:
    """Applies and heals partitions (and link blocks) on a medium."""

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.medium = medium
        self.trace = trace if trace is not None else TraceLog()
        self._sides: Optional[Dict[int, int]] = None
        self._blocked_links: Set[Tuple[int, int]] = set()
        self.partitions_applied = 0
        self.links_blocked = 0

    @property
    def sides(self) -> Optional[Dict[int, int]]:
        """Current node → side map, or None when not partitioned."""
        return dict(self._sides) if self._sides is not None else None

    # ------------------------------------------------------------------
    def _inc_injected(self, kind: str) -> None:
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("fault.injected", kind=kind)

    def _refresh_filter(self) -> None:
        """Install one composite predicate for sides + blocked pairs."""
        sides = self._sides
        blocked = self._blocked_links
        if sides is None and not blocked:
            self.medium.set_link_filter(None)
            return

        def link_blocked(a: int, b: int) -> bool:
            if sides is not None and sides.get(a) != sides.get(b):
                return True
            pair = (a, b) if a <= b else (b, a)
            return pair in blocked

        self.medium.set_link_filter(link_blocked)

    # ------------------------------------------------------------------
    def apply(self, partition: GeometricPartition) -> Dict[int, int]:
        """Cut every link crossing the boundary; returns node → side."""
        sides = {
            node_id: partition.side(radio.position)
            for node_id, radio in self.medium.radios.items()
        }
        self._sides = sides
        self._refresh_filter()
        self.partitions_applied += 1
        self._inc_injected("partition")
        self.trace.emit(self.sim.now, "partition.applied", node=None,
                        left=sum(1 for s in sides.values() if s == 0),
                        right=sum(1 for s in sides.values() if s == 1))
        return sides

    def heal(self) -> None:
        """Restore cross-boundary connectivity (blocked links persist)."""
        self._sides = None
        self._refresh_filter()
        self.trace.emit(self.sim.now, "partition.healed", node=None)

    # ------------------------------------------------------------------
    def block_link(self, a: int, b: int) -> None:
        """Sever one bidirectional link (a flapping or shadowed hop)."""
        pair = (a, b) if a <= b else (b, a)
        if pair in self._blocked_links:
            return
        self._blocked_links.add(pair)
        self._refresh_filter()
        self.links_blocked += 1
        self._inc_injected("link_down")
        self.trace.emit(self.sim.now, "partition.link_down", node=None,
                        a=pair[0], b=pair[1])

    def unblock_link(self, a: int, b: int) -> None:
        """Restore a previously blocked link."""
        pair = (a, b) if a <= b else (b, a)
        if pair not in self._blocked_links:
            return
        self._blocked_links.discard(pair)
        self._refresh_filter()
        self.trace.emit(self.sim.now, "partition.link_up", node=None,
                        a=pair[0], b=pair[1])
