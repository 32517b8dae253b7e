"""Service availability: is every client actually being served?

The taxonomy's availability axis grades against "three nines", which a
raw delivery probe through a partition can never meet — delivery drops
with the severed half even when every client on both sides still has a
working service endpoint.  The right measure for a *dependable* system
is service availability: a node counts as served when some alive
endpoint (border router, or a designated standby) is on its side of the
network, matching the paper's §V-C point that partition tolerance is
about keeping both sides operational, not about wishing the cut away.

Two probes:

- :func:`service_availability` — fraction of alive non-endpoint nodes
  with an alive endpoint on their partition side;
- :func:`reachable_fraction` — fraction of alive non-root nodes with a
  JOINED, alive parent chain to the root (the stricter routing-level
  view, reported alongside but not graded).

:class:`AvailabilityChecker` samples both on a fixed period and records
violations when service availability drops below a floor outside every
declared fault window, or fails to fully restore by the end of the run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.checking.base import FaultWindowMixin, InvariantChecker
from repro.net.rpl.dodag import RplState

#: Fixed sampling period, in sim seconds.
PERIOD_S = 15.0
#: Service availability below this, outside every fault window, is a
#: violation.
FLOOR = 0.6


def service_availability(
    system,
    endpoints: Sequence[int],
    partitions=None,
) -> float:
    """Fraction of alive non-endpoint nodes with a live endpoint on
    their side of the (possible) partition: ``partitions`` is the
    :class:`~repro.faults.plan.FaultPlanRuntime` that cuts it, whose
    ``sides`` is None when the network is whole."""
    sides = partitions.sides if partitions is not None else None
    alive_endpoint_sides = {
        (sides.get(nid) if sides is not None else 0)
        for nid in endpoints
        if system.nodes[nid].alive
    }
    clients = [
        node for nid, node in sorted(system.nodes.items())
        if nid not in endpoints and node.alive
    ]
    if not clients:
        return 1.0
    served = sum(
        1 for node in clients
        if (sides.get(node.node_id) if sides is not None else 0)
        in alive_endpoint_sides
    )
    return served / len(clients)


def reachable_fraction(system) -> float:
    """Fraction of alive non-root nodes JOINED with an alive parent
    chain up to the root (loop-guarded)."""
    root_id = system.topology.root_id
    clients = [
        node for nid, node in sorted(system.nodes.items())
        if nid != root_id and node.alive
    ]
    if not clients:
        return 1.0

    def reaches_root(node) -> bool:
        seen = set()
        current = node
        while True:
            if not current.alive:
                return False
            if current.node_id == root_id:
                return True
            rpl = current.stack.rpl
            if rpl.state is not RplState.JOINED or rpl.preferred_parent is None:
                return False
            if current.node_id in seen:
                return False  # routing loop
            seen.add(current.node_id)
            parent = system.nodes.get(rpl.preferred_parent)
            if parent is None:
                return False
            current = parent

    return sum(1 for node in clients if reaches_root(node)) / len(clients)


class AvailabilityChecker(FaultWindowMixin, InvariantChecker):
    """Samples service availability against a floor, fault-window aware.

    Like every checker it only *observes*: samples accumulate on the
    instance (``samples``, ``reachable_samples``) and are summarized by
    the dependability CLI after the run — nothing is written to the
    metrics registry mid-run.
    """

    name = "dependability.availability"

    def __init__(
        self,
        system,
        endpoints: Optional[Sequence[int]] = None,
        settle_s: float = 0.0,
        partitions=None,
    ) -> None:
        super().__init__()
        self.system = system
        self.endpoints: Tuple[int, ...] = tuple(
            endpoints if endpoints is not None else [system.topology.root_id]
        )
        self.settle_s = settle_s
        self.partitions = partitions
        #: (time, service_availability) samples.
        self.samples: List[Tuple[float, float]] = []
        #: (time, reachable_fraction) samples.
        self.reachable_samples: List[Tuple[float, float]] = []

    def _setup(self) -> None:
        self.sample_every(PERIOD_S, self._probe)

    def _probe(self) -> None:
        now = self.sim.now
        availability = service_availability(self.system, self.endpoints,
                                            self.partitions)
        self.samples.append((now, availability))
        self.reachable_samples.append((now, reachable_fraction(self.system)))
        if now < self.settle_s:
            return
        if availability < FLOOR and not self.in_fault_window(now):
            self.record(
                "service_availability_floor",
                availability=round(availability, 4),
                floor=FLOOR,
            )

    def finish(self) -> None:
        if self.samples and self.samples[-1][1] < 1.0:
            time, availability = self.samples[-1]
            self.record(
                "availability_not_restored",
                availability=round(availability, 4),
                at=time,
            )

    # -- summaries (read by the dependability CLI) ----------------------
    def mean_availability(self) -> float:
        if not self.samples:
            return 1.0
        return sum(a for _, a in self.samples) / len(self.samples)

    def min_availability(self) -> float:
        if not self.samples:
            return 1.0
        return min(a for _, a in self.samples)

    def mean_reachable(self) -> float:
        if not self.reachable_samples:
            return 1.0
        return sum(r for _, r in self.reachable_samples) / len(self.reachable_samples)
