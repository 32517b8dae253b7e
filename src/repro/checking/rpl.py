"""Routing-layer invariants: DODAG shape and delivered-packet paths.

Two checkers:

- :class:`DodagStructureChecker` samples the ground-truth routing state
  of every router and checks three structural properties: the
  preferred-parent graph is acyclic, rank strictly decreases toward the
  root along parent edges, and the root's DAO table (which downward
  source routes are computed from) is cycle-free.
- :class:`DeliveredPathChecker` watches ``net.delivered`` records and
  checks each delivered packet's path evidence: a source-routed path
  never revisits a node, and the cumulative hop count stays within the
  TTL-derived hard budget.

RPL is *self-stabilizing*, not loop-free at every instant: stale DIOs
can create parent cycles or rank inversions that the protocol's own
defenses (datapath validation, DAGMaxRankIncrease, Trickle resets)
dissolve within a few exchanges.  The structural checks therefore use a
persistence threshold — a defect must be observed in ``PERSISTENCE``
consecutive samples to count as a violation.  A transient inversion
clears in one Trickle interval; one that survives multiple sampling
periods is a genuine repair failure.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.checking.base import FaultWindowMixin, InvariantChecker
from repro.net import packet as wire

#: Fixed structure-sampling period, in sim seconds (no jitter —
#: determinism).
PERIOD_S = 30.0
#: Consecutive samples a defect must survive before it is recorded: 1
#: would flag transients too; 2 tolerates the convergence windows RPL's
#: own loop defenses are built for.
PERSISTENCE = 2
from repro.net.rpl.dodag import RplRouter, RplState
from repro.net.rpl.objective import INFINITE_RANK
from repro.sim.trace import TraceRecord

_StreakKey = Tuple


def _find_cycles(parent: Dict[int, int]) -> List[FrozenSet[int]]:
    """Cycles in a functional graph ``node -> parent`` (each node has at
    most one outgoing edge, so every cycle is node-disjoint)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    cycles: List[FrozenSet[int]] = []
    for start in parent:
        if color.get(start, WHITE) is not WHITE:
            continue
        path: List[int] = []
        cursor: Optional[int] = start
        while cursor is not None and cursor in parent and (
            color.get(cursor, WHITE) is WHITE
        ):
            color[cursor] = GRAY
            path.append(cursor)
            cursor = parent[cursor]
        if cursor is not None and color.get(cursor, WHITE) is GRAY:
            cycles.append(frozenset(path[path.index(cursor):]))
        for node in path:
            color[node] = BLACK
    return cycles


class DodagStructureChecker(FaultWindowMixin, InvariantChecker):
    """Samples routers for cycles and rank inversions.

    Fault-window aware: inside a window declared via
    :meth:`~repro.checking.base.FaultWindowMixin.declare_fault_window`
    (e.g. a :class:`~repro.faults.plan.RandomCrashesClause` storm),
    sampled structure checks are suspended — stale parent pointers and
    DAO entries are expected consequences of deliberately crashing
    routers.  Persistence streaks freeze rather than reset, so a defect
    that survives past the window (plus grace) still needs only
    :data:`PERSISTENCE` further samples to fire.

    Parameters
    ----------
    routers:
        node id -> :class:`~repro.net.rpl.dodag.RplRouter` (ground
        truth, read-only).
    alive:
        Optional predicate ``node_id -> bool``.  A crashed node's
        router retains its last state verbatim, which is staleness, not
        a routing defect — dead routers are excluded from the sampled
        graph.  ``None`` treats every router as live.
    """

    name = "rpl.dodag"

    def __init__(
        self,
        routers: Dict[int, RplRouter],
        alive: Optional[Callable[[int], bool]] = None,
    ) -> None:
        super().__init__()
        self.routers = routers
        self._alive = alive
        self._streaks: Dict[_StreakKey, int] = {}
        self.samples = 0

    def _setup(self) -> None:
        self.sample_every(PERIOD_S, self._sample)

    # ------------------------------------------------------------------
    def _bump(self, seen: set, key: _StreakKey, invariant: str,
              node: Optional[int], **detail) -> None:
        seen.add(key)
        count = self._streaks.get(key, 0) + 1
        self._streaks[key] = count
        if count == PERSISTENCE:
            self.record(invariant, node=node, persisted_samples=count, **detail)

    def _sample(self) -> None:
        self.samples += 1
        if self.in_fault_window(self.sim.now):
            return
        seen: set = set()
        self._check_parent_graph(seen)
        self._check_rank_monotonicity(seen)
        self._check_dao_tables(seen)
        # A defect that healed resets its streak.
        self._streaks = {k: v for k, v in self._streaks.items() if k in seen}

    # ------------------------------------------------------------------
    def _is_alive(self, nid: int) -> bool:
        return self._alive is None or self._alive(nid)

    def _joined_parent_graph(self) -> Dict[int, int]:
        return {
            nid: router.preferred_parent
            for nid, router in self.routers.items()
            if router.state is RplState.JOINED
            and router.preferred_parent is not None
            and self._is_alive(nid)
        }

    def _check_parent_graph(self, seen: set) -> None:
        for cycle in _find_cycles(self._joined_parent_graph()):
            self._bump(
                seen, ("parent_cycle", cycle), "dodag_cycle", None,
                cycle=sorted(cycle),
                ranks={n: self.routers[n].rank for n in sorted(cycle)},
            )

    def _check_rank_monotonicity(self, seen: set) -> None:
        attached = (RplState.JOINED, RplState.ROOT, RplState.FLOATING_ROOT)
        for nid, router in self.routers.items():
            if router.state is not RplState.JOINED or not self._is_alive(nid):
                continue
            parent = self.routers.get(router.preferred_parent)
            if (
                parent is None
                or not self._is_alive(parent.node_id)
                or parent.state not in attached
                or parent.dodag_id != router.dodag_id
                or parent.rank >= INFINITE_RANK
            ):
                continue  # parent left this DODAG: staleness, not inversion
            if router.rank <= parent.rank:
                self._bump(
                    seen, ("rank_inversion", nid), "rank_not_monotone", nid,
                    rank=router.rank, parent=parent.node_id,
                    parent_rank=parent.rank,
                )

    def _check_dao_tables(self, seen: set) -> None:
        for nid, router in self.routers.items():
            if router.state not in (RplState.ROOT, RplState.FLOATING_ROOT):
                continue
            if not self._is_alive(nid):
                continue
            graph = {child: entry[0] for child, entry in router.dao_table.items()}
            for cycle in _find_cycles(graph):
                self._bump(
                    seen, ("dao_cycle", nid, cycle), "dao_table_cycle", nid,
                    cycle=sorted(cycle),
                )


class DeliveredPathChecker(InvariantChecker):
    """Checks loop evidence on every delivered packet.

    Downward packets carry their full source route in the delivery
    record; a route that visits any node twice is a routing loop, flagged
    exactly.  Upward paths are implicit (they follow parent pointers,
    whose acyclicity :class:`DodagStructureChecker` owns), so for those
    this checker enforces only the hard hop budget: a delivered packet
    can never have traversed more links than its initial TTL allows,
    whatever forwarding took place.
    """

    name = "rpl.path"

    def __init__(self, node_count: int) -> None:
        super().__init__()
        self.node_count = node_count
        #: Hop *k* receives TTL ``DEFAULT_TTL + 1 - k`` and forwards only
        #: while that stays above 1, so no copy is delivered farther.
        self.max_hops = wire.DEFAULT_TTL
        self.deliveries = 0

    def _setup(self) -> None:
        self.subscribe("net.delivered", self._on_delivered)

    def _on_delivered(self, record: TraceRecord) -> None:
        self.deliveries += 1
        hops = record.data.get("hops")
        if hops is not None and hops > self.max_hops:
            self.record("hop_budget_exceeded", node=record.node,
                        hops=hops, budget=self.max_hops)
        path = record.data.get("path") or ()
        if len(set(path)) != len(path):
            repeated = sorted({n for n in path if path.count(n) > 1})
            self.record("source_route_revisit", node=record.node,
                        path=tuple(path), repeated=repeated)
