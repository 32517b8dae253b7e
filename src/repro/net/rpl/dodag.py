"""DODAG formation and maintenance — the RPL router proper.

One :class:`RplRouter` runs on every node.  The root anchors a grounded
DODAG and beacons DIOs under Trickle; other nodes select parents through
an objective function with hysteresis, advertise their rank, report
their parent to the root in DAOs (non-storing mode, so the root can
source-route downward), and repair locally when the parent link dies.

Partition behaviour (paper §V-C, ref [44]): with
``partition_tolerance`` enabled, a node that stays detached forms or
joins a *floating* (non-grounded) DODAG, so devices cut off from the
border router keep a routing structure — and the application keeps a
degraded-but-safe service — until the partition heals, at which point
grounded DIOs win and the float dissolves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.net.rpl.messages import DaoMessage, DioMessage, DisMessage
from repro.net.rpl.neighbors import NeighborEntry, NeighborTable
from repro.net.rpl.objective import (
    INFINITE_RANK,
    ObjectiveFunction,
    Mrhof,
    ROOT_RANK,
)
from repro.net.rpl.trickle import (
    TRICKLE_VARIANTS,
    TrickleTimer,
    make_trickle_variant,
)
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer, Timer
from repro.sim.trace import TraceLog


class RplState(enum.Enum):
    """Routing state of a node."""

    DETACHED = "detached"
    JOINED = "joined"
    FLOATING_ROOT = "floating_root"
    ROOT = "root"


class RplTransport(Protocol):
    """What the router needs from the surrounding stack: its run's
    kernel and log, and three ways to reach a neighbour."""

    sim: Simulator
    trace: TraceLog

    def broadcast_control(
        self, message: Any, size_bytes: int, trace_ctx: Any = None
    ) -> None:
        """Link-local broadcast of a control message."""

    def unicast_control(
        self, dest: int, message: Any, size_bytes: int,
        done: Optional[Callable[[bool], None]] = None,
        trace_ctx: Any = None,
    ) -> None:
        """Link-local unicast (probes, DAO hop) with MAC feedback."""

    def link_prr(self, neighbor: int) -> float:
        """Ground-truth PRR used to seed link estimates (oracle)."""


# One-value routing constants, read at run time (a test patches them).
#: How long a parent that failed ``parent_fail_threshold`` times stays
#: ineligible.
BLACKLIST_S = 60.0
#: Seed ETX estimates from ground-truth PRR on a neighbor's first DIO.
ORACLE_SEED = True
#: Neighbor-table capacity.
NEIGHBOR_CAPACITY = 32
#: How often a router checks its neighbors against
#: ``RplConfig.staleness_timeout_s``.
STALENESS_CHECK_PERIOD_S = 30.0
#: DAGMaxRankIncrease (RFC 6550 §8.2.2.4): a node may not advertise a
#: rank above its floor (lowest rank held in this DODAG version) plus
#: this bound; exceeding it forces a detach, which caps
#: count-to-infinity loops at a few Trickle exchanges.
MAX_RANK_INCREASE = 4 * 256


@dataclass(frozen=True)
class RplConfig:
    """Tunables of the routing layer.

    The Trickle parameters are the ablation knobs of experiment E10;
    ``staleness_timeout_s`` is the *baseline* root-death detector that
    RNFD (E5) is compared against.
    """

    trickle_imin_s: float = 2.0
    trickle_doublings: int = 8
    trickle_k: int = 5
    #: DIO pacing policy, one of
    #: :data:`repro.net.rpl.trickle.TRICKLE_VARIANTS` ("classic",
    #: "adaptive-imin", "adaptive-k").  Classic is byte-identical to
    #: the pre-variant implementation.
    trickle_variant: str = "classic"
    dao_period_s: float = 120.0
    dis_period_s: float = 15.0
    parent_fail_threshold: int = 3
    #: Parent considered dead when silent this long (None = only MAC
    #: feedback detects death).  Defaults to ~3 * Imax.
    staleness_timeout_s: Optional[float] = 1500.0
    #: Form floating DODAGs when detached this long; None disables.
    float_delay_s: Optional[float] = None

    def validate(self) -> None:
        """Refuse a value the router cannot run, naming its field."""
        periods = ["trickle_imin_s", "dao_period_s", "dis_period_s"]
        periods += [name for name in ("staleness_timeout_s", "float_delay_s")
                    if getattr(self, name) is not None]
        for name in periods:
            value = getattr(self, name)
            if not 0.0 < value < math.inf:  # NaN fails too
                raise ValueError(f"RplConfig.{name} must be finite and "
                                 f"positive, got {value!r}")
        for name, least in (("trickle_doublings", 0), ("trickle_k", 1),
                            ("parent_fail_threshold", 1)):
            if getattr(self, name) < least:
                raise ValueError(f"RplConfig.{name} must be >= {least}, "
                                 f"got {getattr(self, name)!r}")
        if self.trickle_variant not in TRICKLE_VARIANTS:
            raise ValueError(
                f"RplConfig.trickle_variant: unknown Trickle variant "
                f"{self.trickle_variant!r}; choose from "
                f"{sorted(TRICKLE_VARIANTS)}")


class RplRouter:
    """The per-node RPL routing agent."""

    #: Counters the registry reads from this router and its Trickle timer.
    COUNTED = (
        ("rpl.dio", {}, "dio_sent"),
        ("rpl.dao", {}, "dao_sent"),
        ("rpl.parent_change", {}, "parent_changes"),
        ("rpl.trickle.reset", {}, "trickle.resets"),
        ("rpl.trickle.tx", {}, "trickle.transmissions"),
        ("rpl.trickle.suppressed", {}, "trickle.suppressions"),
    )

    def __init__(
        self,
        node_id: int,
        transport: RplTransport,
        config: Optional[RplConfig] = None,
        objective: Optional[ObjectiveFunction] = None,
        is_root: bool = False,
    ) -> None:
        self.node_id = node_id
        self.config = config if config is not None else RplConfig()
        self.config.validate()
        self.transport = transport
        self.sim = transport.sim
        self.trace = transport.trace
        self.objective = objective if objective is not None else Mrhof()
        self.is_root = is_root
        self._rng = self.sim.substream(f"rpl.{node_id}")

        self.state = RplState.DETACHED
        self.rank = INFINITE_RANK
        self.dodag_id: Optional[int] = None
        self.version = 0
        self.grounded = False
        self.preferred_parent: Optional[int] = None
        self.neighbors = NeighborTable(NEIGHBOR_CAPACITY)
        self._parent_failures = 0
        self._path_seq = 0
        self._rank_floor = INFINITE_RANK
        self._detached_since: Optional[float] = 0.0
        self.parent_changes = 0
        self.dio_sent = 0
        self.dao_sent = 0

        #: Root-only: child -> (parent, path_seq) learned from DAOs.
        self.dao_table: Dict[int, Tuple[int, int]] = {}

        #: Set by the stack: send a DAO through the data plane.  The
        #: third argument is an optional ``trace_ctx`` parenting the
        #: DAO's datagram span (a parent switch threads its span through
        #: the repair DAO it triggers).
        self.send_dao_upward: Optional[Callable[..., None]] = None
        #: Consulted by RNFD to piggyback state onto DIOs.
        self.dio_option_providers: List[Callable[[], Dict[str, Any]]] = []
        #: Open ``rpl.parent_switch`` span awaiting its repair DAO.
        self._switch_ctx: Any = None

        self.trickle = TrickleTimer(
            self.sim,
            self.config.trickle_imin_s,
            self.config.trickle_doublings,
            self.config.trickle_k,
            self._send_dio,
            rng=self._rng,
            trace=self.trace,
            node=node_id,
            variant=make_trickle_variant(self.config.trickle_variant),
        )
        self._dao_timer = PeriodicTimer(
            self.sim, self.config.dao_period_s, self._send_dao,
            phase=self._rng.uniform(1.0, self.config.dao_period_s),
        )
        self._dis_timer = Timer(self.sim, self._dis_tick)
        self._stale_timer = PeriodicTimer(
            self.sim, STALENESS_CHECK_PERIOD_S,
            self._check_staleness,
        )
        self._float_timer = Timer(self.sim, self._become_floating_root)
        self._started = False
        self.trace.add_reader(self, node_id, self.COUNTED)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the routing agent."""
        if self._started:
            return
        self._started = True
        if self.is_root:
            self._become_root()
        else:
            self.state = RplState.DETACHED
            self._detached_since = self.sim.now
            self._dis_timer.start(self._rng.uniform(0.5, self.config.dis_period_s))
            self._stale_timer.start()
            self._arm_float_timer()

    def stop(self) -> None:
        """Shut the agent down (node failure)."""
        if not self._started:
            return
        self._started = False
        self.trickle.stop()
        self._dao_timer.stop()
        self._dis_timer.cancel()
        self._stale_timer.stop()
        self._float_timer.cancel()

    def _become_root(self) -> None:
        self.state = RplState.ROOT
        self.rank = ROOT_RANK
        self.dodag_id = self.node_id
        self.grounded = True
        self.preferred_parent = None
        self.trickle.start()
        self.trace.emit(self.sim.now, "rpl.root_up", node=self.node_id)

    # ------------------------------------------------------------------
    # DIO emission
    # ------------------------------------------------------------------
    def _current_dio(self) -> DioMessage:
        options: Dict[str, Any] = {}
        for provider in self.dio_option_providers:
            options.update(provider())
        return DioMessage(
            dodag_id=self.dodag_id if self.dodag_id is not None else self.node_id,
            version=self.version,
            rank=self.rank,
            grounded=self.grounded,
            options=options,
        )

    def _send_dio(self) -> None:
        if not self._started:
            return
        dio = self._current_dio()
        self.dio_sent += 1
        ctx = None
        obs = self.trace.obs
        if obs is not None:
            ctx = obs.spans.start(
                None, "rpl.dio", node=self.node_id, t=self.sim.now,
                rank=self.rank,
            )
        self.transport.broadcast_control(dio, dio.size_bytes, trace_ctx=ctx)
        if ctx is not None:
            obs.spans.finish(ctx, self.sim.now)

    def _poison(self) -> None:
        """Advertise INFINITE_RANK so descendants stop routing through us.

        The poison carries the usual DIO options: a node detaching
        because of an RNFD verdict disseminates the verdict with its
        last grounded breath.
        """
        options: Dict[str, Any] = {}
        for provider in self.dio_option_providers:
            options.update(provider())
        poison = DioMessage(
            dodag_id=self.dodag_id if self.dodag_id is not None else self.node_id,
            version=self.version,
            rank=INFINITE_RANK,
            grounded=self.grounded,
            options=options,
        )
        self.transport.broadcast_control(poison, poison.size_bytes)
        self.trace.emit(self.sim.now, "rpl.poison", node=self.node_id)
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("rpl.poison", node=self.node_id)

    # ------------------------------------------------------------------
    # message handling (wired by the stack)
    # ------------------------------------------------------------------
    def handle_dio(self, src: int, dio: DioMessage) -> None:
        """Process a received DIO from neighbor ``src``."""
        if not self._started:
            return
        entry = self.neighbors.get_or_create(src)
        first_sighting = entry.dio_count == 0
        entry.observe_dio(dio, self.sim.now)
        if first_sighting and ORACLE_SEED:
            prr = self.transport.link_prr(src)
            entry.estimator.probability = max(prr, 1.0 / 16.0)
        else:
            # A received beacon is positive link evidence; without this,
            # an ETX ruined by unicast failures during an outage never
            # recovers and the neighbor stays ineligible forever.
            entry.estimator.update(True)

        if self.is_root:
            return

        if dio.version > self.version and dio.grounded:
            # Global repair: adopt the new version and rejoin.
            self.version = dio.version
            self._detach(reason="global_repair")

        consistent = (
            self.state is RplState.JOINED
            and dio.dodag_id == self.dodag_id
            and dio.version == self.version
            and dio.rank != INFINITE_RANK
        )
        self._evaluate_parents()
        if consistent and self.trickle.running:
            self.trickle.hear_consistent()

    def handle_dis(self, src: int) -> None:
        """A DIS solicits a DIO: answer by resetting Trickle."""
        if not self._started:
            return
        if self.state in (RplState.ROOT, RplState.JOINED, RplState.FLOATING_ROOT):
            self.trickle.reset()

    def handle_dao(self, dao: DaoMessage) -> None:
        """Root only: record a child's parent advertisement."""
        if not self.is_root and self.state is not RplState.FLOATING_ROOT:
            return
        known = self.dao_table.get(dao.node)
        if known is None or dao.path_seq >= known[1]:
            self.dao_table[dao.node] = (dao.parent, dao.path_seq)
            self.trace.emit(self.sim.now, "rpl.dao_registered", node=self.node_id,
                            child=dao.node, parent=dao.parent)

    def link_feedback(self, neighbor: int, success: bool) -> None:
        """MAC unicast outcome for a neighbor; drives ETX and repair."""
        entry = self.neighbors.get(neighbor)
        if entry is not None:
            entry.estimator.update(success)
        if neighbor != self.preferred_parent:
            return
        if success:
            self._parent_failures = 0
            return
        self._parent_failures += 1
        if self._parent_failures >= self.config.parent_fail_threshold:
            self._parent_failures = 0
            self.neighbors.blacklist(
                neighbor, self.sim.now + BLACKLIST_S
            )
            self.trace.emit(self.sim.now, "rpl.parent_lost", node=self.node_id,
                            parent=neighbor)
            self._evaluate_parents(forced=True)

    # ------------------------------------------------------------------
    # parent selection
    # ------------------------------------------------------------------
    def _candidate_rank(self, entry: NeighborEntry) -> int:
        return self.objective.rank_through(entry.rank, entry.etx)

    def _eligible(self, entry: NeighborEntry) -> bool:
        if entry.rank >= INFINITE_RANK:
            return False
        if not self.objective.acceptable(entry.rank, entry.etx):
            return False
        # Loop avoidance: never pick a parent whose advertised rank is
        # not strictly better than the rank we would get through it.
        return entry.rank < self._candidate_rank(entry)

    def _evaluate_parents(self, forced: bool = False) -> None:
        if self.is_root or not self._started:
            return
        now = self.sim.now
        candidates = [e for e in self.neighbors.candidates(now) if self._eligible(e)]
        grounded = [e for e in candidates if e.grounded]
        pool = grounded if grounded else candidates
        if self.state is RplState.FLOATING_ROOT and not grounded:
            # Abdicate only to a floating DODAG with a smaller id, which
            # makes float merging converge instead of oscillating.
            pool = [
                e for e in pool
                if e.dodag_id is not None and e.dodag_id < self.node_id
            ]
        if not pool:
            if forced or self.state is RplState.JOINED:
                self._detach(reason="no_parent")
            return

        best = min(pool, key=self._candidate_rank)
        best_rank = self._candidate_rank(best)
        if self._exceeds_rank_cap(best_rank):
            self._detach(reason="max_rank_increase")
            return
        if self.preferred_parent is None or self.state is not RplState.JOINED:
            self._adopt(best, best_rank)
            return
        current = self.neighbors.get(self.preferred_parent)
        if (
            current is None
            or current.blacklisted_until > now
            or not self._eligible(current)
        ):
            self._adopt(best, best_rank)
            return
        current_rank = self._candidate_rank(current)
        if grounded and not current.grounded:
            # A grounded DODAG always beats a floating one (RFC 6550):
            # no rank hysteresis applies across the grounded boundary.
            self._adopt(best, best_rank)
            return
        if best.node_id != self.preferred_parent and self.objective.should_switch(
            current_rank, best_rank
        ):
            self._adopt(best, best_rank)
            return
        if (
            current.dodag_id != self.dodag_id
            or current.grounded != self.grounded
            or current.version > self.version
        ):
            # The parent migrated to another DODAG (e.g. its float
            # dissolved into the grounded DODAG): follow it.
            self._adopt(current, current_rank)
            return
        # Keep the parent; refresh our own rank from its latest DIO.
        if current_rank != self.rank:
            if self._exceeds_rank_cap(current_rank):
                self._detach(reason="max_rank_increase")
                return
            significant = abs(current_rank - self.rank) >= 256
            self.rank = current_rank
            self._rank_floor = min(self._rank_floor, self.rank)
            obs = self.trace.obs
            if obs is not None:
                obs.registry.inc("rpl.rank_change", node=self.node_id)
                obs.registry.set("rpl.rank", self.rank, node=self.node_id)
            if significant:
                self.trickle.reset()

    def _exceeds_rank_cap(self, new_rank: int) -> bool:
        if self._rank_floor >= INFINITE_RANK:
            return False
        return new_rank > self._rank_floor + MAX_RANK_INCREASE

    def _adopt(self, entry: NeighborEntry, new_rank: int) -> None:
        was_joined = self.state is RplState.JOINED
        old_parent = self.preferred_parent
        self.preferred_parent = entry.node_id
        self.rank = new_rank
        self._rank_floor = min(self._rank_floor, new_rank)
        self.dodag_id = entry.dodag_id
        self.version = max(self.version, entry.version)
        self.grounded = entry.grounded
        self.state = RplState.JOINED
        self._parent_failures = 0
        self._detached_since = None
        self._float_timer.cancel()
        self._dis_timer.cancel()
        if not self.trickle.running:
            self.trickle.start()
        self.trickle.reset()
        if not self._dao_timer.running:
            self._dao_timer.start()
        obs = self.trace.obs
        if obs is not None:
            obs.registry.set("rpl.rank", self.rank, node=self.node_id)
            obs.registry.set("rpl.parent", entry.node_id, node=self.node_id)
        if old_parent != entry.node_id:
            self.parent_changes += 1
            self.trace.emit(self.sim.now, "rpl.parent_change", node=self.node_id,
                            parent=entry.node_id, rank=self.rank)
            if obs is not None:
                # One span per parent switch; it stays open until the
                # repair DAO is dispatched (or the switch is superseded/
                # aborted), so the DAO's datagram journey nests beneath
                # the routing decision that caused it.
                obs.spans.finish(self._switch_ctx, self.sim.now,
                                 superseded=True)
                self._switch_ctx = obs.spans.start(
                    None, "rpl.parent_switch", node=self.node_id,
                    t=self.sim.now, old=old_parent, new=entry.node_id,
                    rank=self.rank,
                )
            self._schedule_dao_soon()
        if not was_joined:
            self.trace.emit(self.sim.now, "rpl.joined", node=self.node_id,
                            rank=self.rank, grounded=self.grounded)
            if obs is not None:
                obs.registry.inc("rpl.joined", node=self.node_id)

    def _detach(self, reason: str) -> None:
        if self.is_root:
            return
        was_attached = self.state in (RplState.JOINED, RplState.FLOATING_ROOT)
        self.state = RplState.DETACHED
        self.preferred_parent = None
        self.rank = INFINITE_RANK
        self._rank_floor = INFINITE_RANK
        self.grounded = False
        self._detached_since = self.sim.now
        self.trickle.stop()
        self._dao_timer.stop()
        self._poison()
        # Stale routing state caused this detach; demand fresh DIOs
        # before trusting any neighbor as a parent again.  Without this,
        # two detached neighbors re-adopt each other's stale ranks in a
        # count-to-infinity livelock.
        for entry in self.neighbors.values():
            entry.rank = INFINITE_RANK
        self._dis_timer.start(self._rng.uniform(0.5, self.config.dis_period_s))
        self._arm_float_timer()
        obs = self.trace.obs
        if obs is not None:
            obs.registry.set("rpl.rank", self.rank, node=self.node_id)
            obs.registry.set("rpl.parent", -1, node=self.node_id)
            obs.spans.finish(self._switch_ctx, self.sim.now, aborted=reason)
            self._switch_ctx = None
        if was_attached:
            self.trace.emit(self.sim.now, "rpl.detached", node=self.node_id,
                            reason=reason)
            if obs is not None:
                obs.registry.inc("rpl.detach", node=self.node_id, reason=reason)
        # A fresh look at the table: maybe another parent is available.
        self._evaluate_parents()

    def datapath_inconsistency(self) -> None:
        """An upward packet arrived from an equal-or-lower rank: a loop.
        Per RFC 6550 this resets Trickle so ranks re-converge quickly."""
        self.trace.emit(self.sim.now, "rpl.datapath_loop", node=self.node_id)
        self.trickle.reset()
        self._evaluate_parents()

    def declare_root_dead(self) -> None:
        """RNFD verdict: the grounded root is gone; detach immediately
        instead of waiting for staleness timeouts."""
        if self.is_root or self.state is RplState.FLOATING_ROOT:
            return
        for entry in self.neighbors.values():
            if entry.grounded:
                entry.rank = INFINITE_RANK
        self._detach(reason="rnfd_global_down")

    # ------------------------------------------------------------------
    # timers
    # ------------------------------------------------------------------
    def _dis_tick(self) -> None:
        if self.state is not RplState.DETACHED:
            return
        dis = DisMessage()
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("rpl.dis", node=self.node_id)
        self.transport.broadcast_control(dis, dis.size_bytes)
        self._dis_timer.start(
            self._rng.uniform(
                self.config.dis_period_s * 0.5, self.config.dis_period_s * 1.5
            )
        )

    def _check_staleness(self) -> None:
        timeout = self.config.staleness_timeout_s
        if timeout is None or self.state is not RplState.JOINED:
            return
        parent = self.neighbors.get(self.preferred_parent) if (
            self.preferred_parent is not None
        ) else None
        if parent is None:
            return
        if self.sim.now - parent.last_dio_time > timeout:
            self.trace.emit(self.sim.now, "rpl.parent_stale", node=self.node_id,
                            parent=parent.node_id)
            self.neighbors.blacklist(
                parent.node_id, self.sim.now + BLACKLIST_S
            )
            self._evaluate_parents(forced=True)

    def _arm_float_timer(self) -> None:
        delay = self.config.float_delay_s
        if delay is not None:
            self._float_timer.start(self._rng.uniform(delay, delay * 1.5))

    def _become_floating_root(self) -> None:
        if self.state is not RplState.DETACHED:
            return
        self.state = RplState.FLOATING_ROOT
        self.rank = ROOT_RANK
        self.dodag_id = self.node_id
        self.grounded = False
        self.preferred_parent = None
        self.dao_table = {}
        self._dis_timer.cancel()
        if not self.trickle.running:
            self.trickle.start()
        self.trickle.reset()
        self.trace.emit(self.sim.now, "rpl.floating_root", node=self.node_id)

    # ------------------------------------------------------------------
    # DAO / downward routes
    # ------------------------------------------------------------------
    def _schedule_dao_soon(self) -> None:
        self.sim.schedule(self._rng.uniform(0.5, 3.0), self._send_dao)

    def _send_dao(self) -> None:
        if self.state is not RplState.JOINED or self.preferred_parent is None:
            return
        self._path_seq += 1
        dao = DaoMessage(
            node=self.node_id, parent=self.preferred_parent,
            path_seq=self._path_seq,
        )
        self.dao_sent += 1
        ctx = self._switch_ctx
        if self.send_dao_upward is not None:
            self.send_dao_upward(dao, dao.size_bytes, ctx)
        if ctx is not None:
            self.trace.obs.spans.finish(ctx, self.sim.now,
                                        dao_seq=self._path_seq)
            self._switch_ctx = None

    def route_to(self, dst: int, max_hops: int = 32) -> Optional[List[int]]:
        """Root only: source route to ``dst`` from the DAO table.

        Returns the hop list *excluding* the root itself, ending at
        ``dst``, or None when unknown/looping.
        """
        if dst == self.node_id:
            return []
        path: List[int] = []
        cursor = dst
        root_id = self.node_id
        for _ in range(max_hops):
            entry = self.dao_table.get(cursor)
            if entry is None:
                return None
            parent = entry[0]
            path.append(cursor)
            if parent == root_id:
                path.reverse()
                return path
            cursor = parent
        return None
