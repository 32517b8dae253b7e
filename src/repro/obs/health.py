"""Per-node health telemetry sampled on a sim-time cadence.

The paper's maintainability argument (§V) is that field failures are
diagnosed from *node vitals*, not packet captures: a parent flap shows
up as rank churn, congestion as MAC queue growth, an energy bug as a
duty-cycle outlier, a stalled merge as replica staleness.  The
:class:`NodeHealthSampler` walks every node of an
:class:`~repro.core.system.IIoTSystem` on a fixed period and writes one
gauge set per node into the run's
:class:`~repro.obs.registry.Registry`:

==============================  =============================================
gauge                           source
==============================  =============================================
``health.duty_cycle``           MAC radio-on fraction (``MacLayer.duty_cycle``)
``health.avg_current_ma``       :class:`~repro.devices.energy.EnergyMeter`
``health.mac_queue``            current transmit-queue depth
``health.neighbors``            RPL neighbor-table size
``health.rank``                 current RPL rank
``health.parent``               preferred parent id (-1 when detached)
``health.alive``                1 while the node is up
``health.crdt_staleness_s``     seconds since the CRDT replica changed
==============================  =============================================

The sampler is deliberately **not** auto-attached by
``SystemConfig(observability=True)``: sampling schedules simulator
events, and the observability layer guarantees it never changes the
event sequence of an uninstrumented run
(``tests/obs/test_span_sampling.py`` pins obs-off and obs-on runs to
identical event counts).  Attach it
explicitly where a health table is wanted — ``repro report`` does.

Determinism: the sampler ticks every :data:`PERIOD_S` seconds with a
fixed phase of one period, so building it draws nothing from the
simulator's RNG streams (the RPL routers' stale timers draw their
phases from the shared ``"periodic-timer"`` substream).  Nodes are
visited in sorted id order and gauges carry the node id as a label, so
per-trial snapshots are identical for any ``jobs`` count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.system import IIoTSystem
    from repro.crdt.replication import NetworkReplicator
    from repro.obs.registry import MetricsSnapshot

#: Sampling period in sim seconds (also the phase of the first sample).
PERIOD_S = 30.0


class NodeHealthSampler:
    """Samples per-node health gauges into the system's registry."""

    def __init__(
        self,
        system: "IIoTSystem",
        replicators: Optional[Dict[int, "NetworkReplicator"]] = None,
    ) -> None:
        obs = system.trace.obs
        if obs is None:
            raise ValueError(
                "NodeHealthSampler needs an observability bundle; build the "
                "system with SystemConfig(observability=True)"
            )
        self.system = system
        self.registry = obs.registry
        self.replicators = replicators if replicators is not None else {}
        self.samples_taken = 0
        self._timer = PeriodicTimer(system.sim, PERIOD_S, self.sample_once,
                                    phase=PERIOD_S)
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin periodic sampling (first sample one period in)."""
        if self._started:
            return
        self._started = True
        self._timer.start()

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        self._timer.stop()

    # ------------------------------------------------------------------
    def sample_once(self) -> None:
        """Take one health sample of every node, in sorted id order."""
        now = self.system.sim.now
        registry = self.registry
        self.samples_taken += 1
        registry.set("health.samples", self.samples_taken)
        registry.set("health.sampled_at_s", now)
        for node_id in sorted(self.system.nodes):
            node = self.system.nodes[node_id]
            stack = node.stack
            registry.set("health.alive", 1.0 if stack.alive else 0.0,
                         node=node_id)
            registry.set("health.duty_cycle", stack.mac.duty_cycle(),
                         node=node_id)
            registry.set("health.avg_current_ma",
                         node.energy.average_current_ma(now), node=node_id)
            registry.set("health.mac_queue", stack.mac.queue_length,
                         node=node_id)
            registry.set("health.neighbors", len(stack.rpl.neighbors),
                         node=node_id)
            registry.set("health.rank", stack.rpl.rank, node=node_id)
            parent = stack.rpl.preferred_parent
            registry.set("health.parent",
                         parent if parent is not None else -1, node=node_id)
            replicator = self.replicators.get(node_id)
            if replicator is not None:
                registry.set("health.crdt_staleness_s",
                             replicator.staleness(now), node=node_id)


def health_rows(snapshot: "MetricsSnapshot") -> list:
    """Per-node health table rows from a metrics snapshot.

    Returns dicts keyed by short column names, one row per node that has
    at least one ``health.*`` gauge, sorted by node id.  ``q_drops`` is
    the node's ``mac.queue_drop`` counter (0 until the first drop).
    """
    columns = {
        "alive": "health.alive",
        "duty_cycle": "health.duty_cycle",
        "avg_ma": "health.avg_current_ma",
        "queue": "health.mac_queue",
        "nbrs": "health.neighbors",
        "rank": "health.rank",
        "parent": "health.parent",
        "crdt_stale_s": "health.crdt_staleness_s",
    }
    per_node: Dict[int, Dict[str, float]] = {}
    for (name, labels), value in snapshot.gauges.items():
        if not name.startswith("health."):
            continue
        label_map = dict(labels)
        if "node" not in label_map:
            continue
        per_node.setdefault(label_map["node"], {})[name] = value
    rows = []
    for node_id in sorted(per_node):
        values = per_node[node_id]
        row = {"node": node_id, "q_drops": snapshot.counters.get(
            ("mac.queue_drop", (("node", node_id),)), 0.0)}
        for short, metric in columns.items():
            if metric in values:
                row[short] = values[metric]
        rows.append(row)
    return rows
