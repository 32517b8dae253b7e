"""Stochastic failure/repair processes.

Each node fails with exponential inter-failure times (mean
``mtbf_s``) and repairs after exponential repair times (mean
``mttr_s``) — the textbook availability model, driving measured MTTF and
availability in experiments E7/E10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.devices.node import DeviceNode
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class FailureProcessConfig:
    """Failure/repair statistics."""

    mtbf_s: float = 4 * 3600.0
    mttr_s: float = 600.0
    #: Protect the border router from random failure (experiments that
    #: target it kill it explicitly instead).
    spare_root: bool = True

    def validate(self) -> None:
        if self.mtbf_s <= 0 or self.mttr_s <= 0:
            raise ValueError("mtbf_s and mttr_s must be positive")


class FailureProcess:
    """Runs crash/repair cycles over a node population."""

    def __init__(
        self,
        sim: Simulator,
        nodes: Dict[int, DeviceNode],
        config: Optional[FailureProcessConfig] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.nodes = nodes
        self.config = config if config is not None else FailureProcessConfig()
        self.config.validate()
        self.trace = trace if trace is not None else TraceLog()
        self.failures = 0
        self.repairs = 0
        #: (node, down_at, up_at) intervals for availability accounting.
        self.downtime: List[Tuple[int, float, float]] = []
        self._down_since: Dict[int, float] = {}
        self._rng = sim.substream("faults.process")
        self._running = False

    def start(self) -> None:
        """Arm a first failure for every eligible node."""
        if self._running:
            return
        self._running = True
        for node in self.nodes.values():
            if self.config.spare_root and node.is_root:
                continue
            self._arm_failure(node)

    def stop(self) -> None:
        self._running = False

    def drain(self) -> None:
        """Stop, then repair everything still down — closing the
        downtime accounting — so a bounded fault window (a
        :class:`~repro.faults.plan.RandomCrashesClause`) ends with a
        healthy fleet instead of nodes stranded mid-repair."""
        self.stop()
        for node_id in self.down_node_ids():
            node = self.nodes[node_id]
            node.recover()
            self.repairs += 1
            down_at = self._down_since.pop(node_id, self.sim.now)
            self.downtime.append((node_id, down_at, self.sim.now))
            self.trace.emit(self.sim.now, "fault.random_repair",
                            node=node_id)

    # ------------------------------------------------------------------
    def _arm_failure(self, node: DeviceNode) -> None:
        delay = self._rng.expovariate(1.0 / self.config.mtbf_s)
        self.sim.schedule(delay, lambda: self._fail(node))

    def _fail(self, node: DeviceNode) -> None:
        if not self._running or not node.alive:
            return
        node.fail()
        self.failures += 1
        self._down_since[node.node_id] = self.sim.now
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("fault.injected", kind="random_crash",
                             node=node.node_id)
        self.trace.emit(self.sim.now, "fault.random_crash", node=node.node_id)
        repair_delay = self._rng.expovariate(1.0 / self.config.mttr_s)
        self.sim.schedule(repair_delay, lambda: self._repair(node))

    def _repair(self, node: DeviceNode) -> None:
        if not self._running:
            return
        node.recover()
        self.repairs += 1
        down_at = self._down_since.pop(node.node_id, self.sim.now)
        self.downtime.append((node.node_id, down_at, self.sim.now))
        self.trace.emit(self.sim.now, "fault.random_repair", node=node.node_id)
        self._arm_failure(node)

    def down_node_ids(self) -> List[int]:
        """Nodes currently down because of this process."""
        return sorted(self._down_since)
