"""Scripted fault scenarios.

The injector schedules precise fault events against a set of device
nodes — the deterministic counterpart to the stochastic
:class:`~repro.faults.failures.FailureProcess`, used when an experiment
needs "kill the border router at t=600" rather than "fail randomly".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.devices.node import DeviceNode
from repro.devices.sensors import SensorFault
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


@dataclass
class InjectedFault:
    """Record of one injected fault (for experiment bookkeeping)."""

    time: float
    kind: str
    node: int
    detail: Dict[str, object] = field(default_factory=dict)


class FaultInjector:
    """Schedules crash, recovery, and sensor faults on device nodes."""

    def __init__(
        self,
        sim: Simulator,
        nodes: Dict[int, DeviceNode],
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.nodes = nodes
        self.trace = trace if trace is not None else TraceLog()
        self.injected: List[InjectedFault] = []

    def _record(self, kind: str, node: int, **detail: object) -> None:
        fault = InjectedFault(time=self.sim.now, kind=kind, node=node,
                              detail=dict(detail))
        self.injected.append(fault)
        obs = self.trace.obs
        if obs is not None:
            obs.registry.inc("fault.injected", kind=kind, node=node)
        self.trace.emit(self.sim.now, f"fault.{kind}", node=node, **detail)

    # ------------------------------------------------------------------
    def crash_at(self, time: float, node_id: int,
                 recover_after: Optional[float] = None) -> None:
        """Crash-stop ``node_id`` at ``time``; optionally auto-recover."""
        node = self.nodes[node_id]

        def crash() -> None:
            node.fail()
            self._record("crash", node_id)
            if recover_after is not None:
                self.sim.schedule(recover_after, recover)

        def recover() -> None:
            node.recover()
            self._record("recover", node_id)

        self.sim.schedule_at(time, crash)

    def sensor_fault_at(
        self,
        time: float,
        node_id: int,
        sensor: str,
        fault: SensorFault,
        clear_after: Optional[float] = None,
    ) -> None:
        """Put one sensor into a fault mode at ``time``."""
        node = self.nodes[node_id]

        def inject() -> None:
            node.sensors[sensor].inject_fault(fault)
            self._record("sensor", node_id, sensor=sensor, mode=fault.value)
            if clear_after is not None:
                self.sim.schedule(clear_after, clear)

        def clear() -> None:
            node.sensors[sensor].clear_fault()
            self._record("sensor_clear", node_id, sensor=sensor)

        self.sim.schedule_at(time, inject)
