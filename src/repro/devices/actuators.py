"""Actuators: the write path into the physical world.

An actuator accepts commands (possibly arriving over the lossy network),
clamps each to its output range and applies it at once, and exposes its
output for physical process models to consume.  Command history and
applied-command counters feed the security experiment: unauthenticated
injected commands either corrupt this history (security off) or are
rejected at the MAC filter (security on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.kernel import Simulator

#: The output range commands are clamped to; an actuator starts at 0.0.
MINIMUM = 0.0
MAXIMUM = 1.0


@dataclass(frozen=True)
class ActuatorCommand:
    """A setpoint command for one actuator."""

    target: float
    issued_at: float
    issuer: int = -1


class Actuator:
    """A continuous actuator whose ``output`` is its last clamped
    setpoint."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.output = self._clamp(0.0)
        self.commands: List[ActuatorCommand] = []
        self.commands_applied = 0

    def _clamp(self, value: float) -> float:
        return min(max(value, MINIMUM), MAXIMUM)

    def command(self, target: float, issuer: int = -1) -> bool:
        """Apply a setpoint command.  Out-of-range targets are clamped;
        the command is recorded either way."""
        cmd = ActuatorCommand(target=target, issued_at=self.sim.now, issuer=issuer)
        self.commands.append(cmd)
        self.output = self._clamp(target)
        self.commands_applied += 1
        return True
