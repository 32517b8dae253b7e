"""Actuators: the write path into the physical world.

An actuator accepts commands (possibly arriving over the lossy network,
possibly delayed), applies rate limits and actuation delay, and exposes
its applied output for physical process models to consume.  Command
history and rejected-command counters feed the security experiment:
unauthenticated injected commands either corrupt this history (security
off) or are rejected at the MAC filter (security on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.kernel import Simulator

#: The output range commands are clamped to; an actuator starts at 0.0.
MINIMUM = 0.0
MAXIMUM = 1.0
#: How fast the output moves toward its target, per sim second.
SLEW_PER_S = float("inf")
#: Sim seconds between a command and the output starting to move.
ACTUATION_DELAY_S = 0.0


@dataclass(frozen=True)
class ActuatorCommand:
    """A setpoint command for one actuator."""

    target: float
    issued_at: float
    issuer: int = -1


class Actuator:
    """A continuous actuator with slew-rate limiting and delay.

    ``output`` moves toward the commanded target at :data:`SLEW_PER_S`
    once :data:`ACTUATION_DELAY_S` has elapsed since the command was
    applied.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._output = self._clamp(0.0)
        self._target = self._output
        self._target_since = 0.0
        self.commands: List[ActuatorCommand] = []
        self.commands_applied = 0

    def _clamp(self, value: float) -> float:
        return min(max(value, MINIMUM), MAXIMUM)

    def command(self, target: float, issuer: int = -1) -> bool:
        """Apply a setpoint command.  Out-of-range targets are clamped;
        the command is recorded either way."""
        cmd = ActuatorCommand(target=target, issued_at=self.sim.now, issuer=issuer)
        self.commands.append(cmd)
        self._advance_output()
        self._target = self._clamp(target)
        self._target_since = self.sim.now + ACTUATION_DELAY_S
        self.commands_applied += 1
        return True

    def _advance_output(self) -> None:
        now = self.sim.now
        if now < self._target_since:
            return
        dt = now - self._target_since
        if SLEW_PER_S == float("inf"):
            self._output = self._target
            return
        delta = self._target - self._output
        step = SLEW_PER_S * dt
        if abs(delta) <= step:
            self._output = self._target
        else:
            self._output += step if delta > 0 else -step
        self._target_since = now

    @property
    def output(self) -> float:
        """Current physical output (advances lazily with time)."""
        self._advance_output()
        return self._output
