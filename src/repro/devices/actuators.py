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
from typing import List, Optional, Tuple

from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class ActuatorCommand:
    """A setpoint command for one actuator."""

    target: float
    issued_at: float
    issuer: int = -1


class Actuator:
    """A continuous actuator with slew-rate limiting and delay.

    ``output`` moves toward the commanded target at ``slew_per_s`` once
    ``actuation_delay_s`` has elapsed since the command was applied.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        initial: float = 0.0,
        minimum: float = 0.0,
        maximum: float = 1.0,
        slew_per_s: float = float("inf"),
        actuation_delay_s: float = 0.0,
    ) -> None:
        if minimum > maximum:
            raise ValueError("minimum must not exceed maximum")
        self.sim = sim
        self.name = name
        self.minimum = minimum
        self.maximum = maximum
        self.slew_per_s = slew_per_s
        self.actuation_delay_s = actuation_delay_s
        self._output = self._clamp(initial)
        self._target = self._output
        self._target_since = 0.0
        self.commands: List[ActuatorCommand] = []
        self.commands_applied = 0

    def _clamp(self, value: float) -> float:
        return min(max(value, self.minimum), self.maximum)

    def command(self, target: float, issuer: int = -1) -> bool:
        """Apply a setpoint command.  Out-of-range targets are clamped;
        the command is recorded either way."""
        cmd = ActuatorCommand(target=target, issued_at=self.sim.now, issuer=issuer)
        self.commands.append(cmd)
        self._advance_output()
        self._target = self._clamp(target)
        self._target_since = self.sim.now + self.actuation_delay_s
        self.commands_applied += 1
        return True

    def _advance_output(self) -> None:
        now = self.sim.now
        if now < self._target_since:
            return
        dt = now - self._target_since
        if self.slew_per_s == float("inf"):
            self._output = self._target
            return
        delta = self._target - self._output
        step = self.slew_per_s * dt
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

    @property
    def target(self) -> float:
        return self._target
