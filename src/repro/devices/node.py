"""DeviceNode: one embedded device, fully assembled.

Binds a network stack, a platform profile with its energy meter, and the
node's sensors and actuators into the unit that deployments are built
from.  Applications attach behaviour (sampling loops, control loops)
through the stack's socket API and kernel timers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.devices.actuators import Actuator
from repro.devices.energy import EnergyMeter
from repro.devices.platform import CLASS_1_MOTE, PlatformProfile
from repro.devices.phenomena import Phenomenon
from repro.devices.sensors import Sensor
from repro.net.stack import NetworkStack, StackConfig
from repro.radio.medium import Medium


class DeviceNode:
    """A complete sensing-and-actuation-layer device."""

    def __init__(
        self,
        medium: Medium,
        node_id: int,
        position: Tuple[float, float],
        stack_config: Optional[StackConfig] = None,
        platform: PlatformProfile = CLASS_1_MOTE,
        is_root: bool = False,
    ) -> None:
        self.sim = medium.sim
        self.node_id = node_id
        self.position = position
        self.platform = platform
        self.is_root = is_root
        self.stack = NetworkStack(
            medium, node_id, position, config=stack_config, is_root=is_root,
        )
        self.energy = EnergyMeter(self.stack.radio, platform)
        self.sensors: Dict[str, Sensor] = {}
        self.actuators: Dict[str, Actuator] = {}

    # ------------------------------------------------------------------
    def add_sensor(self, name: str, phenomenon: Phenomenon) -> Sensor:
        """Attach a sensor channel observing ``phenomenon`` here."""
        if name in self.sensors:
            raise ValueError(f"sensor {name!r} already attached")
        sensor = Sensor(self.sim, name, phenomenon, self.position)
        self.sensors[name] = sensor
        return sensor

    def add_actuator(self, actuator: Actuator) -> Actuator:
        """Attach an actuator channel."""
        if actuator.name in self.actuators:
            raise ValueError(f"actuator {actuator.name!r} already attached")
        self.actuators[actuator.name] = actuator
        return actuator

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot the device (stack up, energy window starts)."""
        self.stack.start()
        self.energy.reset(self.sim.now)

    def fail(self) -> None:
        """Crash-stop the device."""
        self.stack.fail()

    def recover(self) -> None:
        self.stack.recover()

    @property
    def alive(self) -> bool:
        return self.stack.alive

    def read(self, sensor_name: str) -> Optional[float]:
        """Read one sensor by name."""
        return self.sensors[sensor_name].read()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeviceNode(id={self.node_id}, pos={self.position}, "
            f"platform={self.platform.name}, root={self.is_root})"
        )
