"""HVAC zones wired to networked devices.

Two control placements, matching the availability discussion (§V-C):

- **local** — the control policy runs on the zone's own device; network
  partitions cannot break the loop;
- **remote** — measurements travel to a controller on the border router
  and commands travel back; a watchdog falls back to a local safe
  policy when commands stop arriving (the "continue offering
  functionality, possibly within a limited scope" requirement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.devices.actuators import Actuator
from repro.devices.node import DeviceNode
from repro.safety.comfort import ComfortBand, ComfortTracker, OccupancySchedule
from repro.safety.controllers import BangBangController, Controller
from repro.safety.thermal import ThermalZone
from repro.sim.timers import PeriodicTimer, Timer

#: Ports for the remote control loop.
HVAC_REPORT_PORT = 9906
HVAC_COMMAND_PORT = 9907


class _ZoneTemperature:
    """Phenomenon adapter exposing a zone's temperature to a Sensor."""

    def __init__(self, zone: ThermalZone) -> None:
        self.zone = zone

    def value_at(self, time: float, position) -> float:
        return self.zone.temperature_c


@dataclass(frozen=True)
class TempReport:
    """Zone → controller measurement."""

    zone: str
    node: int
    temperature_c: float

    SIZE_BYTES = 8

    @property
    def size_bytes(self) -> int:
        return self.SIZE_BYTES


@dataclass(frozen=True)
class HvacCommand:
    """Controller → zone actuation command."""

    zone: str
    heat_fraction: float
    cool_fraction: float

    SIZE_BYTES = 8

    @property
    def size_bytes(self) -> int:
        return self.SIZE_BYTES


class HvacZone:
    """One zone: physics + device + sensor/actuators + comfort meter."""

    def __init__(
        self,
        node: DeviceNode,
        outside: Callable[[float], float],
        band: ComfortBand,
        schedule: Optional[OccupancySchedule] = None,
        control_period_s: float = 60.0,
        initial_temp_c: float = 18.0,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.name = f"zone-{node.node_id}"
        self.schedule = schedule if schedule is not None else OccupancySchedule()
        self.zone = ThermalZone(
            node.sim, self.name, outside,
            occupants=self.schedule.occupants,
            initial_temp_c=initial_temp_c,
        )
        self.band = band
        self.control_period_s = control_period_s
        self.sensor = node.add_sensor("zone_temp", _ZoneTemperature(self.zone))
        self.heater = node.add_actuator(Actuator(node.sim, "heater"))
        self.cooler = node.add_actuator(Actuator(node.sim, "cooler"))
        self.comfort = ComfortTracker(
            node.sim, lambda: self.zone.temperature_c, band, self.schedule
        )
        self.controller: Optional[Controller] = None
        self._loop: Optional[PeriodicTimer] = None
        self.commands_applied = 0

    # ------------------------------------------------------------------
    def start(self, controller: Optional[Controller] = None) -> None:
        """Start physics and comfort tracking; with ``controller``, also
        run a local control loop."""
        self.zone.start()
        self.comfort.start()
        if controller is not None:
            self.controller = controller
            self._loop = PeriodicTimer(
                self.sim, self.control_period_s, self._local_control, phase=0.0
            )
            self._loop.start()

    def _local_control(self) -> None:
        if self.controller is None or not self.node.alive:
            return
        reading = self.sensor.read()
        if reading is None:
            return
        heat, cool = self.controller.control(reading, self.sim.now)
        self.apply(heat, cool)

    def apply(self, heat_fraction: float, cool_fraction: float) -> None:
        """Drive the actuators and couple them into the physics."""
        self.heater.command(heat_fraction, issuer=self.node.node_id)
        self.cooler.command(cool_fraction, issuer=self.node.node_id)
        self.zone.heat_fraction = self.heater.output
        self.zone.cool_fraction = self.cooler.output
        self.commands_applied += 1


class RemoteHvacController:
    """The controller side, hosted on the border router."""

    def __init__(self, root_node: DeviceNode) -> None:
        if not root_node.is_root:
            raise ValueError("remote controller runs on the border router")
        self.node = root_node
        self.sim = root_node.sim
        self.trace = root_node.stack.trace
        self.policies: Dict[str, Controller] = {}
        self.reports_handled = 0
        root_node.stack.bind(HVAC_REPORT_PORT, self._on_report)

    def manage(self, zone_name: str, policy: Controller) -> None:
        """Register the policy for one zone."""
        self.policies[zone_name] = policy

    def _on_report(self, datagram) -> None:
        report = datagram.payload
        if not isinstance(report, TempReport):
            return
        policy = self.policies.get(report.zone)
        if policy is None:
            return
        self.reports_handled += 1
        heat, cool = policy.control(report.temperature_c, self.sim.now)
        command = HvacCommand(zone=report.zone, heat_fraction=heat,
                              cool_fraction=cool)
        self.node.stack.send_datagram(
            report.node, HVAC_COMMAND_PORT, command, command.size_bytes
        )


class RemoteControlLoop:
    """The zone side of remote control, with a safe-fallback watchdog."""

    def __init__(
        self,
        zone: HvacZone,
        controller_node: int,
        fallback: Optional[Controller] = None,
        fallback_timeout_s: float = 600.0,
    ) -> None:
        self.zone = zone
        self.sim = zone.sim
        self.controller_node = controller_node
        self.fallback = (
            fallback if fallback is not None
            else BangBangController(zone.band.widened(1.0))
        )
        self.fallback_timeout_s = fallback_timeout_s
        self.in_fallback = False
        self.fallback_activations = 0
        self.commands_received = 0
        self._report_timer = PeriodicTimer(
            self.sim, zone.control_period_s, self._report, phase=0.0
        )
        self._watchdog = Timer(self.sim, self._fallback_tick)
        zone.node.stack.bind(HVAC_COMMAND_PORT, self._on_command)

    def start(self) -> None:
        """Begin reporting; physics/comfort must be started on the zone."""
        self._report_timer.start()
        self._watchdog.start(self.fallback_timeout_s)

    def _report(self) -> None:
        if not self.zone.node.alive:
            return
        reading = self.zone.sensor.read()
        if reading is None:
            return
        report = TempReport(
            zone=self.zone.name, node=self.zone.node.node_id,
            temperature_c=reading,
        )
        self.zone.node.stack.send_datagram(
            self.controller_node, HVAC_REPORT_PORT, report, report.size_bytes
        )

    def _on_command(self, datagram) -> None:
        command = datagram.payload
        if not isinstance(command, HvacCommand) or command.zone != self.zone.name:
            return
        self.commands_received += 1
        if self.in_fallback:
            self.in_fallback = False  # connectivity restored
        self._watchdog.start(self.fallback_timeout_s)
        self.zone.apply(command.heat_fraction, command.cool_fraction)

    def _fallback_tick(self) -> None:
        """No command for too long: run the local safe policy."""
        if not self.in_fallback:
            self.in_fallback = True
            self.fallback_activations += 1
        reading = self.zone.sensor.read()
        if reading is not None:
            heat, cool = self.fallback.control(reading, self.sim.now)
            self.zone.apply(heat, cool)
        self._watchdog.start(self.zone.control_period_s)
