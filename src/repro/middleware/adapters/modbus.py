"""A Modbus-like register-map device and its adapter.

The device speaks in 16-bit registers with per-point scale factors and
a serial-bus round-trip latency — the shape of the fieldbus equipment
(drives, PLCs, meters) that ref [10] catalogues.  The adapter owns the
register map knowledge (address, scale, writability) that integration
engineers otherwise re-derive for every pairwise integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.middleware.adapters.base import AdapterError, ProtocolAdapter
from repro.sim.kernel import Simulator

#: Serial-bus round trip of one register read or write, in sim seconds.
BUS_LATENCY_S = 0.05


@dataclass(frozen=True)
class RegisterSpec:
    """One register-backed point."""

    address: int
    scale: float = 10.0  # stored value = physical value * scale
    writable: bool = False


class LegacyModbusDevice:
    """The legacy device itself: dumb registers behind a slow bus."""

    def __init__(
        self,
        sim: Simulator,
        unit_id: int,
        registers: Optional[Dict[int, int]] = None,
    ) -> None:
        self.sim = sim
        self.unit_id = unit_id
        self.registers: Dict[int, int] = dict(registers or {})
        self.reads = 0
        self.writes = 0

    def read_holding(self, address: int,
                     callback: Callable[[Optional[int]], None]) -> None:
        """Async register read with bus latency."""
        self.reads += 1

        def answer() -> None:
            callback(self.registers.get(address))

        self.sim.schedule(BUS_LATENCY_S, answer)

    def write_holding(self, address: int, value: int,
                      callback: Callable[[bool], None]) -> None:
        """Async register write with bus latency."""
        self.writes += 1

        def apply() -> None:
            if not -32768 <= value <= 65535:
                callback(False)
                return
            self.registers[address] = value
            callback(True)

        self.sim.schedule(BUS_LATENCY_S, apply)


class ModbusAdapter(ProtocolAdapter):
    """Lifts a :class:`LegacyModbusDevice` behind named, scaled points."""

    protocol = "modbus"

    def __init__(
        self,
        device: LegacyModbusDevice,
        register_map: Dict[str, RegisterSpec],
    ) -> None:
        self.device = device
        self.register_map = dict(register_map)

    def _spec(self, name: str) -> RegisterSpec:
        spec = self.register_map.get(name)
        if spec is None:
            raise AdapterError(f"unknown modbus point {name!r}")
        return spec

    def read_point(
        self, name: str, callback: Callable[[Optional[float]], None]
    ) -> None:
        spec = self._spec(name)

        def translate(raw: Optional[int]) -> None:
            callback(None if raw is None else raw / spec.scale)

        self.device.read_holding(spec.address, translate)

    def write_point(
        self, name: str, value: float, callback: Callable[[bool], None]
    ) -> None:
        spec = self._spec(name)
        if not spec.writable:
            raise AdapterError(f"modbus point {name!r} is read-only")
        self.device.write_holding(spec.address, int(round(value * spec.scale)),
                                  callback)
