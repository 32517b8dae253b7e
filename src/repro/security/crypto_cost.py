"""The resource price of cryptography on constrained hardware.

The paper's §V-E traces weak IoT security to resource constraints; this
model quantifies them: software AES-CCM on a Class-1 MCU costs CPU
cycles per byte, which translate into latency (at the MCU clock) and
energy (at the active current).  Figures follow published measurements
of software AES on 16-bit/8 MHz platforms (~100–200 cycles/byte for
encryption plus MIC).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.platform import PlatformProfile

#: Clock of the MCU doing the crypto, MHz (read at run time; a test
#: patches it).
MCU_MHZ = 8.0


@dataclass(frozen=True)
class CryptoCostModel:
    """Cost of protecting one frame."""

    cycles_per_byte: float = 150.0
    #: Fixed per-frame cost (key schedule, nonce setup).
    cycles_per_frame: float = 4000.0

    def latency_s(self, frame_bytes: int) -> float:
        """CPU time to encrypt+authenticate one frame."""
        cycles = self.cycles_per_frame + self.cycles_per_byte * frame_bytes
        return cycles / (MCU_MHZ * 1e6)

    def energy_j(self, frame_bytes: int, platform: PlatformProfile) -> float:
        """Energy the MCU burns protecting one frame."""
        return (
            self.latency_s(frame_bytes)
            * platform.cpu_active_current_ma / 1000.0
            * platform.supply_voltage_v
        )


#: Software AES-CCM on a Class-1 mote (TelosB-class MSP430 @ 8 MHz).
SOFTWARE_AES_CLASS1 = CryptoCostModel()

#: Hardware-assisted crypto (CC2420-style inline AES): near-free cycles.
HARDWARE_AES = CryptoCostModel(cycles_per_byte=2.0, cycles_per_frame=200.0)
