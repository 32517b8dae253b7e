"""A proprietary ASCII-over-serial device and its adapter.

Models the single-vendor controllers whose protocol "was not envisioned"
for integration: line-oriented commands (``RD TEMP``, ``WR VLV 0.50``),
quirky replies, and a device that occasionally answers ``BUSY`` and must
be retried — the kind of behaviour middleware exists to absorb.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.middleware.adapters.base import ProtocolAdapter
from repro.sim.kernel import Simulator

#: Serial round trip of one command line, in sim seconds.
LINE_LATENCY_S = 0.1
#: Chance that the device answers a command ``BUSY``.
BUSY_PROBABILITY = 0.1


class ProprietaryAsciiDevice:
    """The legacy controller: a tiny command interpreter."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        variables: Optional[Dict[str, float]] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.variables: Dict[str, float] = dict(variables or {})
        self.commands_handled = 0
        self._rng = sim.substream(f"proprietary.{name}")

    def execute(self, line: str, callback: Callable[[str], None]) -> None:
        """Send one command line; the reply arrives after the serial
        round trip."""
        self.commands_handled += 1

        def answer() -> None:
            callback(self._interpret(line))

        self.sim.schedule(LINE_LATENCY_S, answer)

    def _interpret(self, line: str) -> str:
        if self._rng.random() < BUSY_PROBABILITY:
            return "BUSY"
        parts = line.strip().split()
        if len(parts) >= 2 and parts[0] == "RD":
            value = self.variables.get(parts[1])
            return "ERR NOVAR" if value is None else f"OK {value:.2f}"
        if len(parts) >= 3 and parts[0] == "WR":
            try:
                self.variables[parts[1]] = float(parts[2])
            except ValueError:
                return "ERR BADVAL"
            return "OK"
        return "ERR SYNTAX"


class ProprietaryAdapter(ProtocolAdapter):
    """Wraps the ASCII device, absorbing BUSY retries and reply parsing."""

    protocol = "proprietary-ascii"
    MAX_BUSY_RETRIES = 5

    def __init__(self, device: ProprietaryAsciiDevice) -> None:
        self.device = device

    def read_point(
        self, name: str, callback: Callable[[Optional[float]], None]
    ) -> None:
        self._send_with_retry(f"RD {name}", callback=self._parse_read(callback))

    def write_point(
        self, name: str, value: float, callback: Callable[[bool], None]
    ) -> None:
        def parse(reply: str) -> None:
            callback(reply == "OK")

        self._send_with_retry(f"WR {name} {value:.4f}", callback=parse)

    # ------------------------------------------------------------------
    def _parse_read(
        self, callback: Callable[[Optional[float]], None]
    ) -> Callable[[str], None]:
        def parse(reply: str) -> None:
            if reply.startswith("OK "):
                callback(float(reply[3:]))
            else:
                callback(None)

        return parse

    def _send_with_retry(
        self, line: str, callback: Callable[[str], None], attempt: int = 0
    ) -> None:
        def handle(reply: str) -> None:
            if reply == "BUSY" and attempt < self.MAX_BUSY_RETRIES:
                self._send_with_retry(line, callback, attempt + 1)
            else:
                callback(reply)

        self.device.execute(line, handle)
