"""MAC/radio invariants: transceiver state machine and medium accounting.

- :class:`RadioStateChecker` — every ``radio.tx`` record must come from
  an enabled radio that is actually in the TX state (a node whose radio
  claims to sleep, or that has crashed, must not put energy on the air),
  and at end of run each radio's ``frames_sent`` counter must agree with
  the number of ``radio.tx`` records it produced.
- :class:`CollisionAccountingChecker` — the medium may only report a
  collision at a receiver when some *other* transmission actually
  overlapped the collided frame's airtime; a collision without a
  concurrent transmitter means the medium model double-counted.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Tuple

from repro.checking.base import InvariantChecker
from repro.radio.medium import (
    BITRATE_BPS,
    Medium,
    PHY_OVERHEAD_BYTES,
    RadioState,
)
from repro.sim.trace import TraceRecord

#: Tolerance when matching a collision instant to a frame's end time.
_TIME_EPS = 1e-9
#: How far back, in sim seconds, transmissions are kept to explain a
#: collision.
WINDOW_S = 1.0
_TX = RadioState.TX


def _airtime(size_bytes: int) -> float:
    return (PHY_OVERHEAD_BYTES + size_bytes) * 8 / BITRATE_BPS


class RadioStateChecker(InvariantChecker):
    """Transmissions must match the transmitter's claimed state."""

    name = "radio.state"

    def __init__(self, medium: Medium) -> None:
        super().__init__()
        self.medium = medium
        self._tx_seen: Dict[int, int] = {}
        self._baseline: Dict[int, int] = {}

    def _setup(self) -> None:
        # Radios may already have transmitted before we attached; count
        # only what we observe from here on.
        self._baseline = {
            nid: radio.frames_sent for nid, radio in self.medium.radios.items()
        }
        self.subscribe("radio.tx", self._on_tx)

    def _on_tx(self, record: TraceRecord) -> None:
        node, seen = record.node, self._tx_seen
        seen[node] = seen.get(node, 0) + 1
        radio = self.medium.radios.get(node)
        if radio is None:
            self.record("tx_from_unknown_radio", node=node)
        elif not radio.enabled:
            self.record("tx_while_disabled", node=node)
        elif radio.state is not _TX:
            # The medium enters TX before tracing; a record emitted with
            # the radio in SLEEP/LISTEN is a transmit the state machine
            # never authorized.
            self.record("tx_while_not_transmitting", node=node,
                        claimed_state=radio.state.value)

    def finish(self) -> None:
        for nid, radio in self.medium.radios.items():
            # A radio attached after us has no baseline: its whole
            # counter is in-scope.
            expected = self._baseline.get(nid, 0) + self._tx_seen.get(nid, 0)
            if radio.frames_sent != expected:
                self.record("tx_count_mismatch", node=nid,
                            counter=radio.frames_sent, traced=expected)


class CollisionAccountingChecker(InvariantChecker):
    """Every reported collision needs an actual overlapping transmission.

    The checker reconstructs frame airtimes from ``radio.tx`` records
    (size → airtime at the 802.15.4 PHY rate) and, for each
    ``radio.collision`` at a receiver, demands at least one other
    transmission — from neither the collided frame's sender nor the
    receiver itself — whose airtime overlapped the collided frame's.
    Channel is deliberately ignored: wide-band jammers interfere across
    channels, so time overlap is the sound necessary condition.
    """

    name = "radio.collision"

    def __init__(self, medium: Medium) -> None:
        super().__init__()
        self.medium = medium
        #: (sender, start, end) of recently observed transmissions.
        self._recent: Deque[Tuple[int, float, float]] = deque()
        self.collisions_checked = 0

    def _setup(self) -> None:
        self.subscribe("radio.tx", self._on_tx)
        self.subscribe("radio.collision", self._on_collision)

    def _on_tx(self, record: TraceRecord) -> None:
        start, recent = record.time, self._recent
        recent.append((record.node, start,
                       start + _airtime(record.data.get("size", 0))))
        horizon = start - WINDOW_S
        while recent and recent[0][2] < horizon:
            recent.popleft()

    def _on_collision(self, record: TraceRecord) -> None:
        self.collisions_checked += 1
        receiver = record.node
        sender = record.data.get("sender")
        now = record.time
        # The collided frame: sender's transmission ending right now
        # (delivery attempts happen at frame end).
        collided = None
        for tx_sender, start, end in reversed(self._recent):
            if tx_sender == sender and abs(end - now) <= _TIME_EPS:
                collided = (start, end)
                break
        if collided is None:
            self.record("collision_without_transmission", node=receiver,
                        sender=sender)
            return
        start, end = collided
        for tx_sender, other_start, other_end in self._recent:
            if tx_sender in (sender, receiver):
                continue
            if other_start < end and other_end > start:
                return  # a genuine interferer overlapped
        self.record("collision_without_interferer", node=receiver,
                    sender=sender, frame_start=start, frame_end=end)
