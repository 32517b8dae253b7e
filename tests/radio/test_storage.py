"""What the medium and the kernel keep per radio, per link and per event.

At ``campus_medium``'s N = 10⁴ bytes per node decide whether a run fits
(DESIGN.md, "What a cached link costs" and "What a radio and a pending
event cost").  The bounds below are the tracemalloc figures of
``benchmarks/kernel_floor.py`` on a 10-building campus plus about 10 %,
so storing something twice again fails here rather than in a peak-RSS
reading.  The residency law pins what three float fields must keep
adding up to: every second since attach, in exactly one state.
"""

import pytest

from benchmarks.kernel_floor import (
    campus_event_bytes, campus_link_bytes, campus_radio_bytes)
from repro.app.scenarios import BUILTIN_SCENARIOS

#: An attached radio (≈300 B: its instance and ``__dict__``, its slot in
#: a grid cell, three residency floats that share one 0.0 until used).
#: With a row in numpy position and id arrays and a row index it was
#: ≈361 B; with a ``{state: seconds}`` dict per radio ≈570 B.
MAX_BYTES_PER_RADIO = 330.0
#: A cached link (≈83 B: a ``radios`` slot, a ``prr`` double and a map
#: entry with its boxed RSSI).  A second RSSI column made it ≈92 B; a
#: ``(radio, rssi, prr)`` tuple per link ≈160 B.
MAX_BYTES_PER_LINK = 91.0
#: A pending event (≈177 B: the five-slot handle that is its own heap
#: entry, its time, its sequence number and a heap slot).  A handle
#: object beside a ``(time, priority, seq, handle)`` tuple was ≈217 B.
MAX_BYTES_PER_EVENT = 195.0


def test_an_attached_radio_keeps_at_most_its_bound():
    per_radio, radios = campus_radio_bytes(2018, buildings=10)
    assert radios == 10 * 100
    assert per_radio <= MAX_BYTES_PER_RADIO, f"{per_radio:.1f} B/radio"


def test_a_cached_link_keeps_at_most_its_bound():
    # campus_medium's census on a 10-building campus: every one of its
    # 1 000 radios sends.
    per_link, links = campus_link_bytes(2018, buildings=10, senders=1000)
    assert links > 10 * 1000
    assert per_link <= MAX_BYTES_PER_LINK, f"{per_link:.1f} B/link"


def test_a_pending_event_keeps_at_most_its_bound():
    per_event, events = campus_event_bytes(2018, buildings=10, senders=1000)
    assert events >= 1000
    assert per_event <= MAX_BYTES_PER_EVENT, f"{per_event:.1f} B/event"


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_residencies_add_up_to_the_time_since_attach(name):
    attached = {}

    def observe(system):
        # Nothing has started yet: each radio's last change is its attach.
        attached.update((node, radio._state_since)
                        for node, radio in system.medium.radios.items())

    system = BUILTIN_SCENARIOS[name].run(1, observe=observe)
    now = system.sim.now
    radios = system.medium.radios
    assert radios.keys() == attached.keys()
    for node, radio in radios.items():
        radio.flush_state_time()
        residencies = (radio.sleep_s, radio.listen_s, radio.tx_s)
        assert all(seconds >= 0.0 for seconds in residencies)
        assert sum(residencies) == pytest.approx(
            now - attached[node], rel=1e-9), node
