"""Golden trace of the medium: one fixed scenario, pinned by digest.

The indexed and the full-scan medium share their arbitration code, so
the twin-identity properties in ``test_spatial_index.py`` cannot see a
change that moves both the same way.  This test can: the digest below
covers every ``radio.*`` record, every ``on_receive`` upcall and every
CCA answer of a run that reaches each branch of the delivery path —
more than 12 concurrent senders, a wide-band jammer, a link filter
installed and cleared while frames are in flight, a radio attached
beside an in-flight frame, a 6 dBm radio attached mid-flight (it
regrows the grid), a late waker, off-channel, sleeping and failed
radios.  It was recorded with the previous medium (movable radios,
per-cell overlap heaps), which this one reproduces byte for byte.

A legitimate behaviour change re-records ``GOLDEN``; a performance
change must not need to.
"""

import hashlib
import math
import random

from repro.radio.medium import Frame, Medium, Radio
from repro.radio.propagation import LogDistanceModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import FullScanMedium, TraceRecorder

RADIOS = 240
ROUNDS = 7
SENDERS_PER_ROUND = 16
ROUND_S = 0.010
#: 16 senders inside one 1.63 ms airtime: all of them overlap.
STAGGER_S = 0.0001
FAILED = 5

GOLDEN = {
    "digest": "c04f15ad0b7c2c0031508da0ac93bad1f955eae5a4f9e44f6d79daa7ab062313",
    "radio.tx": 115,
    "radio.rx": 138,
    "radio.miss": 182,
    "radio.collision": 444,
    "radio.drop": 212,
    "cca_busy": 23,
    "cca_probes": 115,
    "frames_received": 138,
}


def run_scenario(medium_cls=Medium):
    rng = random.Random(12)
    sim = Simulator(seed=12)
    model = LogDistanceModel(path_loss_exponent=3.5, shadowing_sigma_db=2.0,
                             seed=12)
    medium = medium_cls(sim, model, TraceLog())
    upcalls = []
    radios = []
    for node_id in range(RADIOS):
        radio = Radio(medium, node_id,
                      (rng.uniform(0.0, 480.0), rng.uniform(0.0, 360.0)),
                      channel=20 if node_id % 11 == 3 else 26)
        radio.on_receive = (
            lambda frame, rssi, node=node_id:
            upcalls.append((node, frame.sender, round(rssi, 6))))
        if node_id % 17 != 7:
            radio.set_listening()
        radios.append(radio)
    radios[FAILED].enabled = False

    cca = []
    max_active = [0]

    def send(radio, **frame_kw):
        def fire():
            cca.append(medium.carrier_busy(radio))
            frame_kw.setdefault("channel", radio.channel)
            medium.transmit(radio, Frame(payload="p", size_bytes=40,
                                         sender=radio.node_id, **frame_kw))
            max_active[0] = max(max_active[0], len(medium._active))
        return fire

    eligible = [r for r in radios if r.node_id != FAILED]
    rounds = []
    for k in range(ROUNDS):
        if k % 2:
            # Four tight clusters: CCA hears the neighbour, capture and
            # collision both happen at the shared listeners.
            senders = []
            for anchor in rng.sample(eligible, SENDERS_PER_ROUND // 4):
                senders += sorted(
                    (r for r in eligible if r not in senders),
                    key=lambda r: (math.dist(r.position, anchor.position),
                                   r.node_id))[:4]
        else:
            senders = rng.sample(eligible, SENDERS_PER_ROUND)
        rounds.append(senders)
        for i, radio in enumerate(senders):
            sim.schedule_at((k + 1) * ROUND_S + i * STAGGER_S, send(radio))

    # Round 2: a Wi-Fi-like jammer blankets channels 24-26 mid-round.
    jammer = next(r for r in eligible if r not in rounds[1])
    sim.schedule_at(2 * ROUND_S + 0.0005, send(
        jammer, channel=0, jam_channels=frozenset({24, 25, 26})))
    def late(node_id, beside, tx_power_dbm=0.0):
        """Attach a listening radio 1 m from ``beside`` and send at once."""
        def fire():
            radio = Radio(medium, node_id,
                          (beside.position[0] + 1.0, beside.position[1]),
                          tx_power_dbm=tx_power_dbm)
            radio.on_receive = (
                lambda frame, rssi:
                upcalls.append((node_id, frame.sender, round(rssi, 6))))
            radio.set_listening()
            radios.append(radio)
            send(radio)()
        return fire

    # Round 3: a radio is attached beside a sender whose frame is in
    # flight and sends over it; a sleeper that never sends wakes next to
    # another sender, too late for the frames already on air.
    sim.schedule_at(3 * ROUND_S + 0.0005, late(RADIOS, rounds[2][1]))
    sleeper = min((r for r in radios if r.node_id % 17 == 7
                   and not any(r in senders for senders in rounds)),
                  key=lambda r: min(math.dist(r.position, s.position)
                                    for s in rounds[2]))
    sim.schedule_at(3 * ROUND_S + 0.0009, sleeper.set_listening)
    # Rounds 4-5: a partition-style filter goes in and comes out, both
    # while frames are in flight.
    sim.schedule_at(4 * ROUND_S + 0.0006, lambda: medium.set_link_filter(
        lambda s, r: (s + r) % 3 == 0))
    sim.schedule_at(5 * ROUND_S + 0.0006,
                    lambda: medium.set_link_filter(None))
    # Round 6: a radio louder than the grid's sizing basis, mid-flight.
    sim.schedule_at(6 * ROUND_S + 0.0004,
                    late(RADIOS + 1, rounds[5][2], tx_power_dbm=6.0))
    with TraceRecorder(medium.trace) as recorder:
        sim.run()
    return medium, radios, recorder(medium.trace), cca, upcalls, max_active[0]


def digest_of(records, cca, upcalls):
    h = hashlib.sha256()
    for record in records:
        assert record.category.startswith("radio.")
        h.update(f"{record.time!r}|{record.category}|{record.node}|"
                 f"{sorted(record.data.items())!r}\n".encode())
    h.update(repr(cca).encode())
    h.update(repr(upcalls).encode())
    return h.hexdigest()


def summary_of(medium, radios, records, cca, upcalls):
    out = {"digest": digest_of(records, cca, upcalls)}
    for category in ("radio.tx", "radio.rx", "radio.miss",
                     "radio.collision", "radio.drop"):
        out[category] = medium.trace.count(category)
    out["cca_busy"] = sum(cca)
    out["cca_probes"] = len(cca)
    out["frames_received"] = sum(r.frames_received for r in radios)
    return out


def test_scenario_reaches_every_branch():
    medium, radios, _, cca, upcalls, max_active = run_scenario()
    assert medium.grid_info()["spatial_index"]
    assert len(radios) >= 200
    assert max_active > 12
    assert 0 < sum(cca) < len(cca)
    for category in ("radio.rx", "radio.miss", "radio.collision",
                     "radio.drop"):
        assert medium.trace.count(category) > 0
    assert len(upcalls) == medium.trace.count("radio.rx")


def test_golden_trace_indexed():
    assert summary_of(*run_scenario()[:5]) == GOLDEN


def test_golden_trace_brute_force():
    run = run_scenario(FullScanMedium)
    assert not run[0].grid_info()["spatial_index"]
    assert summary_of(*run[:5]) == GOLDEN


if __name__ == "__main__":  # re-record: PYTHONPATH=src:. python tests/radio/test_medium_golden.py
    import pprint
    pprint.pprint(summary_of(*run_scenario()[:5]), sort_dicts=False)
