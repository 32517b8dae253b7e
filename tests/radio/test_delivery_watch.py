"""Delivery outcomes counted in place, and the first-hit capture rule.

``Medium._deliver`` counts an outcome nobody watches in place instead of
calling ``TraceLog.emit``, and asks again who watches whenever the log's
version moves; collision arbitration stops at the first interferer
inside the capture margin.  Neither may change what a run does or what
an observer sees.
"""

from __future__ import annotations

import contextlib
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import grid_topology
from repro.faults.plan import InterferenceClause, install
from repro.net.stack import StackConfig
from repro.obs import Observability
from repro.radio.medium import (
    CAPTURE_MARGIN_DB,
    Frame,
    Medium,
    Radio,
    RadioState,
)
from repro.radio.propagation import LogDistanceModel, UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import PerReceiverMedium, TraceRecorder

OUTCOMES = ("radio.rx", "radio.miss", "radio.drop", "radio.collision")
PORT = 7


def lossy_grid_run(mac: str, seed: int):
    """A 3x3 grid on lossy links with a Wi-Fi jammer: every delivery
    outcome occurs.  Returns the system and the root's deliveries."""
    model = LogDistanceModel(path_loss_exponent=3.3, shadowing_sigma_db=3.0,
                             seed=seed)
    system = IIoTSystem.build(
        grid_topology(3), config=SystemConfig(stack=StackConfig(mac=mac)),
        link_model=model, seed=seed)
    sim = system.sim
    delivered = []
    system.root.stack.bind(
        PORT, lambda d: delivered.append((d.src, d.payload, sim.now)))
    install(system, (InterferenceClause(10.0, 20.0, (10.0, 10.0),
                                        wifi_channel=6, duty_cycle=0.05,
                                        node_id=900),))
    system.start()
    rng = random.Random(seed)
    for node_id in sorted(system.nodes):
        if node_id == system.topology.root_id:
            continue

        def send(stack=system.nodes[node_id].stack, seq=[0]):
            seq[0] += 1
            stack.send_datagram(0, PORT, seq[0], 24)
            if sim.now < 25.0:
                sim.schedule(3.0, send)

        sim.schedule(20.0 + rng.uniform(0.0, 3.0), send)
    system.run(30.0)
    return system, delivered


@pytest.mark.parametrize("mac", ["csma", "lpl", "rimac", "tsch"])
def test_counters_are_the_same_watched_or_not(mac):
    plain, plain_delivered = lossy_grid_run(mac, seed=3)
    with TraceRecorder() as recorder:
        watched, watched_delivered = lossy_grid_run(mac, seed=3)
    for category in OUTCOMES:
        assert plain.trace.count(category) > 0, category
    assert list(plain.trace.counters.items()) == list(
        watched.trace.counters.items())
    records = recorder(watched.trace)
    for category in ("radio.tx",) + OUTCOMES:
        assert (sum(1 for r in records if r.category == category)
                == watched.trace.count(category)), category
    assert plain_delivered == watched_delivered
    assert ([vars(n.stack.stats) for n in plain.nodes.values()]
            == [vars(n.stack.stats) for n in watched.nodes.values()])
    assert ([n.stack.radio.frames_received for n in plain.nodes.values()]
            == [n.stack.radio.frames_received for n in watched.nodes.values()])


# ----------------------------------------------------------------------
# who watches changes while a frame is being delivered
# ----------------------------------------------------------------------
def capture_scene(trace: TraceLog, upcall):
    """Sender 0 and interferer 9 overlap on the air.  Receivers 1 and 2
    hear only 0 (received, in that order); 3 and 4 hear both at equal
    strength (collided).  Receiver 1's ``on_receive`` runs ``upcall``."""
    sim = Simulator(seed=1)
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), trace)
    sender = Radio(medium, 0, (0.0, 0.0))
    jammer = Radio(medium, 9, (40.0, 0.0))
    receivers = [Radio(medium, node, xy) for node, xy in
                 ((1, (-10.0, 0.0)), (2, (5.0, 0.0)),
                  (3, (20.0, 0.0)), (4, (22.0, 0.0)))]
    for radio in receivers:
        radio.set_listening()
    receivers[0].on_receive = lambda frame, rssi: (
        upcall() if frame.sender == 0 else None)
    sim.schedule(0.001, lambda: medium.transmit(
        sender, Frame(payload="p", size_bytes=40, channel=26, sender=0)))
    sim.schedule(0.0012, lambda: medium.transmit(
        jammer, Frame(payload="j", size_bytes=40, channel=26, sender=9)))
    sim.run()
    return medium


def outcomes_of(records, sender=0):
    return [(r.category, r.node) for r in records
            if r.category in OUTCOMES and r.data.get("sender") == sender]


SENDER_0 = [("radio.rx", 1), ("radio.rx", 2),
            ("radio.collision", 3), ("radio.collision", 4)]


@pytest.mark.parametrize("category", ["radio.rx", "radio.collision"])
def test_upcall_that_subscribes_sees_every_later_receiver(category):
    trace = TraceLog()
    seen = []
    capture_scene(trace, lambda: trace.subscribe(category, seen.append))
    assert outcomes_of(seen) == [o for o in SENDER_0[1:] if o[0] == category]
    # 9's frame collides at 3 and 4 as well.
    assert (trace.count("radio.rx"), trace.count("radio.collision")) == (2, 4)


def test_upcall_that_unsubscribes_stops_notifications():
    trace = TraceLog()
    seen = []
    handles = [trace.subscribe("radio.rx", seen.append),
               trace.subscribe("radio.collision", seen.append)]
    capture_scene(trace, lambda: [drop() for drop in handles])
    assert outcomes_of(seen) == SENDER_0[:1]
    assert trace.count("radio.collision") == 4


@pytest.mark.parametrize("enable", [True, False])
def test_upcall_that_flips_enabled_moves_the_tail(enable):
    trace = TraceLog(enabled=not enable)

    def flip():
        trace.enabled = enable

    capture_scene(trace, flip)
    tailed = outcomes_of(trace.tail)
    assert tailed == (SENDER_0[1:] if enable else SENDER_0[:1])


def test_every_outcome_counted_once_whoever_watches():
    plain, recorded_log = TraceLog(), TraceLog()
    capture_scene(plain, lambda: None)
    with TraceRecorder(recorded_log) as recorder:
        capture_scene(recorded_log, lambda: None)
    assert plain.counters == recorded_log.counters
    assert outcomes_of(recorder(recorded_log)) == SENDER_0


# ----------------------------------------------------------------------
# the capture boundary
# ----------------------------------------------------------------------
class TableModel:
    """RSSI from a ``(sender x, receiver x) -> dBm`` table; every other
    link is inaudible.  PRR 1 wherever audible."""

    def __init__(self, table):
        self.table = table

    def max_audible_range_m(self, tx_power_dbm, threshold_dbm):
        return 1000.0

    def rssi_dbm(self, sender, receivers, tx_power_dbm):
        return [self.table.get((sender[0], x), -200.0) for x, _ in receivers]

    def reception_probability(self, rssi):
        return [1.0 if value >= -100.0 else 0.0 for value in rssi]


def outcome_at_receiver(rssi, interferers):
    """Sender 1's frame at receiver 0 while ``interferers`` (their RSSI
    at receiver 0, None for inaudible) send overlapping frames."""
    table = {(1.0, 0.0): rssi}
    for k, other in enumerate(interferers):
        if other is not None:
            table[(2.0 + k, 0.0)] = other
    sim = Simulator(seed=1)
    trace = TraceLog()
    medium = Medium(sim, TableModel(table), trace)
    receiver = Radio(medium, 0, (0.0, 0.0))
    receiver.set_listening()
    senders = [Radio(medium, 1 + k, (1.0 + k, 0.0))
               for k in range(1 + len(interferers))]
    seen = []
    for category in ("radio.rx", "radio.collision"):
        trace.subscribe(category, seen.append)
    for radio in senders:
        sim.schedule(0.001, lambda radio=radio: medium.transmit(
            radio, Frame(payload="p", size_bytes=40, channel=26,
                         sender=radio.node_id)))
    sim.run()
    (outcome,) = [r.category for r in seen if r.data["sender"] == 1]
    return outcome


dbm = st.floats(-99.0, -20.0, allow_nan=False)


@given(rssi=dbm, interferers=st.lists(st.none() | dbm, max_size=5))
@settings(max_examples=60, deadline=None)
@example(rssi=-50.0, interferers=[])
@example(rssi=-50.0, interferers=[None, None])
@example(rssi=-50.0, interferers=[-50.0 - CAPTURE_MARGIN_DB])
@example(rssi=-50.0,
         interferers=[math.nextafter(-50.0 - CAPTURE_MARGIN_DB, 0.0)])
@example(rssi=-50.0, interferers=[-70.0, None, -80.0, -52.0])
def test_first_hit_rule_is_the_max_rule(rssi, interferers):
    present = [other for other in interferers if other is not None]
    collides = bool(present) and rssi - max(present) < CAPTURE_MARGIN_DB
    assert outcome_at_receiver(rssi, interferers) == (
        "radio.collision" if collides else "radio.rx")


def test_capture_boundary_cases():
    margin = CAPTURE_MARGIN_DB
    assert outcome_at_receiver(-50.0, []) == "radio.rx"
    assert outcome_at_receiver(-50.0, [-50.0 - margin]) == "radio.rx"
    assert outcome_at_receiver(
        -50.0, [math.nextafter(-50.0 - margin, 0.0)]) == "radio.collision"
    assert outcome_at_receiver(
        -50.0, [-70.0, -80.0, -52.0]) == "radio.collision"


class WriteCountingCounters(dict):
    """``trace.counters`` that counts the writes to each key."""

    def __init__(self) -> None:
        super().__init__()
        self.writes = Counter()

    def __setitem__(self, key, value) -> None:
        self.writes[key] += 1
        super().__setitem__(key, value)


def test_unit_disk_losses_are_tallied_without_a_drop_key():
    """Two overlapping frames on unit-disk links, 30 m apart: six
    listeners between them hear both (collided), four sleepers miss
    both.  No loss is a drop, so ``radio.drop`` never gets a key; the
    first loss of a category still creates its key in place and every
    later one is added once per frame."""
    trace = TraceLog()
    trace.counters = counters = WriteCountingCounters()
    sim = Simulator(seed=1)
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), trace)
    senders = [Radio(medium, 0, (0.0, 0.0)), Radio(medium, 1, (30.0, 0.0))]
    for k in range(6):
        Radio(medium, 2 + k, (15.0, float(k))).set_listening()
    for k in range(4):
        Radio(medium, 10 + k, (15.0, -1.0 - k))
    for k, radio in enumerate(senders):
        sim.schedule(0.001 + k * 0.0002, lambda radio=radio: medium.transmit(
            radio, Frame(payload="p", size_bytes=40, channel=26,
                         sender=radio.node_id)))
    sim.run()
    assert dict(counters) == {"radio.tx": 2, "radio.collision": 12,
                              "radio.miss": 8}
    assert counters.writes == {"radio.tx": 2, "radio.collision": 3,
                               "radio.miss": 3}


# ----------------------------------------------------------------------
# the tallied delivery against the per-receiver reference
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Payload:
    """A frame payload with the two attributes the medium duck-types."""

    trace_ctx: Any = None
    dst: Any = None


#: What an ``on_receive`` upcall may do besides snapshotting the counters.
ACTIONS = st.one_of(
    st.just(("read",)),
    st.tuples(st.sampled_from(["subscribe", "unsubscribe"]),
              st.sampled_from(OUTCOMES)),
    st.tuples(st.just("isolate"), st.integers(0, 7)),
    st.just(("unfilter",)),
    st.tuples(st.just("disable"), st.integers(0, 7)),
)


@st.composite
def delivery_scenes(draw):
    """Radios on a small floor (some asleep, some waking late, some on
    another channel, some recognising only their own address), frames
    that overlap, outcome counters created up front in a drawn order,
    an upcall per radio, and one observer: none (so delivery tallies
    once every counter exists), a watched subset, spans, or a recorder
    of the whole stream."""
    n = draw(st.integers(3, 8))
    coordinate = st.integers(0, 6).map(lambda k: 5.0 * k)
    radios = draw(st.lists(st.fixed_dictionaries({
        "xy": st.tuples(coordinate, coordinate),
        "channel": st.sampled_from([26, 26, 26, 25]),
        "listen": st.sampled_from(["now", "now", "never", "late"]),
        "own_address_only": st.booleans(),
        "upcall": st.none() | ACTIONS,
    }), min_size=n, max_size=n))
    frames = draw(st.lists(st.tuples(
        st.integers(0, n - 1),                 # sender
        st.integers(0, 16),                    # start, in 0.25 ms steps
        st.integers(10, 60),                   # size
        st.none() | st.integers(0, n - 1),     # dst
    ), min_size=1, max_size=10))
    return {
        "radios": radios,
        "frames": frames,
        "lossy": draw(st.booleans()),
        "seed": draw(st.integers(0, 3)),
        "created": draw(st.permutations(OUTCOMES).flatmap(
            lambda order: st.sampled_from([0, 1, 2, 3, 4, 4, 4]).map(
                lambda k: order[:k]))),
        "observer": draw(st.sampled_from(
            ["none", "none", "none", "watched", "spans", "recorded"])),
        "watched": draw(st.sets(st.sampled_from(OUTCOMES), min_size=1)),
    }


def run_delivery_scene(medium_cls, scene):
    """Everything a reader could see of ``scene`` on ``medium_cls``."""
    sim = Simulator(seed=scene["seed"])
    trace = TraceLog()
    for category in scene["created"]:
        trace.emit(0.0, category)
    model = (LogDistanceModel(path_loss_exponent=3.0, shadowing_sigma_db=4.0,
                              seed=scene["seed"])
             if scene["lossy"] else UnitDiskModel(radius_m=25.0))
    medium = medium_cls(sim, model, trace)
    observer = scene["observer"]
    obs = Observability().attach(trace) if observer == "spans" else None
    seen, snapshots, handles = [], [], {}
    for category in scene["watched"] if observer == "watched" else ():
        handles[category] = trace.subscribe(category, seen.append)
    radios = [Radio(medium, node, spec["xy"], channel=spec["channel"])
              for node, spec in enumerate(scene["radios"])]

    def upcall(radio, action):
        def on_receive(frame, rssi):
            snapshots.append((radio.node_id, frame.sender,
                              list(trace.counters.items())))
            if action is None or action[0] == "read":
                return
            kind = action[0]
            if kind == "subscribe" and action[1] not in handles:
                handles[action[1]] = trace.subscribe(action[1], seen.append)
            elif kind == "unsubscribe" and action[1] in handles:
                handles.pop(action[1])()
            elif kind == "isolate":
                medium.set_link_filter(lambda s, r: action[1] in (s, r))
            elif kind == "unfilter":
                medium.set_link_filter(None)
            elif kind == "disable" and action[1] < len(radios):
                radios[action[1]].enabled = False
        return on_receive

    for radio, spec in zip(radios, scene["radios"]):
        radio.on_receive = upcall(radio, spec["upcall"])
        if spec["own_address_only"]:
            radio.rx_addresses = frozenset({radio.node_id})
        if spec["listen"] == "now":
            radio.set_listening()
        elif spec["listen"] == "late":
            sim.schedule(0.002, radio.set_listening)

    def send(sender, size, dst):
        radio = radios[sender]
        if not radio.enabled or radio.state is RadioState.TX:
            return
        ctx = (obs.spans.start(None, "test.frame", node=sender, t=sim.now)
               if obs is not None else None)
        medium.transmit(radio, Frame(Payload(ctx, dst), size, radio.channel,
                                     sender))

    for sender, step, size, dst in scene["frames"]:
        sim.schedule(0.001 + step * 0.00025,
                     lambda s=sender, z=size, d=dst: send(s, z, d))
    with (TraceRecorder(trace) if observer == "recorded"
          else contextlib.nullcontext()) as recorder:
        sim.run()
    return {
        "snapshots": snapshots,
        "counters": list(trace.counters.items()),
        "seen": seen,
        "stream": recorder(trace) if recorder is not None else None,
        "received": [radio.frames_received for radio in radios],
        "rng": medium._rng.getstate(),
        "spans": None if obs is None else [
            (s.category, s.node, s.start, s.end, s.data)
            for s in obs.spans.spans.values()],
    }


def overlap_scene(upcall, created=OUTCOMES, observer="none", listen="now",
                  upcaller_first=True):
    """Sender 0's frame ends while sender 4's, sent 0.25 ms later, is on
    the air.  The upcalling radio hears only 0; the other two (one of
    them sleeping through, with ``listen="never"``) hear both.  Judged
    in node-id order, the upcaller is radio 1, before the other two, or
    radio 3, after them."""
    def radio(xy, upcall=None, listen="now"):
        return {"xy": xy, "channel": 26, "listen": listen,
                "own_address_only": False, "upcall": upcall}

    upcaller = radio((0.0, 5.0), upcall)
    others = [radio((15.0, 0.0)), radio((15.0, 5.0), None, listen)]
    middle = [upcaller] + others if upcaller_first else others + [upcaller]
    return {"radios": [radio((0.0, 0.0))] + middle + [radio((30.0, 0.0))],
            "frames": [(0, 0, 40, None), (4, 1, 40, None)],
            "lossy": False, "seed": 0, "created": created,
            "observer": observer, "watched": set(OUTCOMES)}


@given(scene=delivery_scenes())
@settings(max_examples=250, deadline=None)
@example(scene=overlap_scene(("read",), upcaller_first=False))
@example(scene=overlap_scene(("read",), created=(), listen="never"))
# Unit-disk links: collisions and misses, and no ``radio.drop`` key.
@example(scene=overlap_scene(("read",), listen="never", created=(
    "radio.collision", "radio.miss", "radio.rx")))
@example(scene=overlap_scene(("read",), listen="never",
                             created=("radio.rx",)))
@example(scene=overlap_scene(("subscribe", "radio.collision")))
@example(scene=overlap_scene(("unsubscribe", "radio.collision"),
                             observer="watched"))
@example(scene=overlap_scene(("isolate", 4)))
@example(scene=overlap_scene(("disable", 3)))
def test_tallied_delivery_matches_the_per_receiver_reference(scene):
    assert (run_delivery_scene(Medium, scene)
            == run_delivery_scene(PerReceiverMedium, scene))
