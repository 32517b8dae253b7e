"""Event-free idle listening against an eager reference.

``TschMac`` schedules no events for cells it only listens in: the
windows are a listen plan the medium consults when a frame starts, and
the radio is charged for untouched ones in closed form.
``conftest.eager_tsch`` is the same MAC with every actionable cell
ticking and every slotframe boundary running — what the engine did
before it had a plan.  Both must produce the same run: same frames on
the air at the same instants, same deliveries, same counters, same RNG
states, radio-on time equal to rounding.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import grid_topology
from repro.faults.plan import (CrashClause, InterferenceClause,
                               PartitionClause, install)
from repro.net import stack as stack_module
from repro.net.mac import tsch
from repro.net.mac.schedule import Cell, TschSchedule
from repro.net.mac.tsch import TschConfig, TschMac
from repro.net.stack import StackConfig
from repro.radio import interference
from repro.radio.medium import Frame, Medium, Radio, RadioState
from repro.radio.propagation import LogDistanceModel, UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

from tests.conftest import eager_tsch

PORT = 7
RADIO_CATEGORIES = ("radio.tx", "radio.rx", "radio.miss", "radio.collision",
                    "radio.drop")
#: A radio's per-state residency fields.
RESIDENCIES = ("sleep_s", "listen_s", "tx_s")


def lossy_model(seed):
    # 20 m grid links sit a few dB above sensitivity, diagonals around
    # it: every exchange (6P included) loses frames now and then.
    return LogDistanceModel(path_loss_exponent=3.3, shadowing_sigma_db=3.0,
                            seed=seed)


def run_grid(mac_cls, seed, model, *, side=3, formation_s=90.0,
             traffic_s=90.0, hostile=True, mac_config=None):
    """One full-stack run; returns the system and the root's deliveries."""
    registry = stack_module._MAC_REGISTRY
    saved = registry["tsch"]
    registry["tsch"] = (mac_cls, TschConfig)
    try:
        config = SystemConfig(
            stack=StackConfig(
                mac="tsch",
                mac_config=mac_config or TschConfig(slotframe_slots=23)),
            trace_enabled=True, invariant_checking=True)
        system = IIoTSystem.build(grid_topology(side), config=config,
                                  link_model=model, seed=seed)
    finally:
        registry["tsch"] = saved
    sim = system.sim
    delivered, latencies = [], []

    def on_report(datagram):
        src, seq, sent_at = datagram.payload
        delivered.append((src, seq))
        latencies.append(sim.now - sent_at)

    system.root.stack.bind(PORT, on_report)
    if hostile:
        last = side * side - 1
        install(system, (
            InterferenceClause(at_s=formation_s / 2,
                               duration_s=formation_s + traffic_s,
                               position=(10.0, 10.0), wifi_channel=6,
                               duty_cycle=0.05, node_id=900),
            CrashClause(at_s=formation_s + 20.0, node=last // 2,
                        recover_after_s=25.0),
            CrashClause(at_s=formation_s + 41.3, node=last,
                        recover_after_s=12.0),
            # Cuts the last column off and heals: two link-filter changes,
            # each re-asking every plan.  Both land mid-slot; on 8 of the
            # 10 (seed, model) legs a frame is on the air at one of them.
            PartitionClause(at_s=formation_s + 59.2729, cut_x=30.0,
                            heal_after_s=6.0),
        ))
    system.start()
    rng = random.Random(seed)
    for node_id in sorted(system.nodes):
        if node_id == system.topology.root_id:
            continue
        stack = system.nodes[node_id].stack

        def reporter(stack):
            seq = 0

            def send():
                nonlocal seq
                if sim.now > formation_s + traffic_s - 20.0:
                    return
                seq += 1
                stack.send_datagram(0, PORT, (stack.node_id, seq, sim.now), 24)
                sim.schedule(9.0, send)
            return send

        sim.schedule(formation_s + rng.uniform(0.0, 9.0), reporter(stack))
    system.run(formation_s + traffic_s)
    return system, delivered, latencies


def exact_fingerprint(system, delivered, records):
    """Everything that must match bit for bit."""
    nodes = [system.nodes[i] for i in sorted(system.nodes)]
    macs = [n.stack.mac for n in nodes]
    for mac in macs:
        mac.radio.sync()    # the fields below are read, not sensed
    return {
        "mac_stats": [vars(m.stats) for m in macs],
        "tsch_stats": [vars(m.tsch_stats) for m in macs],
        "msf": [(sorted(m._elapsed.items()), sorted(m._used.items()),
                 m._backoff, m._be) for m in macs],
        "schedules": [[(c.slot, c.channel_offset, c.neighbor, c.tx, c.rx)
                       for c in m.schedule.cells()] for m in macs],
        "stack_stats": [vars(n.stack.stats) for n in nodes],
        "delivered": delivered,
        "radio": [(m.radio.frames_sent, m.radio.frames_received,
                   m.radio.bytes_sent, m.radio.state, m.radio.channel)
                  for m in macs],
        "medium_rng": system.medium._rng.getstate(),
        "mac_rngs": [m._rng.getstate() for m in macs],
        "dio": [n.stack.rpl.dio_sent for n in nodes],
        "radio_trace": [
            (r.time, r.category, r.node, sorted(r.data.items()))
            for r in records if r.category in RADIO_CATEGORIES],
        "violations": [(v.time, v.checker, v.invariant, v.node)
                       for v in system.checkers.finish()],
    }


def assert_same_run(lazy, eager, recorded):
    (lazy_sys, lazy_delivered, lazy_lat) = lazy
    (eager_sys, eager_delivered, eager_lat) = eager
    a = exact_fingerprint(lazy_sys, lazy_delivered, recorded(lazy_sys.trace))
    b = exact_fingerprint(eager_sys, eager_delivered,
                          recorded(eager_sys.trace))
    for key in a:
        assert a[key] == b[key], key
    assert lazy_lat == pytest.approx(eager_lat, rel=1e-9, abs=0.0)
    for node_id in sorted(lazy_sys.nodes):
        mine = lazy_sys.nodes[node_id].stack.radio
        theirs = eager_sys.nodes[node_id].stack.radio
        mine.flush_state_time()
        theirs.flush_state_time()
        for field in RESIDENCIES:
            assert getattr(mine, field) == pytest.approx(
                getattr(theirs, field), rel=1e-9, abs=1e-9), (node_id, field)
        assert lazy_sys.nodes[node_id].stack.mac.duty_cycle() == pytest.approx(
            eager_sys.nodes[node_id].stack.mac.duty_cycle(), rel=1e-9)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("lossy", [False, True], ids=["unit-disk", "lossy"])
def test_lazy_run_equals_eager_reference(seed, lossy, recorded, monkeypatch):
    """Jammer, two crash/reboots, a partition that heals, tracing and
    checking on; 6P runs under loss on the lossy links."""
    # 13 ms jamming bursts: longer than a slot, so they cover whole cells.
    monkeypatch.setattr(interference, "BURST_AIRTIME_S", 0.013)
    def model():
        return lossy_model(seed) if lossy else UnitDiskModel(radius_m=25.0)

    lazy = run_grid(TschMac, seed, model())
    eager = run_grid(eager_tsch(), seed, model())
    assert_same_run(lazy, eager, recorded)
    system, delivered, _ = lazy
    # The scenario must exercise what it claims to.
    macs = [n.stack.mac for n in system.nodes.values()]
    assert delivered
    assert sum(m.tsch_stats.sixp_sent for m in macs) > 0
    assert sum(m.tsch_stats.cells_added for m in macs) > 0
    if lossy:   # 6P really does run under loss: transactions expire
        assert sum(m.tsch_stats.sixp_timeouts for m in macs) > 0
        assert system.trace.count("radio.drop") > 0
    assert system.trace.count("radio.miss") > 0
    assert system.trace.count("node.recovered") == 2
    assert system.trace.count("partition.applied") == 1
    assert system.trace.count("partition.healed") == 1
    assert lazy[0].sim.events_processed < eager[0].sim.events_processed / 2


@pytest.mark.parametrize("seed", [11, 12])
def test_frames_straddling_slot_boundaries(seed, recorded, monkeypatch):
    """A late TsTxOffset puts every data frame across its slot's end and
    the next slot's start: holds, ACKs sent after the slot end, and
    windows opened under a frame already in flight all occur."""
    monkeypatch.setattr(tsch, "TX_OFFSET_S", 0.0068)
    config = TschConfig(slotframe_slots=11)
    lazy = run_grid(TschMac, seed, UnitDiskModel(radius_m=25.0),
                    mac_config=config, hostile=False)
    eager = run_grid(eager_tsch(), seed, UnitDiskModel(radius_m=25.0),
                     mac_config=config, hostile=False)
    assert_same_run(lazy, eager, recorded)
    system, delivered, _ = lazy
    assert delivered
    slot = tsch.SLOT_DURATION_S
    straddlers = [
        r for r in recorded(system.trace) if r.category == "radio.tx"
        and int(r.time / slot) != int((r.time + (11 + r.data["size"]) * 8
                                      / 250_000) / slot)]
    assert straddlers


# ----------------------------------------------------------------------
# event budget: what the plan is for
# ----------------------------------------------------------------------
def test_idle_grid_costs_a_fifth_of_the_eager_events():
    def idle_events(mac_cls):
        system, _, _ = run_grid(mac_cls, 7, UnitDiskModel(radius_m=25.0),
                                side=5, formation_s=240.0, traffic_s=0.0,
                                hostile=False)
        before = system.sim.events_processed
        system.run(60.0)
        return system.sim.events_processed - before

    assert idle_events(TschMac) * 5 <= idle_events(eager_tsch())


# ----------------------------------------------------------------------
# closed form == window by window
# ----------------------------------------------------------------------
@st.composite
def schedules(draw):
    nslots = draw(st.integers(min_value=3, max_value=17))
    slots = draw(st.lists(st.integers(min_value=1, max_value=nslots - 1),
                          unique=True, max_size=6))
    cells = [Cell(slot, draw(st.integers(0, 3)), neighbor=9,
                  tx=kind == "tx", rx=kind == "rx")
             for slot in slots
             for kind in [draw(st.sampled_from(["rx", "rx", "tx"]))]]
    return nslots, cells


@given(schedule=schedules(),
       started_at=st.floats(min_value=0.0, max_value=3.0),
       reads=st.lists(st.floats(min_value=0.0, max_value=40.0),
                      min_size=1, max_size=8),
       frames=st.lists(st.floats(min_value=3.0, max_value=40.0), max_size=4))
@settings(max_examples=60, deadline=None)
def test_closed_form_listen_time_equals_the_window_sum(
        schedule, started_at, reads, frames):
    """Any schedule, any start, any read instants — with or without a
    stranger's frames making some windows real on the way — the radio
    reads the same lazily and eagerly: residencies, state, channel."""
    nslots, cells = schedule

    def build(mac_cls):
        sim = Simulator(seed=3)
        medium = Medium(sim, UnitDiskModel(radius_m=25.0),
                        TraceLog())
        mac = mac_cls(Radio(medium, 1, (0.0, 0.0)),
                      config=TschConfig(slotframe_slots=nslots))
        for cell in cells:
            mac.schedule.add(cell)
        stranger = Radio(medium, 2, (10.0, 0.0))
        sim.schedule(started_at, mac.start)
        for at in frames:
            sim.schedule_at(at, lambda: stranger.state is RadioState.TX
                            or medium.transmit(stranger, Frame(
                                "x", 100, 20, stranger.node_id)))
        return sim, mac

    lazy_sim, lazy = build(TschMac)
    eager_sim, eager = build(eager_tsch())
    for at in sorted(reads):
        lazy_sim.run(until=at)
        eager_sim.run(until=at)
        lazy.radio.flush_state_time()
        eager.radio.flush_state_time()
        for field in RESIDENCIES:
            assert getattr(lazy.radio, field) == pytest.approx(
                getattr(eager.radio, field), rel=1e-9, abs=1e-9)
        assert lazy.radio.state is eager.radio.state
        assert lazy.radio.channel == eager.radio.channel
        assert lazy.tsch_stats == eager.tsch_stats
    assert lazy_sim.events_processed <= eager_sim.events_processed


# ----------------------------------------------------------------------
# the pieces
# ----------------------------------------------------------------------
def make_pair(sim, trace=None, mac_cls=TschMac):
    medium = Medium(sim, UnitDiskModel(radius_m=25.0),
                    trace if trace is not None else TraceLog())
    a = mac_cls(Radio(medium, 1, (0, 0)))
    b = mac_cls(Radio(medium, 2, (10.0, 0)))
    a.start()
    b.start()
    return medium, a, b


class TestListenPlan:
    def test_idle_pair_processes_no_slot_events(self, sim):
        _, a, b = make_pair(sim)
        sim.run(until=5.0)      # the first boundary publishes the gauge
        before = sim.events_processed
        sim.run(until=125.0)
        assert sim.events_processed == before
        # ... and is still charged for a window per slotframe.
        frames = 125.0 / (a.config.slotframe_slots * tsch.SLOT_DURATION_S)
        a.radio.flush_state_time()
        assert a.radio.listen_s == pytest.approx(
            int(frames) * (tsch.SLOT_DURATION_S - tsch.SLOT_GUARD_S),
            rel=1e-9)

    def test_reading_inside_a_window_finds_the_radio_listening(self, sim):
        _, a, _ = make_pair(sim)
        frame_s = a.config.slotframe_slots * tsch.SLOT_DURATION_S
        sim.run(until=3 * frame_s + 0.004)      # 4 ms into slot 0
        a.radio.sync()
        assert a.radio.state is RadioState.LISTEN
        assert a.radio.channel == tsch.HOPPING[
            (3 * a.config.slotframe_slots) % len(tsch.HOPPING)]
        sim.run(until=3 * frame_s + 0.0099)     # in the guard
        a.radio.sync()
        assert a.radio.state is RadioState.SLEEP

    def test_sleeping_radio_keeps_the_last_windows_channel(self, sim, trace,
                                                           recorded):
        """``_deliver`` tells a silent skip from a ``radio.miss`` by the
        channel a sleeping radio was left on."""
        medium, a, _ = make_pair(sim, trace)
        stranger = Radio(medium, 3, (5.0, 0.0))
        frame_s = a.config.slotframe_slots * tsch.SLOT_DURATION_S
        left_on = tsch.HOPPING[
            (2 * a.config.slotframe_slots) % len(tsch.HOPPING)]

        def send(channel):
            medium.transmit(stranger, Frame("x", 20, channel, 3))

        sim.schedule_at(2 * frame_s + 0.05, lambda: send(left_on))
        sim.schedule_at(2 * frame_s + 0.06, lambda: send(left_on + 1))
        sim.run(until=2 * frame_s + 0.1)
        misses = [r.node for r in recorded(trace)
                  if r.category == "radio.miss"]
        assert misses == [1, 2]     # the first frame only, at both sleepers

    def test_frame_makes_the_window_it_hits_real(self, sim, trace, recorded):
        medium, a, _ = make_pair(sim, trace)
        stranger = Radio(medium, 3, (5.0, 0.0))
        frame_s = a.config.slotframe_slots * tsch.SLOT_DURATION_S
        channel = tsch.HOPPING[
            (4 * a.config.slotframe_slots) % len(tsch.HOPPING)]
        sim.schedule_at(4 * frame_s + 0.003, lambda: medium.transmit(
            stranger, Frame("x", 20, channel, 3)))
        sim.run(until=4 * frame_s + 0.009)
        assert [r.node for r in recorded(trace)
                if r.category == "radio.rx"] == [1, 2]
        assert a.radio._listen_since == 4 * frame_s

    def test_link_unblocked_under_a_frame_in_flight_is_sensed(self):
        """A world change can make a frame already on the air audible at
        a sleeper: its window's end must still find the carrier busy."""
        def listen_s(mac_cls, unblock):
            sim = Simulator(seed=1)
            medium, a, _ = make_pair(sim, mac_cls=mac_cls)
            stranger = Radio(medium, 3, (5.0, 0.0))
            medium.set_link_filter(lambda sender, receiver: sender == 3)
            nslots = a.config.slotframe_slots
            start = 2 * nslots * tsch.SLOT_DURATION_S
            channel = tsch.HOPPING[2 * nslots % len(tsch.HOPPING)]
            # ~10 ms of airtime from 4 ms in: across the window's end.
            sim.schedule_at(start + 0.004, lambda: medium.transmit(
                stranger, Frame("x", 300, channel, 3)))
            if unblock:
                sim.schedule_at(start + 0.006,
                                lambda: medium.set_link_filter(None))
            sim.run(until=start + 0.1)
            a.radio.flush_state_time()
            return a.radio.listen_s

        held = listen_s(eager_tsch(), unblock=True)
        assert held > listen_s(eager_tsch(), unblock=False) + 0.005
        assert listen_s(TschMac, unblock=True) == pytest.approx(held, rel=1e-9)

    def test_stopped_mac_owes_nothing(self, sim):
        _, a, _ = make_pair(sim)
        a.schedule.add(Cell(3, 1, neighbor=2, tx=True))
        sim.run(until=20.0)
        a.stop()
        a.radio.flush_state_time()
        stats, listen = vars(a.tsch_stats).copy(), a.radio.listen_s
        assert stats["cells_elapsed"] > 0
        sim.run(until=60.0)
        assert vars(a.tsch_stats) == stats
        a.radio.flush_state_time()
        assert a.radio.listen_s == listen
        a.start()
        sim.run(until=80.0)
        assert a.tsch_stats.cells_elapsed > stats["cells_elapsed"]

    def test_unplanned_radios_stay_plain(self, sim):
        """A plan changes no class and hides no field behind a property:
        what keeps a planned radio current is the explicit sync."""
        medium, a, _ = make_pair(sim)
        bare = Radio(medium, 3, (5.0, 0.0))
        assert type(bare) is Radio and bare.listen_plan is None
        assert "state" in vars(bare)
        assert type(a.radio) is Radio and a.radio.listen_plan is a
        assert {"state", "channel", "sleep_s", "listen_s", "tx_s"} <= set(
            vars(a.radio))
        a.stop()
        assert a.radio.listen_plan is None
        assert medium._planned == 1


class TestSortedSchedule:
    def test_next_occurrence_walks_slots_in_order_and_wraps(self):
        schedule = TschSchedule(10)
        for slot in (7, 2, 5):
            schedule.add(Cell(slot, 0, neighbor=1, rx=True))
        anything = lambda cell: True  # noqa: E731
        assert [c.slot for c in schedule.cells()] == [2, 5, 7]
        assert schedule.next_occurrence(0, anything) == 2
        assert schedule.next_occurrence(5, anything) == 5
        assert schedule.next_occurrence(6, anything) == 7
        assert schedule.next_occurrence(8, anything) == 12
        assert schedule.next_occurrence(38, anything) == 42
        assert schedule.next_occurrence(
            43, lambda cell: cell.slot == 2) == 52
        assert schedule.next_occurrence(0, lambda cell: False) is None
        schedule.remove(5)
        assert schedule.next_occurrence(3, anything) == 7
