"""Shared-medium semantics: delivery, sleep, collisions, CCA, energy."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.radio.medium import Frame, Medium, Radio, RadioState
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


def make_medium(sim, radius=30.0, trace=None):
    # Note: TraceLog defines __len__, so an empty log is falsy — always
    # compare against None, never truthiness.
    return Medium(sim, UnitDiskModel(radius_m=radius),
                  trace if trace is not None else TraceLog())


class TestDelivery:
    def test_listening_neighbor_receives(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (10, 0))
        got = []
        b.on_receive = lambda frame, rssi: got.append(frame.payload)
        b.set_listening()
        a.transmit("hello", 20)
        sim.run()
        assert got == ["hello"]

    def test_out_of_range_node_misses(self, sim):
        medium = make_medium(sim, radius=30.0)
        a = Radio(medium, 1, (0, 0))
        far = Radio(medium, 2, (100, 0))
        got = []
        far.on_receive = lambda frame, rssi: got.append(frame.payload)
        far.set_listening()
        a.transmit("hello", 20)
        sim.run()
        assert got == []

    def test_sleeping_receiver_misses(self, sim):
        trace = TraceLog()
        medium = make_medium(sim, trace=trace)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (10, 0))
        got = []
        b.on_receive = lambda frame, rssi: got.append(frame.payload)
        a.transmit("hello", 20)
        sim.run()
        assert got == []
        assert trace.count("radio.miss") == 1

    def test_late_waker_misses_frame_in_flight(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (10, 0))
        got = []
        b.on_receive = lambda frame, rssi: got.append(frame.payload)
        airtime = a.transmit("hello", 100)
        # Wake up in the middle of the frame: too late.
        sim.schedule(airtime / 2, b.set_listening)
        sim.run()
        assert got == []

    def test_different_channels_do_not_deliver(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0), channel=11)
        b = Radio(medium, 2, (10, 0), channel=26)
        got = []
        b.on_receive = lambda frame, rssi: got.append(frame.payload)
        b.set_listening()
        a.transmit("hello", 20)
        sim.run()
        assert got == []

    def test_broadcast_reaches_all_listeners(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        receivers = [Radio(medium, 2 + i, (10.0 + i, 0)) for i in range(3)]
        got = []
        for radio in receivers:
            radio.on_receive = (
                lambda rid: lambda frame, rssi: got.append(rid)
            )(radio.node_id)
            radio.set_listening()
        a.transmit("x", 20)
        sim.run()
        assert sorted(got) == [2, 3, 4]


class TestCollisions:
    def test_overlapping_equal_power_frames_collide(self, sim):
        trace = TraceLog()
        medium = make_medium(sim, trace=trace)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (20, 0))
        victim = Radio(medium, 3, (10, 0))
        got = []
        victim.on_receive = lambda frame, rssi: got.append(frame.payload)
        victim.set_listening()
        a.transmit("from-a", 50)
        b.transmit("from-b", 50)
        sim.run()
        assert got == []
        assert trace.count("radio.collision") == 2

    def test_non_overlapping_frames_both_deliver(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (20, 0))
        victim = Radio(medium, 3, (10, 0))
        got = []
        victim.on_receive = lambda frame, rssi: got.append(frame.payload)
        victim.set_listening()
        airtime = a.transmit("first", 20)
        sim.schedule(airtime + 0.001, lambda: b.transmit("second", 20))
        sim.run()
        assert got == ["first", "second"]

    def test_capture_strong_frame_survives(self, sim):
        # Override RSSI to create a strong/weak pair (the reach stays
        # the unit disk's 200 m).
        class TwoLevel(UnitDiskModel):
            def rssi_dbm(self, sender, receivers, tx_power_dbm):
                level = -40.0 if tuple(sender) == (1.0, 0.0) else -60.0
                return [level] * len(receivers)

        medium = Medium(sim, TwoLevel(radius_m=200.0), TraceLog())
        strong = Radio(medium, 1, (1.0, 0.0))
        weak = Radio(medium, 2, (2.0, 0.0))
        victim = Radio(medium, 3, (3.0, 0.0))
        got = []
        victim.on_receive = lambda frame, rssi: got.append(frame.payload)
        victim.set_listening()
        strong.transmit("strong", 50)
        weak.transmit("weak", 50)
        sim.run()
        assert got == ["strong"]


def test_link_model_is_bound_once(sim):
    # The grid is sized from the model at construction; a replacement
    # would silently keep serving it.
    model = UnitDiskModel(radius_m=30.0)
    medium = Medium(sim, model, TraceLog())
    with pytest.raises(AttributeError):
        medium.model = UnitDiskModel(radius_m=200.0)
    assert medium.model is model


class TestCarrierSense:
    def test_idle_channel_reports_clear(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        a.set_listening()
        assert not a.carrier_busy()

    def test_active_transmission_reports_busy(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (10, 0))
        b.set_listening()
        a.transmit("x", 200)
        busy = []
        sim.schedule(0.001, lambda: busy.append(b.carrier_busy()))
        sim.run()
        assert busy == [True]

    def test_channel_clears_after_frame(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (10, 0))
        b.set_listening()
        airtime = a.transmit("x", 20)
        busy = []
        sim.schedule(airtime + 0.001, lambda: busy.append(b.carrier_busy()))
        sim.run()
        assert busy == [False]


class TestRadioState:
    def test_state_time_accounting(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        a.set_listening()
        sim.schedule(10.0, a.sleep)
        sim.run(until=30.0)
        a.flush_state_time()
        assert a.listen_s == pytest.approx(10.0)
        assert a.sleep_s == pytest.approx(20.0)

    def test_tx_time_accounted(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        airtime = a.transmit("x", 114)  # (11+114)*8/250k = 4 ms
        sim.run()
        a.flush_state_time()
        assert a.tx_s == pytest.approx(airtime)
        assert airtime == pytest.approx(0.004)

    def test_double_transmit_rejected(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        a.transmit("x", 200)
        with pytest.raises(RuntimeError):
            a.transmit("y", 20)

    def test_disabled_radio_cannot_transmit(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        a.enabled = False
        with pytest.raises(RuntimeError):
            medium.transmit(a, Frame("x", 10, a.channel, a.node_id))

    def test_disabled_radio_does_not_receive(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (10, 0))
        got = []
        b.on_receive = lambda frame, rssi: got.append(1)
        b.set_listening()
        b.enabled = False
        a.transmit("x", 20)
        sim.run()
        assert got == []

    def test_duplicate_node_id_rejected(self, sim):
        medium = make_medium(sim)
        Radio(medium, 1, (0, 0))
        with pytest.raises(ValueError):
            Radio(medium, 1, (5, 0))


class TestLinkFilter:
    def test_blocked_link_carries_nothing(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (10, 0))
        got = []
        b.on_receive = lambda frame, rssi: got.append(1)
        b.set_listening()
        medium.set_link_filter(lambda s, r: True)
        a.transmit("x", 20)
        sim.run()
        assert got == []

    def test_clearing_filter_restores_links(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (10, 0))
        got = []
        b.on_receive = lambda frame, rssi: got.append(1)
        b.set_listening()
        medium.set_link_filter(lambda s, r: True)
        medium.set_link_filter(None)
        a.transmit("x", 20)
        sim.run()
        assert got == [1]

    def test_link_prr_reports_ground_truth(self, sim):
        medium = make_medium(sim, radius=30.0)
        Radio(medium, 1, (0, 0))
        Radio(medium, 2, (10, 0))
        Radio(medium, 3, (100, 0))
        assert medium.link_prr(1, 2) == 1.0
        assert medium.link_prr(1, 3) == 0.0


class TestAudibleOrdering:
    class _FixedRssi(UnitDiskModel):
        """RSSI keyed by receiver x-coordinate, independent of distance
        (within the unit disk's reach)."""

        LEVELS = {10.0: -50.0, 20.0: -40.0, 30.0: -40.0, 40.0: -70.0}

        def rssi_dbm(self, sender, receivers, tx_power_dbm):
            return [self.LEVELS.get(x, -45.0) for x, _ in receivers]

    def _build(self, sim, attach_order):
        medium = Medium(sim, self._FixedRssi(radius_m=500.0),
                        TraceLog())
        sender = Radio(medium, 0, (0.0, 0.0))
        for node_id, x in attach_order:
            Radio(medium, node_id, (x, 0.0))
        return medium, sender

    def test_sorted_by_rssi_desc_then_node_id(self, sim):
        medium, sender = self._build(
            sim, [(1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)])
        order = [(r.node_id, rssi) for r, rssi in medium.audible_from(sender)]
        # -40 dBm pair first (tie broken by node id), then -50, then -70.
        assert order == [(2, -40.0), (3, -40.0), (1, -50.0), (4, -70.0)]

    def test_order_independent_of_attach_order(self):
        orders = []
        for attach in ([(1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)],
                       [(4, 40.0), (3, 30.0), (2, 20.0), (1, 10.0)],
                       [(2, 20.0), (4, 40.0), (1, 10.0), (3, 30.0)]):
            medium, sender = self._build(Simulator(seed=5), attach)
            orders.append([r.node_id
                           for r, _ in medium.audible_from(sender)])
        assert orders[0] == orders[1] == orders[2] == [2, 3, 1, 4]


class TestActivePruning:
    def test_active_set_stays_bounded_under_sequential_traffic(self, sim):
        medium = make_medium(sim)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (10, 0))
        b.set_listening()
        count = [0]

        def send_next():
            if count[0] >= 200:
                return
            count[0] += 1
            a.transmit("x", 20, done=send_next)

        send_next()
        sim.run()
        # 200 back-to-back frames: expired entries must have been pruned
        # rather than accumulating for every overlap query to re-filter.
        assert count[0] == 200
        assert len(medium._active) <= 4

    def test_pruning_keeps_interferers_needed_by_inflight_frames(self, sim):
        """A frame that ended can still collide a frame it overlapped."""
        trace = TraceLog()
        medium = make_medium(sim, trace=trace)
        a = Radio(medium, 1, (0, 0))
        b = Radio(medium, 2, (20, 0))
        victim = Radio(medium, 3, (10, 0))
        victim.set_listening()
        short_air = Frame("s", 10, a.channel, 1).airtime
        # Long frame starts first; a short frame overlaps its head and
        # ends (and is delivered) long before the long frame does.
        a.transmit("long", 200)
        sim.schedule(short_air / 4, lambda: b.transmit("short", 10))
        sim.run()
        # Both directions of the overlap must be arbitrated: the long
        # frame's delivery sees the short frame even though it expired.
        assert trace.count("radio.collision") == 2


# ----------------------------------------------------------------------
# the sync rule: a planned radio is synced where it is read
# ----------------------------------------------------------------------
def _logged(name):
    stored = "_logged_" + name

    def read(self):
        self.log.append("read " + name)
        return getattr(self, stored)

    def write(self, value):
        setattr(self, stored, value)

    return property(read, write)


class LoggedRadio(Radio):
    """Logs every read of the six fields a listen plan keeps current."""

    state = _logged("state")
    channel = _logged("channel")
    sleep_s = _logged("sleep_s")
    listen_s = _logged("listen_s")
    tx_s = _logged("tx_s")
    _listen_since = _logged("_listen_since")


class CountingPlan:
    """A listen plan that only logs that it was asked."""

    def __init__(self, log):
        self.log = log

    def sync(self):
        self.log.append("sync")

    def frame_started(self, until):
        self.log.append("frame_started")


class TestSyncRule:
    def planned(self, sim):
        medium = make_medium(sim)
        radio = LoggedRadio(medium, 1, (0, 0))
        radio.log = []
        radio.set_listen_plan(CountingPlan(radio.log))
        return medium, radio

    @pytest.mark.parametrize("point", [
        "_set_state", "set_listening", "sleep", "flush_state_time",
        "carrier_busy", "Radio.transmit", "Medium.transmit"])
    def test_each_sync_point_syncs_before_it_reads(self, sim, point):
        medium, radio = self.planned(sim)
        radio.set_listening()
        radio.log.clear()
        {"_set_state": lambda: radio._set_state(RadioState.SLEEP),
         "set_listening": radio.set_listening,
         "sleep": radio.sleep,
         "flush_state_time": radio.flush_state_time,
         "carrier_busy": lambda: medium.carrier_busy(radio),
         "Radio.transmit": lambda: radio.transmit("x", 20),
         "Medium.transmit": lambda: medium.transmit(
             radio, Frame("x", 20, 26, 1)),
         }[point]()
        assert radio.log[0] == "sync"
        assert any(entry.startswith("read ") for entry in radio.log)

    def test_a_frame_ending_syncs_the_sender_and_each_receiver(self, sim):
        medium, radio = self.planned(sim)
        radio.set_listening()
        sender = Radio(medium, 2, (10, 0))
        got = []
        radio.on_receive = lambda frame, rssi: got.append(frame.payload)
        medium.transmit(sender, Frame("to the plan", 20, 26, 2))
        assert radio.log[-1] == "frame_started"
        radio.log.clear()
        sim.run()
        assert got == ["to the plan"]
        assert radio.log[0] == "sync"
        # Delivery's liveness test reads _listen_since, not state.
        assert ("read channel" in radio.log
                and "read _listen_since" in radio.log)
        # ... and the planned sender when its frame ends.
        medium.transmit(radio, Frame("from the plan", 20, 26, 1))
        radio.log.clear()
        sim.run()
        assert radio.log[0] == "sync" and "read state" in radio.log

    def test_public_sync_asks_the_plan_and_reads_nothing(self, sim):
        _, radio = self.planned(sim)
        radio.log.clear()
        radio.sync()
        assert radio.log == ["sync"]
        radio.set_listen_plan(None)
        radio.sync()
        assert radio.log == ["sync"]

    def test_frames_look_for_plans_only_while_the_medium_has_one(self, sim):
        """One ``_planned`` test per frame: with no plan registered,
        neither ``transmit`` nor ``_deliver`` visits a receiver's plan
        (a plan set behind the medium's back shows it)."""
        medium = make_medium(sim)
        sender = Radio(medium, 1, (0, 0))
        receiver = Radio(medium, 2, (10, 0))
        receiver.set_listening()
        log = []
        receiver.listen_plan = CountingPlan(log)
        assert medium._planned == 0
        sender.transmit("x", 20)
        sim.run()
        assert log == [] and receiver.frames_received == 1


# ----------------------------------------------------------------------
# the invariant behind delivery's one-compare liveness test
# ----------------------------------------------------------------------
RADIO_OPS = st.lists(st.one_of(
    st.sampled_from(["listen", "sleep", "transmit", "peer transmits",
                     "flush", "slept_until"]),
    st.tuples(st.just("listen_from"), st.floats(0.0, 1.0)),
    st.tuples(st.just("advance"), st.floats(0.0, 0.004)),
), max_size=40)


@given(ops=RADIO_OPS)
@settings(max_examples=150, deadline=None)
def test_a_radio_not_listening_has_listened_since_never(ops):
    """``state is not LISTEN`` implies ``_listen_since == inf``, and a
    listening radio has listened since some instant no later than now:
    what lets ``Medium._deliver`` test liveness with one compare."""
    sim = Simulator(seed=1)
    medium = make_medium(sim)
    radio = Radio(medium, 1, (0, 0))
    peer = Radio(medium, 2, (10, 0))
    peer.set_listening()
    for op in ops:
        if op == "listen":
            radio.set_listening()
        elif op == "sleep" and radio.state is not RadioState.TX:
            radio.sleep()
        elif op == "transmit" and radio.state is not RadioState.TX:
            radio.transmit("x", 20)
        elif op == "peer transmits" and peer.state is not RadioState.TX:
            peer.transmit("y", 20)
        elif op == "flush":
            radio.flush_state_time()
        elif op == "slept_until" and radio.state is RadioState.SLEEP:
            radio.slept_until(sim.now, 0.0)
        elif op[0] == "listen_from":
            # A plan makes real a window that began since the last change.
            since = radio._state_since
            radio.listen_from(since + op[1] * (sim.now - since))
        elif op[0] == "advance":
            # Frame ends (sender back to LISTEN, delivery) fire here.
            sim.run(until=sim.now + op[1])
        if radio.state is not RadioState.LISTEN:
            assert radio._listen_since == math.inf, op
        else:
            assert radio._listen_since <= sim.now, op
    sim.run()
    listening = radio.state is RadioState.LISTEN
    assert listening == (radio._listen_since < math.inf)
