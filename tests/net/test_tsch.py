"""TSCH scheduled-MAC behaviour: slot engine, 6P negotiation, MSF."""

import pytest

from repro.net.mac import base, sixp, tsch
from repro.net.mac.base import MacConfigError
from repro.net.mac.schedule import Cell, SlotConflictError, TschSchedule
from repro.net.mac.sixp import SixpMessage
from repro.net.mac.tsch import MINIMAL_SLOT, TschConfig, TschMac
from repro.net.packet import BROADCAST
from repro.radio.medium import Medium, Radio, RadioState
from repro.radio.propagation import UnitDiskModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog
from tests.conftest import reserved_slots


def make_pair(sim, distance=10.0, config=None):
    medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
    a = TschMac(Radio(medium, 1, (0, 0)), config=config)
    b = TschMac(Radio(medium, 2, (distance, 0)), config=config)
    a.start()
    b.start()
    return medium, a, b


class TestConfig:
    def test_defaults_validate(self):
        TschConfig()

    def test_invalid_config_rejected(self, sim):
        # The one settable field; the constants' own consistency is
        # tests/core/test_protocol_constants.py.
        medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
        with pytest.raises(MacConfigError):
            TschMac(Radio(medium, 1, (0, 0)),
                    config=TschConfig(slotframe_slots=1))


class TestSchedule:
    def test_minimal_cell_installed_at_slot_zero(self, sim):
        _, a, _ = make_pair(sim)
        cell = a.schedule.get(MINIMAL_SLOT)
        assert cell is not None and cell.shared and cell.tx and cell.rx
        assert cell.neighbor == BROADCAST

    def test_double_booking_a_slot_raises(self):
        schedule = TschSchedule(11)
        schedule.add(Cell(3, 1, neighbor=9, tx=True))
        with pytest.raises(SlotConflictError):
            schedule.add(Cell(3, 2, neighbor=8, rx=True))

    def test_reservation_blocks_add_until_released(self):
        schedule = TschSchedule(11)
        schedule.reserve(4, txn=7)
        with pytest.raises(SlotConflictError):
            schedule.add(Cell(4, 0, neighbor=1, tx=True))
        assert 4 not in schedule.free_slots()
        schedule.release(4, txn=7)
        schedule.add(Cell(4, 0, neighbor=1, tx=True))


class TestUnicast:
    def test_delivery_with_ack(self, sim):
        # Snapshot counters inside the completion callback: the demand
        # bootstrap enqueues 6P traffic right behind the data frame, so
        # end-of-run totals include negotiation frames too.
        _, a, b = make_pair(sim)
        got, snap = [], []
        b.on_receive = lambda frame: got.append(frame.payload)
        a.send(2, "hi", 20, done=lambda ok: snap.append(
            (ok, a.stats.tx_success, b.stats.acks_sent)))
        sim.run(until=5.0)
        assert got == ["hi"]
        assert snap == [(True, 1, 1)]

    def test_unreachable_destination_fails_after_retries(self, sim):
        _, a, b = make_pair(sim, distance=100.0)
        snap = []
        a.send(2, "hi", 20, done=lambda ok: snap.append(
            (ok, a.stats.tx_attempts)))
        # One attempt per shared-cell occurrence with backoff between;
        # give it many slotframes.  Attempts are snapshotted at job
        # completion, before any queued 6P retries run.
        sim.run(until=200.0)
        assert snap == [(False, 1 + tsch.MAX_RETRIES)]

    def test_queue_serializes_jobs(self, sim):
        _, a, b = make_pair(sim)
        got = []
        b.on_receive = lambda frame: got.append(frame.payload)
        for i in range(5):
            a.send(2, f"m{i}", 20)
        sim.run(until=30.0)
        assert got == [f"m{i}" for i in range(5)]

    def test_queue_overflow_fails_fast(self, sim, monkeypatch):
        monkeypatch.setattr(base, "MAX_QUEUE", 2)
        _, a, _ = make_pair(sim)
        outcomes = []
        # One job goes in flight immediately, two queue, the rest drop.
        for i in range(5):
            a.send(2, f"m{i}", 20, done=outcomes.append)
        assert outcomes == [False, False]
        assert a.stats.queue_drops == 2

    def test_stop_fails_pending_jobs(self, sim):
        _, a, _ = make_pair(sim)
        outcomes = []
        for i in range(3):
            a.send(2, f"m{i}", 20, done=outcomes.append)
        a.stop()
        sim.run(until=1.0)
        # All three jobs terminate, none succeed: the in-flight job is
        # failed by _on_stop, the queued ones by the base drain.
        assert outcomes == [False, False, False]


class TestBroadcast:
    def test_broadcast_reaches_neighbors_via_shared_cell(self, sim):
        medium = Medium(sim, UnitDiskModel(radius_m=25.0), TraceLog())
        macs = [TschMac(Radio(medium, i, (i * 10.0, 0.0)))
                for i in range(3)]
        for mac in macs:
            mac.start()
        got = {i: [] for i in range(3)}
        for i, mac in enumerate(macs):
            mac.on_receive = (lambda idx: lambda f: got[idx].append(f.payload))(i)
        outcome = []
        macs[1].send(BROADCAST, "dio", 30, done=outcome.append)
        sim.run(until=5.0)
        assert outcome == [True]
        assert got[0] == ["dio"] and got[2] == ["dio"]
        # Broadcasts ride the shared minimal cell only.
        assert macs[1].tsch_stats.shared_tx == 1
        assert macs[1].tsch_stats.dedicated_tx == 0


class TestDutyCycle:
    def test_idle_node_sleeps_between_slots(self, sim):
        _, a, b = make_pair(sim)
        sim.run(until=120.0)
        # One listening slot (the shared minimal cell) per slotframe:
        # ~1% plus slot-end holds; far below an always-on MAC.
        assert 0.0 < a.duty_cycle() < 0.05
        assert a.radio.state is RadioState.SLEEP


class TestMsfNegotiation:
    def test_sustained_unicast_earns_a_dedicated_cell(self, sim):
        _, a, b = make_pair(sim)
        for k in range(20):
            sim.schedule(2.0 * k, (lambda kk: lambda: a.send(2, f"m{kk}", 20))(k))
        sim.run(until=120.0)
        tx_cells = a.schedule.tx_cells_to(2)
        assert tx_cells, "demand through the shared cell should add a cell"
        # Two-step negotiation: the peer listens on the same cell.
        for cell in tx_cells:
            assert any(r.slot == cell.slot and r.channel_offset ==
                       cell.channel_offset
                       for r in b.schedule.rx_cells_from(1))
        assert a.tsch_stats.dedicated_tx > 0

    def test_idle_cells_are_deleted_again(self, sim, monkeypatch):
        # Saturate one cell's capacity (~1 frame/slotframe) so MSF
        # utilization pins at 1.0 and the schedule grows past one cell.
        # 6P rides the normal queue, so give it room behind the backlog
        # and a timeout longer than the head-of-line wait.
        monkeypatch.setattr(tsch, "MSF_EVAL_CELLS", 4)
        monkeypatch.setattr(sixp, "SIXP_TIMEOUT_S", 30.0)
        monkeypatch.setattr(base, "MAX_QUEUE", 200)
        _, a, b = make_pair(sim)
        for k in range(120):
            sim.schedule(0.5 * k, (lambda kk: lambda: a.send(2, f"m{kk}", 20))(k))
        sim.run(until=45.0)
        assert len(a.schedule.tx_cells_to(2)) >= 2
        sim.run(until=400.0)        # traffic stops; utilization decays
        # MSF deletes idle cells but keeps the link provisioned with one.
        assert len(a.schedule.tx_cells_to(2)) == 1
        assert a.tsch_stats.cells_deleted > 0

    def test_no_orphaned_reservations_after_quiesce(self, sim):
        _, a, b = make_pair(sim)
        for k in range(10):
            sim.schedule(2.0 * k, (lambda kk: lambda: a.send(2, f"m{kk}", 20))(k))
        sim.run(until=200.0)
        assert a.sixp.inflight_count() == 0
        assert b.sixp.inflight_count() == 0
        assert reserved_slots(a.schedule) == []
        assert reserved_slots(b.schedule) == []


class TestDeterminism:
    @staticmethod
    def _run(seed):
        simulator = Simulator(seed=seed)
        medium = Medium(simulator, UnitDiskModel(radius_m=25.0), TraceLog())
        a = TschMac(Radio(medium, 1, (0, 0)))
        b = TschMac(Radio(medium, 2, (10.0, 0)))
        a.start()
        b.start()
        for k in range(10):
            simulator.schedule(
                2.0 * k, (lambda kk: lambda: a.send(2, f"m{kk}", 20))(k))
        simulator.run(until=150.0)
        return [(c.slot, c.channel_offset, c.neighbor, c.tx, c.rx, c.shared)
                for c in a.schedule.cells()]

    def test_schedules_are_seed_deterministic(self):
        assert self._run(42) == self._run(42)

    def test_different_seeds_negotiate_different_cells(self):
        # Candidate slots come from the node's seeded substream; two
        # seeds agreeing on the whole schedule would mean the RNG is
        # not actually consulted.
        assert self._run(42) != self._run(43)


class TestChannelHopping:
    def test_cell_frequency_follows_the_hop_sequence(self, sim):
        _, a, _ = make_pair(sim)
        cell = a.schedule.get(MINIMAL_SLOT)
        seq = tsch.HOPPING
        assert a._channel_for(cell, 0) == seq[0]
        assert a._channel_for(cell, 1) == seq[1]
        assert (a._channel_for(cell, len(seq) + 3) == seq[3])

    def test_different_offsets_map_to_different_channels(self, sim):
        _, a, _ = make_pair(sim)
        asn = 17
        channels = {a._channel_for(Cell(1, off, 2, tx=True), asn)
                    for off in range(4)}
        assert len(channels) == 4
