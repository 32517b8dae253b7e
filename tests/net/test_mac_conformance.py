"""Cross-MAC conformance matrix: one contract, four channel-access
disciplines.

Every MAC behind :class:`~repro.net.mac.base.MacLayer` — always-on CSMA,
LPL strobing, receiver-initiated beacons, and the TSCH slotframe — must
honor the same observable contract, so the taxonomy and dependability
harnesses can swap MACs without touching a checker:

- every enqueued frame ends in **exactly one** terminal outcome, and
  the queue accounting identity holds at any instant — including
  across a ``stop()`` that lands mid-exchange, after which a restarted
  MAC transmits again;
- the registry's ``mac.tx`` counters reconcile with per-node
  :class:`MacStats` exactly;
- delivered traffic nests ``mac.job -> radio.airtime`` spans with the
  ``service_start`` waypoint, so ``repro explain`` waterfalls render
  identically across MACs;
- metric snapshots are byte-identical between jobs=1 and jobs=N sweeps.
"""

import pytest

from repro.net.stack import _MAC_REGISTRY
from repro.obs import Observability
from repro.obs.registry import MetricsSnapshot
from repro.parallel import TrialExecutor
from repro.radio.medium import Radio, RadioState
from repro.sim.kernel import Simulator
from tests.conftest import build_line_network, build_medium

MACS = ["csma", "lpl", "rimac", "tsch"]
SEEDS = [11, 12, 13]


def _snapshot_trial(mac, seed):
    """One instrumented scenario: converge a 3-node line on ``mac``,
    push one application datagram end to end, snapshot the registry.

    Module-level so process pools can move it through pickle.
    """
    sim, log, stacks = build_line_network(3, mac=mac, seed=seed)
    obs = Observability().attach(log)
    sim.run(until=300.0)
    stacks[-1].send_datagram(0, 7, payload="reading", payload_bytes=20)
    sim.run(until=sim.now + 60.0)
    return obs.registry.snapshot()


def accounting_holds(mac):
    """Whatever entered the queue is either finished (one way), still
    queued, or the in-flight job."""
    stats = mac.stats
    in_flight = 0 if mac._in_flight is None else 1
    return stats.enqueued == (stats.tx_success + stats.tx_failed
                              + mac.queue_length + in_flight)


def mac_tx_by_outcome(snapshot, node):
    """(ok, failed) totals of the ``mac.tx`` counter for one node."""
    ok = failed = 0.0
    for (name, labels), value in snapshot.counters.items():
        if name != "mac.tx":
            continue
        labels = dict(labels)
        if labels.get("node") != node:
            continue
        if labels.get("ok"):
            ok += value
        else:
            failed += value
    return ok, failed


@pytest.mark.parametrize("mac", MACS)
class TestTerminalOutcomes:
    def test_every_dequeued_frame_ends_in_exactly_one_outcome(self, mac):
        sim, log, stacks = build_line_network(3, mac=mac, seed=5)
        sim.run(until=300.0)
        outcomes = []
        probes = [(0, 1), (1, 0), (1, 2), (2, 1),
                  (0, 2)]  # 40 m apart: out of range, must fail not hang
        for i, (src, dst) in enumerate(probes):
            stacks[src].mac.send(
                dst, f"probe{i}", 20,
                done=(lambda idx: lambda ok: outcomes.append((idx, ok)))(i))
        sim.run(until=sim.now + 600.0)
        fired = sorted(idx for idx, _ in outcomes)
        assert fired == list(range(len(probes))), \
            "each probe's done callback fires exactly once"
        assert dict(outcomes)[4] is False  # the unreachable probe
        for stack in stacks:
            assert accounting_holds(stack.mac)

    def test_registry_tx_counters_reconcile_with_mac_stats(self, mac):
        sim, log, stacks = build_line_network(3, mac=mac, seed=7)
        obs = Observability().attach(log)
        sim.run(until=300.0)
        stacks[-1].send_datagram(0, 7, payload="reading", payload_bytes=20)
        sim.run(until=sim.now + 60.0)
        snapshot = obs.registry.snapshot()
        assert snapshot.counter_total("mac.tx") > 0
        for stack in stacks:
            ok, failed = mac_tx_by_outcome(snapshot, stack.node_id)
            assert ok == stack.mac.stats.tx_success
            assert failed == stack.mac.stats.tx_failed


#: When ``stop()`` lands, per MAC, so that the head-of-line unicast is
#: mid-exchange: CSMA inside its ACK wait (the data frame ends at
#: ~2.6 ms), LPL mid-strobe, RI-MAC waiting for a beacon, TSCH with the
#: job armed for a later slot.
STOP_AT_S = {"csma": 0.003, "lpl": 0.2, "rimac": 0.2, "tsch": 0.2}


@pytest.mark.parametrize("mac", MACS)
class TestStopMidExchange:
    def test_jobs_end_once_and_restart_delivers(self, mac):
        sim = Simulator(seed=3)
        medium = build_medium(sim)
        mac_cls, _ = _MAC_REGISTRY[mac]
        obs = Observability().attach(medium.trace)
        sender = mac_cls(sim, Radio(medium, 0, (0.0, 0.0)), trace=medium.trace)
        peer = mac_cls(sim, Radio(medium, 1, (10.0, 0.0)), trace=medium.trace)
        sender.start()  # the peer is down: nothing can be acknowledged
        outcomes = []

        def send(tag):
            sender.send(1, tag, 20, done=lambda ok: outcomes.append((tag, ok)))

        for tag in ("in-flight", "queued-1", "queued-2"):
            send(tag)
        stop_at = STOP_AT_S[mac]
        at_stop = {}

        def stop():
            at_stop["in_flight"] = sender._in_flight
            at_stop["queued"] = sender.queue_length
            sender.stop()
            at_stop["outcomes"] = list(outcomes)
            at_stop["accounting"] = accounting_holds(sender)

        sim.schedule_at(stop_at, stop)
        sim.schedule_at(stop_at + 1.0, sender.start)
        sim.schedule_at(stop_at + 1.0, peer.start)
        sim.schedule_at(stop_at + 2.0, lambda: send("after-restart"))
        sim.run(until=60.0)

        # The stop really landed mid-exchange with a backlog behind it,
        assert at_stop["in_flight"] is not None and at_stop["queued"] == 2
        # ended all three jobs there and then, in order, as failures,
        assert at_stop["outcomes"] == [
            ("in-flight", False), ("queued-1", False), ("queued-2", False)]
        assert at_stop["accounting"]
        # and nothing stale ended any of them a second time later.
        assert outcomes == at_stop["outcomes"] + [("after-restart", True)]
        assert accounting_holds(sender)
        assert sender._in_flight is None and sender.queue_length == 0
        # Jobs failed by the stop count as failures (TSCH's own 6P
        # frames ride the same queue, hence no exact totals), and the
        # registry saw the same terminal outcomes the stats did.
        stats = sender.stats
        assert stats.tx_success >= 1 and stats.tx_failed >= 3
        assert mac_tx_by_outcome(obs.registry.snapshot(), 0) == (
            stats.tx_success, stats.tx_failed)
        assert peer.stats.rx_delivered >= 1

    def _stopped_mid_frame(self, mac):
        """A sender ``stop()``ped at the first instant its radio
        transmits a unicast (both ends up), and its simulator."""
        sim = Simulator(seed=3)
        medium = build_medium(sim)
        mac_cls, _ = _MAC_REGISTRY[mac]
        sender = mac_cls(sim, Radio(medium, 0, (0.0, 0.0)))
        peer = mac_cls(sim, Radio(medium, 1, (10.0, 0.0)))
        sender.start()
        peer.start()
        sender.send(1, "unicast", 20)
        while sender.radio.state is not RadioState.TX:
            assert sim.step(), "the sender never transmitted"
        sender.stop()
        assert sender.radio.state is RadioState.TX  # frames are not cut short
        return sim, sender

    @staticmethod
    def _run_to_frame_end(sim, radio):
        while radio.state is RadioState.TX:
            sim.step()
        sim.run(until=sim.now)  # whatever else is due at that instant

    def test_stop_mid_frame_sleeps_the_radio_when_the_frame_ends(self, mac):
        """The medium returns a transmitting radio to LISTEN when the
        frame ends; a MAC stopped mid-frame must still turn it off."""
        sim, sender = self._stopped_mid_frame(mac)
        radio = sender.radio
        self._run_to_frame_end(sim, radio)
        assert radio.state is RadioState.SLEEP
        assert not any(timer.armed for timer in sender._timers)
        listened = radio.flush_state_time()[RadioState.LISTEN]
        sim.run(until=sim.now + 100.0)
        assert radio.state is RadioState.SLEEP
        assert radio.flush_state_time()[RadioState.LISTEN] == listened

    def test_restart_before_the_frame_ends_keeps_the_radio_on(self, mac):
        """The deferred sleep belongs to the stop: it must not turn off
        the radio of a MAC that is running again by then."""
        sim, sender = self._stopped_mid_frame(mac)
        sender.start()
        self._run_to_frame_end(sim, sender.radio)
        assert sender.radio.state is RadioState.LISTEN


@pytest.mark.parametrize("mac", MACS)
class TestSpanNesting:
    def test_jobs_nest_airtime_and_carry_service_start(self, mac):
        sim, log, stacks = build_line_network(3, mac=mac, seed=9)
        obs = Observability().attach(log)
        sim.run(until=300.0)
        stacks[-1].send_datagram(0, 7, payload="reading", payload_bytes=20)
        sim.run(until=sim.now + 60.0)
        spans = obs.spans.spans
        jobs = [s for s in spans.values() if s.category == "mac.job"]
        assert jobs, "instrumented traffic must produce mac.job spans"
        children = {}
        for span in spans.values():
            children.setdefault(span.parent_id, []).append(span)
        for job in jobs:
            # The queue/access split waypoint every MAC annotates at
            # dequeue -- the `repro explain` waterfall contract.
            assert "service_start" in job.data
            assert job.data["service_start"] >= job.start
            if job.end is not None and job.data.get("ok"):
                categories = [c.category for c in children.get(
                    job.span_id, [])]
                assert "radio.airtime" in categories


@pytest.mark.parametrize("mac", MACS)
@pytest.mark.usefixtures("multicore")
class TestParallelSnapshots:
    def test_jobs1_and_jobs2_merge_byte_identically(self, mac):
        tasks = [(mac, seed) for seed in SEEDS]
        serial = MetricsSnapshot.merge(
            TrialExecutor(jobs=1).map(_snapshot_trial, tasks))
        parallel = MetricsSnapshot.merge(
            TrialExecutor(jobs=2).map(_snapshot_trial, tasks))
        assert serial == parallel
        assert serial.rows() == parallel.rows()
