"""The kick elision, as a differential.

``MacLayer._finish_job`` schedules the next ``_kick`` only when a job is
queued.  The argument that the kick it no longer schedules was a no-op:
``send`` kicks synchronously, and no MAC's ``_start_job`` ends its job
before it returns, so by the time a kick scheduled over an empty queue
fires, any job enqueued since is already in flight.  Here that argument
is checked, not trusted: hypothesis drives two nodes of each MAC through
the start/stop/send/advance interleavings of ``test_mac_lifecycle.py``
twice — once as they are, once as :func:`tests.conftest.eager_kick`
(every job end schedules a kick) — and the two runs must emit the same
trace stream, end with the same MAC stats and report the same outcomes,
the eager one processing exactly one event more per job that ended over
an empty queue.  The runs also assert the invariant itself.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.packet import BROADCAST
from repro.net.stack import _MAC_REGISTRY
from repro.radio.medium import Radio, RadioState
from repro.sim.kernel import Simulator
from tests.conftest import TraceRecorder, build_medium, eager_kick
from tests.net.test_mac_lifecycle import DRAIN_S, STEPS_S, WHO

SEND = st.tuples(st.just("send"), WHO, st.booleans())
#: Sends weighted up, so most runs queue behind a job in flight and
#: end jobs over empty and non-empty queues alike.
OPS = st.lists(st.one_of(
    st.tuples(st.just("start"), WHO),
    st.tuples(st.just("stop"), WHO),
    SEND, SEND, SEND,
    st.tuples(st.just("advance"), STEPS_S),
    st.tuples(st.just("advance_into_a_frame")),
), min_size=8, max_size=25)


def guarded(mac_cls):
    """``mac_cls`` that fails the test if a job ends inside the
    ``_start_job`` that started it — the invariant the elision rests on
    (LPL and RI-MAC re-enter ``_start_job`` for a retry; any job ending
    while any ``_start_job`` runs counts)."""

    class Guarded(mac_cls):
        _starting = 0

        def _start_job(self, job):
            self._starting += 1
            try:
                super()._start_job(job)
            finally:
                self._starting -= 1

        def _finish_job(self, job, success):
            assert not self._starting, (
                f"{mac_cls.__name__}._start_job ended a job before returning")
            super()._finish_job(job, success)

    return Guarded


def run(mac_cls, seed, ops):
    """Apply ``ops`` to two nodes of ``mac_cls``: the trace records of
    every log, the MACs, the per-send outcomes and the event count."""
    with TraceRecorder() as recorder:
        sim = Simulator(seed=seed)
        medium = build_medium(sim)
        macs = [mac_cls(Radio(medium, node, (10.0 * node, 0.0)))
                for node in (0, 1)]
        outcomes = []
        for op in ops:
            if op[0] == "start":
                macs[op[1]].start()
            elif op[0] == "stop":
                macs[op[1]].stop()
            elif op[0] == "send":
                who, broadcast = op[1], op[2]
                reported = []
                outcomes.append(reported)
                macs[who].send(BROADCAST if broadcast else 1 - who,
                               "payload", 20, done=reported.append)
            elif op[0] == "advance":
                sim.run(until=sim.now + op[1])
            else:
                deadline = sim.now + 3.0
                while (sim.now < deadline and sim.step()
                       and not any(mac.radio.state is RadioState.TX
                                   for mac in macs)):
                    pass
                sim.run(until=sim.now)
        sim.run(until=sim.now + DRAIN_S)
        logs = [medium.trace] + [mac.trace for mac in macs]
        streams = [[(r.time, r.category, r.node, r.data) for r in recorder(log)]
                   for log in logs]
    return streams, macs, outcomes, sim.events_processed


@pytest.mark.parametrize("mac", ["csma", "lpl", "rimac", "tsch"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.sampled_from([1, 7, 2018]), ops=OPS)
def test_elided_kicks_were_no_ops(mac, seed, ops):
    mac_cls, _ = _MAC_REGISTRY[mac]
    streams, macs, outcomes, events = run(guarded(mac_cls), seed, ops)
    ref_streams, ref_macs, ref_outcomes, ref_events = run(
        eager_kick(mac_cls), seed, ops)
    assert streams == ref_streams
    assert ([dataclasses.asdict(m.stats) for m in macs]
            == [dataclasses.asdict(m.stats) for m in ref_macs])
    assert outcomes == ref_outcomes
    elided = sum(m.empty_kicks for m in ref_macs)
    assert ref_events - events == elided
