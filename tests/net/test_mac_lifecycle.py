"""Model-based lifecycle test of the MAC contract.

``test_mac_conformance.py`` checks the contract on scenarios somebody
thought of; the bug it was written after (a MAC stopped mid-exchange
never transmitted again) lived in an interleaving nobody had.  Here
hypothesis drives two nodes of each MAC through arbitrary sequences of
``start``, ``stop``, ``send`` and ``advance`` — time steps chosen to land
inside a backoff, an ACK wait, a strobe and past a whole exchange, plus
"until a radio transmits" — and after every step checks what
:class:`~repro.net.mac.base.MacLayer` promises whatever the subclass
does:

- ``enqueued == tx_success + tx_failed + queued + in_flight``;
- a stopped MAC has no job in flight, an empty queue, no armed timer and
  a radio that sleeps (or is still sending the frame the stop found on
  the air);
- no ``done`` callback fires twice, and a refused ``send`` reported
  ``done(False)`` before it returned;
- left alone, every accepted send ends exactly once (TSCH's own 6P
  frames share its queue and its backoff spans many slotframes, so
  there only "at most once" is checked in bounded time).
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.net.packet import BROADCAST
from repro.net.stack import _MAC_REGISTRY
from repro.radio.medium import Radio, RadioState
from repro.sim.kernel import Simulator
from tests.conftest import build_medium
from tests.net.test_mac_conformance import accounting_holds

WHO = st.sampled_from([0, 1])
#: Inside a CSMA backoff / past a frame and its ACK wait / past an LPL
#: hold or a TSCH slot / past a wake interval / past a whole exchange.
STEPS_S = st.sampled_from([0.0005, 0.003, 0.05, 0.7, 3.0])
#: Long enough for a full queue of unicasts to a dead peer to fail.
DRAIN_S = 60.0


class MacLifecycle(RuleBasedStateMachine):
    mac_name = ""

    def __init__(self):
        super().__init__()
        self.sim = Simulator(seed=7)
        medium = build_medium(self.sim)
        mac_cls, _ = _MAC_REGISTRY[self.mac_name]
        self.macs = [mac_cls(Radio(medium, node, (10.0 * node, 0.0)))
                     for node in (0, 1)]
        #: Per send, the outcomes its ``done`` reported.
        self.outcomes = []
        self.accepted = []

    @rule(who=WHO)
    def start(self, who):
        self.macs[who].start()

    @rule(who=WHO)
    def stop(self, who):
        self.macs[who].stop()

    @rule(who=WHO, broadcast=st.booleans())
    def send(self, who, broadcast):
        reported = []
        self.outcomes.append(reported)
        dest = BROADCAST if broadcast else 1 - who
        if self.macs[who].send(dest, "payload", 20, done=reported.append):
            self.accepted.append(reported)
        else:
            assert reported == [False], "a refusal is reported synchronously"

    @rule(dt=STEPS_S)
    def advance(self, dt):
        self.sim.run(until=self.sim.now + dt)

    @rule()
    def advance_into_a_frame(self):
        """To the first instant a radio transmits, if one does soon: the
        fixed steps above land inside a ~1 ms frame too rarely."""
        deadline = self.sim.now + 3.0
        while (self.sim.now < deadline and self.sim.step()
               and not any(mac.radio.state is RadioState.TX
                           for mac in self.macs)):
            pass
        self.sim.run(until=self.sim.now)  # the rest of that instant

    @invariant()
    def contract_holds(self):
        for mac in self.macs:
            assert accounting_holds(mac)
            if not mac.running:
                assert mac._in_flight is None and mac.queue_length == 0
                assert not any(timer.armed for timer in mac._timers)
                assert mac.radio.state in (RadioState.SLEEP, RadioState.TX)
        assert all(len(reported) <= 1 for reported in self.outcomes)

    def teardown(self):
        self.sim.run(until=self.sim.now + DRAIN_S)
        self.contract_holds()
        if self.mac_name != "tsch":
            assert all(len(reported) == 1 for reported in self.accepted)


def _case(mac):
    machine = type(f"{mac.title()}Lifecycle", (MacLifecycle,),
                   {"mac_name": mac})
    machine.TestCase.settings = settings(
        max_examples=60, stateful_step_count=25, deadline=None,
        derandomize=True)
    return machine.TestCase


TestCsmaLifecycle = _case("csma")
TestLplLifecycle = _case("lpl")
TestRimacLifecycle = _case("rimac")
TestTschLifecycle = _case("tsch")
