"""CoAP exchange checker: clean on real exchanges, firing on duplicates."""

from repro.checking.coap import CoapExchangeChecker
from repro.core.scenario import Scenario
from repro.core.system import SystemConfig
from repro.deployment.topology import grid_topology
from repro.middleware.coap.client import CoapClient
from repro.middleware.coap.resource import CallbackResource
from repro.middleware.coap.server import CoapServer
from repro.middleware.coap.transport import CoapTransport
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog

from tests.conftest import build_line_network


def _attach():
    sim, trace = Simulator(seed=5), TraceLog()
    checker = CoapExchangeChecker().attach(sim, trace)
    return checker, sim, trace


class TestCoapCheckerClean:
    def test_real_request_response_cycle_is_clean(self):
        sim, trace, stacks = build_line_network(3, seed=31)
        sim.run(until=240.0)

        server = CoapServer(CoapTransport(stacks[0]))
        server.add_resource(CallbackResource(
            "/status", on_get=lambda: ("ok", 2)))
        client = CoapClient(CoapTransport(stacks[2]))

        checker = CoapExchangeChecker().attach(sim, trace)
        answers = []
        client.get(0, "/status", lambda r: answers.append(r))
        sim.run(until=sim.now + 120.0)

        assert answers and answers[0] is not None
        assert checker.exchanges_watched == 1
        assert checker.clean, [str(v) for v in checker.violations]

    def test_a_checked_system_feeds_its_coap_checker(self):
        # invariant_checking=True attaches the CoAP checker with the
        # rest of the default suite; a gateway read is then watched.
        system = Scenario(topology=grid_topology(side=3, spacing_m=20.0),
                          config=SystemConfig(invariant_checking=True),
                          formation_s=240.0).build(seed=42)
        device = system.nodes[8]
        CoapServer(CoapTransport(device.stack)).add_resource(
            CallbackResource("/status", on_get=lambda: ("ok", 2)))
        answers = []
        system.gateway.client.get(8, "/status", answers.append)
        system.run(30.0)
        assert answers and answers[0].payload == "ok"
        (checker,) = [c for c in system.checkers.checkers
                      if isinstance(c, CoapExchangeChecker)]
        assert checker.exchanges_watched == 1
        system.checkers.finish()
        system.checkers.assert_clean()


class TestCoapCheckerFiring:
    def test_duplicated_response_is_flagged(self):
        checker, _sim, trace = _attach()
        # A lying client stub delivering the same token's response twice.
        trace.emit(1.0, "coap.response", node=2, src=0, token=17)
        trace.emit(2.0, "coap.response", node=2, src=0, token=17)
        assert [v.invariant for v in checker.violations] == [
            "response_not_at_most_once"
        ]
        assert checker.violations[0].detail["deliveries"] == 2

    def test_distinct_tokens_and_nodes_do_not_collide(self):
        checker, _sim, trace = _attach()
        trace.emit(1.0, "coap.response", node=2, src=0, token=17)
        trace.emit(2.0, "coap.response", node=2, src=0, token=18)
        trace.emit(3.0, "coap.response", node=3, src=0, token=17)
        assert checker.clean
        assert checker.exchanges_watched == 3

    def test_retransmit_overrun_is_flagged(self):
        checker, _sim, trace = _attach()
        trace.emit(1.0, "coap.retransmit", node=2, dest=0,
                   retries=4, max_retransmit=4)
        trace.emit(2.0, "coap.retransmit", node=2, dest=0,
                   retries=5, max_retransmit=4)
        assert [v.invariant for v in checker.violations] == [
            "retransmit_limit_exceeded"
        ]
        assert checker.violations[0].detail["retries"] == 5

    def test_records_without_their_fields_are_ignored(self):
        checker, _sim, trace = _attach()
        trace.emit(1.0, "coap.response", node=2, src=0)
        trace.emit(2.0, "coap.response", node=2, src=0)
        trace.emit(3.0, "coap.retransmit", node=2, dest=0, retries=9)
        assert checker.clean
        assert checker.exchanges_watched == 0
