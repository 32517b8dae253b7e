"""The stack's datagram counters are read, not pushed.

``net.sent`` / ``net.delivered`` / ``net.forwarded`` / ``net.dropped``
are the :class:`StackStats` a stack keeps: the stack registers one
reader for them with the shared trace log, and the registry reads it at
each snapshot.  So the totals equal the stats by construction, a series
appears on its first occurrence, and a bundle attached mid-run reads
the counts from the start.  The latency histogram is still pushed, one
series per destination port.
"""

from repro.obs import Observability
from tests.conftest import build_line_network


def run_traffic(stacks, sim, count=5):
    for i in range(count):
        stacks[-1].send_datagram(0, 7, payload=f"m{i}", payload_bytes=20)
    sim.run(until=sim.now + 120.0)


class TestStackReaders:
    def test_counters_match_stack_stats(self):
        sim, trace, stacks = build_line_network(4)
        obs = Observability().attach(trace)
        sim.run(until=60.0)
        stacks[-1].bind(7, lambda *a: None)
        stacks[0].bind(7, lambda *a: None)
        run_traffic(stacks, sim)
        snapshot = obs.registry.snapshot()
        assert snapshot.counter_total("net.sent") == sum(
            s.stats.datagrams_sent for s in stacks)
        assert snapshot.counter_total("net.delivered") == sum(
            s.stats.datagrams_delivered for s in stacks)
        assert snapshot.counter_total("net.forwarded") == sum(
            s.stats.datagrams_forwarded for s in stacks)
        assert snapshot.counter_total("net.delivered") > 0
        assert snapshot.counter_total("net.forwarded") > 0
        assert len(snapshot.histogram_values("net.latency_s")) == \
            snapshot.counter_total("net.delivered")

    def test_latency_series_labeled_by_port_only(self):
        """The latency histogram key is (port,) — no node label.

        Cross-node percentiles aggregate one series per destination
        port; accidentally adding a node label would shatter them and
        shift every exported snapshot.
        """
        sim, trace, stacks = build_line_network(3)
        obs = Observability().attach(trace)
        sim.run(until=60.0)
        stacks[0].bind(7, lambda *a: None)
        run_traffic(stacks, sim)
        snapshot = obs.registry.snapshot()
        latency_keys = [key for key in snapshot.histograms
                        if key[0] == "net.latency_s"]
        # One series per destination port (app traffic on 7, RPL
        # control on 0) — and nothing but a port label on any of them.
        assert ("net.latency_s", (("port", 7),)) in latency_keys
        for _, labels in latency_keys:
            assert [name for name, _ in labels] == ["port"]

    def test_bundle_attached_mid_run_reads_cumulative_counts(self):
        sim, trace, stacks = build_line_network(3)
        first = Observability().attach(trace)
        sim.run(until=60.0)
        stacks[0].bind(7, lambda *a: None)
        run_traffic(stacks, sim, count=3)
        latencies_before = len(first.registry.snapshot().histogram_values(
            "net.latency_s"))
        # A brand-new bundle on the same trace, mid-run: the counts
        # belong to the stacks, so it reads them from the start of the
        # run, and so does the first bundle, which still reads the same
        # owners.  What is pushed (latencies) goes to the attached one.
        second = Observability().attach(trace)
        run_traffic(stacks, sim, count=4)
        sent = sum(s.stats.datagrams_sent for s in stacks)
        assert second.registry.snapshot().counter_total("net.sent") == sent
        assert first.registry.snapshot().counter_total("net.sent") == sent
        assert len(first.registry.snapshot().histogram_values(
            "net.latency_s")) == latencies_before
        assert len(second.registry.snapshot().histogram_values(
            "net.latency_s")) >= 4

    def test_drop_reasons_counted(self):
        sim, trace, stacks = build_line_network(3)
        obs = Observability().attach(trace)
        sim.run(until=60.0)
        # No route yet at a node that never joined anything: send from
        # a stack to an unknown destination.
        stacks[1].send_datagram(99, 7, payload="x", payload_bytes=10)
        sim.run(until=sim.now + 30.0)
        dropped = sum(s.stats.datagrams_dropped_no_route for s in stacks)
        assert obs.registry.snapshot().counter_total("net.dropped") == dropped
        assert dropped > 0
