"""The stack's per-datagram instrument cache.

Datagram counters (``net.sent`` / ``net.delivered`` / ``net.dropped``
/ ``net.forwarded``) and the latency histogram are resolved through a
registry-identity-keyed slot cache instead of a dict lookup per event —
the same pattern the MAC uses in ``_finish_job``.  The cache must be
invisible: totals identical to :class:`StackStats`, and a swapped
registry (a fresh :class:`Observability` on the same trace) must start
receiving counts immediately.
"""

from repro.obs import Observability
from tests.conftest import build_line_network


def run_traffic(stacks, sim, count=5):
    for i in range(count):
        stacks[-1].send_datagram(0, 7, payload=f"m{i}", payload_bytes=20)
    sim.run(until=sim.now + 120.0)


class TestInstrumentCache:
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

    def test_registry_swap_refreshes_cache(self):
        sim, trace, stacks = build_line_network(3)
        first = Observability().attach(trace)
        sim.run(until=60.0)
        stacks[0].bind(7, lambda *a: None)
        run_traffic(stacks, sim, count=3)
        sent_before = first.registry.snapshot().counter_total("net.sent")
        assert sent_before > 0
        # Mid-run re-instrumentation: a brand-new bundle on the same
        # trace.  The stacks' cached slots are keyed by registry
        # identity and must fall over to the new one on first use.
        second = Observability().attach(trace)
        stats_before = sum(s.stats.datagrams_sent for s in stacks)
        run_traffic(stacks, sim, count=4)
        stats_delta = sum(s.stats.datagrams_sent for s in stacks) - stats_before
        assert first.registry.snapshot().counter_total("net.sent") == sent_before
        assert second.registry.snapshot().counter_total("net.sent") == stats_delta
        assert stats_delta >= 4

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
