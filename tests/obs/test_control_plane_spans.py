"""Acceptance: control-plane decisions reconstruct as span trees.

A parent switch must show the routing decision *and* the repair DAO's
journey through the stack as one tree; an RNFD root-failure verdict
must show suspicion -> verdict with the gossip broadcasts it triggered
nested beneath it.  Counters and gauges cross-check the trees against
the protocol state the stacks actually reached.
"""

from repro.net.rpl.dodag import RplState
from repro.net.rpl.rnfd import RnfdConfig, RootState
from repro.net.stack import StackConfig
from repro.obs import Observability
from tests.conftest import build_grid_network, build_line_network


def instrumented_line(n=3, seed=77, config=None):
    """A line network with the observability bundle attached *before*
    any event runs, so formation itself is traced."""
    sim, log, stacks = build_line_network(n, seed=seed, config=config)
    obs = Observability().attach(log)
    return sim, obs, stacks


def trees_of(obs, category):
    tracer = obs.spans
    return [tree for tree in map(tracer.tree, tracer.trace_ids())
            if tree.span.category == category]


class TestParentSwitchSpans:
    def test_every_join_opens_a_parent_switch_span(self):
        sim, obs, stacks = instrumented_line(3)
        sim.run(until=300.0)
        trees = trees_of(obs, "rpl.parent_switch")
        # Both non-root nodes joined; each join is a None -> parent switch.
        switching_nodes = {tree.span.node for tree in trees}
        assert {1, 2} <= switching_nodes
        for tree in trees:
            assert "new" in tree.span.data and "rank" in tree.span.data

    def test_repair_dao_journey_nests_under_the_switch(self):
        sim, obs, stacks = instrumented_line(3)
        sim.run(until=300.0)
        closed = [tree for tree in trees_of(obs, "rpl.parent_switch")
                  if tree.span.data.get("dao_seq") is not None]
        assert closed, "no switch span closed by its repair DAO"
        # At least one switch's DAO datagram made it to the MAC/radio.
        categories = set()
        for tree in closed:
            categories |= {n.span.category for n in tree.walk()}
        assert "net.datagram" in categories
        assert "mac.job" in categories
        layers = {c.split(".")[0] for c in categories}
        assert {"rpl", "net", "mac"} <= layers

    def test_rank_and_parent_gauges_match_stack_state(self):
        sim, obs, stacks = instrumented_line(3)
        sim.run(until=300.0)
        registry = obs.registry
        for stack in stacks[1:]:
            assert stack.rpl.state is RplState.JOINED
            node = (("node", stack.node_id),)
            assert registry.gauges[("rpl.rank", node)] == stack.rpl.rank
            assert registry.gauges[("rpl.parent", node)] \
                == stack.rpl.preferred_parent

    def test_dio_dao_and_trickle_counters_populate(self):
        sim, obs, stacks = instrumented_line(3)
        sim.run(until=600.0)
        registry = obs.registry
        total = registry.snapshot().counter_total
        assert total("rpl.dio") > 0
        assert total("rpl.dao") > 0
        assert total("rpl.parent_change") >= 2
        # Every trickle firing either transmitted or suppressed.
        assert total("rpl.trickle.tx") == total("rpl.dio")
        assert total("rpl.trickle.reset") > 0
        # The interval gauge records the current doubled interval.
        assert registry.gauges[("rpl.trickle.interval_s", (("node", 0),))] > 0

    def test_same_seed_reproduces_identical_control_plane_spans(self):
        def fingerprint():
            sim, obs, stacks = instrumented_line(3, seed=91)
            sim.run(until=400.0)
            return [
                (s.span_id, s.trace_id, s.parent_id, s.category, s.node,
                 s.start, s.end, sorted(map(str, s.data.items())))
                for s in obs.spans.spans.values()
            ]

        first, second = fingerprint(), fingerprint()
        assert first == second
        assert len(first) > 10

    def test_observability_does_not_perturb_the_simulation(self):
        def events(attach):
            sim, log, stacks = build_line_network(3, seed=77)
            if attach:
                Observability().attach(log)
            sim.run(until=600.0)
            return sim.events_processed

        assert events(False) == events(True)


def rnfd_grid(side=3, seed=20):
    config = StackConfig(mac="csma", rnfd_enabled=True, rnfd=RnfdConfig())
    sim, log, stacks = build_grid_network(side, config=config, seed=seed)
    obs = Observability().attach(log)
    return sim, obs, stacks


class TestRnfdVerdictSpans:
    def kill_root(self, side=3, seed=20, settle_s=300.0, after_s=300.0):
        sim, obs, stacks = rnfd_grid(side, seed)
        sim.run(until=settle_s)
        stacks[0].fail()
        sim.run(until=settle_s + after_s)
        return sim, obs, stacks

    def test_verdict_spans_cover_every_surviving_node(self):
        sim, obs, stacks = self.kill_root()
        trees = trees_of(obs, "rnfd.verdict")
        verdict_nodes = {tree.span.node for tree in trees
                         if tree.span.data.get("verdict") == "globally_down"}
        expected = {s.node_id for s in stacks[1:]}
        assert verdict_nodes == expected
        for stack in stacks[1:]:
            assert stack.rnfd.root_state is RootState.GLOBALLY_DOWN

    def test_sentinel_spans_measure_detection_latency(self):
        sim, obs, stacks = self.kill_root()
        sentinels = [tree for tree in trees_of(obs, "rnfd.verdict")
                     if tree.span.data.get("role") == "sentinel"]
        assert sentinels
        for tree in sentinels:
            span = tree.span
            assert span.end is not None and span.end > span.start
            assert span.data["verdict"] == "globally_down"

    def test_gossip_broadcasts_nest_under_the_verdict(self):
        sim, obs, stacks = self.kill_root()
        categories = set()
        for tree in trees_of(obs, "rnfd.verdict"):
            categories |= {n.span.category for n in tree.walk()}
        # The verdict's gossip rides the MAC/radio like any broadcast.
        assert "mac.job" in categories
        assert "radio.airtime" in categories

    def test_state_gauges_and_transition_counters(self):
        sim, obs, stacks = self.kill_root()
        registry = obs.registry
        for stack in stacks[1:]:
            # 0 = alive, 1 = suspected, 2 = globally down.
            assert registry.gauges[("rnfd.state", (("node", stack.node_id),))] == 2
        total = registry.snapshot().counter_total
        assert total("rnfd.globally_down") == len(stacks) - 1
        assert total("rnfd.probe") > 0
        assert total("rnfd.gossip") > 0

    def test_healthy_root_opens_no_verdict_span(self):
        sim, obs, stacks = rnfd_grid()
        sim.run(until=600.0)
        down = [tree for tree in trees_of(obs, "rnfd.verdict")
                if tree.span.data.get("verdict") == "globally_down"]
        assert down == []
        assert obs.registry.snapshot().counter_total("rnfd.globally_down") == 0
