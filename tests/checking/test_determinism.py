"""Satellite: determinism regressions.

Two guarantees pinned here:

1. The same scenario under the same seed reproduces the **identical**
   trace record sequence — the property the whole repro-bundle story
   rests on (a bundled seed must replay the failure exactly).  Both
   runs happen in this one interpreter, which is what a warm pool
   worker does: every protocol id space therefore belongs to the run
   (``Simulator.next_id``), none to the process.
2. Checkers are transparent: a run with ``invariant_checking=True``
   produces exactly the trace the same seed produces with checking off,
   so enabling verification cannot change what is being verified.
"""

import pytest

from repro.app.scenarios import BUILTIN_SCENARIOS
from repro.core.system import IIoTSystem, SystemConfig
from repro.deployment.topology import grid_topology
from repro.net.stack import StackConfig
from tests.conftest import dashboard_run


def _signature(records):
    """The full record sequence as comparable tuples."""
    return [
        (r.time, r.category, r.node, sorted(r.data.items(), key=lambda kv: kv[0]))
        for r in records
    ]


def _span_list(tracer):
    return [
        (s.trace_id, s.span_id, s.parent_id, s.category, s.node, s.start,
         s.end, sorted(s.data.items(), key=lambda kv: kv[0]))
        for trace_id in tracer.trace_ids() for s in tracer.spans_for(trace_id)
    ]


def _mid_size_run(seed: int, invariant_checking: bool):
    config = SystemConfig(
        stack=StackConfig(mac="csma"),
        invariant_checking=invariant_checking,
    )
    system = IIoTSystem.build(grid_topology(3), config=config, seed=seed)
    system.start()
    system.run(240.0)
    got = []
    system.root.stack.bind(7, lambda d: got.append(d.src))
    system.nodes[8].stack.send_datagram(0, 7, "reading", 24)
    system.run(120.0)
    return system


class TestDeterminism:
    @pytest.mark.parametrize("scenario", sorted(BUILTIN_SCENARIOS))
    def test_same_seed_same_scenario_identical_traces(self, scenario,
                                                      recorded):
        first = BUILTIN_SCENARIOS[scenario].run(1234).checkers
        second = BUILTIN_SCENARIOS[scenario].run(1234).checkers
        sig_a = _signature(recorded(first.trace))
        sig_b = _signature(recorded(second.trace))
        assert len(sig_a) > 100  # a mid-size run, not a trivial one
        assert sig_a == sig_b
        assert first.sim.now == second.sim.now

    def test_same_seed_same_report_demo_identical_observations(self,
                                                               recorded):
        # The demo polls over CoAP, runs an aggregation query and gossips
        # a CRDT: tokens, message ids, query ids and frame sequence
        # numbers all show in its trace records and span annotations.
        first = dashboard_run(side=3, converge_s=120.0, traffic_s=60.0, seed=7)
        second = dashboard_run(side=3, converge_s=120.0, traffic_s=60.0, seed=7)
        assert first.responses > 0
        assert (_signature(recorded(first.system.trace))
                == _signature(recorded(second.system.trace)))
        assert (_span_list(first.system.obs.spans)
                == _span_list(second.system.obs.spans))
        assert (first.system.obs.registry.snapshot()
                == second.system.obs.registry.snapshot())

    def test_different_seeds_differ(self, recorded):
        # The converse sanity check: the signature is discriminating.
        first = BUILTIN_SCENARIOS["partition-crdt"].run(1234)
        second = BUILTIN_SCENARIOS["partition-crdt"].run(5678)
        assert (_signature(recorded(first.trace))
                != _signature(recorded(second.trace)))

    def test_enabling_checkers_does_not_change_the_simulation(self, recorded):
        with_checkers = _mid_size_run(77, invariant_checking=True)
        without = _mid_size_run(77, invariant_checking=False)
        assert with_checkers.checkers is not None
        assert without.checkers is None
        assert (_signature(recorded(with_checkers.trace))
                == _signature(recorded(without.trace)))
        # And the physical outcome matches, not just the trace.
        assert (
            {nid: n.stack.rpl.rank for nid, n in with_checkers.nodes.items()}
            == {nid: n.stack.rpl.rank for nid, n in without.nodes.items()}
        )
