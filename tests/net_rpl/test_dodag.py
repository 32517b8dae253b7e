"""DODAG formation, repair, and partition behaviour (integration-level,
driven through full network stacks on a simulated medium)."""

import math

import pytest

from repro.net.rpl import dodag
from repro.net.rpl.dodag import RplConfig, RplRouter, RplState
from repro.net.rpl.objective import INFINITE_RANK, ROOT_RANK
from repro.net.stack import StackConfig
from tests.conftest import (
    build_grid_network,
    build_line_network,
    bump_dodag_version,
)


class TestFormation:
    def test_line_converges_to_chain(self):
        sim, trace, stacks = build_line_network(6, mac="csma", seed=2)
        sim.run(until=120.0)
        assert all(s.rpl.state is RplState.JOINED for s in stacks[1:])
        assert [s.rpl.preferred_parent for s in stacks] == [None, 0, 1, 2, 3, 4]
        assert [s.rpl.rank for s in stacks] == [
            ROOT_RANK * (i + 1) for i in range(6)
        ]

    def test_grid_all_join(self):
        sim, trace, stacks = build_grid_network(4, seed=3)
        sim.run(until=180.0)
        joined = sum(1 for s in stacks[1:] if s.rpl.state is RplState.JOINED)
        assert joined == 15

    def test_ranks_decrease_toward_root(self):
        sim, trace, stacks = build_grid_network(4, seed=3)
        sim.run(until=180.0)
        for stack in stacks[1:]:
            parent = stacks[stack.rpl.preferred_parent]
            assert parent.rpl.rank < stack.rpl.rank

    def test_dao_table_covers_network(self):
        sim, trace, stacks = build_grid_network(4, seed=3)
        sim.run(until=300.0)
        assert len(stacks[0].rpl.dao_table) == 15

    def test_root_source_routes(self):
        sim, trace, stacks = build_line_network(5, seed=4)
        sim.run(until=300.0)
        route = stacks[0].rpl.route_to(4)
        assert route == [1, 2, 3, 4]

    def test_route_to_unknown_is_none(self):
        sim, trace, stacks = build_line_network(3, seed=4)
        sim.run(until=120.0)
        assert stacks[0].rpl.route_to(77) is None

    def test_late_joiner_is_absorbed(self):
        from repro.net.stack import NetworkStack

        sim, trace, stacks = build_line_network(4, seed=5)
        sim.run(until=120.0)
        late = NetworkStack(stacks[0].medium, 99, (4 * 20.0, 0.0),
                            StackConfig(mac="csma"))
        late.start()
        sim.run(until=240.0)
        assert late.rpl.state is RplState.JOINED
        assert late.rpl.preferred_parent == 3


class TestRepair:
    def test_parent_death_triggers_local_repair(self):
        sim, trace, stacks = build_grid_network(3, seed=6)
        sim.run(until=120.0)
        # Node 4 (center) may route via 1 or 3; kill its parent.
        victim = stacks[4]
        parent = victim.rpl.preferred_parent
        stacks[parent].fail()
        # Drive traffic so MAC feedback exposes the death.
        for i in range(20):
            sim.schedule(sim.now + 5.0 * i,
                         (lambda: victim.send_datagram(0, 7, "x", 10)))
        sim.run(until=sim.now + 300.0)
        assert victim.rpl.state is RplState.JOINED
        assert victim.rpl.preferred_parent != parent

    def test_global_repair_bumps_version_and_reconverges(self):
        sim, trace, stacks = build_line_network(4, seed=7)
        sim.run(until=120.0)
        bump_dodag_version(stacks[0].rpl)
        assert stacks[0].rpl.version == 1
        sim.run(until=600.0)
        assert all(s.rpl.state is RplState.JOINED for s in stacks[1:])
        assert all(s.rpl.version == 1 for s in stacks[1:])

    def test_detached_node_poisons(self):
        sim, trace, stacks = build_line_network(3, seed=8)
        sim.run(until=120.0)
        # Cut everything off from node 2 by killing node 1 (its parent).
        stacks[1].fail()
        for i in range(30):
            sim.schedule(sim.now + 5.0 * i,
                         (lambda: stacks[2].send_datagram(0, 7, "x", 10)))
        sim.run(until=sim.now + 400.0)
        assert stacks[2].rpl.state is RplState.DETACHED
        assert stacks[2].rpl.rank == INFINITE_RANK
        assert trace.count("rpl.poison") >= 1

    def test_crashed_node_rejoins_after_recovery(self):
        sim, trace, stacks = build_line_network(4, seed=9)
        sim.run(until=120.0)
        stacks[2].fail()
        sim.run(until=240.0)
        stacks[2].recover()
        sim.run(until=500.0)
        assert stacks[2].rpl.state is RplState.JOINED


class TestStaleness:
    def test_silent_parent_detected_by_staleness(self, monkeypatch):
        monkeypatch.setattr(dodag, "STALENESS_CHECK_PERIOD_S", 10.0)
        config = StackConfig(
            mac="csma",
            rpl=RplConfig(staleness_timeout_s=120.0),
        )
        sim, trace, stacks = build_line_network(3, config=config, seed=10)
        sim.run(until=60.0)
        stacks[1].fail()
        # No data traffic: only the staleness path can notice.
        sim.run(until=400.0)
        assert stacks[2].rpl.state is RplState.DETACHED


class TestFloating:
    def test_detached_group_forms_floating_dodag(self):
        config = StackConfig(
            mac="csma",
            rpl=RplConfig(float_delay_s=60.0),
        )
        sim, trace, stacks = build_line_network(5, config=config, seed=11)
        sim.run(until=120.0)
        stacks[1].fail()  # severs 2,3,4 from the root
        for i in range(30):
            sim.schedule(sim.now + 5.0 * i,
                         (lambda: stacks[2].send_datagram(0, 7, "x", 10)))
        sim.run(until=sim.now + 600.0)
        states = {s.rpl.state for s in stacks[2:]}
        assert RplState.FLOATING_ROOT in states
        floaters = [s for s in stacks[2:] if s.rpl.state is RplState.JOINED]
        assert all(not s.rpl.grounded for s in floaters)

    def test_float_dissolves_when_grounded_returns(self):
        config = StackConfig(
            mac="csma",
            rpl=RplConfig(float_delay_s=60.0),
        )
        sim, trace, stacks = build_line_network(5, config=config, seed=12)
        sim.run(until=120.0)
        stacks[1].fail()
        for i in range(30):
            sim.schedule(sim.now + 5.0 * i,
                         (lambda: stacks[2].send_datagram(0, 7, "x", 10)))
        sim.run(until=sim.now + 400.0)
        stacks[1].recover()
        sim.run(until=sim.now + 900.0)
        assert all(s.rpl.state is RplState.JOINED for s in stacks[1:])
        assert all(s.rpl.grounded for s in stacks[1:])


class TestConfigValidation:
    """``RplRouter`` refuses a config it cannot run at construction, and
    the refusal names the field — not a kernel or timer error later."""

    @pytest.mark.parametrize("field, value", [
        ("trickle_imin_s", 0.0),
        ("dao_period_s", 0),
        ("dis_period_s", math.nan),
        ("staleness_timeout_s", math.inf),
        ("float_delay_s", 0.0),
        ("trickle_doublings", -1),
        ("trickle_k", 0),
        ("parent_fail_threshold", 0),
        ("trickle_variant", "eager"),
    ])
    def test_bad_value_is_refused_by_name(self, field, value):
        config = RplConfig(**{field: value})
        with pytest.raises(ValueError, match=rf"RplConfig\.{field}\b"):
            RplRouter(1, None, config)

    def test_defaults_and_unset_optionals_pass(self):
        RplConfig().validate()
        RplConfig(staleness_timeout_s=None, float_delay_s=None,
                  trickle_imin_s=0.5, trickle_doublings=0, trickle_k=1,
                  parent_fail_threshold=1,
                  trickle_variant="adaptive-k").validate()
