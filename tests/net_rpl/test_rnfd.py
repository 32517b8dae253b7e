"""RNFD: CFRC lattice behaviour and end-to-end root-failure detection."""

import pytest

from repro.net.rpl import rnfd
from repro.net.rpl.rnfd import Cfrc, RnfdConfig, RootState
from repro.net.stack import StackConfig
from tests.conftest import build_grid_network


class TestCfrc:
    def test_record_and_fraction(self):
        cfrc = Cfrc()
        assert cfrc.record(1, down=True)
        assert cfrc.record(2, down=False)
        assert cfrc.down_count == 1
        assert cfrc.sentinel_count == 2
        assert cfrc.down_fraction() == pytest.approx(0.5)

    def test_record_same_verdict_is_noop(self):
        cfrc = Cfrc()
        cfrc.record(1, down=True)
        assert not cfrc.record(1, down=True)

    def test_revoke_bumps_epoch(self):
        cfrc = Cfrc()
        cfrc.record(1, down=True)
        assert cfrc.record(1, down=False)
        assert cfrc.entries[1] == (2, False)

    def test_merge_takes_higher_epoch(self):
        a, b = Cfrc(), Cfrc()
        a.record(1, down=True)          # epoch 1
        b.record(1, down=True)          # epoch 1
        b.record(1, down=False)         # epoch 2
        assert a.merge(b)
        assert a.entries[1] == (2, False)

    def test_merge_is_idempotent(self):
        a, b = Cfrc(), Cfrc()
        b.record(1, down=True)
        assert a.merge(b)
        assert not a.merge(b)

    def test_merge_is_commutative_in_result(self):
        x, y = Cfrc(), Cfrc()
        x.record(1, down=True)
        y.record(2, down=True)
        left = x.copy()
        left.merge(y)
        right = y.copy()
        right.merge(x)
        assert left.entries == right.entries

    def test_empty_fraction_is_zero(self):
        assert Cfrc().down_fraction() == 0.0


def build_rnfd_grid(side=4, seed=20, **rnfd_kwargs):
    config = StackConfig(
        mac="csma",
        rnfd_enabled=True,
        rnfd=RnfdConfig(**rnfd_kwargs) if rnfd_kwargs else RnfdConfig(),
    )
    return build_grid_network(side, config=config, seed=seed)


class TestDetection:
    def test_sentinels_are_root_neighbors(self):
        sim, trace, stacks = build_rnfd_grid()
        sim.run(until=200.0)
        sentinels = [s.node_id for s in stacks if s.rnfd and s.rnfd.is_sentinel]
        # Corner root at 20 m grid spacing, 25 m disk: exactly 1 and 4.
        assert sorted(sentinels) == [1, 4]

    def test_healthy_root_raises_no_verdict(self):
        sim, trace, stacks = build_rnfd_grid()
        sim.run(until=600.0)
        assert all(
            s.rnfd.root_state is RootState.ALIVE for s in stacks[1:]
        )

    def test_root_death_detected_network_wide(self):
        sim, trace, stacks = build_rnfd_grid()
        sim.run(until=300.0)
        kill_time = sim.now
        stacks[0].fail()
        sim.run(until=kill_time + 300.0)
        detections = [
            s.rnfd.detection_time for s in stacks[1:]
            if s.rnfd.detection_time is not None
        ]
        assert len(detections) == len(stacks) - 1
        # Detection latency is probe-period scale, far below the
        # 1500 s staleness baseline.
        worst = max(detections) - kill_time
        assert worst < 120.0

    def test_detection_detaches_routers(self):
        from repro.net.rpl.dodag import RplState

        sim, trace, stacks = build_rnfd_grid()
        sim.run(until=300.0)
        stacks[0].fail()
        sim.run(until=sim.now + 300.0)
        assert all(
            s.rpl.state is not RplState.JOINED or not s.rpl.grounded
            for s in stacks[1:]
        )

    def test_transient_probe_failures_below_threshold_recover(self):
        sim, trace, stacks = build_rnfd_grid(fail_threshold=5)
        sim.run(until=300.0)
        # Briefly disable then restore the root radio: a couple of lost
        # probes must not convict it.
        stacks[0].radio.enabled = False
        sim.schedule(15.0, lambda: setattr(stacks[0].radio, "enabled", True))
        sim.run(until=sim.now + 400.0)
        assert all(
            s.rnfd.root_state is not RootState.GLOBALLY_DOWN
            for s in stacks[1:]
        )

    def test_quorum_prevents_single_sentinel_verdict(self, monkeypatch):
        # With quorum over 0.5 and two sentinels, one sentinel's bad link
        # cannot convict the root.
        monkeypatch.setattr(rnfd, "QUORUM", 0.75)
        sim, trace, stacks = build_rnfd_grid()
        sim.run(until=300.0)
        # Cut only sentinel 1's link to the root.
        stacks[0].medium.set_link_filter(
            lambda a, b: {a, b} == {0, 1}
        )
        sim.run(until=sim.now + 400.0)
        assert all(
            s.rnfd.root_state is not RootState.GLOBALLY_DOWN
            for s in stacks[1:]
        )

    def test_reset_clears_state(self):
        sim, trace, stacks = build_rnfd_grid()
        sim.run(until=300.0)
        stacks[0].fail()
        sim.run(until=sim.now + 300.0)
        agent = stacks[1].rnfd
        agent.reset()
        assert agent.root_state is RootState.ALIVE
        assert agent.detection_time is None
        assert agent.cfrc.sentinel_count == 0
