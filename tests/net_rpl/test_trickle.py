"""RFC 6206 Trickle timer invariants."""

import pytest

from repro.net.rpl.trickle import TrickleTimer
from repro.sim.kernel import Simulator


def make_trickle(sim, imin=1.0, doublings=4, k=1, sink=None):
    fired = [] if sink is None else sink
    timer = TrickleTimer(sim, imin, doublings, k,
                         lambda: fired.append(sim.now))
    return timer, fired


class TestIntervalGrowth:
    def test_interval_doubles_up_to_imax(self, sim):
        timer, _ = make_trickle(sim, imin=1.0, doublings=3)
        timer.start()
        sim.run(until=0.01)
        observed = [timer.interval]
        # Sample interval after each boundary.
        for t in (1.5, 3.5, 7.5, 16.0, 40.0):
            sim.run(until=t)
            observed.append(timer.interval)
        assert max(observed) == 8.0  # imin * 2**3
        assert observed == sorted(observed)

    def test_transmission_within_second_half(self, sim):
        times = []
        timer = TrickleTimer(sim, 4.0, 0, 1, lambda: times.append(sim.now))
        timer.start()
        sim.run(until=4.0)
        assert len(times) == 1
        assert 2.0 <= times[0] <= 4.0

    def test_steady_state_rate_decays(self, sim):
        timer, fired = make_trickle(sim, imin=1.0, doublings=6, k=10)
        timer.start()
        sim.run(until=60.0)
        early = sum(1 for t in fired if t < 10.0)
        late = sum(1 for t in fired if t >= 50.0)
        assert early > late


class TestSuppression:
    def test_k_consistent_messages_suppress(self, sim):
        timer, fired = make_trickle(sim, imin=10.0, doublings=0, k=2)
        timer.start()
        # Two consistent receptions early in every interval: suppress all.
        def feed():
            timer.hear_consistent()
            timer.hear_consistent()
            sim.schedule(10.0, feed)

        sim.schedule(0.1, feed)
        sim.run(until=100.0)
        assert fired == []
        assert timer.suppressions > 0

    def test_below_k_does_not_suppress(self, sim):
        timer, fired = make_trickle(sim, imin=10.0, doublings=0, k=2)
        timer.start()
        sim.schedule(0.1, timer.hear_consistent)
        sim.run(until=10.0)
        assert len(fired) == 1


class TestReset:
    def test_reset_returns_to_imin(self, sim):
        timer, _ = make_trickle(sim, imin=1.0, doublings=5)
        timer.start()
        sim.run(until=20.0)
        assert timer.interval > 1.0
        timer.reset()
        assert timer.interval == 1.0

    def test_reset_at_imin_is_noop(self, sim):
        timer, fired = make_trickle(sim, imin=10.0, doublings=2)
        timer.start()
        sim.run(until=1.0)
        before = timer.resets
        timer.reset()
        # Counter increments but interval unchanged and no double-fire.
        assert timer.interval == 10.0
        assert timer.resets == before + 1
        sim.run(until=10.0)
        assert len(fired) == 1

    def test_inconsistency_resets(self, sim):
        timer, _ = make_trickle(sim, imin=1.0, doublings=5)
        timer.start()
        sim.run(until=20.0)
        timer.reset()  # what hearing an inconsistent message does
        assert timer.interval == 1.0

    def test_reset_speeds_up_transmissions(self, sim):
        timer, fired = make_trickle(sim, imin=1.0, doublings=6, k=10)
        timer.start()
        sim.run(until=60.0)
        quiet = sum(1 for t in fired if 50.0 <= t < 60.0)
        timer.reset()
        sim.run(until=70.0)
        burst = sum(1 for t in fired if 60.0 <= t < 70.0)
        assert burst > quiet


class TestLifecycle:
    def test_stop_halts_transmissions(self, sim):
        timer, fired = make_trickle(sim, imin=1.0, doublings=2)
        timer.start()
        sim.run(until=5.0)
        count = len(fired)
        timer.stop()
        sim.run(until=20.0)
        assert len(fired) == count

    def test_restart_after_stop(self, sim):
        timer, fired = make_trickle(sim, imin=1.0, doublings=2)
        timer.start()
        sim.run(until=3.0)
        timer.stop()
        timer.start()
        assert timer.interval == 1.0
        sim.run(until=6.0)
        assert len(fired) >= 2

    def test_invalid_parameters_rejected(self, sim):
        with pytest.raises(ValueError):
            TrickleTimer(sim, 0.0, 3, 1, lambda: None)
        with pytest.raises(ValueError):
            TrickleTimer(sim, 1.0, -1, 1, lambda: None)
        with pytest.raises(ValueError):
            TrickleTimer(sim, 1.0, 3, 0, lambda: None)
