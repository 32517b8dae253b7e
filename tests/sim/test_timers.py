"""Timer and PeriodicTimer semantics."""

import re

import pytest

from repro.sim.kernel import SimTimeError, Simulator
from repro.sim.timers import PeriodicTimer, Timer

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


class TestTimer:
    def test_fires_after_delay(self, sim: Simulator):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]

    def test_restart_pushes_deadline(self, sim: Simulator):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.schedule(2.0, lambda: timer.start(3.0))
        sim.run()
        assert fired == [5.0]

    def test_cancel_prevents_firing(self, sim: Simulator):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_armed_and_deadline(self, sim: Simulator):
        timer = Timer(sim, lambda: None)
        assert not timer.armed
        assert timer.deadline is None
        timer.start(4.0)
        assert timer.armed
        assert timer.deadline == 4.0
        sim.run()
        assert not timer.armed

    def test_timer_can_rearm_itself(self, sim: Simulator):
        fired = []

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer = Timer(sim, on_fire)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_not_armed_inside_its_own_callback(self, sim: Simulator):
        seen = []
        timer = Timer(sim, lambda: seen.append((timer.armed, timer.deadline)))
        timer.start(2.0)
        sim.run()
        assert seen == [(False, None)]

    def test_failed_rearm_keeps_the_old_deadline(self, sim: Simulator):
        # The new deadline is refused before the old one is cancelled.
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        with pytest.raises(SimTimeError):
            timer.start(-1)
        assert timer.armed and timer.deadline == 3.0
        sim.run(until=1.0)
        for bad in (0.5, float("nan"), float("inf")):
            with pytest.raises(SimTimeError):
                timer.start_at(bad)
            assert timer.armed and timer.deadline == 3.0
        sim.run()
        assert fired == [3.0]


class TestPeriodicTimer:
    def test_fires_periodically(self, sim: Simulator):
        fired = []
        timer = PeriodicTimer(sim, 2.0, lambda: fired.append(sim.now), phase=0.0)
        timer.start()
        sim.run(until=7.0)
        assert fired == [0.0, 2.0, 4.0, 6.0]

    def test_random_phase_desynchronizes(self):
        phases = []
        for seed in range(5):
            sim = Simulator(seed=seed)
            fired = []
            timer = PeriodicTimer(sim, 10.0, lambda: fired.append(sim.now))
            timer.start()
            sim.run(until=10.0)
            phases.append(fired[0])
        assert len(set(phases)) > 1

    def test_stop_halts_firing(self, sim: Simulator):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now), phase=0.5)
        timer.start()
        sim.schedule(2.0, timer.stop)
        sim.run(until=10.0)
        assert fired == [0.5, 1.5]

    def test_start_is_idempotent(self, sim: Simulator):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(1), phase=0.0)
        timer.start()
        timer.start()
        sim.run(until=0.5)
        assert fired == [1]

    def test_invalid_period_rejected(self, sim: Simulator):
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 0.0, lambda: None)

    def test_negative_period_rejected(self, sim: Simulator):
        with pytest.raises(ValueError, match="-2.0"):
            PeriodicTimer(sim, -2.0, lambda: None, phase=0.0)

    def test_negative_phase_rejected(self, sim: Simulator):
        with pytest.raises(ValueError, match="-0.5"):
            PeriodicTimer(sim, 1.0, lambda: None, phase=-0.5)

    def test_running_follows_start_and_stop(self, sim: Simulator):
        timer = PeriodicTimer(sim, 1.0, lambda: None, phase=0.0)
        assert not timer.running
        timer.start()
        assert timer.running
        timer.stop()
        timer.stop()
        assert not timer.running

    def test_restart_waits_the_phase_again(self, sim: Simulator):
        fired = []
        timer = PeriodicTimer(sim, 1.0, lambda: fired.append(sim.now), phase=0.5)
        timer.start()
        sim.schedule(2.0, timer.stop)
        sim.schedule(3.0, timer.start)
        sim.run(until=5.0)
        assert fired == [0.5, 1.5, 3.5, 4.5]

    def test_callback_may_stop_its_own_timer(self, sim: Simulator):
        fired = []

        def once():
            fired.append(sim.now)
            timer.stop()

        timer = PeriodicTimer(sim, 1.0, once, phase=0.25)
        timer.start()
        sim.run(until=10.0)
        assert fired == [0.25]
        assert not timer.running

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    def test_non_finite_period_rejected_at_construction(
            self, sim: Simulator, bad: float):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            PeriodicTimer(sim, bad, lambda: None, phase=0.0)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            PeriodicTimer(sim, bad, lambda: None)

    @pytest.mark.parametrize("bad", NON_FINITE, ids=repr)
    def test_non_finite_phase_rejected(self, sim: Simulator, bad: float):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            PeriodicTimer(sim, 1.0, lambda: None, phase=bad)

