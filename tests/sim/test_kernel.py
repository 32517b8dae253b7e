"""Kernel ordering, cancellation, determinism, and run-window semantics."""

import pytest

from repro.sim.kernel import SimTimeError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        order = []
        for label in "abcde":
            sim.schedule(1.0, (lambda l: lambda: order.append(l))(label))
        sim.run()
        assert order == list("abcde")

    def test_priority_breaks_same_time_ties(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("low"), priority=1)
        sim.schedule(1.0, lambda: order.append("high"), priority=0)
        sim.run()
        assert order == ["high", "low"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimTimeError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimTimeError):
            sim.schedule_at(1.0, lambda: None)

    def test_nan_times_rejected(self):
        # NaN fails every comparison, so a `delay < 0` guard let it in
        # and the event then set `sim.now` to NaN.
        sim = Simulator()
        nan = float("nan")
        with pytest.raises(SimTimeError):
            sim.schedule(nan, lambda: None)
        with pytest.raises(SimTimeError):
            sim.schedule_at(nan, lambda: None)
        sim.run()
        assert sim.now == 0.0 and sim.pending_events == 0

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf")], ids=repr)
    def test_infinite_times_rejected(self, bad):
        # An event at t = inf would drag ``now`` there, and every later
        # schedule with it.
        sim = Simulator()
        with pytest.raises(SimTimeError):
            sim.schedule(bad, lambda: None)
        with pytest.raises(SimTimeError):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending_events == 0

    def test_run_until_infinity_rejected(self):
        # On a queue that drains, run(until=inf) used to leave now == inf.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        with pytest.raises(SimTimeError):
            sim.run(until=float("inf"))
        assert sim.now == 0.0 and sim.events_processed == 0
        sim.run()
        assert fired == [1.0] and sim.now == 1.0
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.run(until=5.0)
        assert fired == [1.0, 3.0] and sim.now == 5.0

    def test_events_scheduled_during_events_run(self):
        sim = Simulator()
        order = []

        def outer():
            order.append("outer")
            sim.schedule(1.0, lambda: order.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "inner"]
        assert sim.now == 2.0

    def test_call_soon_runs_after_current_event(self):
        sim = Simulator()
        order = []

        def first():
            sim.call_soon(lambda: order.append("soon"))
            order.append("first")

        sim.schedule(1.0, first)
        sim.run()
        assert order == ["first", "soon"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.pending

    def test_pending_reflects_lifecycle(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert handle.pending
        sim.run()
        assert not handle.pending

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.pending_events == 1
        assert keep.pending


class TestRunWindows:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(2))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_run_until_advances_time_even_when_queue_empty(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_later_events_survive_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(1))
        sim.run(until=5.0)
        sim.run(until=15.0)
        assert fired == [1]

    def test_max_events_inside_until_keeps_the_clock_monotone(self):
        sim = Simulator()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: seen.append(sim.now))
        sim.run(until=10.0, max_events=1)
        # Stopped by the event budget with work still due by 10 s: the
        # clock stays at the event it fired, never jumping past work.
        assert seen == [1.0]
        assert sim.now == 1.0
        sim.run()
        assert seen == [1.0, 2.0, 3.0]
        # With nothing left due by ``until``, the window is advanced.
        sim.schedule_at(20.0, lambda: seen.append(sim.now))
        sim.run(until=10.0, max_events=5)
        assert sim.now == 10.0
        sim.run(until=30.0, max_events=1)
        assert seen[-1] == 20.0 and sim.now == 30.0

    def test_run_rejects_nan_and_past_until(self):
        # A self-rescheduling event keeps the queue non-empty; max_events
        # bounds the run where an unchecked NaN would never stop.
        sim = Simulator()

        def tick():
            sim.schedule(1.0, tick)

        tick()
        for until in (float("nan"), -5.0):
            with pytest.raises(SimTimeError):
                sim.run(until=until, max_events=1000)
        assert sim.events_processed == 0
        sim.run(until=3.0)
        with pytest.raises(SimTimeError):
            sim.run(until=2.0, max_events=1000)
        sim.run(until=3.0)  # until == now is an empty window
        assert sim.now == 3.0

    def test_a_later_priority_runs_after_the_whole_instant(self):
        # What code placed after run(until=t) sees: every event queued
        # for t, including those scheduled for t by events at t.
        sim = Simulator()
        order = []
        sim.schedule(5.0, lambda: (order.append("a"), sim.schedule(
            0.0, lambda: order.append("cascade"))))
        sim.schedule_at(5.0, lambda: order.append("after"), priority=1)
        sim.schedule(5.0, lambda: order.append("b"))
        sim.run(until=10.0)
        assert order == ["a", "b", "cascade", "after"]

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_max_events_bounds_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), (lambda j: lambda: fired.append(j))(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestDeterminism:
    def test_same_seed_same_random_sequence(self):
        a, b = Simulator(seed=7), Simulator(seed=7)
        assert [a.rng.random() for _ in range(10)] == [
            b.rng.random() for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a, b = Simulator(seed=7), Simulator(seed=8)
        assert [a.rng.random() for _ in range(5)] != [
            b.rng.random() for _ in range(5)
        ]

    def test_substreams_are_independent(self):
        a = Simulator(seed=7)
        first = [a.substream("x").random() for _ in range(5)]
        b = Simulator(seed=7)
        # Draw from another substream first: must not perturb "x".
        [b.substream("y").random() for _ in range(100)]
        second = [b.substream("x").random() for _ in range(5)]
        assert first == second

    def test_substream_is_cached(self):
        sim = Simulator(seed=7)
        assert sim.substream("x") is sim.substream("x")


class TestHeapCompaction:
    def test_mass_cancellation_compacts_the_heap(self):
        sim = Simulator(seed=1)
        handles = [sim.schedule(10.0 + i, lambda: None) for i in range(500)]
        for handle in handles[:249]:
            handle.cancel()
        assert sim._compactions == 0
        assert len(sim._heap) == 500
        # The cancel that leaves half the heap dead compacts it.
        handles[249].cancel()
        assert sim._compactions == 1
        assert len(sim._heap) == sim.pending_events == 250
        # ... and again at 125 dead of 250; a push never compacts.
        for handle in handles[250:400]:
            handle.cancel()
        sim.schedule(1.0, lambda: None)
        assert sim._compactions == 2
        assert len(sim._heap) == 126
        assert sim.pending_events == 101

    def test_compaction_preserves_execution_order(self):
        def run(compact: bool):
            sim = Simulator(seed=1)
            out = []
            keep = []
            for i in range(300):
                handle = sim.schedule(1.0 + 0.01 * i, lambda i=i: out.append(i))
                if i % 3:
                    handle.cancel()
                else:
                    keep.append(i)
            if compact:
                sim._compact()
            sim.run()
            return out, keep

        compacted, keep = run(compact=True)
        lazy, _ = run(compact=False)
        assert compacted == lazy == keep

    def test_cancel_counting_is_exact_across_pop_paths(self):
        sim = Simulator(seed=1)
        a = sim.schedule(1.0, lambda: None)
        b = sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        a.cancel()
        a.cancel()  # idempotent: must not double-count
        assert sim.pending_events == 2
        sim.step()  # pops cancelled a, then fires b
        assert sim.pending_events == 1
        b.cancel()  # already fired: must not count
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_cancellation_churn_stays_deterministic(self):
        """Timer-heavy cancel/reschedule load: same seed, same trace."""

        def run():
            sim = Simulator(seed=42)
            fired = []
            decoy = [None]

            def tick(n=[0]):
                n[0] += 1
                fired.append((round(sim.now, 6), n[0]))
                if decoy[0] is not None:
                    decoy[0].cancel()
                decoy[0] = sim.schedule(50.0, lambda: fired.append("decoy"))
                if n[0] < 400:
                    sim.schedule(0.25 + sim.rng.random() * 0.01, tick)

            sim.schedule(0.1, tick)
            sim.run(until=2000.0)
            return fired

        assert run() == run()
