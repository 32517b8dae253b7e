"""Differential property test: the kernel against a reference scheduler.

The reference keeps its events in a plain list and, whenever it needs
the next one, sorts the live entries by ``(time, priority, seq)``.  It
has no heap, no lazy deletion, no compaction and no peek — just the
ordering rule and :meth:`Simulator.run`'s documented window semantics.
Random programs drive both sides through the same calls: ``schedule``,
``schedule_at`` and ``call_soon``; ``cancel`` before and after firing;
:class:`Timer` ``start``/``start_at``/``cancel``, also from the timer's
own callback; ``stop()`` inside a callback; ``step()``; and ``run`` with
``until`` and ``max_events``.  A program may also queue and cancel a
burst of far-future events, so that more than 64 dead entries make the
kernel compact its heap.  After every top-level call the two sides must
agree on ``now``, ``events_processed``, ``pending_events`` and every
timer's ``armed``/``deadline``; at the end on the whole firing order and
on which handles are still pending.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import SimTimeError, Simulator
from repro.sim.timers import Timer

TIMERS = 3
#: Firings after which callbacks stop acting, so every program ends.
FIRING_BUDGET = 120

# ----------------------------------------------------------------------
# the reference
# ----------------------------------------------------------------------


class _RefHandle:
    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[[], None]) -> None:
        self.key = (time, priority, seq)
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        self.cancelled = True

    @property
    def pending(self) -> bool:
        return not self.cancelled and not self.fired


class RefSim:
    """A scheduler with nothing clever in it."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events_processed = 0
        self._events: List[_RefHandle] = []
        self._seq = 0
        self._stopped = False

    def schedule(self, delay: float, callback: Callable[[], None],
                 priority: int = 0) -> _RefHandle:
        if not 0.0 <= delay:
            raise SimTimeError(delay)
        return self.schedule_at(self.now + delay, callback, priority)

    def schedule_at(self, time: float, callback: Callable[[], None],
                    priority: int = 0) -> _RefHandle:
        if not self.now <= time:
            raise SimTimeError(time)
        self._seq += 1
        handle = _RefHandle(time, priority, self._seq, callback)
        self._events.append(handle)
        return handle

    def call_soon(self, callback: Callable[[], None]) -> _RefHandle:
        return self.schedule(0.0, callback)

    def _next(self) -> Optional[_RefHandle]:
        self._events = sorted((h for h in self._events if h.pending),
                              key=lambda h: h.key)
        return self._events[0] if self._events else None

    def _fire(self, handle: _RefHandle) -> None:
        self._events.remove(handle)
        self.now = handle.time
        handle.fired = True
        self.events_processed += 1
        handle.callback()

    def step(self) -> bool:
        handle = self._next()
        if handle is None:
            return False
        self._fire(handle)
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        if until is not None and not until >= self.now:
            raise SimTimeError(until)
        self._stopped = False
        executed = 0
        while not self._stopped:
            handle = self._next()
            if handle is None or (until is not None and handle.time > until):
                break
            if max_events is not None and executed >= max_events:
                break
            self._fire(handle)
            executed += 1
        if until is not None and not self._stopped and self.now < until:
            handle = self._next()
            if handle is None or handle.time > until:
                self.now = until

    def stop(self) -> None:
        self._stopped = True

    @property
    def pending_events(self) -> int:
        return sum(1 for h in self._events if h.pending)


class RefTimer:
    def __init__(self, sim: RefSim, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._handle: Optional[_RefHandle] = None

    def start(self, delay: float) -> None:
        self.cancel()
        self._handle = self._sim.schedule(delay, self._fire)

    def start_at(self, time: float, priority: int = 0) -> None:
        self.cancel()
        self._handle = self._sim.schedule_at(time, self._fire, priority)

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def armed(self) -> bool:
        return self._handle is not None and self._handle.pending

    @property
    def deadline(self) -> Optional[float]:
        return self._handle.time if self.armed else None

    def _fire(self) -> None:
        self._handle = None
        self._callback()


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
#: Delays on a half-second grid: exact in binary, and full of ties.
delays = st.integers(min_value=0, max_value=6).map(lambda k: k * 0.5)
priorities = st.integers(min_value=-1, max_value=1)
indices = st.integers(min_value=0, max_value=40)
timer_ids = st.integers(min_value=0, max_value=TIMERS - 1)

#: What a callback does when it fires (no nesting: a scheduled event's
#: own actions are empty, which keeps programs finite).
actions = st.lists(st.one_of(
    st.tuples(st.just("schedule"), delays, priorities),
    st.tuples(st.just("schedule_at"), delays, priorities),
    st.tuples(st.just("call_soon")),
    st.tuples(st.just("cancel"), indices),
    st.tuples(st.just("timer_start"), timer_ids, delays),
    st.tuples(st.just("timer_start_at"), timer_ids, delays, priorities),
    st.tuples(st.just("timer_cancel"), timer_ids),
    st.tuples(st.just("stop")),
), max_size=3)

ops = st.lists(st.one_of(
    st.tuples(st.just("schedule"), delays, priorities, actions),
    st.tuples(st.just("schedule_at"), delays, priorities, actions),
    st.tuples(st.just("call_soon"), actions),
    st.tuples(st.just("cancel"), indices),
    st.tuples(st.just("timer_start"), timer_ids, delays),
    st.tuples(st.just("timer_start_at"), timer_ids, delays, priorities),
    st.tuples(st.just("timer_cancel"), timer_ids),
    st.tuples(st.just("bad_schedule"),
              st.sampled_from([-0.5, float("nan")])),
    st.tuples(st.just("burst"), st.integers(min_value=65, max_value=140)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"),
              st.one_of(st.none(), st.integers(0, 8).map(lambda k: k * 0.5)),
              st.one_of(st.none(), st.integers(0, 6))),
), max_size=40)

programs = st.tuples(st.lists(actions, min_size=TIMERS, max_size=TIMERS), ops)


class _Side:
    """Runs one program against one side and records what it saw."""

    def __init__(self, sim: Any, timer_cls: Callable[..., Any],
                 timer_actions: List[list]) -> None:
        self.sim = sim
        self.handles: List[Any] = []
        self.fired: List[Tuple[str, float]] = []
        self.labels = 0
        self.timers = [
            timer_cls(sim, self._callback(f"timer{j}", timer_actions[j]))
            for j in range(TIMERS)]

    def _callback(self, label: str, todo: list) -> Callable[[], None]:
        def fire() -> None:
            self.fired.append((label, self.sim.now))
            # Timers that re-arm each other would run forever.
            if len(self.fired) <= FIRING_BUDGET:
                for action in todo:
                    self._do(action, ())
        return fire

    def _label(self) -> str:
        self.labels += 1
        return f"e{self.labels}"

    def _do(self, op: tuple, nested: list) -> None:
        sim = self.sim
        kind = op[0]
        if kind == "schedule":
            self.handles.append(sim.schedule(
                op[1], self._callback(self._label(), nested), op[2]))
        elif kind == "schedule_at":
            self.handles.append(sim.schedule_at(
                sim.now + op[1], self._callback(self._label(), nested), op[2]))
        elif kind == "call_soon":
            self.handles.append(sim.call_soon(
                self._callback(self._label(), nested)))
        elif kind == "cancel":
            if self.handles:
                self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "timer_start":
            self.timers[op[1]].start(op[2])
        elif kind == "timer_start_at":
            self.timers[op[1]].start_at(sim.now + op[2], op[3])
        elif kind == "timer_cancel":
            self.timers[op[1]].cancel()
        elif kind == "stop":
            sim.stop()
        else:
            raise AssertionError(kind)

    def top(self, op: tuple) -> None:
        sim = self.sim
        kind = op[0]
        if kind in ("schedule", "schedule_at", "call_soon"):
            self._do(op[:-1], op[-1])
        elif kind == "bad_schedule":
            try:
                sim.schedule(op[1], lambda: None)
            except SimTimeError:
                pass
            else:
                raise AssertionError(f"schedule({op[1]}) accepted")
        elif kind == "burst":
            burst = [sim.schedule(1000.0 + i, self._callback("burst", []))
                     for i in range(op[1])]
            for handle in burst:
                handle.cancel()
        elif kind == "step":
            sim.step()
        elif kind == "run":
            until = None if op[1] is None else sim.now + op[1]
            sim.run(until=until, max_events=op[2])
        else:
            self._do(op, [])

    def state(self) -> tuple:
        return (self.sim.now, self.sim.events_processed,
                self.sim.pending_events,
                tuple((t.armed, t.deadline) for t in self.timers))


def _execute(program: tuple) -> Tuple[_Side, _Side]:
    timer_actions, todo = program
    real = _Side(Simulator(seed=0), Timer, timer_actions)
    ref = _Side(RefSim(), RefTimer, timer_actions)
    for op in list(todo) + [("run", None, None)]:
        real.top(op)
        ref.top(op)
        assert real.state() == ref.state(), op
    return real, ref


@settings(max_examples=300, deadline=None)
@given(programs)
def test_kernel_matches_the_reference_scheduler(program):
    real, ref = _execute(program)
    assert real.fired == ref.fired
    assert ([h.pending for h in real.handles]
            == [h.pending for h in ref.handles])


def test_a_burst_of_dead_entries_compacts_the_heap():
    # The property test's burst op is sized to cross the compaction
    # threshold; pin that it does, so the property covers compaction.
    program = ([[], [], []], [
        ("schedule", 1.0, 0, []),
        ("burst", 100),
        ("schedule", 0.5, 0, [("stop",)]),
        ("timer_start", 0, 2.0),
        ("run", None, None),
    ])
    real, _ = _execute(program)
    assert real.sim._compactions >= 1
    assert [label for label, _ in real.fired] == ["e2", "e1", "timer0"]
