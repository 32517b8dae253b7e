"""The discrete-event simulation kernel.

The kernel is a deterministic priority-queue scheduler.  Events are
``(time, priority, sequence)``-ordered, so two events scheduled for the
same instant fire in the order they were scheduled (FIFO) unless an
explicit priority says otherwise.  Determinism is a hard requirement:
every stochastic component in the reproduction draws from
:meth:`Simulator.rng` (or a named substream from :meth:`Simulator.substream`),
never from the global :mod:`random` module, and every protocol id
(frame sequence numbers, CoAP tokens, fragment tags, …) from
:meth:`Simulator.next_id`, never from a module-level counter, so that a
simulation run is a pure function of its seed — also the second run
inside one interpreter, which is what a warm pool worker executes.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from typing import Any, Callable, Dict, List, Optional


class SimTimeError(ValueError):
    """Raised when an event is scheduled in the simulated past."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the event stays in the heap but is skipped when
    popped.  This keeps cancellation O(1) which matters because protocol
    timers (MAC backoffs, Trickle intervals, CoAP retransmissions) are
    cancelled far more often than they fire.  The owning simulator
    counts cancelled-but-queued events and compacts the heap when they
    dominate it, so long-lived runs don't drag dead entries through
    every push and pop.
    """

    __slots__ = ("time", "callback", "cancelled", "fired", "_sim")

    def __init__(self, time: float, callback: Callable[[], None],
                 sim: Optional["Simulator"] = None) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; safe after firing."""
        if not self.cancelled and not self.fired and self._sim is not None:
            self._sim._note_cancelled()
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while the event is still going to fire."""
        return not self.cancelled and not self.fired


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the run.  All randomness must flow from
        :attr:`rng` or from named substreams (:meth:`substream`), which
        are derived deterministically from this seed.

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> out = []
    >>> _ = sim.schedule(2.0, lambda: out.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: out.append(sim.now))
    >>> sim.run()
    >>> out
    [1.0, 2.0]
    """

    #: Compact only past this many dead entries: below it, scanning the
    #: heap costs more than the skips it would save.
    _COMPACT_MIN_CANCELLED = 64

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self._substreams: Dict[str, random.Random] = {}
        self._ids: Dict[str, int] = {}
        self._heap: List[tuple] = []
        self._seq = 0
        self._now = 0.0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._cancelled_queued = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (for budget checks in tests)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # randomness and ids
    # ------------------------------------------------------------------
    def substream(self, name: str) -> random.Random:
        """Return a named RNG substream derived from the master seed.

        Substreams decouple components: adding a random draw in the MAC
        layer does not perturb the sequence seen by the sensor layer, so
        experiments stay comparable across code changes.
        """
        stream = self._substreams.get(name)
        if stream is None:
            # A stable digest, NOT built-in hash(): str hashing is
            # randomized per process, which would make runs
            # irreproducible across invocations.
            digest = hashlib.md5(f"{self.seed}:{name}".encode()).digest()
            stream = random.Random(int.from_bytes(digest[:8], "little"))
            self._substreams[name] = stream
        return stream

    def next_id(self, space: str) -> int:
        """The next id (1, 2, 3, …) of this run's id space ``space``.

        Id spaces belong to the run, not to the process: two systems
        built one after the other in one interpreter number their
        frames, tokens and tags alike.
        """
        value = self._ids.get(space, 0) + 1
        self._ids[space] = value
        return value

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # written so that NaN is rejected too
            raise SimTimeError(f"negative or NaN delay {delay!r}")
        return self.schedule_at(self._now + delay, callback, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if not time >= self._now:  # written so that NaN is rejected too
            raise SimTimeError(f"cannot schedule at {time} < now {self._now}")
        if (self._cancelled_queued >= self._COMPACT_MIN_CANCELLED
                and self._cancelled_queued * 2 >= len(self._heap)):
            self._compact()
        handle = EventHandle(time, callback, self)
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, handle))
        return handle

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns False when none remain."""
        while self._heap:
            time, _priority, _seq, handle = heapq.heappop(self._heap)
            if handle.cancelled:
                self._cancelled_queued -= 1
                continue
            self._now = time
            handle.fired = True
            self._events_processed += 1
            handle.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` have executed.  An ``until`` before now (or NaN)
        raises :class:`SimTimeError`.

        When ``until`` is given, simulated time is advanced to exactly
        ``until`` even if the queue drains earlier, so metrics windows
        have well-defined lengths — unless ``max_events`` stopped the
        run with an event still due by ``until``: the clock then stays
        at the last event fired, since it never runs backwards.
        """
        if until is not None and not until >= self._now:  # NaN fails too
            raise SimTimeError(f"cannot run until {until} < now {self._now}")
        self._stopped = False
        self._running = True
        executed = 0
        try:
            while self._heap and not self._stopped:
                next_time = self._peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                if self.step():
                    executed += 1
        finally:
            self._running = False
        if until is not None and not self._stopped and self._now < until:
            next_time = self._peek_time()
            if next_time is None or next_time > until:
                self._now = until

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    def _peek_time(self) -> Optional[float]:
        while self._heap:
            time, _priority, _seq, handle = self._heap[0]
            if handle.cancelled:
                heapq.heappop(self._heap)
                self._cancelled_queued -= 1
                continue
            return time
        return None

    # ------------------------------------------------------------------
    # heap hygiene
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """An EventHandle in the heap was cancelled before firing."""
        self._cancelled_queued += 1

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Pop order depends only on the ``(time, priority, seq)`` total
        order of the entries, not on the heap's internal layout, so
        compaction cannot change event execution order — determinism
        survives.  Triggered when at least half the heap is dead, which
        bounds amortized cost at O(1) per cancellation.
        """
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_queued = 0
        self._compactions += 1

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._heap) - self._cancelled_queued

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def call_soon(self, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` for the current instant (after the
        currently-running event)."""
        return self.schedule(0.0, callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={self.pending_events})"

