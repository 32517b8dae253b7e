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

import random
from heapq import heapify, heappop, heappush
from typing import Callable, Dict, List, Optional

try:
    # The builtin MD5 gives hashlib's digest without loading OpenSSL's
    # libcrypto (≈3.6 MB of a unit-disk run's ≈21 MB); random.py takes
    # _sha512 the same way.
    from _md5 import md5 as _md5
except ImportError:  # an interpreter built without it
    from hashlib import md5 as _md5

_INF = float("inf")


class SimTimeError(ValueError):
    """Raised when an event is scheduled in the simulated past, at a
    NaN or infinite time, or a run is asked to end at one."""


class EventHandle(list):
    """A cancellable reference to a scheduled event, and its heap entry.

    The handle *is* what the heap holds: ``[time, priority, seq,
    callback, sim]``, a list the heap compares in C exactly as it would
    the tuple ``(time, priority, seq)`` (``seq`` is unique, so the
    callback is never compared) — one object per queued event, no
    attributes.  ``sim`` is the owning simulator while the event is
    pending and None once it fired or was cancelled; a cancel also drops
    the callback, so the two end states stay apart and a dead entry
    holds nothing alive.

    Cancellation is lazy: the event stays in the heap but is skipped when
    popped.  This keeps cancellation O(1) which matters because protocol
    timers (MAC backoffs, Trickle intervals, CoAP retransmissions) are
    cancelled far more often than they fire.  The owning simulator
    counts cancelled-but-queued events, and a cancel that makes them
    dominate the heap compacts it, so long-lived runs don't drag dead
    entries through every push and pop.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """The simulated time the event fires (or was to fire) at."""
        return self[0]

    @property
    def callback(self) -> Optional[Callable[[], None]]:
        """What the event runs; None once cancelled."""
        return self[3]

    @property
    def fired(self) -> bool:
        """True once the event ran."""
        return self[4] is None and self[3] is not None

    @property
    def cancelled(self) -> bool:
        """True once cancelled before it fired (a cancel after firing
        changes nothing)."""
        return self[3] is None

    @property
    def pending(self) -> bool:
        """True while the event is still going to fire."""
        return self[4] is not None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; safe after firing.

        The cancel that leaves the heap at least half dead compacts it.
        """
        sim = self[4]
        if sim is None:
            return
        self[3] = self[4] = None  # first: compaction keeps live entries only
        dead = sim._cancelled_queued = sim._cancelled_queued + 1
        if dead >= sim._COMPACT_MIN_CANCELLED and dead * 2 >= len(sim._heap):
            sim._compact()


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
        self._heap: List[EventHandle] = []
        self._seq = 0
        #: Current simulated time in seconds.  Only the kernel advances
        #: it; a plain attribute, not a property, because every layer
        #: reads it (over two reads per event) and CPython 3.10/3.11
        #: charge a Python call per property read.
        self.now = 0.0
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._cancelled_queued = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
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
            digest = _md5(f"{self.seed}:{name}".encode()).digest()
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
        # One chained compare: NaN fails it too, and so does inf.
        if not 0.0 <= delay < _INF:
            raise SimTimeError(f"delay {delay!r} must be finite and >= 0")
        self._seq += 1
        handle = EventHandle((self.now + delay, priority, self._seq, callback,
                              self))
        heappush(self._heap, handle)
        return handle

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if not self.now <= time < _INF:  # NaN and inf fail too
            raise SimTimeError(
                f"cannot schedule at {time!r}: must be finite and >= now {self.now}")
        self._seq += 1
        handle = EventHandle((time, priority, self._seq, callback, self))
        heappush(self._heap, handle)
        return handle

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self, until: float = _INF) -> bool:
        """Execute the next pending event if it is due by ``until``.

        Returns False when none remains or the next one lies beyond
        ``until`` (that entry goes back on the heap, unchanged).  One
        pop per event: cancelled entries are dropped on the way.
        """
        heap = self._heap
        while heap:
            handle = heappop(heap)
            callback = handle[3]
            if callback is None:  # cancelled
                self._cancelled_queued -= 1
                continue
            time = handle[0]
            if time > until:
                heappush(heap, handle)
                return False
            self.now = time
            handle[4] = None
            self._events_processed += 1
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` have executed.  An ``until`` before now, NaN or
        infinite raises :class:`SimTimeError`.

        When ``until`` is given, simulated time is advanced to exactly
        ``until`` even if the queue drains earlier, so metrics windows
        have well-defined lengths — unless ``max_events`` stopped the
        run with an event still due by ``until``: the clock then stays
        at the last event fired, since it never runs backwards.
        """
        bound = _INF
        if until is not None:
            if not self.now <= until < _INF:  # NaN and inf fail too
                raise SimTimeError(
                    f"cannot run until {until!r}: must be finite and >= now {self.now}")
            bound = until
        self._stopped = False
        self._running = True
        step = self.step
        limit = _INF if max_events is None else max_events
        executed = 0
        try:
            while executed < limit and step(bound):
                executed += 1
                if self._stopped:
                    break
        finally:
            self._running = False
        if until is not None and not self._stopped and self.now < until:
            next_time = self._peek_time()
            if next_time is None or next_time > until:
                self.now = until

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    def _peek_time(self) -> Optional[float]:
        while self._heap:
            handle = self._heap[0]
            if handle[3] is None:  # cancelled
                heappop(self._heap)
                self._cancelled_queued -= 1
                continue
            return handle[0]
        return None

    # ------------------------------------------------------------------
    # heap hygiene
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Pop order depends only on the ``(time, priority, seq)`` total
        order of the entries, not on the heap's internal layout, so
        compaction cannot change event execution order — determinism
        survives.  Triggered when at least half the heap is dead, which
        bounds amortized cost at O(1) per cancellation.
        """
        self._heap = [entry for entry in self._heap if entry[3] is not None]
        heapify(self._heap)
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
        return f"Simulator(now={self.now:.6f}, pending={self.pending_events})"


class LazyStream:
    """Mixin for a component whose substream may never draw: it sets
    ``_stream`` (the name) and calls :meth:`_draws`, which makes the
    stream at the first draw.  A stream is a pure function of ``(seed,
    name)``, so no draw moves; one that never draws costs a name, not a
    ≈2.5 kB generator."""

    sim: Simulator
    _stream: str
    #: The stream, once drawn from; the class default until then.
    _rng: Optional[random.Random] = None

    def _draws(self) -> random.Random:
        if self._rng is None:
            self._rng = self.sim.substream(self._stream)
        return self._rng
