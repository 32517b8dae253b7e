"""Restartable timers on top of the kernel.

Protocol code wants timers it can arm, re-arm, and cancel by name —
Trickle intervals, MAC wakeups, CoAP retransmissions, watchdogs.  These
wrappers manage the underlying :class:`~repro.sim.kernel.EventHandle`
lifecycle so protocol modules never touch the heap directly.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.sim.kernel import EventHandle, Simulator

#: The substream every :class:`PeriodicTimer` draws its random phase from.
PHASE_STREAM = "periodic-timer"


class Timer:
    """A one-shot, restartable timer.

    Restarting an armed timer cancels the previous deadline — the common
    "push the watchdog" idiom.  The kernel fires the callback itself:
    a fired handle is no longer pending, which is all :attr:`armed`
    needs, so there is no trampoline event in between.
    """

    __slots__ = ("_sim", "_callback", "_handle")

    def __init__(self, sim: Simulator, callback: Callable[[], None]) -> None:
        self._sim = sim
        self._callback = callback
        self._handle: Optional[EventHandle] = None

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now.

        An invalid ``delay`` raises before the old deadline is touched.
        """
        old = self._handle
        self._handle = self._sim.schedule(delay, self._callback)
        if old is not None:
            old.cancel()

    def start_at(self, time: float, priority: int = 0) -> None:
        """(Re)arm the timer for the absolute instant ``time``.

        For deadlines that are a function of something other than the
        arming instant (a slot number times the slot length): ``now +
        (time - now)`` need not round back to ``time``.  An invalid
        ``time`` raises before the old deadline is touched.
        """
        old = self._handle
        self._handle = self._sim.schedule_at(time, self._callback, priority)
        if old is not None:
            old.cancel()

    def cancel(self) -> None:
        """Disarm the timer.  Idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def armed(self) -> bool:
        """True while the timer will still fire (False in its callback)."""
        return self._handle is not None and self._handle.pending

    @property
    def deadline(self) -> Optional[float]:
        """Absolute fire time, or None when disarmed."""
        if self.armed:
            assert self._handle is not None
            return self._handle.time
        return None


class PeriodicTimer:
    """A fixed-period repeating timer with optional random phase.

    The first firing happens after ``phase`` seconds (drawn uniformly in
    ``[0, period)`` from :data:`PHASE_STREAM` when not given, to avoid
    artificial synchronization between nodes — a classic simulation
    artifact this kernel must not exhibit).  A NaN or infinite period or
    phase is refused at construction.
    """

    __slots__ = ("_sim", "_period", "_callback", "_handle", "_running",
                 "_phase")

    def __init__(
        self,
        sim: Simulator,
        period: float,
        callback: Callable[[], None],
        phase: Optional[float] = None,
    ) -> None:
        if not 0.0 < period < math.inf:  # NaN fails too
            raise ValueError(
                f"period must be finite and positive, got {period!r}")
        self._sim = sim
        self._period = period
        self._callback = callback
        self._handle: Optional[EventHandle] = None
        self._running = False
        if phase is None:
            phase = sim.substream(PHASE_STREAM).uniform(0.0, period)
        elif not 0.0 <= phase < math.inf:  # NaN fails too
            raise ValueError(f"phase must be finite and >= 0, got {phase!r}")
        self._phase = phase

    def start(self) -> None:
        """Start the periodic schedule.  Idempotent while running."""
        if self._running:
            return
        self._running = True
        self._handle = self._sim.schedule(self._phase, self._tick)

    def stop(self) -> None:
        """Stop firing.  Idempotent."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        return self._running

    def _tick(self) -> None:
        if not self._running:
            return
        self._handle = self._sim.schedule(self._period, self._tick)
        self._callback()
