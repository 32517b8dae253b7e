"""The Trickle timer (RFC 6206) with pluggable adaptation variants.

Trickle is the pacing heart of RPL's DIO beaconing: transmissions slow
down exponentially while the network is consistent and snap back to the
minimum interval on inconsistency, giving both low steady-state overhead
and fast repair — the self-organizing behaviour §V-D credits to sensing
and actuation layer protocols.

The timer itself is a fixed state machine; the *policy* decisions — the
redundancy constant, the reset target, the interval growth — are
delegated to a :class:`TrickleVariant`.  The base variant is classic
RFC 6206 and reproduces the pre-refactor behaviour exactly (same RNG
draws, same event schedule), so runs that never select a variant stay
byte-identical.  The adaptive variants follow the qTrickle/ACPB line of
work: :class:`AdaptiveIminVariant` adapts the effective I_min to the
observed inconsistency load, :class:`AdaptiveKVariant` adapts the
suppression threshold to the observed per-interval redundancy.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Type

from repro.sim.kernel import Simulator
from repro.sim.timers import Timer
from repro.sim.trace import TraceLog

#: AdaptiveIminVariant: each reset multiplies the effective I_min by
#: IMIN_SHRINK, floored at IMIN_FLOOR_FACTOR * imin; IMIN_RELAX_AFTER
#: consecutive quiet intervals double it back toward imin.
IMIN_SHRINK = 0.5
IMIN_FLOOR_FACTOR = 0.25
IMIN_RELAX_AFTER = 2
#: AdaptiveKVariant: the effective k never drops below K_MIN.
K_MIN = 1


class TrickleVariant:
    """Adaptation policy consulted by :class:`TrickleTimer`.

    The base class *is* classic RFC 6206: fixed redundancy constant
    ``k``, reset to the configured I_min, doubling up to I_max.
    Adaptive variants override the decision hooks; the two ``observe_*``
    callbacks feed load signals back into the policy.  Instances are
    stateful and bind to exactly one timer.
    """

    name = "classic"

    def __init__(self) -> None:
        self.timer: Optional["TrickleTimer"] = None

    def bind(self, timer: "TrickleTimer") -> "TrickleVariant":
        """Attach to one timer; returns self for chaining."""
        if self.timer is not None and self.timer is not timer:
            raise ValueError(
                "a TrickleVariant instance binds to exactly one timer; "
                "build a fresh one per timer (see make_trickle_variant)")
        self.timer = timer
        return self

    # -- decision hooks ------------------------------------------------
    def suppression_threshold(self) -> int:
        """Redundancy constant consulted when the fire point arrives."""
        return self.timer.k

    def reset_interval(self) -> float:
        """Target interval for an inconsistency reset."""
        return self.timer.imin

    def next_interval(self, interval: float) -> float:
        """Interval following a completed interval."""
        return min(interval * 2.0, self.timer.imax)

    # -- load feedback -------------------------------------------------
    def observe_reset(self) -> None:
        """An inconsistency was signalled (called before the restart)."""

    def observe_interval_end(self, heard: int) -> None:
        """An interval completed having heard ``heard`` consistent msgs."""


class AdaptiveIminVariant(TrickleVariant):
    """Load-aware I_min adaptation (in the spirit of qTrickle).

    Bursts of inconsistency shrink the *effective* I_min — each reset
    multiplies it by :data:`IMIN_SHRINK`, floored at
    :data:`IMIN_FLOOR_FACTOR` ``* imin`` — so repair traffic reacts
    faster while the topology is churning.  :data:`IMIN_RELAX_AFTER`
    consecutive quiet intervals double it back toward the configured
    I_min, restoring the classic steady-state overhead
    once the network settles.
    """

    name = "adaptive-imin"

    def __init__(self) -> None:
        super().__init__()
        self.imin_eff = 0.0
        self._quiet = 0

    def bind(self, timer: "TrickleTimer") -> "AdaptiveIminVariant":
        super().bind(timer)
        self.imin_eff = timer.imin
        return self

    def reset_interval(self) -> float:
        return self.imin_eff

    def observe_reset(self) -> None:
        self._quiet = 0
        self.imin_eff = max(self.timer.imin * IMIN_FLOOR_FACTOR,
                            self.imin_eff * IMIN_SHRINK)
        self.timer.record_gauge("rpl.trickle.imin_eff_s", self.imin_eff)

    def observe_interval_end(self, heard: int) -> None:
        self._quiet += 1
        if self._quiet >= IMIN_RELAX_AFTER and self.imin_eff < self.timer.imin:
            self._quiet = 0
            self.imin_eff = min(self.timer.imin, self.imin_eff * 2.0)
            self.timer.record_gauge("rpl.trickle.imin_eff_s", self.imin_eff)


class AdaptiveKVariant(TrickleVariant):
    """Suppression-threshold adaptation (in the spirit of ACPB).

    The effective ``k`` tracks observed per-interval redundancy: an
    interval that heard more than ``k_eff`` consistent messages lowers
    it toward :data:`K_MIN` (dense neighborhood — suppress more), one
    that heard fewer than half raises it toward ``k_max`` — twice the
    timer's ``k``, at least ``k + 1`` (sparse — beacon more so coverage
    doesn't starve).
    """

    name = "adaptive-k"

    def __init__(self) -> None:
        super().__init__()
        self.k_eff = 0
        self.k_max = 0

    def bind(self, timer: "TrickleTimer") -> "AdaptiveKVariant":
        super().bind(timer)
        self.k_eff = max(K_MIN, timer.k)
        self.k_max = max(2 * timer.k, timer.k + 1)
        return self

    def suppression_threshold(self) -> int:
        return self.k_eff

    def observe_interval_end(self, heard: int) -> None:
        if heard > self.k_eff and self.k_eff > K_MIN:
            self.k_eff -= 1
            self.timer.record_gauge("rpl.trickle.k_eff", self.k_eff)
        elif heard < max(1, self.k_eff // 2) and self.k_eff < self.k_max:
            self.k_eff += 1
            self.timer.record_gauge("rpl.trickle.k_eff", self.k_eff)


#: name -> variant class, for config-driven selection
#: (``RplConfig(trickle_variant=)``).
TRICKLE_VARIANTS: Dict[str, Type[TrickleVariant]] = {
    TrickleVariant.name: TrickleVariant,
    AdaptiveIminVariant.name: AdaptiveIminVariant,
    AdaptiveKVariant.name: AdaptiveKVariant,
}


def make_trickle_variant(name: str) -> TrickleVariant:
    """Instantiate a registered variant by name (fresh per timer)."""
    try:
        cls = TRICKLE_VARIANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown Trickle variant {name!r}; "
            f"choose from {sorted(TRICKLE_VARIANTS)}") from None
    return cls()


class TrickleTimer:
    """RFC 6206 Trickle.

    Parameters
    ----------
    imin_s:
        Minimum interval length I_min, seconds.
    doublings:
        I_max = I_min * 2**doublings.
    k:
        Redundancy constant; the timer suppresses its transmission when
        it heard >= k consistent messages in the current interval.
    on_transmit:
        Called at the chosen instant t when not suppressed.
    trace / node:
        Optional observability wiring: the per-node interval gauge.  The
        ``rpl.trickle.*`` counters are this timer's tallies, which the
        registry reads through the owning router.
    variant:
        Adaptation policy (default: classic RFC 6206 behaviour).
    """

    def __init__(
        self,
        sim: Simulator,
        imin_s: float,
        doublings: int,
        k: int,
        on_transmit: Callable[[], None],
        rng: Optional[random.Random] = None,
        trace: Optional[TraceLog] = None,
        node: Optional[int] = None,
        variant: Optional[TrickleVariant] = None,
    ) -> None:
        if imin_s <= 0:
            raise ValueError("imin_s must be positive")
        if doublings < 0:
            raise ValueError("doublings must be >= 0")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.sim = sim
        self.imin = imin_s
        self.imax = imin_s * (2**doublings)
        self.k = k
        self.on_transmit = on_transmit
        self._rng = rng if rng is not None else sim.substream("trickle")
        self._trace = trace
        self._node = node
        self.variant = (variant if variant is not None
                        else TrickleVariant()).bind(self)
        self.interval = imin_s
        self.counter = 0
        self._fire_timer = Timer(sim, self._fire)
        self._interval_timer = Timer(sim, self._interval_end)
        self._running = False
        self.transmissions = 0
        self.suppressions = 0
        self.resets = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start at I = I_min (per RFC 6206 §4.2 step 1)."""
        if self._running:
            return
        self._running = True
        self.interval = self.imin
        self._begin_interval()

    def stop(self) -> None:
        """Halt; no transmissions until :meth:`start` again."""
        self._running = False
        self._fire_timer.cancel()
        self._interval_timer.cancel()

    @property
    def running(self) -> bool:
        return self._running

    # ------------------------------------------------------------------
    def hear_consistent(self) -> None:
        """Register a consistent received message (increments c)."""
        self.counter += 1

    def reset(self) -> None:
        """External event: restart at the variant's reset interval."""
        if not self._running:
            return
        self.resets += 1
        self.variant.observe_reset()
        target = self.variant.reset_interval()
        if self.interval > target:
            self.interval = target
            self._begin_interval()
        # RFC 6206: if I is already at the target, do nothing.

    def record_gauge(self, name: str, value: float) -> None:
        """Record a variant-owned gauge (no-op when uninstrumented)."""
        obs = self._trace.obs if self._trace is not None else None
        if obs is not None:
            obs.registry.set(name, value, node=self._node)

    # ------------------------------------------------------------------
    def _begin_interval(self) -> None:
        self.counter = 0
        t = self._rng.uniform(self.interval / 2.0, self.interval)
        self._fire_timer.start(t)
        self._interval_timer.start(self.interval)

    def _fire(self) -> None:
        if self.counter < self.variant.suppression_threshold():
            self.transmissions += 1
            self.on_transmit()
        else:
            self.suppressions += 1

    def _interval_end(self) -> None:
        self.variant.observe_interval_end(self.counter)
        self.interval = self.variant.next_interval(self.interval)
        obs = self._trace.obs if self._trace is not None else None
        if obs is not None:
            obs.registry.set("rpl.trickle.interval_s", self.interval,
                             node=self._node)
        self._begin_interval()
