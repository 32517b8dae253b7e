"""Link-quality models mapping geometry to packet reception probability.

The reproduction's claims (latency per hop, funnel energy drain,
coexistence collapse) are protocol-level, so the physical layer only
needs a credible mapping from distance to packet reception ratio (PRR).
Two models are provided:

- :class:`LogDistanceModel` — log-distance path loss with per-link
  log-normal shadowing and a logistic SNR→PRR curve.  This yields the
  characteristic *transitional region* of real low-power links (Zuniga &
  Krishnamachari), which matters for routing-protocol realism.
- :class:`UnitDiskModel` — idealized binary connectivity for unit tests
  and debugging, where stochastic links would obscure the logic under
  test.

City-scale contract
-------------------
The spatial grid index in :class:`~repro.radio.medium.Medium` relies on
three properties a model may declare *on its own class* (an inherited
definition does not count — a subclass that overrides :meth:`rssi_dbm`
with new semantics silently opts back out of indexing rather than
silently corrupting it):

- ``max_audible_range_m(tx_power_dbm, threshold_dbm)`` — a hard
  geometric bound: no receiver farther away can ever hear the sender at
  or above the threshold.  For :class:`LogDistanceModel` this is exact
  because shadowing draws are clamped to
  ``±SHADOWING_CLAMP_SIGMA * sigma``.
- ``rssi_dbm_batch`` / ``reception_probability_batch`` — vectorized
  evaluation that returns **bit-identical** values to the scalar
  methods for every element.  To make that guarantee, the scalar
  methods route their transcendental math through numpy too (numpy's
  SIMD ``log10``/``exp`` are not bitwise-equal to libm's, but they are
  equal to themselves at every array size).  When numpy is absent both
  paths fall back to ``math`` and remain mutually consistent.

Shadowing is derived per link from a stable hash of
``(model seed, link key)`` — never from a sequentially-consumed RNG —
so the value of a link depends neither on the *order* in which links
are evaluated nor on *whether* any other link ever is.  A
spatially-indexed medium evaluates far fewer (and differently-ordered)
links than a brute-force one; order-free draws are what make the two
produce byte-identical traces.  The model remembers no draw: the
medium's neighborhoods hold every signal strength a run reads twice.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

try:  # numpy is the expected fast path; everything degrades without it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on bare hosts
    _np = None

Position = Tuple[float, float]

#: Shadowing draws are clamped to this many standard deviations.  The
#: clamp is what turns "log-normal shadowing" into a *bounded* audible
#: range, which the medium's grid index needs to be exact; at 4 sigma
#: the truncation affects ~6e-5 of links.
SHADOWING_CLAMP_SIGMA = 4.0

#: Below this many receivers a python loop beats numpy array setup.
_BATCH_MIN = 8


def _link_distance(a: Position, b: Position) -> float:
    """Distance as ``sqrt(dx*dx + dy*dy)``.

    Used by the models instead of ``math.hypot``: ``sqrt``, ``*`` and
    ``+`` are exactly-rounded IEEE operations, so numpy's vectorized
    form produces bit-identical values — ``math.hypot`` does not.
    """
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return math.sqrt(dx * dx + dy * dy)


class LinkQualityModel(Protocol):
    """Interface the medium uses to evaluate links."""

    def rssi_dbm(self, sender: Position, receiver: Position, tx_power_dbm: float) -> float:
        """Received signal strength for a transmission."""
        ...

    def reception_probability(self, rssi_dbm: float) -> float:
        """PRR for a frame arriving at the given signal strength."""
        ...


@dataclass
class LogDistanceModel:
    """Log-distance path loss + shadowing + logistic PRR curve.

    Parameters
    ----------
    path_loss_exponent:
        Environment exponent; 2.0 free space, 3.0–4.0 indoor/industrial.
    reference_loss_db:
        Path loss at the 1 m reference distance.
    shadowing_sigma_db:
        Standard deviation of per-link log-normal shadowing.  Shadowing
        is derived per (sender, receiver) pair from a stable hash of
        the model seed and the link key — order-free, recomputed on
        every evaluation, the model keeps no per-link state — and
        clamped to ``±SHADOWING_CLAMP_SIGMA`` sigmas so audibility has a
        hard geometric bound (see module docstring).
    sensitivity_dbm:
        RSSI at which PRR is 50%.
    transition_width_db:
        Width of the logistic transitional region (dB per PRR decade).
    """

    path_loss_exponent: float = 3.0
    reference_loss_db: float = 40.0
    shadowing_sigma_db: float = 4.0
    sensitivity_dbm: float = -90.0
    transition_width_db: float = 2.5
    seed: int = 0

    def __post_init__(self) -> None:
        #: Re-seeded for every draw: the only state is the generator.
        self._rng = random.Random(0)

    def _link_shadowing_db(self, a: Position, b: Position) -> float:
        key = (a, b) if a <= b else (b, a)  # symmetric links
        # Numeric hashing is deterministic across processes (only
        # str/bytes are salted), so parallel trial workers agree.
        self._rng.seed(hash((self.seed, key)))
        draw = self._rng.gauss(0.0, self.shadowing_sigma_db)
        clamp = SHADOWING_CLAMP_SIGMA * self.shadowing_sigma_db
        return max(-clamp, min(clamp, draw))

    def rssi_dbm(self, sender: Position, receiver: Position, tx_power_dbm: float) -> float:
        d = max(_link_distance(sender, receiver), 1.0)
        log_d = float(_np.log10(d)) if _np is not None else math.log10(d)
        path_loss = self.reference_loss_db + 10.0 * self.path_loss_exponent * log_d
        return tx_power_dbm - path_loss + self._link_shadowing_db(sender, receiver)

    def rssi_dbm_batch(self, sender: Position,
                       receivers: Sequence[Position],
                       tx_power_dbm: float) -> List[float]:
        """Vectorized :meth:`rssi_dbm`; bit-identical to the scalar path."""
        if _np is None or len(receivers) < _BATCH_MIN:
            return [self.rssi_dbm(sender, r, tx_power_dbm) for r in receivers]
        arr = _np.asarray(receivers, dtype=float)
        dx = arr[:, 0] - sender[0]
        dy = arr[:, 1] - sender[1]
        d = _np.maximum(_np.sqrt(dx * dx + dy * dy), 1.0)
        path_loss = (self.reference_loss_db
                     + 10.0 * self.path_loss_exponent * _np.log10(d))
        shadow = _np.fromiter(
            (self._link_shadowing_db(sender, r) for r in receivers),
            dtype=float, count=len(receivers))
        return ((tx_power_dbm - path_loss) + shadow).tolist()

    def reception_probability(self, rssi_dbm: float) -> float:
        x = (rssi_dbm - self.sensitivity_dbm) / self.transition_width_db
        # Clamp to avoid math range errors on extreme links.
        if x > 30:
            return 1.0
        if x < -30:
            return 0.0
        exp = float(_np.exp(-x)) if _np is not None else math.exp(-x)
        return 1.0 / (1.0 + exp)

    def reception_probability_batch(self, rssis: Sequence[float]) -> List[float]:
        """Vectorized :meth:`reception_probability`; bit-identical."""
        if _np is None or len(rssis) < _BATCH_MIN:
            return [self.reception_probability(r) for r in rssis]
        x = (_np.asarray(rssis, dtype=float) - self.sensitivity_dbm) \
            / self.transition_width_db
        prr = 1.0 / (1.0 + _np.exp(-_np.clip(x, -30.0, 30.0)))
        prr = _np.where(x > 30.0, 1.0, _np.where(x < -30.0, 0.0, prr))
        return prr.tolist()

    def max_audible_range_m(self, tx_power_dbm: float,
                            threshold_dbm: float) -> Optional[float]:
        """Distance beyond which no link can reach ``threshold_dbm``.

        Exact because shadowing is clamped: the most favorable link
        gains at most ``SHADOWING_CLAMP_SIGMA * sigma`` dB.
        """
        max_path_loss = (tx_power_dbm - threshold_dbm
                         + SHADOWING_CLAMP_SIGMA * self.shadowing_sigma_db)
        if max_path_loss <= self.reference_loss_db:
            return 1.0
        d = 10.0 ** ((max_path_loss - self.reference_loss_db)
                     / (10.0 * self.path_loss_exponent))
        return max(d, 1.0)


@dataclass
class UnitDiskModel:
    """Binary connectivity: PRR 1 inside ``radius_m``, 0 outside.

    Deliberately unrealistic; used by tests that need deterministic
    topologies, and as the "clean RF" baseline in ablations.  The
    in/out decision compares *squared* distances — exact IEEE
    arithmetic, so the scalar and vectorized paths agree bit-for-bit.
    """

    radius_m: float = 30.0
    tx_power_dbm: float = 0.0

    def rssi_dbm(self, sender: Position, receiver: Position, tx_power_dbm: float) -> float:
        dx = sender[0] - receiver[0]
        dy = sender[1] - receiver[1]
        if dx * dx + dy * dy <= self.radius_m * self.radius_m:
            return -50.0  # comfortably above any sensitivity threshold
        return -200.0

    def rssi_dbm_batch(self, sender: Position,
                       receivers: Sequence[Position],
                       tx_power_dbm: float) -> List[float]:
        if _np is None or len(receivers) < _BATCH_MIN:
            return [self.rssi_dbm(sender, r, tx_power_dbm) for r in receivers]
        arr = _np.asarray(receivers, dtype=float)
        dx = arr[:, 0] - sender[0]
        dy = arr[:, 1] - sender[1]
        inside = (dx * dx + dy * dy) <= self.radius_m * self.radius_m
        return _np.where(inside, -50.0, -200.0).tolist()

    def reception_probability(self, rssi_dbm: float) -> float:
        return 1.0 if rssi_dbm > -100.0 else 0.0

    def reception_probability_batch(self, rssis: Sequence[float]) -> List[float]:
        if _np is None or len(rssis) < _BATCH_MIN:
            return [self.reception_probability(r) for r in rssis]
        return _np.where(_np.asarray(rssis, dtype=float) > -100.0,
                         1.0, 0.0).tolist()

    def max_audible_range_m(self, tx_power_dbm: float,
                            threshold_dbm: float) -> Optional[float]:
        return self.radius_m
