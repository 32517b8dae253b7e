"""Link-quality models mapping geometry to packet reception probability.

The reproduction's claims (latency per hop, funnel energy drain,
coexistence collapse) are protocol-level, so the physical layer only
needs a credible mapping from distance to packet reception ratio (PRR):

- :class:`LogDistanceModel` — log-distance path loss with per-link
  log-normal shadowing and a logistic SNR→PRR curve: the *transitional
  region* of real low-power links (Zuniga & Krishnamachari), which
  matters for routing-protocol realism.
- :class:`UnitDiskModel` — idealized binary connectivity, for tests and
  debugging where stochastic links would obscure the logic under test.

City-scale contract
-------------------
What the spatial index in :class:`~repro.radio.medium.Medium` needs of
a model (DESIGN.md, "Scaling the medium"), declared *on its own class* —
a subclass that overrides :meth:`rssi_dbm` silently opts back out of
indexing rather than silently corrupting it:

- ``max_audible_range_m(tx_power_dbm, threshold_dbm)`` — a hard bound:
  no receiver farther away can hear the sender at the threshold.  Exact
  for :class:`LogDistanceModel` because shadowing draws are clamped to
  ``±SHADOWING_CLAMP_SIGMA * sigma``.
- ``rssi_dbm_batch`` / ``reception_probability_batch`` (optional; only
  :class:`LogDistanceModel` has them) — **bit-identical** to the scalar
  methods, element for element.  Hence its scalar methods take their
  transcendentals through numpy too: numpy's SIMD
  ``log``/``log10``/``exp``/``cos`` differ from libm's in the last bit,
  but a ufunc runs one inner loop whatever the array size.
- Order-free links.  Shadowing is a counter-based draw: each endpoint's
  position — the bit patterns of ``x + 0.0``, ``y + 0.0``, so an ``int``
  keys like its float and ``-0.0`` like ``0.0`` — hashes to one word;
  the two words in numeric order and the model seed are the state of a
  splitmix64 stream whose first two outputs give one clamped normal
  through Box–Muller.  A link's value is symmetric, positional (a moved
  radio draws anew) and independent of which other links are evaluated
  and in what order: an indexed medium evaluates far fewer, differently
  ordered links than a full scan and must produce the same bytes.  The
  model keeps no draw and no generator — the medium's neighborhoods
  hold every signal strength a run reads twice.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as _np

from repro.sim.mix import GOLDEN, MASK64, mix64

Position = Tuple[float, float]

#: Shadowing draws are clamped to this many standard deviations.  The
#: clamp is what turns "log-normal shadowing" into a *bounded* audible
#: range, which the medium's grid index needs to be exact; at 4 sigma
#: the truncation affects ~6e-5 of links.
SHADOWING_CLAMP_SIGMA = 4.0

#: Below this many receivers a python loop beats numpy array setup.
_BATCH_MIN = 8

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53
_pack_floats, _float_bits = struct.Struct("<2d").pack, struct.Struct("<2Q").unpack


def _point_word(p: Position) -> int:
    """One word per position (the batch path is the same two lines)."""
    x, y = _float_bits(_pack_floats(p[0] + 0.0, p[1] + 0.0))
    return (mix64(x) + y) & MASK64


def _link_gauss(seed: int, lo, hi):
    """Standard normal of the link with endpoint words ``lo <= hi``: two
    ints, or an int and a ``uint64`` array — exact integer arithmetic,
    exactly-rounded ``sqrt``/``*``, numpy's ``log``/``cos`` either way."""
    state = mix64(mix64(seed) + lo) + hi + GOLDEN
    u1 = ((mix64(state) >> 11) + 1) * _INV_2_53  # (0, 1]
    u2 = (mix64(state + GOLDEN) >> 11) * _INV_2_53  # [0, 1)
    return _np.sqrt(-2.0 * _np.log(u1)) * _np.cos(_TWO_PI * u2)


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
        Standard deviation of per-link log-normal shadowing: a hash of
        the model seed and the two positions, recomputed on every
        evaluation and clamped to ``±SHADOWING_CLAMP_SIGMA`` sigmas so
        audibility has a hard geometric bound (see module docstring).
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

    def _link_shadowing_db(self, a: Position, b: Position) -> float:
        a, b = _point_word(a), _point_word(b)
        draw = float(_link_gauss(self.seed, min(a, b), max(a, b))) \
            * self.shadowing_sigma_db
        clamp = SHADOWING_CLAMP_SIGMA * self.shadowing_sigma_db
        return max(-clamp, min(clamp, draw))

    def rssi_dbm(self, sender: Position, receiver: Position, tx_power_dbm: float) -> float:
        d = max(_link_distance(sender, receiver), 1.0)
        path_loss = (self.reference_loss_db
                     + 10.0 * self.path_loss_exponent * float(_np.log10(d)))
        return tx_power_dbm - path_loss + self._link_shadowing_db(sender, receiver)

    def rssi_dbm_batch(self, sender: Position,
                       receivers: Sequence[Position],
                       tx_power_dbm: float) -> List[float]:
        """Vectorized :meth:`rssi_dbm`; bit-identical to the scalar path."""
        if len(receivers) < _BATCH_MIN:
            return [self.rssi_dbm(sender, r, tx_power_dbm) for r in receivers]
        arr = _np.asarray(receivers, dtype=float)
        dx = arr[:, 0] - sender[0]
        dy = arr[:, 1] - sender[1]
        d = _np.maximum(_np.sqrt(dx * dx + dy * dy), 1.0)
        path_loss = (self.reference_loss_db
                     + 10.0 * self.path_loss_exponent * _np.log10(d))
        bits = (arr + 0.0).view(_np.uint64)
        words = mix64(bits[:, 0]) + bits[:, 1]
        a = _point_word(sender)
        draw = _link_gauss(self.seed, _np.minimum(words, a),
                           _np.maximum(words, a)) * self.shadowing_sigma_db
        clamp = SHADOWING_CLAMP_SIGMA * self.shadowing_sigma_db
        return ((tx_power_dbm - path_loss)
                + _np.clip(draw, -clamp, clamp)).tolist()

    def reception_probability(self, rssi_dbm: float) -> float:
        x = (rssi_dbm - self.sensitivity_dbm) / self.transition_width_db
        # Clamp to avoid math range errors on extreme links.
        if x > 30:
            return 1.0
        if x < -30:
            return 0.0
        return 1.0 / (1.0 + float(_np.exp(-x)))

    def reception_probability_batch(self, rssis: Sequence[float]) -> List[float]:
        """Vectorized :meth:`reception_probability`; bit-identical."""
        if len(rssis) < _BATCH_MIN:
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
    in/out decision compares *squared* distances, the same exact IEEE
    arithmetic the medium's disc filter uses.  It has no batch methods:
    two comparisons per link lose to numpy's array set-up at every
    neighbourhood size, so the medium calls the scalar methods.
    """

    radius_m: float = 30.0
    tx_power_dbm: float = 0.0

    def rssi_dbm(self, sender: Position, receiver: Position, tx_power_dbm: float) -> float:
        dx = sender[0] - receiver[0]
        dy = sender[1] - receiver[1]
        if dx * dx + dy * dy <= self.radius_m * self.radius_m:
            return -50.0  # comfortably above any sensitivity threshold
        return -200.0

    def reception_probability(self, rssi_dbm: float) -> float:
        return 1.0 if rssi_dbm > -100.0 else 0.0

    def max_audible_range_m(self, tx_power_dbm: float,
                            threshold_dbm: float) -> Optional[float]:
        return self.radius_m
