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
What :class:`~repro.radio.medium.Medium` needs of a model
(:class:`LinkQualityModel`; DESIGN.md, "Scaling the medium"):

- ``max_audible_range_m(tx_power_dbm, threshold_dbm)`` — a hard bound:
  no receiver farther away can hear the sender at the threshold.  Exact
  for :class:`LogDistanceModel` because shadowing draws are clamped to
  ``±SHADOWING_CLAMP_SIGMA * sigma``.  The medium sizes its grid cells
  and cuts each sender's disc with it, and refuses a model whose bound
  at 0 dBm is missing, not finite or not positive.
- ``rssi_dbm(sender, receivers, tx_power_dbm)`` — one sender, a
  ``(k, 2)`` array of receiver positions, ``k`` signal strengths;
  ``reception_probability(rssi)`` — array in, array out.  The medium
  calls each once per neighbourhood, and with a one-row array for a
  single link.  Element *i* depends on receiver *i* alone: numpy runs
  one inner loop whatever the array size, so a link's value does not
  depend on how many others share its call.
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
from typing import Optional, Protocol, Tuple

import numpy as _np

from repro.sim.mix import GOLDEN, MASK64, mix64

Position = Tuple[float, float]

#: Shadowing draws are clamped to this many standard deviations.  The
#: clamp is what turns "log-normal shadowing" into a *bounded* audible
#: range, which the medium's grid index needs to be exact; at 4 sigma
#: the truncation affects ~6e-5 of links.
SHADOWING_CLAMP_SIGMA = 4.0
#: :class:`LogDistanceModel`'s path loss at the 1 m reference distance,
#: read at each evaluation (a test patches it).
REFERENCE_LOSS_DB = 40.0

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53
_pack_floats, _float_bits = struct.Struct("<2d").pack, struct.Struct("<2Q").unpack


def _point_word(p: Position) -> int:
    """The sender's word: what :meth:`LogDistanceModel.rssi_dbm` computes
    for every receiver row, for one position."""
    x, y = _float_bits(_pack_floats(p[0] + 0.0, p[1] + 0.0))
    return (mix64(x) + y) & MASK64


def _link_gauss(seed: int, lo, hi):
    """Standard normal of the links with endpoint words ``lo <= hi``
    (``uint64`` arrays, or an int and an array): exact integer
    arithmetic, exactly-rounded ``sqrt``/``*``, numpy's ``log``/``cos``."""
    state = mix64(mix64(seed) + lo) + hi + GOLDEN
    u1 = ((mix64(state) >> 11) + 1) * _INV_2_53  # (0, 1]
    u2 = (mix64(state + GOLDEN) >> 11) * _INV_2_53  # [0, 1)
    return _np.sqrt(-2.0 * _np.log(u1)) * _np.cos(_TWO_PI * u2)


class LinkQualityModel(Protocol):
    """Interface the medium uses to evaluate links (module docstring)."""

    def max_audible_range_m(self, tx_power_dbm: float,
                            threshold_dbm: float) -> Optional[float]:
        """Distance beyond which no receiver hears ``threshold_dbm``."""

    def rssi_dbm(self, sender: Position, receivers: _np.ndarray,
                 tx_power_dbm: float) -> _np.ndarray:
        """Received signal strength at each ``(k, 2)`` receiver row."""

    def reception_probability(self, rssi: _np.ndarray) -> _np.ndarray:
        """PRR for frames arriving at the given signal strengths."""


@dataclass
class LogDistanceModel:
    """Log-distance path loss + shadowing + logistic PRR curve.

    Parameters
    ----------
    path_loss_exponent:
        Environment exponent; 2.0 free space, 3.0–4.0 indoor/industrial.
        The path loss at 1 m is ``REFERENCE_LOSS_DB``.
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
    shadowing_sigma_db: float = 4.0
    sensitivity_dbm: float = -90.0
    transition_width_db: float = 2.5
    seed: int = 0

    def rssi_dbm(self, sender: Position, receivers: _np.ndarray,
                 tx_power_dbm: float) -> _np.ndarray:
        # ``sqrt(dx*dx + dy*dy)``, not ``hypot``: exactly-rounded IEEE
        # operations, so a distance is the same bits in any company.
        arr = _np.asarray(receivers, dtype=float)
        dx = arr[:, 0] - sender[0]
        dy = arr[:, 1] - sender[1]
        d = _np.maximum(_np.sqrt(dx * dx + dy * dy), 1.0)
        path_loss = (REFERENCE_LOSS_DB
                     + 10.0 * self.path_loss_exponent * _np.log10(d))
        bits = (arr + 0.0).view(_np.uint64)
        words = mix64(bits[:, 0]) + bits[:, 1]
        a = _point_word(sender)
        draw = _link_gauss(self.seed, _np.minimum(words, a),
                           _np.maximum(words, a)) * self.shadowing_sigma_db
        clamp = SHADOWING_CLAMP_SIGMA * self.shadowing_sigma_db
        return (tx_power_dbm - path_loss) + _np.clip(draw, -clamp, clamp)

    def reception_probability(self, rssi: _np.ndarray) -> _np.ndarray:
        x = (_np.asarray(rssi, dtype=float) - self.sensitivity_dbm) \
            / self.transition_width_db
        # Saturate far from the sensitivity: exp would overflow there.
        prr = 1.0 / (1.0 + _np.exp(-_np.clip(x, -30.0, 30.0)))
        return _np.where(x > 30.0, 1.0, _np.where(x < -30.0, 0.0, prr))

    def max_audible_range_m(self, tx_power_dbm: float,
                            threshold_dbm: float) -> Optional[float]:
        """Distance beyond which no link can reach ``threshold_dbm``.

        Exact because shadowing is clamped: the most favorable link
        gains at most ``SHADOWING_CLAMP_SIGMA * sigma`` dB.
        """
        max_path_loss = (tx_power_dbm - threshold_dbm
                         + SHADOWING_CLAMP_SIGMA * self.shadowing_sigma_db)
        if max_path_loss <= REFERENCE_LOSS_DB:
            return 1.0
        d = 10.0 ** ((max_path_loss - REFERENCE_LOSS_DB)
                     / (10.0 * self.path_loss_exponent))
        return max(d, 1.0)


@dataclass
class UnitDiskModel:
    """Binary connectivity: PRR 1 inside ``radius_m``, 0 outside.

    Deliberately unrealistic; used by tests that need deterministic
    topologies, and as the "clean RF" baseline in ablations.  The
    in/out decision compares *squared* distances, the same exact IEEE
    arithmetic the medium's disc filter uses.
    """

    radius_m: float = 30.0

    def rssi_dbm(self, sender: Position, receivers: _np.ndarray,
                 tx_power_dbm: float) -> _np.ndarray:
        arr = _np.asarray(receivers, dtype=float)
        dx = arr[:, 0] - sender[0]
        dy = arr[:, 1] - sender[1]
        # -50 dBm is comfortably above any sensitivity threshold.
        return _np.where(dx * dx + dy * dy <= self.radius_m * self.radius_m,
                         -50.0, -200.0)

    def reception_probability(self, rssi: _np.ndarray) -> _np.ndarray:
        return _np.where(_np.asarray(rssi, dtype=float) > -100.0, 1.0, 0.0)

    def max_audible_range_m(self, tx_power_dbm: float,
                            threshold_dbm: float) -> Optional[float]:
        return self.radius_m
