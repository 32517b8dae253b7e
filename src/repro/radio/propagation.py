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
  sequence of ``k`` receiver positions, a list of ``k`` signal
  strengths; ``reception_probability(rssi)`` — a sequence of strengths
  in, a list of probabilities out.  The medium calls each once per
  neighbourhood, and with a one-element list for a single link.
  Element *i* depends on receiver *i* alone — numpy runs one inner loop
  whatever the array size — so a link's value does not depend on how
  many others share its call.
- Imports.  :class:`UnitDiskModel` is plain Python; numpy is
  :class:`LogDistanceModel`'s private detail, imported inside its two
  methods when it first evaluates links, so a unit-disk run never loads
  it (DESIGN.md, "Cold start").
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
from itertools import chain
from typing import List, Optional, Protocol, Sequence, Tuple

from repro.sim.mix import GOLDEN, MASK64, mix64, mix64_inplace

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
    for every receiver, for one position."""
    x, y = _float_bits(_pack_floats(p[0] + 0.0, p[1] + 0.0))
    return (mix64(x) + y) & MASK64


def _link_gauss(np, seed: int, lo, hi):
    """Standard normal of the links with endpoint words ``lo <= hi``
    (``uint64`` arrays of the numpy module ``np``): exact integer
    arithmetic, exactly-rounded ``sqrt``/``*``, numpy's ``log``/``cos``.

    The splitmix64 stream of each link is ``state = mix64(mix64(seed) +
    lo) + hi + GOLDEN``; its first two outputs, ``mix64(state)`` and
    ``mix64(state + GOLDEN)``, are mixed as the two rows of one array,
    and every step writes over its input: a neighbourhood is a few
    dozen array operations whatever its size."""
    words = np.empty((2, len(lo)), dtype=np.uint64)
    state = words[0]
    np.add(lo, mix64(seed), out=state)
    mix64_inplace(state)
    state += hi
    state += GOLDEN
    np.add(state, GOLDEN, out=words[1])
    mix64_inplace(words)
    words >>= 11
    state += 1
    u = words * _INV_2_53
    u1 = u[0]  # (0, 1]
    u2 = u[1]  # [0, 1)
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= _TWO_PI
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


class LinkQualityModel(Protocol):
    """Interface the medium uses to evaluate links (module docstring)."""

    def max_audible_range_m(self, tx_power_dbm: float,
                            threshold_dbm: float) -> Optional[float]:
        """Distance beyond which no receiver hears ``threshold_dbm``."""

    def rssi_dbm(self, sender: Position, receivers: Sequence[Position],
                 tx_power_dbm: float) -> List[float]:
        """Received signal strength at each receiver position."""

    def reception_probability(self, rssi: Sequence[float]) -> List[float]:
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

    Both evaluations are one vectorised numpy pass, imported here and
    nowhere else under ``repro`` (module docstring, "Imports").
    """

    path_loss_exponent: float = 3.0
    shadowing_sigma_db: float = 4.0
    sensitivity_dbm: float = -90.0
    transition_width_db: float = 2.5
    seed: int = 0

    def rssi_dbm(self, sender: Position, receivers: Sequence[Position],
                 tx_power_dbm: float) -> List[float]:
        import numpy as np
        k = len(receivers)
        xy = np.fromiter(chain.from_iterable(receivers), float,
                         2 * k).reshape(k, 2)
        # ``sqrt(dx*dx + dy*dy)``, not ``hypot``: exactly-rounded IEEE
        # operations, so a distance is the same bits in any company.
        # Each step writes over its input; ``+`` and ``*`` of two floats
        # commute exactly, so ``p *= c`` is ``c * p`` to the bit.
        dx = xy[:, 0] - sender[0]
        dy = xy[:, 1] - sender[1]
        dx *= dx
        dy *= dy
        dx += dy
        d = np.sqrt(dx, out=dx)
        np.maximum(d, 1.0, out=d)
        rssi = np.log10(d, out=d)
        rssi *= 10.0 * self.path_loss_exponent
        rssi += REFERENCE_LOSS_DB  # the path loss
        np.subtract(tx_power_dbm, rssi, out=rssi)
        xy += 0.0  # -0.0 keys like 0.0
        bits = xy.view(np.uint64)
        words = mix64_inplace(bits[:, 0])
        words += bits[:, 1]
        a = np.uint64(_point_word(sender))
        draw = _link_gauss(np, self.seed, np.minimum(words, a),
                           np.maximum(words, a))
        draw *= self.shadowing_sigma_db
        clamp = SHADOWING_CLAMP_SIGMA * self.shadowing_sigma_db
        rssi += draw.clip(-clamp, clamp, out=draw)
        return rssi.tolist()

    def reception_probability(self, rssi: Sequence[float]) -> List[float]:
        import numpy as np
        x = np.array(rssi, dtype=float)
        x -= self.sensitivity_dbm
        x /= self.transition_width_db
        # Saturate far from the sensitivity: exp would overflow there.
        prr = x.clip(-30.0, 30.0)
        np.negative(prr, out=prr)
        np.exp(prr, out=prr)
        prr += 1.0
        np.divide(1.0, prr, out=prr)
        np.putmask(prr, x > 30.0, 1.0)
        np.putmask(prr, x < -30.0, 0.0)
        return prr.tolist()

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
    in/out decision compares *squared* float distances, the same exact
    IEEE arithmetic the medium's disc filter uses.  Plain Python: a
    unit-disk run loads no numpy.
    """

    radius_m: float = 30.0

    def rssi_dbm(self, sender: Position, receivers: Sequence[Position],
                 tx_power_dbm: float) -> List[float]:
        x, y = float(sender[0]), float(sender[1])
        radius = float(self.radius_m)
        r2 = radius * radius
        # -50 dBm is comfortably above any sensitivity threshold.
        return [-50.0 if (dx := rx - x) * dx + (dy := ry - y) * dy <= r2
                else -200.0 for rx, ry in receivers]

    def reception_probability(self, rssi: Sequence[float]) -> List[float]:
        return [1.0 if value > -100.0 else 0.0 for value in rssi]

    def max_audible_range_m(self, tx_power_dbm: float,
                            threshold_dbm: float) -> Optional[float]:
        return self.radius_m
